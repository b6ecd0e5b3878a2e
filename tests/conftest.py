from hypothesis import settings

# A long run of the property tests, selected on the command line with
# --hypothesis-profile=long; the default profile is left as it is.
settings.register_profile("long", max_examples=20000, deadline=None)
