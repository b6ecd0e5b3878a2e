"""Exception hierarchy shared by the codec, transport and analysis layers."""


class SvError(Exception):
    """Base class for every error raised by this package."""


class OversizeValue(SvError):
    """A value exceeds the maximum length its container can carry."""


class Truncated(SvError):
    """The buffer ended before the declared structure was complete."""


class UnsupportedLength(SvError):
    """Length octets use a form this codec rejects (indefinite, or more
    than two long-form octets)."""


class Overflow(SvError):
    """An integer does not fit the requested wire width."""


class SchemaMismatch(SvError):
    """Frame content disagrees with the dataset schema or ASDU layout."""


class BadEtherType(SvError):
    """The frame does not carry the sampled-value EtherType."""


class BadHeader(SvError):
    """Fixed header field holds a value strict decoding rejects."""


class LengthMismatch(SvError):
    """A declared length disagrees with the actual content length."""


class UnknownTag(SvError):
    """Strict decoding met a tag it does not recognise."""


class CountMismatch(SvError):
    """An element count disagrees with the announced count."""


class WidthMismatch(SvError):
    """Packed dataset octets do not match the schema width."""


class BadQuality(SvError):
    """A quality word carries validity bits 0b11, which no code uses."""


class UnsupportedRate(SvError, ValueError):
    """Points per period or a smpCnt wrap outside the profile's rate rule."""


class TransportError(SvError):
    """Socket-level failure while publishing or subscribing.

    Carries the publisher/subscriber state accumulated before the failure
    in ``state`` when available.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class ConfigError(SvError):
    """Configuration file could not be parsed or failed validation."""
