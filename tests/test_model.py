import math
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from svlite import model
from svlite.errors import Overflow, SvError, UnsupportedRate
from svlite.model import (
    DatasetSchema,
    Quality,
    SchemaMember,
    Validity,
    quality_from_word,
    quality_word,
    from_engineering,
    to_engineering,
)


class TestScaling:
    def test_height_example(self):
        assert to_engineering(9999, -1) == Decimal("999.9")

    def test_zero(self):
        assert to_engineering(0, -4) == 0

    def test_identity_exponent(self):
        assert to_engineering(123, 0) == 123

    def test_offset_applies_before_scaling(self):
        assert to_engineering(90, -2, 10) == Decimal("1.00")

    def test_positive_exponent(self):
        assert to_engineering(25, 2) == 2500

    def test_inverse_height(self):
        assert from_engineering(Decimal("999.9"), -1, 0, width=2) == 9999

    def test_inverse_zero(self):
        assert from_engineering(0, -3, 0, width=4) == 0

    def test_half_to_even_down(self):
        assert from_engineering(Decimal("22.505"), -2, 0, width=4) == 2250

    def test_half_to_even_up(self):
        assert from_engineering(Decimal("22.515"), -2, 0, width=4) == 2252

    def test_float_uses_shortest_repr(self):
        assert from_engineering(22.505, -2, 0, width=4) == 2250

    def test_offset_subtracted(self):
        assert from_engineering(Decimal("1.00"), -2, 10, width=4) == 90

    def test_overflow(self):
        with pytest.raises(Overflow):
            from_engineering(Decimal("4000.0"), -1, 0, width=2)

    def test_unsigned_range(self):
        assert from_engineering(Decimal("6553.5"), -1, 0, width=2,
                                signed=False) == 65535
        with pytest.raises(Overflow):
            from_engineering(Decimal("-0.1"), -1, 0, width=2, signed=False)

    @given(st.integers(-4, 2), st.integers(-(10 ** 7), 10 ** 7))
    def test_round_trip_at_each_precision(self, scale_factor, raw):
        engineering = to_engineering(raw, scale_factor)
        assert from_engineering(engineering, scale_factor, 0, width=4) == raw

    @pytest.mark.parametrize("x", [
        math.inf, -math.inf, math.nan, Decimal("Infinity"), Decimal("NaN")],
        ids=["inf", "-inf", "nan", "Decimal-inf", "Decimal-nan"])
    def test_non_finite_is_an_overflow(self, x):
        with pytest.raises(Overflow, match="not finite"):
            from_engineering(x, 0, 0, width=4)

    def test_float_off_a_tie_skips_decimal(self, monkeypatch):
        seen = []
        monkeypatch.setattr(model, "Decimal",
                            lambda v: seen.append(v) or Decimal(v))
        assert from_engineering(1.2345678, -3, 0, width=4) == 1235
        assert from_engineering(-7.5e-3, 2, 0, width=4) == 0
        assert seen == []
        assert from_engineering(22.505, -2, 0, width=4) == 2250  # a tie
        assert from_engineering(3, -1, 0, width=4) == 30
        assert seen == ["22.505", 3]


def _outcome(x, *args):
    try:
        return from_engineering(x, *args)
    except Overflow as exc:
        return f"Overflow: {exc}"


@st.composite
def _float_and_scale(draw):
    """A float and an int8 scale factor, half the time in the float path's
    range: any float, or one placed on, or an ulp either side of, a decimal
    tie or ``2**49`` after scaling."""
    scale_factor = draw(st.integers(-22, 22) | st.integers(-128, 127))
    unit = 10.0 ** scale_factor
    k = draw(st.integers(-(10 ** 6), 10 ** 6))
    placed = [float(f"{k}.5e{scale_factor}"), float(f"{k}.5") * unit,
              (2.0 ** 49 + draw(st.integers(-8, 8)) / 8) * unit]
    x = draw(st.one_of(
        st.floats(),
        st.floats(-1e7, 1e7).map(lambda v: v * unit),
        st.sampled_from(placed),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]),
    ))
    step = draw(st.sampled_from([0, 0, 1, -1]))
    if step and math.isfinite(x):
        x = math.nextafter(x, step * math.inf)
    return x, scale_factor


class TestFloatPathParity:
    """The float path of from_engineering against the Decimal path, which a
    Decimal argument always takes. Examples per run come from the active
    hypothesis profile."""

    @given(_float_and_scale(),
           st.integers(-(2 ** 31), 2 ** 31 - 1) | st.integers(-1000, 1000),
           st.sampled_from([2, 4]), st.booleans())
    def test_float_parity_with_decimal_of_repr(self, x_scale, offset, width,
                                               signed):
        x, scale_factor = x_scale
        args = (scale_factor, offset, width, signed)
        assert _outcome(x, *args) == _outcome(Decimal(repr(x)), *args)

    def test_parity_on_ties_at_every_scale(self):
        """Most ties scale onto an exact half, which both paths round to
        even; the few that land an ulp off it must fall back to Decimal."""
        for scale_factor in range(-128, 128):
            for k in [*range(-20, 20), 12345, -99999, 214748364, 10 ** 9 + 7]:
                for tie in (float(f"{k}.5e{scale_factor}"),
                            float(f"{k}.5") * 10.0 ** scale_factor):
                    for x in (math.nextafter(tie, -math.inf), tie,
                              math.nextafter(tie, math.inf)):
                        args = (scale_factor, 0, 4, True)
                        assert (_outcome(x, *args)
                                == _outcome(Decimal(repr(x)), *args))


def _quality_octets(q: Quality) -> bytes:
    """The two octets of a quality word on the wire: zero, then the word."""
    return bytes((0, quality_word(q)))


class TestQuality:
    def test_all_clear(self):
        assert _quality_octets(Quality()) == b"\x00\x00"

    def test_invalid_with_test(self):
        q = Quality(validity=Validity.INVALID, test=True)
        assert _quality_octets(q) == b"\x00\x05"

    def test_questionable(self):
        q = Quality(validity=Validity.QUESTIONABLE, test=False)
        assert _quality_octets(q) == b"\x00\x02"

    def test_injective_over_all_combinations(self):
        seen = set()
        for validity in Validity:
            for test in (False, True):
                seen.add(_quality_octets(Quality(validity, test)))
        assert len(seen) == 6

    def test_decode_inverse(self):
        for validity in Validity:
            for test in (False, True):
                q = Quality(validity, test)
                assert quality_from_word(_quality_octets(q)[1]) == q


class TestDatasetSchema:
    def test_packed_width(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.instMag.i", 4),
            SchemaMember("TCTR1.AmpSv.GeoCrd.H", 2),
        ])
        assert schema.packed_width == 6

    def test_quality_adds_two_octets(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True)])
        assert schema.packed_width == 6

    @given(st.lists(st.tuples(st.sampled_from((2, 4)), st.booleans(), st.booleans()),
                    max_size=40))
    @example([])  # the empty schema
    def test_packed_width_is_the_seq_struct_size(self, layout):
        schema = DatasetSchema(
            SchemaMember(f"TCTR{i}.AmpSv.instMag.i", width, signed=signed,
                         include_quality=quality)
            for i, (width, signed, quality) in enumerate(layout))
        assert schema.packed_width == sum(m.packed_width for m in schema) \
            == schema.seq_struct.size

    def test_one_data_attribute_with_many_leaves(self):
        schema = DatasetSchema([
            SchemaMember("TMGF1.MagFld.instMag.i", 4),
            SchemaMember("TMGF1.MagFld.GeoCrd.B", 4),
            SchemaMember("TMGF1.MagFld.GeoCrd.L", 4),
            SchemaMember("TMGF1.MagFld.GeoCrd.H", 2),
        ])
        assert schema.data_attribute_count == 1

    def test_distinct_data_attributes(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.instMag.i", 4),
            SchemaMember("VCVR1.VolSv.instMag.i", 4),
            SchemaMember("TTMP1.Tmp.instMag.i", 2),
        ])
        assert schema.data_attribute_count == 3

    def test_bare_name_counts_alone(self):
        schema = DatasetSchema([SchemaMember("instMag", 4)])
        assert schema.data_attribute_count == 1

    def test_member_width_validated(self):
        with pytest.raises(ValueError):
            SchemaMember("x", 3)

    def test_iteration_preserves_order(self):
        members = [SchemaMember("a.b", 2), SchemaMember("c.d", 4)]
        assert list(DatasetSchema(members)) == members


class TestRateRule:
    @pytest.mark.parametrize("wrap", [2, 80, 4000, 0x10000])
    def test_wrap_smp_cnt_counts(self, wrap):
        model.check_wrap(wrap)

    @pytest.mark.parametrize("wrap", [-5, 0, 1, 0x10001])
    def test_wrap_smp_cnt_cannot_count(self, wrap):
        with pytest.raises(UnsupportedRate, match="2..65536"):
            model.check_wrap(wrap)

    @pytest.mark.parametrize("hz, points", [(1, 80), (50, 80), (819, 80),
                                            (60, 256), (256, 256)])
    def test_samples_per_second_is_the_product(self, hz, points):
        assert model.samples_per_second(hz, points) == hz * points

    @pytest.mark.parametrize("hz, points, fragment", [
        (50, 100, "points_per_period must be 80 or 256, got 100"),
        (0, 80, "nominal_hz * points_per_period = 0,"),
        (-1, 256, "nominal_hz * points_per_period = -256,"),
        (820, 80, "nominal_hz * points_per_period = 65600,"),
    ])
    def test_samples_per_second_rejects(self, hz, points, fragment):
        with pytest.raises(UnsupportedRate) as excinfo:
            model.samples_per_second(hz, points)
        assert str(excinfo.value).startswith(fragment)

    def test_unsupported_rate_is_a_value_error(self):
        assert issubclass(UnsupportedRate, ValueError)
        assert issubclass(UnsupportedRate, SvError)
