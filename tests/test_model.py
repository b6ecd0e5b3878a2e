from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from svlite import model
from svlite.errors import Overflow
from svlite.model import (
    DatasetSchema,
    Quality,
    SchemaMember,
    Validity,
    decode_quality,
    encode_quality,
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


class TestQuality:
    def test_all_clear(self):
        assert encode_quality(Quality()) == b"\x00\x00"

    def test_invalid_with_test(self):
        q = Quality(validity=Validity.INVALID, test=True)
        assert encode_quality(q) == b"\x00\x05"

    def test_questionable(self):
        q = Quality(validity=Validity.QUESTIONABLE, test=False)
        assert encode_quality(q) == b"\x00\x02"

    def test_injective_over_all_combinations(self):
        seen = set()
        for validity in Validity:
            for test in (False, True):
                seen.add(encode_quality(Quality(validity, test)))
        assert len(seen) == 6

    def test_decode_inverse(self):
        for validity in Validity:
            for test in (False, True):
                q = Quality(validity, test)
                assert decode_quality(encode_quality(q)) == q

    def test_decode_rejects_bad_width(self):
        with pytest.raises(ValueError):
            decode_quality(b"\x00")


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
