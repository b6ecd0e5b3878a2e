import pytest
from hypothesis import given, strategies as st

from helpers import reference_tlv
from svlite import ber
from svlite.errors import OversizeValue, Truncated, UnsupportedLength


class TestEncodeTlv:
    """``helpers.reference_tlv``, of which every hand-built test frame is
    made, against octets worked out by hand: the minimal definite length,
    and no TLV at all for a tag or length that does not fit."""

    def test_single_octet_value(self):
        assert reference_tlv(0x80, b"\x01") == b"\x80\x01\x01"

    def test_fourteen_zero_octets(self):
        assert reference_tlv(0x87, bytes(14)) == b"\x87\x0e" + bytes(14)

    def test_long_form_one_octet(self):
        encoded = reference_tlv(0x30, bytes(200))
        assert encoded[:3] == b"\x30\x81\xc8"
        assert len(encoded) == 3 + 200

    def test_long_form_two_octets(self):
        encoded = reference_tlv(0x30, bytes(300))
        assert encoded[:4] == b"\x30\x82\x01\x2c"

    def test_empty_value(self):
        assert reference_tlv(0x85, b"") == b"\x85\x00"

    def test_boundary_127_stays_short_form(self):
        assert reference_tlv(0x30, bytes(127))[:2] == b"\x30\x7f"

    def test_boundary_128_goes_long_form(self):
        assert reference_tlv(0x30, bytes(128))[:3] == b"\x30\x81\x80"

    def test_oversize_value_rejected(self):
        with pytest.raises(ValueError):
            reference_tlv(0x30, bytes(0x10000))

    def test_multi_octet_tag_rejected(self):
        with pytest.raises(ValueError):
            reference_tlv(0x1FF, b"\x00")

    @pytest.mark.parametrize("tag,value", [(-1, b""), (0x100, b"\x00")])
    def test_short_value_keeps_the_tag_check(self, tag, value):
        with pytest.raises(ValueError):
            reference_tlv(tag, value)

    @pytest.mark.parametrize("size", [0, 14, 127, 128, 300])
    @pytest.mark.parametrize("buffer", [bytearray, memoryview])
    def test_any_buffer_encodes_to_bytes(self, buffer, size):
        value = bytes(range(256)) * 2
        encoded = reference_tlv(0x87, buffer(value[:size]))
        assert type(encoded) is bytes
        assert encoded == reference_tlv(0x87, value[:size])


class TestEncodeHeader:
    @pytest.mark.parametrize("length", [0, 1, 127, 128, 255, 256, 0xFFFF])
    def test_is_the_tlv_without_its_value(self, length):
        header = ber.encode_header(0x87, length)
        assert header + bytes(length) == reference_tlv(0x87, bytes(length))

    def test_oversize_rejected(self):
        with pytest.raises(OversizeValue,
                           match="^value of 65536 octets exceeds the 65535-octet cap$"):
            ber.encode_header(0x30, 0x10000)

    @pytest.mark.parametrize("tag", [-1, 0x100])
    def test_multi_octet_tag_rejected(self, tag):
        with pytest.raises(OversizeValue, match="not a single octet"):
            ber.encode_header(tag, 0)


class TestDecodeTlv:
    def test_no_asdu_row(self):
        assert ber.decode_tlv(b"\x80\x01\x01", 0) == (0x80, b"\x01", 3)

    def test_smp_synch_row(self):
        assert ber.decode_tlv(b"\x85\x01\x00", 0) == (0x85, b"\x00", 3)

    def test_declared_length_exceeds_buffer(self):
        with pytest.raises(Truncated):
            ber.decode_tlv(b"\x80\x02\x01", 0)

    def test_cursor_past_buffer(self):
        with pytest.raises(Truncated):
            ber.decode_tlv(b"\x80\x01\x01", 3)

    def test_missing_length_octet(self):
        with pytest.raises(Truncated):
            ber.decode_tlv(b"\x80", 0)

    def test_indefinite_length_rejected(self):
        with pytest.raises(UnsupportedLength):
            ber.decode_tlv(b"\x30\x80\x00\x00", 0)

    def test_three_length_octets_rejected(self):
        with pytest.raises(UnsupportedLength):
            ber.decode_tlv(b"\x30\x83\x00\x00\x01" + bytes(1), 0)

    def test_cursor_offsets(self):
        buf = b"\xff" + reference_tlv(0x82, b"\x00\x01")
        tag, value, after = ber.decode_tlv(buf, 1)
        assert (tag, value, after) == (0x82, b"\x00\x01", len(buf))

    def test_accepts_non_minimal_long_form(self):
        # BER (unlike DER) tolerates 0x81 for short values on the way in.
        assert ber.decode_tlv(b"\x80\x81\x01\x07", 0) == (0x80, b"\x07", 4)


class TestProperties:
    @given(st.integers(0, 0xFF), st.binary(max_size=2000))
    def test_tlv_round_trip(self, tag, value):
        encoded = reference_tlv(tag, value)
        assert ber.decode_tlv(encoded, 0) == (tag, value, len(encoded))

    # Sizes drawn first, so the long forms come up as often as the short one.
    @given(st.integers(0, 0xFF),
           st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
    def test_header_parity_with_reference_tlv(self, tag, value):
        assert ber.encode_header(tag, len(value)) + value == reference_tlv(tag, value)

    @given(st.binary(max_size=300))
    def test_length_octets_minimal(self, value):
        header = ber.encode_header(0x30, len(value))
        if len(value) <= 127:
            assert header[1] == len(value)
        else:
            assert header[1] in (0x81, 0x82)
