import gc
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    GOLDEN_SCHEMA,
    GOLDEN_VALUES,
    GOLDEN_WIRE,
    golden_frame,
    plan_offsets,
    random_valid_frame,
    reference_encode,
    reference_tlv,
    stamp_octets,
    verify_frame_lengths,
)
from svlite import codec
from svlite.codec import (
    Asdu,
    DecodeMode,
    FramePlan,
    SavApdu,
    SmpSynch,
    SvFrame,
    UtcTimestamp,
    VlanTag,
    WARNING_MARK,
    WarningLine,
    decode_frame,
    dissect,
    encode_frame,
    mac_from_str,
    mac_to_str,
    pack_seq_data,
    refr_tm_octets,
    render_dissection,
    unpack_seq_data,
)
from svlite.errors import (
    BadEtherType,
    BadHeader,
    BadQuality,
    CountMismatch,
    LengthMismatch,
    Overflow,
    OversizeValue,
    SchemaMismatch,
    SvError,
    Truncated,
    UnknownTag,
    WidthMismatch,
)
from svlite.model import (
    DatasetSchema,
    Quality,
    SchemaMember,
    Validity,
    quality_from_word,
    quality_word,
)


class TestGoldenFrame:
    def test_byte_exact_encoding(self):
        assert encode_frame(golden_frame(), GOLDEN_SCHEMA) == GOLDEN_WIRE

    def test_frame_is_86_octets_apdu_68(self):
        wire = encode_frame(golden_frame(), GOLDEN_SCHEMA)
        assert len(wire) == 86
        assert len(wire) - 18 == 68

    def test_independent_walker_confirms_all_lengths(self):
        tags = verify_frame_lengths(encode_frame(golden_frame(), GOLDEN_SCHEMA))
        assert tags == [0x60, 0x80, 0xA2, 0x30,
                        0x80, 0x82, 0x83, 0x84, 0x85, 0x87]

    def test_strict_round_trip(self):
        frame = golden_frame()
        assert decode_frame(encode_frame(frame, GOLDEN_SCHEMA)) == frame

    def test_decodes_any_byte_buffer(self):
        for buffer in (bytearray(GOLDEN_WIRE), memoryview(GOLDEN_WIRE)):
            frame = decode_frame(buffer)
            assert frame == golden_frame()
            assert type(frame.apdu.asdus[0].seq_data) is bytes
            assert dissect(buffer) == dissect(GOLDEN_WIRE)

    def test_decoded_field_values(self):
        frame = decode_frame(GOLDEN_WIRE)
        assert mac_to_str(frame.dst_mac) == "18:cc:18:8a:bc:db"
        assert mac_to_str(frame.src_mac) == "b8:27:eb:47:1f:d7"
        assert frame.vlan == VlanTag(priority=4, dei=False, vid=0)
        assert frame.appid == 0x4000
        asdu = frame.apdu.asdus[0]
        assert asdu.sv_id == "xxxxMUnn01"
        assert asdu.smp_cnt == 1
        assert asdu.conf_rev == 1
        assert asdu.refr_tm == UtcTimestamp(0, 0, 0)
        assert asdu.smp_synch is SmpSynch.NONE
        assert unpack_seq_data(asdu.seq_data, GOLDEN_SCHEMA) == [0x1111, 0, 0, 0]


class TestEncodeErrors:
    def test_seq_data_must_match_schema(self):
        frame = golden_frame()
        frame.apdu.asdus[0].seq_data = b""
        with pytest.raises(SchemaMismatch):
            encode_frame(frame, GOLDEN_SCHEMA)

    def test_sv_id_too_long(self):
        frame = golden_frame()
        frame.apdu.asdus[0].sv_id = "x" * 65
        with pytest.raises(OversizeValue):
            encode_frame(frame, GOLDEN_SCHEMA)

    def test_sv_id_64_is_fine(self):
        frame = golden_frame()
        frame.apdu.asdus[0].sv_id = "x" * 64
        assert decode_frame(encode_frame(frame, GOLDEN_SCHEMA)) == frame

    def test_sv_id_must_be_ascii(self):
        frame = golden_frame()
        frame.apdu.asdus[0].sv_id = "mü01"
        with pytest.raises(ValueError):
            encode_frame(frame, GOLDEN_SCHEMA)

    def test_needs_at_least_one_asdu(self):
        frame = golden_frame()
        frame.apdu.asdus = []
        with pytest.raises(ValueError):
            encode_frame(frame, GOLDEN_SCHEMA)

    @pytest.mark.parametrize("appid", [-1, 0x10000, 1.5])
    def test_appid_outside_16_bits(self, appid):
        # A ValueError, as for a bad MAC, rather than a bare struct.error.
        frame = golden_frame()
        frame.appid = appid
        with pytest.raises(ValueError, match="APPID"):
            encode_frame(frame, GOLDEN_SCHEMA)

    @pytest.mark.parametrize("asdus,members", [(252, 41), (234, 46), (210, 54)])
    def test_length_field_overflow(self, asdus, members):
        # Each savPdu is within BER's 0xFFFF cap, but 8 + its size is not.
        schema = DatasetSchema(
            SchemaMember(f"TCTR{i}.AmpSv.instMag.i", 4) for i in range(members))
        frame = golden_frame()
        frame.apdu.asdus = [Asdu("x" * 64, n, seq_data=bytes(schema.packed_width))
                            for n in range(asdus)]
        with pytest.raises(OversizeValue, match="Length field 65539 exceeds 65535"):
            encode_frame(frame, schema)

    @pytest.mark.parametrize("name,value,error,message", [
        ("smp_cnt", -1, ValueError, "smpCnt=-1 outside [0, 65535]"),
        ("smp_cnt", 0x10000, ValueError, "smpCnt=65536 outside [0, 65535]"),
        ("smp_cnt", 1.0, ValueError, "smpCnt must be of type int, got 1.0"),
        ("conf_rev", -1, ValueError, "confRev=-1 outside [0, 4294967295]"),
        ("conf_rev", 2 ** 32, ValueError, "confRev=4294967296 outside [0, 4294967295]"),
        ("smp_synch", 256, ValueError, "smpSynch=256 outside [0, 2]"),
        ("smp_synch", -1, ValueError, "smpSynch=-1 outside [0, 2]"),
        ("refr_tm", None, ValueError, "refrTm must be a UtcTimestamp, got None"),
        ("sv_id", 5, ValueError, "svID must be a non-empty ASCII string, got 5"),
        ("seq_data", b"12", SchemaMismatch, "seqData is 2 octets, schema packs 14"),
    ])
    def test_field_out_of_range_raises_naming_the_field(self, name, value, error,
                                                        message):
        frame = golden_frame()
        setattr(frame.apdu.asdus[0], name, value)
        with pytest.raises(error) as excinfo:
            encode_frame(frame, GOLDEN_SCHEMA)
        assert type(excinfo.value) is error and str(excinfo.value) == message

    @pytest.mark.parametrize("name,value,message", [
        ("dst_mac", "abcdef", "MACs must be bytes of 6 octets, got 'abcdef', {src!r}"),
        ("src_mac", None, "MACs must be bytes of 6 octets, got {dst!r}, None"),
        ("src_mac", bytearray(6), "MACs must be bytes of 6 octets, got {dst!r}, "
                                  "bytearray(b'\\x00\\x00\\x00\\x00\\x00\\x00')"),
        ("vlan", None, "VLAN tag must be a VlanTag, got None"),
        ("seq_data", "x" * 14, "seqData must be octets, got 'xxxxxxxxxxxxxx'"),
    ])
    def test_wrongly_typed_value_raises_value_error(self, name, value, message):
        # Once a bare TypeError or AttributeError from deep in the encoder.
        frame = golden_frame()
        setattr(frame.apdu.asdus[0] if name == "seq_data" else frame, name, value)
        with pytest.raises(ValueError) as excinfo:
            encode_frame(frame, GOLDEN_SCHEMA)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == message.format(dst=frame.dst_mac, src=frame.src_mac)

    def test_an_empty_savpdu_raises(self):
        frame = golden_frame()
        frame.apdu.asdus = []
        with pytest.raises(ValueError, match="savPdu needs at least one ASDU"):
            encode_frame(frame, GOLDEN_SCHEMA)

    @pytest.mark.parametrize("value", ["2", 2.5, True, 3, 255])
    def test_smp_synch_not_an_int_of_0_to_2_raises(self, value):
        # Once "2", 2.5 and True encoded as int(value), and 3-255 encoded
        # into frames that strict decode rejects.
        frame = golden_frame()
        frame.apdu.asdus[0].smp_synch = value
        with pytest.raises(ValueError, match="^smpSynch"):
            encode_frame(frame, GOLDEN_SCHEMA)

    @pytest.mark.parametrize("value", [0, 1, 2])
    def test_smp_synch_int_0_to_2_encodes(self, value):
        frame = golden_frame()
        frame.apdu.asdus[0].smp_synch = value
        wire = encode_frame(frame, GOLDEN_SCHEMA)
        assert wire[-19:-16] == bytes((codec.TAG_SMPSYNCH, 1, value))
        assert decode_frame(wire).apdu.asdus[0].smp_synch is SmpSynch(value)

    @pytest.mark.parametrize("appid", [0, 0xFFFF])
    def test_appid_bounds_encode(self, appid):
        frame = golden_frame()
        frame.appid = appid
        assert decode_frame(encode_frame(frame, GOLDEN_SCHEMA)).appid == appid


class TestMultiAsdu:
    def test_two_asdus_show_in_no_asdu_and_seq(self):
        frame = golden_frame()
        frame.apdu.asdus.append(Asdu(
            sv_id="xxxxMUnn01", smp_cnt=2, conf_rev=1,
            seq_data=pack_seq_data(GOLDEN_VALUES, GOLDEN_SCHEMA)))
        wire = encode_frame(frame, GOLDEN_SCHEMA)
        tags = verify_frame_lengths(wire)
        assert tags.count(0x30) == 2
        # noASDU TLV sits right at the start of savPdu content
        no_asdu_value = wire[26 + 2 + 2]
        assert no_asdu_value == 0x02
        assert decode_frame(wire) == frame


class TestDecodeModes:
    def test_wrong_ethertype(self):
        wire = bytearray(GOLDEN_WIRE)
        wire[16:18] = b"\x08\x00"
        with pytest.raises(BadEtherType):
            decode_frame(bytes(wire))
        with pytest.raises(BadEtherType):
            decode_frame(bytes(wire), DecodeMode.LENIENT)

    def test_missing_vlan_tag_strict_vs_lenient(self):
        untagged = GOLDEN_WIRE[:12] + GOLDEN_WIRE[16:]
        with pytest.raises(BadEtherType):
            decode_frame(untagged)
        frame = decode_frame(untagged, DecodeMode.LENIENT)
        assert frame.apdu.asdus[0].sv_id == "xxxxMUnn01"
        assert any("802.1Q" in w for w in frame.decode_warnings)
        assert frame.vlan == VlanTag(priority=0)

    @given(st.integers(0, 0xFFFF))
    def test_vlan_tag_from_tci_equals_the_checked_one(self, tci):
        tag = VlanTag.from_tci(tci)
        assert tag == VlanTag(tci >> 13, bool(tci & 0x1000), tci & 0x0FFF)
        assert (type(tag.dei), tag.tci) == (bool, tci)
        wire = bytearray(GOLDEN_WIRE)
        wire[14:16] = tci.to_bytes(2, "big")
        assert decode_frame(bytes(wire)).vlan == tag

    @pytest.mark.parametrize("field,value,message", [
        ("priority", 8, "VLAN priority=8 outside [0, 7]"),
        ("priority", -1, "VLAN priority=-1 outside [0, 7]"),
        ("priority", 1.5, "VLAN priority must be of type int, got 1.5"),
        ("priority", True, "VLAN priority must be of type int, got True"),
        ("vid", 0x1000, "VLAN ID=4096 outside [0, 4095]"),
        ("vid", 2.0, "VLAN ID must be of type int, got 2.0"),
        ("dei", 2, "VLAN DEI must be of type bool, got 2"),
        ("dei", -1, "VLAN DEI must be of type bool, got -1"),
        ("dei", 1, "VLAN DEI must be of type bool, got 1"),
    ])
    def test_vlan_tag_rejects_a_field_its_bits_cannot_hold(self, field, value,
                                                           message):
        # Unchecked, dei=2 would put priority 5 on the wire and a float
        # would reach encode_frame and raise a bare TypeError there.
        with pytest.raises(ValueError) as excinfo:
            VlanTag(**{field: value})
        assert str(excinfo.value) == message

    def test_length_field_mismatch(self):
        # The header claims 92 like a sloppy third-party encoder would.
        wire = bytearray(GOLDEN_WIRE)
        wire[20:22] = (92).to_bytes(2, "big")
        with pytest.raises(LengthMismatch):
            decode_frame(bytes(wire))
        frame = decode_frame(bytes(wire), DecodeMode.LENIENT)
        assert frame.apdu.asdus[0].sv_id == "xxxxMUnn01"
        assert len(frame.decode_warnings) == 1
        assert "92" in frame.decode_warnings[0]

    def test_reserved_nonzero(self):
        wire = bytearray(GOLDEN_WIRE)
        wire[23] = 0x01
        with pytest.raises(BadHeader):
            decode_frame(bytes(wire))
        frame = decode_frame(bytes(wire), DecodeMode.LENIENT)
        assert len(frame.decode_warnings) == 1

    @pytest.mark.parametrize("wire,error", [
        (GOLDEN_WIRE[:23] + b"\x01" + GOLDEN_WIRE[24:], BadHeader),
        (GOLDEN_WIRE[:16] + b"\x08\x00" + GOLDEN_WIRE[18:], BadEtherType),
        (GOLDEN_WIRE[:12] + GOLDEN_WIRE[16:], BadEtherType),
    ], ids=["reserved1", "ethertype", "untagged"])
    def test_strict_decode_raises_a_header_fault_before_the_walk(
            self, monkeypatch, wire, error):
        def walk(*_):
            raise AssertionError("strict decode walked past a header fault")
        monkeypatch.setattr(codec, "_walk", walk)
        with pytest.raises(error):
            decode_frame(wire)

    def test_lenient_decode_walks_past_nonzero_reserved_octets(self, monkeypatch):
        walks = []
        walk = codec._walk
        monkeypatch.setattr(codec, "_walk", lambda *args: walks.append(args)
                            or walk(*args))
        wire = GOLDEN_WIRE[:23] + b"\x01" + GOLDEN_WIRE[24:]
        frame = decode_frame(wire, DecodeMode.LENIENT)
        assert len(walks) == 1
        assert frame == golden_frame()
        assert frame.decode_warnings == ("reserved octets nonzero (0x0001 0x0000)",)

    def test_unknown_asdu_tag_skipped_leniently(self):
        # Rebuild the frame with a smpRate-style 0x86 TLV spliced in.
        frame = golden_frame()
        asdu_content = (
            reference_tlv(0x80, b"xxxxMUnn01")
            + reference_tlv(0x82, b"\x00\x01")
            + reference_tlv(0x83, b"\x00\x00\x00\x01")
            + reference_tlv(0x84, bytes(8))
            + reference_tlv(0x85, b"\x00")
            + reference_tlv(0x86, b"\x0f\xa0")
            + reference_tlv(0x87, frame.apdu.asdus[0].seq_data)
        )
        savpdu = reference_tlv(0x60, reference_tlv(0x80, b"\x01")
                               + reference_tlv(0xA2, reference_tlv(0x30, asdu_content)))
        wire = (GOLDEN_WIRE[:18]
                + (0x4000).to_bytes(2, "big")
                + (8 + len(savpdu)).to_bytes(2, "big")
                + bytes(4) + savpdu)
        with pytest.raises(UnknownTag):
            decode_frame(wire)
        lenient = decode_frame(wire, DecodeMode.LENIENT)
        assert lenient.apdu.asdus[0].smp_cnt == 1
        assert any("0x86" in w for w in lenient.decode_warnings)

    def test_no_asdu_count_disagreement(self):
        frame = golden_frame()
        wire = bytearray(encode_frame(frame, GOLDEN_SCHEMA))
        wire[30] = 0x02  # noASDU value octet (savPdu header 26..27, TLV 28..30)
        with pytest.raises(CountMismatch):
            decode_frame(bytes(wire))
        lenient = decode_frame(bytes(wire), DecodeMode.LENIENT)
        assert len(lenient.apdu.asdus) == 1
        assert any("noASDU" in w for w in lenient.decode_warnings)

    def test_truncations_at_every_boundary(self):
        for cut in (0, 5, 13, 17, 20, 25, 40, 85):
            with pytest.raises(Truncated):
                decode_frame(GOLDEN_WIRE[:cut])

    @pytest.mark.parametrize("wire", [GOLDEN_WIRE[:40], GOLDEN_WIRE[:20],
                                      GOLDEN_WIRE + b"\xde\xad"],
                             ids=["overrun", "in-header", "trailing"])
    def test_strict_decode_builds_no_dissect_rows(self, monkeypatch, wire):
        calls = []
        for name in ("_overrun_row", "_warning"):
            def counted(*args, real=getattr(codec, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(codec, name, counted)
        with pytest.raises((Truncated, LengthMismatch)):
            decode_frame(wire)
        assert calls == []
        dissect(wire)  # the counters see the rows dissect shows
        assert "_warning" in calls
        assert ("_overrun_row" in calls) == (wire == GOLDEN_WIRE[:40])

    def test_kept_errors_pin_none_of_the_walker(self):
        # Each fault is raised from decode_frame itself, so a kept error's
        # traceback holds decode_frame's frame and not _inspect's data copy,
        # TLV list, fault list, per-ASDU dicts and closure.
        rng = random.Random(7)
        wires = []
        for _ in range(150):
            wire = bytearray(encode_frame(*random_valid_frame(rng)))
            wires.append(bytes(wire[:rng.randrange(len(wire))]))
            bit = rng.randrange(8 * len(wire))
            wire[bit // 8] ^= 1 << (bit % 8)
            wires.append(bytes(wire))

        def kept_errors():
            kept = []
            for wire in wires:
                try:
                    decode_frame(wire)
                except SvError as exc:
                    kept.append(exc)
            return kept

        kept_errors()  # first-use caches are not what the errors hold
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = kept_errors()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) > 150
        assert retained / len(kept) < 1500

    def test_trailing_garbage(self):
        wire = GOLDEN_WIRE + b"\xde\xad"
        with pytest.raises(LengthMismatch):
            decode_frame(wire)
        frame = decode_frame(wire, DecodeMode.LENIENT)
        assert any("trailing" in w for w in frame.decode_warnings)

    def test_warnings_do_not_break_equality(self):
        wire = bytearray(GOLDEN_WIRE)
        wire[20:22] = (92).to_bytes(2, "big")
        assert decode_frame(bytes(wire), DecodeMode.LENIENT) == golden_frame()

    @pytest.mark.parametrize("mode", [None, "strict", "lenient", 0],
                             ids=["none", "strict-str", "lenient-str", "int"])
    def test_a_mode_that_is_not_a_decode_mode_raises(self, mode):
        # None once meant dissect's listing of every fault, and a string
        # lenient handling of each fault with a lenient reading.
        reserved = GOLDEN_WIRE[:23] + b"\x01" + GOLDEN_WIRE[24:]
        for wire in (GOLDEN_WIRE, b"\0" * 30, reserved):
            with pytest.raises(ValueError, match=f"DecodeMode, got {mode!r}"):
                decode_frame(wire, mode)

    @pytest.mark.parametrize("call", [decode_frame, dissect])
    def test_an_int_is_not_read_as_zero_octets(self, call):
        for value in (0, 3, 86, True):
            with pytest.raises(TypeError):
                call(value)
        assert call(bytearray(GOLDEN_WIRE)) == call(memoryview(GOLDEN_WIRE)) \
            == call(GOLDEN_WIRE)


class TestSeqData:
    def test_pack_table_layout(self):
        packed = pack_seq_data([0x1111, 0, 0, 0], GOLDEN_SCHEMA)
        assert packed.hex() == "0000111100000000000000000000"
        assert len(packed) == 14

    def test_pack_empty(self):
        assert pack_seq_data([], DatasetSchema([])) == b""

    def test_pack_overflow_int16(self):
        schema = DatasetSchema([SchemaMember("TTMP1.Tmp.instMag.i", 2)])
        with pytest.raises(Overflow):
            pack_seq_data([40000], schema)

    def test_pack_count_mismatch(self):
        with pytest.raises(CountMismatch):
            pack_seq_data([1, 2], GOLDEN_SCHEMA)

    def test_unpack_table_layout(self):
        packed = bytes.fromhex("0000111100000000000000000000")
        assert unpack_seq_data(packed, GOLDEN_SCHEMA) == [4369, 0, 0, 0]

    def test_unpack_empty(self):
        assert unpack_seq_data(b"", DatasetSchema([])) == []

    def test_unpack_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            unpack_seq_data(bytes(13), GOLDEN_SCHEMA)

    def test_quality_octets_round_trip(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True),
            SchemaMember("TCTR1.AmpSv.GeoCrd.H", 2),
        ])
        values = [(-5, Quality(Validity.QUESTIONABLE, test=True)), 7]
        packed = pack_seq_data(values, schema)
        assert len(packed) == schema.packed_width == 8
        assert unpack_seq_data(packed, schema) == values

    def test_quality_defaults_good_when_omitted(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True)])
        packed = pack_seq_data([9], schema)
        assert unpack_seq_data(packed, schema) == [(9, Quality())]

    def test_unsigned_member(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.GeoCrd.PDOP", 2, signed=False)])
        packed = pack_seq_data([999], schema)
        assert unpack_seq_data(packed, schema) == [999]


def _pack_reference(values, schema):
    """Member by member with ``int.to_bytes``, apart from ``struct``."""
    out = b""
    for item, member in zip(values, schema):
        value, quality = item if isinstance(item, tuple) else (item, None)
        out += value.to_bytes(member.width, "big", signed=member.signed)
        if member.include_quality:
            out += bytes((0, quality_word(quality or Quality())))
    return out


class TestCompiledSeqData:
    """A value the compiled layout cannot pack raises :class:`Overflow`, or
    ``ValueError`` naming its member, never ``struct.error``."""

    QUALITY = DatasetSchema([
        SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True)])
    MIXED = DatasetSchema([
        SchemaMember("TCTR1.AmpSv.GeoCrd.H", 2),
        SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True),
        SchemaMember("TCTR1.AmpSv.instMag.n", 4),
    ])

    def test_unsigned_4_octet_overflow(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.instMag.i", 4, signed=False)])
        with pytest.raises(Overflow, match="^4294967296 does not fit 4 unsigned octets$"):
            pack_seq_data([2 ** 32], schema)

    def test_negative_on_unsigned_2_octets(self):
        schema = DatasetSchema([
            SchemaMember("TCTR1.AmpSv.GeoCrd.H", 2, signed=False)])
        with pytest.raises(Overflow, match="^-1 does not fit 2 unsigned octets$"):
            pack_seq_data([-1], schema)

    @pytest.mark.parametrize("value", [1.0, None, "1"])
    def test_value_not_an_int_names_the_member(self, value):
        # Once a bare AttributeError, as "'float' object has no attribute
        # 'to_bytes'"; the members before it fit, so the pack reaches it.
        with pytest.raises(ValueError) as excinfo:
            pack_seq_data([7, (8, Quality()), value], self.MIXED)
        assert str(excinfo.value) == \
            f"TCTR1.AmpSv.instMag.n must be of type int, got {value!r}"

    @pytest.mark.parametrize("quality", ["bad", 3, Validity.INVALID],
                             ids=["str", "int", "validity"])
    def test_quality_not_a_quality_names_the_member(self, quality):
        # Once a bare AttributeError from quality_word, as "'str' object
        # has no attribute 'validity'"; None still packs as good.
        with pytest.raises(ValueError) as excinfo:
            pack_seq_data([(1, quality)], self.QUALITY)
        assert str(excinfo.value) == \
            f"TCTR1.AmpSv.instMag.i quality must be a Quality, got {quality!r}"
        assert pack_seq_data([(1, None)], self.QUALITY) \
            == pack_seq_data([(1, Quality())], self.QUALITY)

    def test_wrong_value_count(self):
        with pytest.raises(CountMismatch):
            pack_seq_data([1, 2, 3, 4, 5], GOLDEN_SCHEMA)

    def test_wrong_width(self):
        with pytest.raises(WidthMismatch):
            unpack_seq_data(bytes(15), GOLDEN_SCHEMA)

    def test_undefined_validity(self):
        with pytest.raises(BadQuality):
            unpack_seq_data(bytes.fromhex("000000070003"), self.QUALITY)

    def test_quality_high_octet_is_ignored(self):
        word = bytes.fromhex("ff06")
        assert unpack_seq_data(bytes.fromhex("00000007") + word, self.QUALITY) \
            == [(7, quality_from_word(word[1]))] \
            == [(7, Quality(Validity.QUESTIONABLE, test=True))]

    def test_quality_word_over_one_octet(self):
        with pytest.raises(ValueError, match="^TCTR1.AmpSv.instMag.i quality word 300 "
                                             "does not fit one octet$"):
            pack_seq_data([(7, Quality(validity=300))], self.QUALITY)

    def test_layout_is_built_once_per_schema(self):
        schema = DatasetSchema(GOLDEN_SCHEMA.members)
        assert schema.seq_struct is schema.seq_struct
        assert schema.seq_struct.format == ">iiih"
        assert self.QUALITY.seq_struct.size == self.QUALITY.packed_width == 6

    def test_matches_member_by_member_packing(self):
        rng = random.Random(9)
        for _ in range(200):
            frame, schema = random_valid_frame(rng)
            for asdu in frame.apdu.asdus:
                values = unpack_seq_data(asdu.seq_data, schema)
                assert _pack_reference(values, schema) == asdu.seq_data
                assert pack_seq_data(values, schema) == asdu.seq_data


def carries_fixed_octets(plan, datagram) -> bool:
    """The analyzer's check for a datagram to read by the plan."""
    return (len(datagram) == plan.fixed.size
            and plan.fixed.unpack(datagram) == plan.fixed_octets)


# A member with its quality word beside one without.
QUALITY_WORD_SCHEMA = DatasetSchema([
    SchemaMember("TCTR1.AmpSv.instMag.i", 4, include_quality=True),
    SchemaMember("TCTR1.AmpSv.instMag.n", 2),
])


class TestFramePlan:
    def test_golden_value_offsets(self):
        # smpCnt value after savPdu(2) noASDU(3) seqASDU(2) ASDU(2) svID(12)
        # and its own header(2); seqData runs to the end of the frame
        plan = FramePlan(GOLDEN_WIRE, GOLDEN_SCHEMA)
        assert plan_offsets(plan) == (49, 59, 72, 86)
        assert [len(part) for part in plan.parts] == [49, 2, 8, 8, 5, 14, 0]

    def test_patched_fields_still_match(self):
        plan = FramePlan(GOLDEN_WIRE, GOLDEN_SCHEMA)
        wire = bytearray(GOLDEN_WIRE)
        smp_cnt, refr_tm, seq_start, seq_end = plan_offsets(plan)
        wire[smp_cnt:smp_cnt + 2] = b"\xff\xff"
        wire[refr_tm:refr_tm + 8] = bytes(range(8))
        wire[seq_start:seq_end] = bytes(range(seq_end - seq_start))
        assert carries_fixed_octets(plan, bytes(wire))
        assert carries_fixed_octets(plan, memoryview(wire))

    def test_any_fixed_octet_or_length_change_misses(self):
        plan = FramePlan(GOLDEN_WIRE, GOLDEN_SCHEMA)
        smp_cnt, refr_tm, seq_start, seq_end = plan_offsets(plan)
        variable = {*range(smp_cnt, smp_cnt + 2), *range(refr_tm, refr_tm + 8),
                    *range(seq_start, seq_end)}
        for index in range(len(GOLDEN_WIRE)):
            wire = bytearray(GOLDEN_WIRE)
            wire[index] ^= 0x01
            assert carries_fixed_octets(plan, bytes(wire)) == (index in variable), index
        assert not carries_fixed_octets(plan, GOLDEN_WIRE[:-1])
        assert not carries_fixed_octets(plan, GOLDEN_WIRE + b"\x00")

    @pytest.mark.parametrize("layout", ["golden", "quality words"])
    def test_parts_cut_the_frame_at_its_changing_octets(self, layout):
        schema = {"golden": GOLDEN_SCHEMA, "quality words": QUALITY_WORD_SCHEMA}[layout]
        frame = golden_frame()
        frame.apdu.asdus[0].seq_data = bytes(range(1, schema.packed_width + 1))
        wire = encode_frame(frame, schema)
        plan = FramePlan(wire, schema)
        assert b"".join(plan.parts) == wire
        smp_cnt, refr_tm, start, end = plan_offsets(plan)
        assert plan.parts[1::2] == (
            wire[smp_cnt:smp_cnt + 2], wire[refr_tm:refr_tm + 8], wire[start:end])
        assert end == len(wire) and plan.parts[5] == frame.apdu.asdus[0].seq_data

    def test_reader_of_the_profile_frame_is_one_unpack(self):
        # Pad to smpCnt, read it, pad to seqData, read its members.
        read = FramePlan(GOLDEN_WIRE, GOLDEN_SCHEMA).read
        assert read.__self__.format == ">49xH21xiiih0x"
        assert read(GOLDEN_WIRE) == (1, *GOLDEN_VALUES)

    def test_reader_reads_quality_words_in_place(self):
        frame = golden_frame()
        frame.apdu.asdus[0].seq_data = pack_seq_data(
            [(7, Quality(Validity.QUESTIONABLE)), -2], QUALITY_WORD_SCHEMA)
        wire = encode_frame(frame, QUALITY_WORD_SCHEMA)
        read = FramePlan(wire, QUALITY_WORD_SCHEMA).read
        assert read.__self__.format == ">49xH21xixBh0x"
        assert read(wire) == (1, 7, 0x02, -2)

    def test_no_reader_for_two_asdus(self):
        # The profile's frame carries one ASDU; the encoder writes more,
        # but no plan reads or publishes them.
        frame = golden_frame()
        frame.apdu.asdus.append(Asdu(
            sv_id="x", smp_cnt=2, seq_data=frame.apdu.asdus[0].seq_data))
        with pytest.raises(SchemaMismatch,
                           match="2 ASDUs, the profile's frame carries one"):
            FramePlan(encode_frame(frame, GOLDEN_SCHEMA), GOLDEN_SCHEMA)

    def test_no_reader_for_another_width(self):
        narrow = DatasetSchema([SchemaMember("TCTR1.AmpSv.instMag.i", 4)])
        with pytest.raises(WidthMismatch, match="seqData is 14 octets, schema packs 4"):
            FramePlan(GOLDEN_WIRE, narrow)

    def test_no_reader_for_seq_data_before_smp_cnt(self):
        # The golden ASDU with seqData moved in front of svID: strict
        # decoding reads it, but the encoder never writes it, so it has no
        # plan and no reader.
        wire = GOLDEN_WIRE[:35] + GOLDEN_WIRE[70:] + GOLDEN_WIRE[35:70]
        assert decode_frame(wire) == golden_frame()
        with pytest.raises(SchemaMismatch,
                           match="the ASDU is not laid out as the encoder writes it"):
            FramePlan(wire, GOLDEN_SCHEMA)


# Valid frames of one to three ASDUs, each with its schema.
valid_frames = st.integers(0, 2 ** 64 - 1).map(
    lambda seed: random_valid_frame(random.Random(seed)))


@st.composite
def wide_frames(draw):
    """Frames of up to 80 members and 255 ASDUs whose Length field fits:
    an ASDU takes at most 97 octets beside a seqData of 6 per member, and
    the savPdu 19 more. They reach the 0x81 and 0x82 length forms at ASDU,
    seqASDU and savPdu level."""
    members = draw(st.integers(1, 80))
    asdus = draw(st.integers(1, min(255, (0xFFFF - 19) // (97 + 6 * members))))
    return random_valid_frame(random.Random(draw(st.integers(0, 2 ** 64 - 1))),
                              members, asdus)


@settings(deadline=None)
@given(st.one_of(valid_frames, wide_frames()))
def test_encode_parity_with_reference(frame_and_schema):
    frame, schema = frame_and_schema
    assert encode_frame(frame, schema) == reference_encode(frame, schema)


# One ASDU field at a time, with a value of another type or outside what
# its field holds, or for smpSynch a plain int of 3-255, which fits its
# octet but not strict decode.
_OUT_OF_RANGE = st.one_of(
    st.tuples(st.just("smp_cnt"), st.integers(max_value=-1)
              | st.integers(min_value=0x10000) | st.floats() | st.none()),
    st.tuples(st.just("conf_rev"), st.integers(max_value=-1)
              | st.integers(min_value=2 ** 32) | st.floats() | st.none()),
    st.tuples(st.just("smp_synch"), st.integers(min_value=256)
              | st.integers(max_value=-1) | st.integers(3, 255)),
    st.tuples(st.just("refr_tm"), st.none() | st.integers() | st.binary(max_size=8)
              | st.tuples(st.integers(0, 9), st.integers(0, 9))),
    st.tuples(st.just("sv_id"), st.sampled_from(["", "x" * 65])
              | st.text(min_size=1, max_size=64).filter(lambda t: not t.isascii())
              | st.binary(min_size=1, max_size=64) | st.integers()),
    st.tuples(st.just("seq_data"), st.binary(max_size=40) | st.text(max_size=40)),
)
_FIELD_NAMES = {"smp_cnt": "smpCnt", "conf_rev": "confRev", "smp_synch": "smpSynch",
                "refr_tm": "refrTm", "sv_id": "svID", "seq_data": "seqData"}


@settings(deadline=None)
@given(valid_frames, st.integers(0, 2), _OUT_OF_RANGE)
def test_field_mutation_raises_naming_the_field(frame_and_schema, which, field):
    """Encode checks each field where it enters, so a bad value raises
    ``ValueError`` or an ``SvError`` naming its field, never an error of
    the struct pack or of a missing attribute."""
    frame, schema = frame_and_schema
    name, value = field
    if name == "seq_data" and len(value) == schema.packed_width \
            and isinstance(value, bytes):
        value += b"\0"
    asdus = frame.apdu.asdus
    setattr(asdus[which % len(asdus)], name, value)
    with pytest.raises((ValueError, SvError)) as excinfo:
        encode_frame(frame, schema)
    assert _FIELD_NAMES[name] in str(excinfo.value)
    if name == "smp_synch":
        assert str(excinfo.value) == f"smpSynch={value} outside [0, 2]"


def _edge_frame(sv_id: str, width: int, asdus: int = 1):
    """A frame of ``asdus`` ASDUs with ``sv_id`` and ``width`` seqData
    octets, and a schema stand-in of that packed width: encoding reads
    only ``packed_width``, and member widths give only even ones."""
    frame = golden_frame()
    frame.apdu.asdus = [Asdu(sv_id, n, 7, UtcTimestamp(n, n, n), SmpSynch.LOCAL,
                             bytes(i % 256 for i in range(width)))
                        for n in range(asdus)]
    return frame, SimpleNamespace(packed_width=width)


class TestLengthFormEdges:
    """Byte parity with the reference encoder where a BER length changes
    form: an ASDU body is 27 + svID + seqData octets below 128 seqData
    octets, and 28 + svID + seqData from there."""

    @pytest.mark.parametrize("sv_id,width", [
        ("x" * 64, 14),  # the longest svID
        ("x" * 64, 127), ("x" * 64, 128), ("x" * 64, 255), ("x" * 64, 256),
        ("x" * 64, 36), ("x" * 64, 37),  # ASDU body of 127 and 128 octets
        ("x" * 64, 163), ("x" * 64, 164),  # ASDU body of 255 and 256 octets
        ("x", 99), ("x", 100), ("x", 226), ("x", 227),
    ])
    def test_one_asdu(self, sv_id, width):
        frame, schema = _edge_frame(sv_id, width)
        wire = encode_frame(frame, schema)
        assert wire == reference_encode(frame, schema)
        assert verify_frame_lengths(wire)

    @pytest.mark.parametrize("asdus", [1, 2, 127, 128, 255])
    def test_asdu_count(self, asdus):
        frame, schema = _edge_frame("x" * 64, 14, asdus)
        wire = encode_frame(frame, schema)
        assert wire == reference_encode(frame, schema)
        assert decode_frame(wire).apdu.asdus == frame.apdu.asdus


@settings(deadline=None)
@given(valid_frames)
def test_plan_parity_with_the_walk(frame_and_schema):
    """Every one-ASDU frame the encoder writes has a plan in its schema:
    its cut rejoins to the frame, holds in parts 1, 3 and 5 the octets
    that decoding reads, and its read reads what decoding reads. A frame
    of more ASDUs has none."""
    frame, schema = frame_and_schema
    wire = encode_frame(frame, schema)
    asdus = decode_frame(wire).apdu.asdus
    if len(asdus) != 1:
        with pytest.raises(SchemaMismatch, match=f"{len(asdus)} ASDUs"):
            FramePlan(wire, schema)
        return
    asdu, = asdus
    plan = FramePlan(wire, schema)
    assert b"".join(plan.parts) == wire
    assert plan.parts[1::2] == (
        asdu.smp_cnt.to_bytes(2, "big"), stamp_octets(asdu.refr_tm), asdu.seq_data)
    assert carries_fixed_octets(plan, wire)
    assert plan.read(wire) == (asdu.smp_cnt, *schema.seq_struct.unpack(asdu.seq_data))


def _outcomes(wire: bytes) -> list:
    """All that dissect, render and both decode modes make of ``wire``:
    each row with its warning flag, the text, and each mode's frame and
    warnings or error class and message."""
    rows = dissect(wire)
    outcomes = [[(isinstance(row, WarningLine), tuple(row)) for row in rows],
                render_dissection(rows)]
    for mode in DecodeMode:
        try:
            frame = decode_frame(wire, mode)
            outcomes.append((frame, frame.decode_warnings))
        except SvError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def assert_read_parity(wire: bytes) -> int:
    """Assert that the walk gives the same outcomes when it reads no ASDU
    in one unpack; return how many it read."""
    read = _outcomes(wire)
    with mock.patch.object(codec, "_read_asdu", lambda *_: None):
        walked = _outcomes(wire)
        assert not any(rows is None for rows, _ in codec._inspect(wire)[3])
    assert read == walked
    return sum(rows is None for rows, _ in codec._inspect(wire)[3])


def _mutated(seed: int, flips: list, cut) -> tuple:
    """A random valid frame, its schema, and its wire with ``flips`` bits
    flipped and cut at ``cut`` (each taken modulo the wire's size)."""
    frame, schema = random_valid_frame(random.Random(seed))
    wire = bytearray(encode_frame(frame, schema))
    for bit in flips:
        bit %= 8 * len(wire)
        wire[bit >> 3] ^= 0x80 >> (bit & 7)
    if cut is not None:
        wire = wire[:cut % (len(wire) + 1)]
    return frame, schema, bytes(wire)


_mutations = dict(seed=st.integers(0, 2 ** 64 - 1),
                  flips=st.lists(st.integers(0, 2 ** 16), max_size=3),
                  cut=st.none() | st.integers(0, 2 ** 16))


@settings(deadline=None)
@given(**_mutations)
def test_asdu_read_parity_with_the_tlv_walk(seed, flips, cut):
    """Valid frames, and copies with flipped bits or cut short: reading an
    ASDU with one unpack changes no row, text or decode outcome."""
    frame, _, wire = _mutated(seed, flips, cut)
    reads = assert_read_parity(wire)
    if not flips and cut is None:
        assert reads == len(frame.apdu.asdus)


@settings(deadline=None)
@given(**_mutations)
def test_frame_plan_parity_with_strict_decode(seed, flips, cut):
    """Valid frames, and copies with flipped bits or cut short, planned
    in their schema as :func:`assert_plan_rule` states."""
    _, schema, wire = _mutated(seed, flips, cut)
    assert_plan_rule(wire, schema)


def assert_plan_rule(wire: bytes, schema=GOLDEN_SCHEMA) -> None:
    """Assert that ``wire`` has a plan in ``schema`` exactly when strict
    decoding reads one ASDU, in one unpack, whose seqData has the schema's
    width; the plan then reads what decoding reads. A frame strict
    decoding rejects raises that ``SvError``, class and message; one of
    another ASDU count or layout ``SchemaMismatch``, and one of another
    seqData width ``WidthMismatch``."""
    try:
        asdus = decode_frame(wire).apdu.asdus
    except SvError as exc:
        with pytest.raises(type(exc)) as raised:
            FramePlan(wire, schema)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    if len(asdus) != 1:
        error, message = SchemaMismatch, f"{len(asdus)} ASDUs, the profile's"
    elif codec._inspect(wire)[3][0][0] is not None:  # a walked ASDU
        error, message = SchemaMismatch, "not laid out as the encoder writes it"
    elif len(asdus[0].seq_data) != schema.packed_width:
        error, message = WidthMismatch, f"seqData is {len(asdus[0].seq_data)} octets"
    else:
        asdu, = asdus
        assert FramePlan(wire, schema).read(wire) == (
            asdu.smp_cnt, *schema.seq_struct.unpack(asdu.seq_data))
        return
    with pytest.raises(error, match=message):
        FramePlan(wire, schema)


def _fields(sv_id=b"xxxxMUnn01", smp_synch=b"\0", seq_data=bytes(14)) -> list:
    """The golden ASDU's field TLVs with the given values."""
    return [reference_tlv(0x80, sv_id), reference_tlv(0x82, b"\x00\x01"),
            reference_tlv(0x83, b"\0\0\0\1"), reference_tlv(0x84, bytes(range(8))),
            reference_tlv(0x85, smp_synch), reference_tlv(0x87, seq_data)]


def _wire_of(*asdus: list) -> bytes:
    """The golden link header and a savPdu of one ASDU per field list."""
    seq_asdu = b"".join(reference_tlv(0x30, b"".join(fields)) for fields in asdus)
    savpdu = reference_tlv(0x60, reference_tlv(0x80, bytes([len(asdus)]))
                           + reference_tlv(0xA2, seq_asdu))
    return GOLDEN_WIRE[:20] + (8 + len(savpdu)).to_bytes(2, "big") + bytes(4) + savpdu


_GOLDEN_FIELDS = _fields()
_SEQ_VALUE = bytes(range(1, 15))

# ASDU field lists, and whether the walk reads the ASDU in one unpack.
_HAND_BUILT = {
    "golden": (_GOLDEN_FIELDS, True),
    "empty svID": (_fields(sv_id=b""), True),
    "64-char svID": (_fields(sv_id=b"x" * 64), True),
    "65-char svID": (_fields(sv_id=b"x" * 65), False),
    "127-char svID": (_fields(sv_id=b"x" * 127), False),
    "128-char svID": (_fields(sv_id=b"x" * 128), False),
    "non-ASCII svID": (_fields(sv_id="MU\u00e9".encode()), False),
    "smpSynch 2": (_fields(smp_synch=b"\x02"), True),
    "smpSynch 3": (_fields(smp_synch=b"\x03"), False),
    "smpSynch of 2 octets": (_fields(smp_synch=b"\x00\x01"), False),
    "out of order": ([_GOLDEN_FIELDS[i] for i in (0, 2, 1, 3, 4, 5)], False),
    "seqData first": ([_GOLDEN_FIELDS[i] for i in (5, 0, 1, 2, 3, 4)], False),
    "duplicated": (_GOLDEN_FIELDS[:2] + _GOLDEN_FIELDS[1:], False),
    "duplicated seqData": (_GOLDEN_FIELDS + _GOLDEN_FIELDS[5:], False),
    "missing": (_GOLDEN_FIELDS[:3] + _GOLDEN_FIELDS[4:], False),
    "extra tag": (_GOLDEN_FIELDS[:5] + [reference_tlv(0x86, b"\x0f\xa0")]
                  + _GOLDEN_FIELDS[5:], False),
    "trailing tag": (_GOLDEN_FIELDS + [reference_tlv(0x86, b"")], False),
    **{f"seqData of {size}": (_fields(seq_data=bytes(size)), True)
       for size in (0, 1, 127, 128, 255, 256, 1000)},
    "seqData 0x81 0x0e": (_GOLDEN_FIELDS[:5] + [b"\x87\x81\x0e" + bytes(14)], False),
    "seqData 0x81 0x05": (
        _GOLDEN_FIELDS[:5] + [b"\x87\x81\x05" + _SEQ_VALUE[:5]], False),
    "seqData 0x82 0x00 0x05": (
        _GOLDEN_FIELDS[:5] + [b"\x87\x82\x00\x05" + _SEQ_VALUE[:5]], False),
    "seqData 0x82 0x00 0x80": (
        _GOLDEN_FIELDS[:5] + [b"\x87\x82\x00\x80" + bytes(128)], False),
    "seqData 0x83": (_GOLDEN_FIELDS[:5] + [b"\x87\x83\x00\x00\x05" + _SEQ_VALUE[:5]],
                     False),
    "seqData indefinite": (_GOLDEN_FIELDS[:5] + [b"\x87\x80" + _SEQ_VALUE], False),
    "svID 0x81 0x0a": ([b"\x80\x81\x0a" + b"xxxxMUnn01"] + _GOLDEN_FIELDS[1:], False),
    # Read as a short form, 0x81 would put the struct 131 octets on, after
    # ASCII octets only: where this ASDU has it, past an unknown tag.
    "svID 0x81 0x0a, then 129 octets on": (
        [b"\x80\x81\x0a" + b"xxxxMUnn01", b"\x41\x74" + b"A" * 116]
        + _GOLDEN_FIELDS[1:], False),
    "smpCnt 0x81 0x02": (_GOLDEN_FIELDS[:1] + [b"\x82\x81\x02\x00\x01"]
                         + _GOLDEN_FIELDS[2:], False),
    "seqData overruns the ASDU": (
        _GOLDEN_FIELDS[:5] + [b"\x87\x10" + _SEQ_VALUE], False),
    "seqData stops short": (_GOLDEN_FIELDS[:5] + [b"\x87\x0c" + _SEQ_VALUE], False),
    "seqData header cut": (_GOLDEN_FIELDS[:5] + [b"\x87"], False),
    "seqData length octets cut": (_GOLDEN_FIELDS[:5] + [b"\x87\x82\x00"], False),
    "no seqData": (_GOLDEN_FIELDS[:5], False),
    "empty": ([], False),
}


@pytest.mark.parametrize("name", _HAND_BUILT)
def test_asdu_read_parity_on_hand_built_asdus(name):
    """Each hand-built ASDU alone and beside the golden one, before and
    after it: the walk reads it in one unpack only when laid out exactly
    as encode writes it, the outcomes equal the per-TLV walk's, and the
    frame is planned as :func:`assert_plan_rule` states."""
    fields, read = _HAND_BUILT[name]
    wires = _wire_of(fields), _wire_of(_GOLDEN_FIELDS, fields), \
        _wire_of(fields, _GOLDEN_FIELDS)
    assert assert_read_parity(wires[0]) == read
    assert assert_read_parity(wires[1]) == 1 + read
    assert assert_read_parity(wires[2]) <= 1 + read
    for wire in wires:
        assert_plan_rule(wire)


@pytest.mark.parametrize("name", ["out of order", "seqData 0x81 0x0e"])
def test_a_layout_the_encoder_never_writes_has_no_plan(name):
    """Fields reordered, or seqData's length in a long form: strict
    decoding reads the golden ASDU, but it has no plan, alone or after a
    golden ASDU."""
    fields = _HAND_BUILT[name][0]
    assert decode_frame(_wire_of(fields)) == decode_frame(_wire_of(_GOLDEN_FIELDS))
    for message, wire in (("the ASDU is not laid out", _wire_of(fields)),
                          ("2 ASDUs", _wire_of(_GOLDEN_FIELDS, fields))):
        with pytest.raises(SchemaMismatch, match=message):
            FramePlan(wire, GOLDEN_SCHEMA)


@pytest.mark.parametrize("wire, error, message", [
    (GOLDEN_WIRE[:-1], Truncated,
     "tag 0x60 at offset 26 overruns its container ending at 85"),
    (GOLDEN_WIRE[:22] + b"\0\1" + GOLDEN_WIRE[24:], BadHeader,
     "reserved octets nonzero (0x0001 0x0000)"),
    (_wire_of([f for f in _GOLDEN_FIELDS if f[0] != 0x82]), SchemaMismatch,
     "ASDU missing smpCnt"),
])
def test_a_frame_strict_decoding_rejects_has_no_plan(wire, error, message):
    """A cut frame once got a plan of the ASDUs before its cut, and an
    ASDU missing a field a bare ``KeyError``."""
    for build in (decode_frame, lambda wire: FramePlan(wire, GOLDEN_SCHEMA)):
        with pytest.raises(error, match=re.escape(message)):
            build(wire)


def test_missing_field_reads_as_the_asdu_default():
    default = Asdu()
    assert codec._MISSING == {
        codec.TAG_SVID: b"", codec.TAG_SMPCNT: bytes(2),
        codec.TAG_CONFREV: b"\0\0\0\1", codec.TAG_REFRTM: bytes(8),
        codec.TAG_SMPSYNCH: b"\0", codec.TAG_SEQDATA: b""} == {
        codec.TAG_SVID: default.sv_id.encode("ascii"),
        codec.TAG_SMPCNT: default.smp_cnt.to_bytes(2, "big"),
        codec.TAG_CONFREV: default.conf_rev.to_bytes(4, "big"),
        codec.TAG_REFRTM: stamp_octets(default.refr_tm),
        codec.TAG_SMPSYNCH: bytes([default.smp_synch]),
        codec.TAG_SEQDATA: default.seq_data}


class TestDissect:
    def test_golden_lines(self):
        text = render_dissection(dissect(GOLDEN_WIRE))
        assert "EtherType: 0x88ba (IEC 61850/SV)" in text
        assert "svID: xxxxMUnn01" in text
        assert "smpCnt: 1" in text
        assert "noASDU: 1" in text
        assert "smpSynch: 0 (none)" in text

    def test_indentation_follows_depth(self):
        text = render_dissection(dissect(GOLDEN_WIRE))
        assert "\n  noASDU: 1" in text
        assert "\n    ASDU1: " in text
        assert "\n      svID: xxxxMUnn01" in text

    def test_empty_capture(self):
        assert dissect(b"") == [(0, "empty capture", "", "")]
        assert render_dissection(dissect(b"")) == "empty capture" + WARNING_MARK

    def test_truncated_mid_asdu_reports_offset(self):
        lines = dissect(GOLDEN_WIRE[:40])
        assert lines[-1][1] == "TRUNCATED at offset 40"

    def test_warning_rows_alone_end_in_the_mark(self):
        # The mark follows the row's text, so each line keeps its start.
        text = render_dissection(dissect(GOLDEN_WIRE[:40]))
        assert text.endswith("\nTRUNCATED at offset 40" + WARNING_MARK)
        assert text.count(WARNING_MARK) == 1
        assert WARNING_MARK not in render_dissection(dissect(GOLDEN_WIRE))

    def test_never_raises_on_garbage(self):
        rng = random.Random(7)
        for _ in range(300):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 120)))
            dissect(blob)

    def test_never_raises_on_any_truncation(self):
        for cut in range(len(GOLDEN_WIRE) + 1):
            lines = dissect(GOLDEN_WIRE[:cut])
            assert lines

    def test_line_count_covers_parsed_fields(self):
        # 9 header rows + savPdu + noASDU + seqASDU + ASDU1 + 6 fields
        assert len(dissect(GOLDEN_WIRE)) == 19


class TestRoundTripProperty:
    def test_randomized_frames(self):
        rng = random.Random(61850)
        for _ in range(200):
            frame, schema = random_valid_frame(rng)
            wire = encode_frame(frame, schema)
            assert decode_frame(wire, DecodeMode.STRICT) == frame
            verify_frame_lengths(wire)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1))
    def test_hypothesis_seeded_frames(self, seed):
        frame, schema = random_valid_frame(random.Random(seed))
        assert decode_frame(encode_frame(frame, schema)) == frame


class TestTimestamp:
    def test_octet_round_trip(self):
        stamp = UtcTimestamp(0x5F5E0FF0, 0x123456, 0x0A)
        assert UtcTimestamp.from_octets(stamp_octets(stamp)) == stamp

    @staticmethod
    def stamp(t: Fraction) -> tuple[bytes, bytes]:
        """refr_tm_octets of ``t``, and the oracle: ``t`` rounded half to
        even to 2**-24 s."""
        oracle = stamp_octets(UtcTimestamp(*divmod(round(t * 2**24), 2**24)))
        return refr_tm_octets(t.numerator, t.denominator), oracle

    def test_from_exact_seconds_carry(self):
        almost = Fraction(2 ** 24 * 3 - 1, 2 ** 24) + Fraction(1, 2 ** 25)
        assert self.stamp(almost) == (stamp_octets(UtcTimestamp(3, 0)),) * 2

    def test_from_exact_seconds_quarter(self):
        assert self.stamp(Fraction(5, 4)) == (stamp_octets(UtcTimestamp(1, 1 << 22)),) * 2

    def test_field_ranges(self):
        with pytest.raises(ValueError):
            UtcTimestamp(-1, 0, 0)
        with pytest.raises(ValueError):
            UtcTimestamp(0, 1 << 24, 0)

    @pytest.mark.parametrize("fields,message", [
        ((1.5, 0, 0), "seconds must be of type int, got 1.5"),
        ((0, 0.5, 0), "fraction must be of type int, got 0.5"),
        ((0, 0, True), "time quality must be of type int, got True"),
        ((0, 0, 0x100), "time quality=256 outside [0, 255]"),
    ])
    def test_field_types(self, fields, message):
        # Unchecked, UtcTimestamp(1.5, 0, 0) would build and encode_frame
        # would raise a bare struct.error for it.
        with pytest.raises(ValueError) as excinfo:
            UtcTimestamp(*fields)
        assert str(excinfo.value) == message


class TestMacHelpers:
    def test_round_trip(self):
        assert mac_to_str(mac_from_str("18:cc:18:8a:bc:db")) == "18:cc:18:8a:bc:db"

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            mac_from_str("18:cc:18")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            mac_from_str("zz:cc:18:8a:bc:db")

    @pytest.mark.parametrize("text", [
        "01:02:03:04:05:+6", "-0:02:03:04:05:06", "0_1:02:03:04:05:06",
        " 1:02:03:04:05:06", "01:02:03:04:05:06 ", "001:02:03:04:05:06",
        "01::03:04:05:06", "01:02:03:04:05:\u0661"])
    def test_rejects_what_int_alone_would_take(self, text):
        with pytest.raises(ValueError, match="bad MAC address"):
            mac_from_str(text)

    def test_one_or_two_hex_digits_per_octet(self):
        assert mac_from_str("1:a:0B:Cd:ef:00") == bytes((1, 10, 11, 0xCD, 0xEF, 0))
