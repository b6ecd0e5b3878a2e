"""Shared test fixtures: the reference frame, an independent TLV walker,
a reference TLV and frame encoder, a reference judge of the analyzer's
records, a reference of its sequencing and a reference noise sample.

The walker parses lengths with bare index arithmetic, and the encoders
write them by their own rule, so they can confirm the codec's BER lengths
without reusing any codec code. Every hand-built test frame is made of
:func:`reference_tlv` TLVs.
"""

import math
import random
import statistics
import string
from itertools import accumulate

from svlite.codec import (
    Asdu,
    DecodeMode,
    SavApdu,
    SmpSynch,
    SvFrame,
    UtcTimestamp,
    VlanTag,
    decode_frame,
    mac_from_str,
    pack_seq_data,
    unpack_seq_data,
)
from svlite.errors import SvError
from svlite.model import DatasetSchema, Quality, SchemaMember, Validity, \
    from_engineering

# Reference frame assembled by hand, field by field. Lengths were summed
# manually: ASDU content 12+4+6+10+3+16 = 51 (0x33), seqASDU 53 (0x35),
# savPdu content 3+55 = 58 (0x3a), APDU = 8 + 60 = 68 (0x0044), total 86.
GOLDEN_HEX = (
    "18cc188abcdb" "b827eb471fd7"        # dst, src MAC
    "8100" "8000"                        # 802.1Q TPID, priority 4 / DEI 0 / VID 0
    "88ba"                               # EtherType IEC 61850/SV
    "4000"                               # APPID
    "0044"                               # Length 68
    "0000" "0000"                        # Reserved1, Reserved2
    "603a"                               # savPdu
    "800101"                             # noASDU = 1
    "a235"                               # seqASDU
    "3033"                               # ASDU1
    "800a" "787878784d556e6e3031"        # svID "xxxxMUnn01"
    "8202" "0001"                        # smpCnt 1
    "8304" "00000001"                    # confRev 1
    "8408" "0000000000000000"            # refrTm zero
    "8501" "00"                          # smpSynch none
    "870e" "00001111" + "00" * 8 + "0000"  # seqData: intMag, B, L, H
)
GOLDEN_WIRE = bytes.fromhex(GOLDEN_HEX)

GOLDEN_SCHEMA = DatasetSchema([
    SchemaMember("TMGF1.MagFld.instMag.i", width=4),
    SchemaMember("TMGF1.MagFld.GeoCrd.B", width=4, scale_factor=-4),
    SchemaMember("TMGF1.MagFld.GeoCrd.L", width=4, scale_factor=-4),
    SchemaMember("TMGF1.MagFld.GeoCrd.H", width=2, scale_factor=-1),
])

GOLDEN_VALUES = [0x1111, 0, 0, 0]


def golden_frame() -> SvFrame:
    return SvFrame(
        dst_mac=mac_from_str("18:cc:18:8a:bc:db"),
        src_mac=mac_from_str("b8:27:eb:47:1f:d7"),
        vlan=VlanTag(priority=4, dei=False, vid=0),
        appid=0x4000,
        apdu=SavApdu([
            Asdu(sv_id="xxxxMUnn01", smp_cnt=1, conf_rev=1,
                 refr_tm=UtcTimestamp(0, 0, 0), smp_synch=SmpSynch.NONE,
                 seq_data=pack_seq_data(GOLDEN_VALUES, GOLDEN_SCHEMA)),
        ]),
    )


def walk_tlv(buf: bytes, start: int, end: int):
    """Yield (tag, tlv_start, content_start, content_len) tiles.

    Asserts that consecutive TLVs tile [start, end) exactly, which is the
    statement that every BER length equals its content length.
    """
    cursor = start
    while cursor < end:
        assert cursor + 2 <= end, "TLV header overruns container"
        tag = buf[cursor]
        first = buf[cursor + 1]
        if first < 0x80:
            length, header = first, 2
        elif first == 0x81:
            length, header = buf[cursor + 2], 3
        elif first == 0x82:
            length, header = (buf[cursor + 2] << 8) | buf[cursor + 3], 4
        else:
            raise AssertionError(f"unexpected length octet 0x{first:02x}")
        content_start = cursor + header
        assert content_start + length <= end, "TLV content overruns container"
        yield tag, cursor, content_start, length
        cursor = content_start + length
    assert cursor == end, "TLVs do not tile the container exactly"


def verify_frame_lengths(wire: bytes) -> list[int]:
    """Independent structural check; returns the APDU tag sequence."""
    assert wire[12:14] == b"\x81\x00"
    assert wire[16:18] == b"\x88\xba"
    length_field = (wire[20] << 8) | wire[21]
    assert length_field == len(wire) - 18, "Length field vs remaining octets"
    assert wire[22:26] == b"\x00\x00\x00\x00"
    tags = []
    (savpdu,) = walk_tlv(wire, 26, len(wire))
    tags.append(savpdu[0])
    assert savpdu[0] == 0x60
    children = list(walk_tlv(wire, savpdu[2], savpdu[2] + savpdu[3]))
    for tag, _, c_start, c_len in children:
        tags.append(tag)
        if tag == 0xA2:
            for a_tag, _, a_start, a_len in walk_tlv(wire, c_start, c_start + c_len):
                tags.append(a_tag)
                assert a_tag == 0x30
                for f_tag, _, _, _ in walk_tlv(wire, a_start, a_start + a_len):
                    tags.append(f_tag)
    return tags


def reference_tlv(tag: int, value: bytes) -> bytes:
    """Tag, minimal definite length and ``value``: short form under 128
    octets, then 0x81 and 0x82. A tag or length that does not fit raises
    ``ValueError``."""
    n = len(value)
    if n < 128:
        length = [n]
    elif n < 256:
        length = [0x81, n]
    else:
        length = [0x82, n // 256, n % 256]
    return bytes([tag, *length]) + value


def stamp_octets(stamp: UtcTimestamp) -> bytes:
    """refrTm's 8 octets: seconds, 24-bit fraction and time quality."""
    return (stamp.seconds.to_bytes(4, "big") + stamp.fraction.to_bytes(3, "big")
            + bytes([stamp.time_quality]))


def reference_encode(frame: SvFrame, schema: DatasetSchema) -> bytes:
    """The wire octets of ``frame``, laid out from the codec module
    docstring field by field, with lengths counted here."""
    seq_asdu = b""
    for asdu in frame.apdu.asdus:
        assert len(asdu.seq_data) == schema.packed_width
        seq_asdu += reference_tlv(0x30, b"".join([
            reference_tlv(0x80, asdu.sv_id.encode("ascii")),
            reference_tlv(0x82, asdu.smp_cnt.to_bytes(2, "big")),
            reference_tlv(0x83, asdu.conf_rev.to_bytes(4, "big")),
            reference_tlv(0x84, stamp_octets(asdu.refr_tm)),
            reference_tlv(0x85, bytes([asdu.smp_synch])),
            reference_tlv(0x87, asdu.seq_data),
        ]))
    savpdu = reference_tlv(0x60, reference_tlv(0x80, bytes([len(frame.apdu.asdus)]))
                           + reference_tlv(0xA2, seq_asdu))
    vlan = frame.vlan
    tci = vlan.priority << 13 | vlan.dei << 12 | vlan.vid
    return (frame.dst_mac + frame.src_mac + b"\x81\x00" + tci.to_bytes(2, "big")
            + b"\x88\xba" + frame.appid.to_bytes(2, "big")
            + (8 + len(savpdu)).to_bytes(2, "big") + bytes(4) + savpdu)


_SVID_ALPHABET = string.ascii_letters + string.digits


def random_valid_frame(rng: random.Random, member_count: int = 0,
                       asdu_count: int = 0) -> tuple[SvFrame, DatasetSchema]:
    """Random frame within every wire-format bound, for round-trip checks:
    ``member_count`` schema members and ``asdu_count`` ASDUs, or when 0,
    1-2 members and 1-3 ASDUs."""
    members = []
    for index in range(member_count or rng.randint(1, 2)):
        members.append(SchemaMember(
            name=f"TCTR{index + 1}.AmpSv.instMag.i",
            width=rng.choice((2, 4)),
            signed=rng.random() < 0.5,
            scale_factor=rng.randint(-4, 2),
            offset=rng.randint(-1000, 1000),
            include_quality=rng.random() < 0.5,
        ))
    schema = DatasetSchema(members)
    asdus = []
    for _ in range(asdu_count or rng.randint(1, 3)):
        values = []
        for member in schema:
            bits = 8 * member.width
            if member.signed:
                raw = rng.randint(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
            else:
                raw = rng.randint(0, (1 << bits) - 1)
            if member.include_quality:
                quality = Quality(Validity(rng.randint(0, 2)), rng.random() < 0.5)
                values.append((raw, quality))
            else:
                values.append(raw)
        sv_id = "".join(
            rng.choice(_SVID_ALPHABET) for _ in range(rng.randint(1, 64)))
        asdus.append(Asdu(
            sv_id=sv_id,
            smp_cnt=rng.randint(0, 0xFFFF),
            conf_rev=rng.randint(0, 0xFFFF_FFFF),
            refr_tm=UtcTimestamp(rng.randint(0, 0xFFFF_FFFF),
                                 rng.randint(0, 0xFF_FFFF),
                                 rng.randint(0, 0xFF)),
            smp_synch=SmpSynch(rng.randint(0, 2)),
            seq_data=pack_seq_data(values, schema),
        ))
    frame = SvFrame(
        dst_mac=bytes(rng.randrange(256) for _ in range(6)),
        src_mac=bytes(rng.randrange(256) for _ in range(6)),
        vlan=VlanTag(priority=rng.randint(0, 7), dei=rng.random() < 0.5,
                     vid=rng.randint(0, 0x0FFF)),
        appid=rng.randint(0, 0xFFFF),
        apdu=SavApdu(asdus),
    )
    return frame, schema


def plan_offsets(plan) -> tuple:
    """Per ASDU of a ``FramePlan``, the value offsets of smpCnt and refrTm
    and the value span of seqData, summed from its ``parts`` and ``slots``."""
    starts = list(accumulate(map(len, plan.parts), initial=0))
    return tuple((starts[smp_cnt], starts[refr_tm], starts[seq_data],
                  starts[seq_data + 1]) for smp_cnt, refr_tm, seq_data in plan.slots)


def reference_judge(schema: DatasetSchema, datagrams) -> tuple:
    """``(decode_failures, quality_discarded, accepted)`` that the analyzer
    should reach on ``datagrams``, by the record rule worked out apart from
    its code: decode each datagram leniently, fail one that does not carry
    exactly one ASDU, unpack that ASDU's seqData, and discard a record that
    carries any Quality that is not good."""
    failures, discarded, accepted = 0, 0, []
    for datagram in datagrams:
        try:
            asdus = decode_frame(datagram, DecodeMode.LENIENT).apdu.asdus
        except SvError:
            asdus = []
        if len(asdus) != 1:
            failures += 1
            continue
        try:
            values = unpack_seq_data(asdus[0].seq_data, schema)
        except SvError:  # wrong width, or validity 0b11
            failures += 1
            continue
        if any(isinstance(v, tuple) and v[1].validity != Validity.GOOD
               for v in values):
            discarded += 1
        else:
            accepted.append(values)
    return failures, discarded, accepted


def reference_sequence(wrap: int, datagrams, times) -> tuple:
    """``(received, lost, out_of_order, inter_arrival_mean,
    inter_arrival_stddev)`` that the analyzer should report on
    ``datagrams`` arriving at ``times``, by the rule its docstring states:
    a datagram is received when it decodes leniently to exactly one ASDU,
    and that ASDU's smpCnt, reduced below ``wrap``, differs from the
    expected smpCnt by a signed step in [-wrap // 2, wrap - wrap // 2)
    modulo ``wrap``. A step of n > 0 loses n, one below 0 is out of order,
    and only a step of 0 or more moves the expectation to smpCnt + 1. The
    statistics are those of the deltas of the received arrival times."""
    received, lost, out_of_order = 0, 0, 0
    expected, arrivals = None, []
    for datagram, arrival in zip(datagrams, times, strict=True):
        try:
            asdus = decode_frame(datagram, DecodeMode.LENIENT).apdu.asdus
        except SvError:
            continue
        if len(asdus) != 1:
            continue
        received += 1
        arrivals.append(float(arrival))
        smp_cnt = asdus[0].smp_cnt % wrap
        if expected is None:
            expected = smp_cnt
        step = (smp_cnt - expected + wrap // 2) % wrap - wrap // 2
        if step < 0:
            out_of_order += 1
        else:
            lost += step
            expected = (smp_cnt + 1) % wrap
    deltas = [b - a for a, b in zip(arrivals, arrivals[1:])]
    if not deltas:
        return received, lost, out_of_order, 0.0, 0.0
    return (received, lost, out_of_order, statistics.fmean(deltas),
            statistics.pstdev(deltas))


_PCG_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1


def reference_gauss(seed: int, tick: int) -> float:
    """Standard normal by Box-Muller over the first two draws of a PCG
    (64-bit state, XSH-RR 32-bit output) whose stream ``tick`` has
    increment ``2*tick + 1`` and starts at ``increment + seed``, as the
    ``sources`` module describes it, one step after another."""
    inc = ((tick << 1) | 1) & _MASK64
    s1 = ((inc + seed) * _PCG_MULT + inc) & _MASK64
    s2 = (s1 * _PCG_MULT + inc) & _MASK64
    x = (((s1 >> 18) ^ s1) >> 27) & 0xFFFF_FFFF  # XSH-RR output of s1
    a = ((x >> (s1 >> 59)) | (x << (32 - (s1 >> 59)))) & 0xFFFF_FFFF
    x = (((s2 >> 18) ^ s2) >> 27) & 0xFFFF_FFFF
    b = ((x >> (s2 >> 59)) | (x << (32 - (s2 >> 59)))) & 0xFFFF_FFFF
    u1 = (a + 1) / 4294967296.0  # (0, 1]
    u2 = b / 4294967296.0        # [0, 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def reference_noise_raw(member: SchemaMember, dc: float, sigma: float,
                        seed: int, tick: int) -> int:
    """Raw integer a noise channel ``dc + sigma * N(0, 1)`` puts in
    ``member`` at ``tick``, quantised by ``from_engineering``."""
    return from_engineering(dc + sigma * reference_gauss(seed, tick),
                            member.scale_factor, member.offset,
                            member.width, member.signed)
