"""Reduced sampled-value frame codec.

Wire layout of one frame, carried whole inside a UDP datagram:

    dst MAC(6) src MAC(6) TPID 0x8100(2) TCI(2) EtherType 0x88ba(2)
    APPID(2) Length(2) Reserved1(2) Reserved2(2)
    savPdu 0x60 [ noASDU 0x80 | seqASDU 0xA2 [ ASDU 0x30 ... ] ]

Each ASDU holds svID 0x80, smpCnt 0x82, confRev 0x83, refrTm 0x84,
smpSynch 0x85 and seqData 0x87. There is no dataset reference, sample
rate or smpMod field on this profile. Every BER length is computed from
content, and the Length header field is 8 plus the encoded savPdu size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum, IntEnum

from . import ber
from .errors import (
    BadEtherType,
    BadHeader,
    CountMismatch,
    LengthMismatch,
    OversizeValue,
    SchemaMismatch,
    Truncated,
    UnknownTag,
    UnsupportedLength,
    WidthMismatch,
)
from .model import DatasetSchema, Quality, encode_quality, quality_from_word, \
    quality_word

TPID_VLAN = 0x8100
ETHERTYPE_SV = 0x88BA

TAG_SAVPDU = 0x60
TAG_NOASDU = 0x80
TAG_SEQASDU = 0xA2
TAG_ASDU = 0x30
TAG_SVID = 0x80
TAG_SMPCNT = 0x82
TAG_CONFREV = 0x83
TAG_REFRTM = 0x84
TAG_SMPSYNCH = 0x85
TAG_SEQDATA = 0x87

SVID_MAX_LEN = 64

# APPID + Length + Reserved1 + Reserved2
_FIXED_HEADER_LEN = 8

_ASDU_FIELD_NAMES = {
    TAG_SVID: "svID",
    TAG_SMPCNT: "smpCnt",
    TAG_CONFREV: "confRev",
    TAG_REFRTM: "refrTm",
    TAG_SMPSYNCH: "smpSynch",
    TAG_SEQDATA: "seqData",
}


def mac_from_str(text: str) -> bytes:
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(f"MAC address needs 6 octets: {text!r}")
    try:
        mac = bytes(int(p, 16) for p in parts)
    except ValueError:
        raise ValueError(f"bad MAC address {text!r}") from None
    return mac


def mac_to_str(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


class SmpSynch(IntEnum):
    NONE = 0
    LOCAL = 1
    GLOBAL = 2


class DecodeMode(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True)
class VlanTag:
    """802.1Q tag content (the TPID itself is fixed at 0x8100)."""

    priority: int = 4
    dei: bool = False
    vid: int = 0

    def __post_init__(self):
        if not 0 <= self.priority <= 7:
            raise ValueError(f"VLAN priority {self.priority} outside 0..7")
        if not 0 <= self.vid <= 0x0FFF:
            raise ValueError(f"VLAN ID {self.vid} outside 0..4095")

    @property
    def tci(self) -> int:
        return (self.priority << 13) | (int(self.dei) << 12) | self.vid

    @classmethod
    def from_tci(cls, tci: int) -> "VlanTag":
        return cls(priority=tci >> 13, dei=bool((tci >> 12) & 1), vid=tci & 0x0FFF)


@dataclass(frozen=True)
class UtcTimestamp:
    """61850-style UTC time: seconds, 24-bit binary fraction, quality octet."""

    seconds: int = 0
    fraction: int = 0
    time_quality: int = 0

    def __post_init__(self):
        if not 0 <= self.seconds <= 0xFFFF_FFFF:
            raise ValueError(f"seconds {self.seconds} outside 32-bit range")
        if not 0 <= self.fraction <= 0xFF_FFFF:
            raise ValueError(f"fraction {self.fraction} outside 24-bit range")
        if not 0 <= self.time_quality <= 0xFF:
            raise ValueError(f"time quality {self.time_quality} outside one octet")

    def to_octets(self) -> bytes:
        return (
            self.seconds.to_bytes(4, "big")
            + self.fraction.to_bytes(3, "big")
            + bytes([self.time_quality])
        )

    @classmethod
    def from_octets(cls, octets: bytes) -> "UtcTimestamp":
        if len(octets) != 8:
            raise WidthMismatch(f"refrTm needs 8 octets, got {len(octets)}")
        return cls(
            seconds=int.from_bytes(octets[0:4], "big"),
            fraction=int.from_bytes(octets[4:7], "big"),
            time_quality=octets[7],
        )

    @classmethod
    def from_unix(cls, t: float, time_quality: int = 0) -> "UtcTimestamp":
        seconds = int(t)
        fraction = int((t - seconds) * (1 << 24))
        return cls(seconds=seconds, fraction=min(fraction, 0xFF_FFFF),
                   time_quality=time_quality)

    @classmethod
    def from_exact_seconds(cls, t, time_quality: int = 0) -> "UtcTimestamp":
        """Exact conversion for rational virtual-clock instants."""
        seconds = int(t)
        fraction = round((t - seconds) * (1 << 24))
        if fraction == 1 << 24:
            seconds, fraction = seconds + 1, 0
        return cls(seconds=seconds, fraction=fraction, time_quality=time_quality)


@dataclass
class Asdu:
    """One sample record inside the savPdu."""

    sv_id: str = ""
    smp_cnt: int = 0
    conf_rev: int = 1
    refr_tm: UtcTimestamp = UtcTimestamp()
    smp_synch: SmpSynch = SmpSynch.NONE
    seq_data: bytes = b""


@dataclass
class SavApdu:
    asdus: list[Asdu] = field(default_factory=list)

    @property
    def no_asdu(self) -> int:
        return len(self.asdus)


@dataclass
class SvFrame:
    """Complete link-level frame, the unit carried in one UDP datagram."""

    dst_mac: bytes
    src_mac: bytes
    vlan: VlanTag
    appid: int
    apdu: SavApdu
    decode_warnings: tuple[str, ...] = field(default=(), compare=False, repr=False)


def _encode_asdu(asdu: Asdu) -> bytes:
    sv_id = asdu.sv_id
    if not isinstance(sv_id, str) or not sv_id or not sv_id.isascii():
        raise ValueError(f"svID must be a non-empty ASCII string, got {sv_id!r}")
    if len(sv_id) > SVID_MAX_LEN:
        raise OversizeValue(f"svID of {len(sv_id)} chars exceeds {SVID_MAX_LEN}")
    return b"".join(
        (
            ber.encode_tlv(TAG_SVID, sv_id.encode("ascii")),
            ber.encode_tlv(TAG_SMPCNT, ber.encode_int_fixed(asdu.smp_cnt, 2)),
            ber.encode_tlv(TAG_CONFREV, ber.encode_int_fixed(asdu.conf_rev, 4)),
            ber.encode_tlv(TAG_REFRTM, asdu.refr_tm.to_octets()),
            ber.encode_tlv(TAG_SMPSYNCH, bytes([int(asdu.smp_synch)])),
            ber.encode_tlv(TAG_SEQDATA, asdu.seq_data),
        )
    )


def encode_frame(frame: SvFrame, schema: DatasetSchema) -> bytes:
    """Byte-exact frame encoding; every BER length derives from content."""
    if not frame.apdu.asdus:
        raise ValueError("savPdu needs at least one ASDU")
    if len(frame.dst_mac) != 6 or len(frame.src_mac) != 6:
        raise ValueError("MAC addresses must be 6 octets")
    for asdu in frame.apdu.asdus:
        if len(asdu.seq_data) != schema.packed_width:
            raise SchemaMismatch(
                f"seqData is {len(asdu.seq_data)} octets, schema packs "
                f"{schema.packed_width}")
    count = len(frame.apdu.asdus)
    if count > 0xFF:
        raise OversizeValue(f"{count} ASDUs exceeds the single-octet noASDU")
    seq_asdu = b"".join(
        ber.encode_tlv(TAG_ASDU, _encode_asdu(a)) for a in frame.apdu.asdus)
    savpdu = ber.encode_tlv(
        TAG_SAVPDU,
        ber.encode_tlv(TAG_NOASDU, bytes([count]))
        + ber.encode_tlv(TAG_SEQASDU, seq_asdu),
    )
    header = struct.pack(
        ">HHHH", frame.appid, _FIXED_HEADER_LEN + len(savpdu), 0, 0)
    return (
        bytes(frame.dst_mac)
        + bytes(frame.src_mac)
        + struct.pack(">HH", TPID_VLAN, frame.vlan.tci)
        + struct.pack(">H", ETHERTYPE_SV)
        + header
        + savpdu
    )


# Tag of the one container the walker enters at each depth.
_CONTAINER_TAGS = (TAG_SAVPDU, TAG_SEQASDU, TAG_ASDU)
_CONTAINER_NAMES = ("savPdu", "seqASDU", "ASDU")


def _walk(data: bytes, cursor: int):
    """Yield ``(depth, tag, tlv_start, value_start, value_end)`` depth
    first for the savPdu at ``cursor`` (depth 0) and the TLVs inside it,
    entering only seqASDU (depth 1) and ASDU (depth 2). The walk is lazy,
    so a consumer has seen a TLV before the next header is read.

    A bad header, or a value past its container, raises ``Truncated`` or
    ``UnsupportedLength`` with ``offset``, where dissection stops, and
    ``overrun``, the TLV as read past its container, or None.
    """
    n = len(data)
    if cursor >= n:
        raise _stopped(Truncated, f"no tag at offset {cursor}", n)
    ends = [n]  # value end of each open container, the buffer outermost
    while True:
        depth = len(ends) - 1
        end = ends[-1]
        tag = data[cursor]
        pos = cursor + 1
        if pos < end and data[pos] < 0x80:
            start = pos + 1
            value_end = start + data[pos]
        else:
            # Length octets past the container's end are read from the buffer
            # so dissect can show the overrun; decoding still finds it Truncated.
            if pos >= n:
                raise _stopped(Truncated, f"missing length octet at offset {pos}", n)
            first = data[pos]
            count = first & 0x7F if first & 0x80 else 0
            if first == 0x80 or count > 2:
                raise _stopped(
                    UnsupportedLength if pos < end else Truncated,
                    f"length octet 0x{first:02x} at offset {pos} is indefinite "
                    "or exceeds the 2-octet cap", pos)
            start = pos + 1 + count
            if start > n:
                raise _stopped(Truncated, f"length octets cut at offset {pos + 1}", n)
            value_end = start + (int.from_bytes(data[pos + 1:start], "big")
                                 if count else first)
        if value_end > end:
            raise _stopped(
                Truncated, f"tag 0x{tag:02x} at offset {cursor} overruns "
                           f"its container ending at {end}",
                min(n, value_end), (depth, tag, cursor, start, value_end))
        yield depth, tag, cursor, start, value_end
        if depth < 3 and tag == _CONTAINER_TAGS[depth]:
            ends.append(value_end)
            cursor = start
        elif depth == 0:
            return
        else:
            cursor = value_end
        while cursor == ends[-1]:
            ends.pop()
            if len(ends) == 1:
                return


def _stopped(error: type, message: str, offset: int, overrun=None):
    exc = error(message)
    exc.offset = offset
    exc.overrun = overrun
    return exc


def decode_frame(data: bytes, mode: DecodeMode = DecodeMode.STRICT) -> SvFrame:
    """Parse a frame back into its model.

    Strict mode rejects wrong EtherType, nonzero reserved octets, Length
    disagreement and unknown tags. Lenient mode skips unknown tags and
    records every tolerated inconsistency on ``SvFrame.decode_warnings``,
    which keeps third-party frames with sloppy length octets readable.
    """
    strict = mode is DecodeMode.STRICT
    warnings: list[str] = []

    def tolerate(error: type, message: str, lenient: str | None = None):
        """Raise ``error`` in strict mode, else record the warning."""
        if strict:
            raise error(message)
        warnings.append(message if lenient is None else lenient)

    n = len(data)
    if n < 14:
        raise Truncated(f"frame of {n} octets ends inside the link header")
    dst, src = bytes(data[0:6]), bytes(data[6:12])
    tpid = (data[12] << 8) | data[13]
    if tpid == TPID_VLAN:
        if n < 18:
            raise Truncated("frame ends inside the 802.1Q tag")
        vlan = VlanTag.from_tci((data[14] << 8) | data[15])
        ethertype = (data[16] << 8) | data[17]
        cursor = 18
    elif tpid == ETHERTYPE_SV and not strict:
        warnings.append("missing 802.1Q tag")
        vlan = VlanTag(priority=0)
        ethertype = tpid
        cursor = 14
    else:
        raise BadEtherType(f"expected 802.1Q TPID 0x8100, got 0x{tpid:04x}")
    if ethertype != ETHERTYPE_SV:
        raise BadEtherType(
            f"EtherType 0x{ethertype:04x} is not IEC 61850/SV (0x88ba)")
    if cursor + _FIXED_HEADER_LEN > n:
        raise Truncated("frame ends inside the APPID header")
    appid, length_field, res1, res2 = struct.unpack_from(">HHHH", data, cursor)
    if res1 or res2:
        tolerate(BadHeader, f"reserved octets nonzero (0x{res1:04x} 0x{res2:04x})")
    cursor += _FIXED_HEADER_LEN
    walk = _walk(data, cursor)
    _, tag, _, _, end = next(walk)
    if tag != TAG_SAVPDU:
        raise UnknownTag(f"expected savPdu tag 0x60, got 0x{tag:02x}")
    actual = _FIXED_HEADER_LEN + (end - cursor)
    if length_field != actual:
        tolerate(LengthMismatch,
                 f"Length field {length_field} != actual APDU length {actual}")
    if end != n:
        tolerate(LengthMismatch, f"{n - end} trailing octets after savPdu")

    no_asdu = None
    asdus: list[Asdu] = []
    fields: dict[int, bytes] = {}
    asdu_end = -1
    for depth, tag, _, start, end in walk:
        if depth == 3 and tag in _ASDU_FIELD_NAMES:
            if tag in fields:
                message = f"duplicate {_ASDU_FIELD_NAMES[tag]} in ASDU"
                tolerate(SchemaMismatch, message, message + ", keeping the last")
            fields[tag] = bytes(data[start:end])
        elif depth == 2 and tag == TAG_ASDU:
            fields = {}
            asdu_end = end
        elif depth == 1 and tag == TAG_NOASDU:
            no_asdu = int.from_bytes(data[start:end], "big")
        elif depth != 1 or tag != TAG_SEQASDU:
            where = _CONTAINER_NAMES[depth - 1]
            tolerate(UnknownTag, f"unexpected tag 0x{tag:02x} inside {where}",
                     f"skipped tag 0x{tag:02x} inside {where}")
        # An ASDU is checked once its last field is in, or at once when it
        # is empty, before the walk reads the header of whatever follows.
        if end == asdu_end and (depth == 3 or start == end):
            asdus.append(_asdu_from_fields(fields, tolerate))
    if no_asdu is None:
        tolerate(SchemaMismatch, "savPdu carries no noASDU field")
    elif no_asdu != len(asdus):
        tolerate(CountMismatch,
                 f"noASDU says {no_asdu}, found {len(asdus)} ASDU elements")
    return SvFrame(dst, src, vlan, appid, SavApdu(asdus),
                   decode_warnings=tuple(warnings))


def _asdu_from_fields(raw: dict[int, bytes], tolerate) -> Asdu:
    missing = [name for tag, name in _ASDU_FIELD_NAMES.items() if tag not in raw]
    if missing:
        tolerate(SchemaMismatch, "ASDU missing " + ", ".join(missing))

    asdu = Asdu()
    if TAG_SVID in raw:
        octets = raw[TAG_SVID]
        if not octets.isascii():
            tolerate(SchemaMismatch, "svID is not ASCII",
                     "svID is not ASCII, decoded with replacements")
        asdu.sv_id = octets.decode("ascii", "replace")
    asdu.smp_cnt = _decode_uint(raw, TAG_SMPCNT, 2, tolerate)
    asdu.conf_rev = _decode_uint(raw, TAG_CONFREV, 4, tolerate, asdu.conf_rev)
    if TAG_REFRTM in raw:
        octets = raw[TAG_REFRTM]
        if len(octets) != 8:
            tolerate(LengthMismatch, f"refrTm is {len(octets)} octets, expected 8")
            octets = octets[:8].ljust(8, b"\x00")
        asdu.refr_tm = UtcTimestamp.from_octets(octets)
    synch = _decode_uint(raw, TAG_SMPSYNCH, 1, tolerate)
    if synch not in (0, 1, 2):
        message = f"smpSynch value {synch} is not 0/1/2"
        tolerate(SchemaMismatch, message, message + ", using none")
        synch = SmpSynch.NONE
    asdu.smp_synch = SmpSynch(synch)
    asdu.seq_data = raw.get(TAG_SEQDATA, b"")
    return asdu


def _decode_uint(raw: dict[int, bytes], tag: int, width: int, tolerate,
                 missing: int = 0) -> int:
    if tag not in raw:
        return missing
    octets = raw[tag]
    if len(octets) != width:
        tolerate(LengthMismatch,
                 f"{_ASDU_FIELD_NAMES[tag]} is {len(octets)} octets, expected {width}")
    return int.from_bytes(octets, "big")


class FramePlan:
    """The compiled layout of one encoded frame.

    ``asdus`` holds, per ASDU in wire order, the value offsets of smpCnt
    and refrTm and the value span of seqData: the octets that change from
    tick to tick. With a fixed schema and svID every BER length is
    constant, so the publisher patches them in place. Every other octet
    is fixed. A datagram that :meth:`matches` the frame it was built from
    carries those same fixed octets, so every tag and length in it is the
    frame's, and it decodes to the frame with only smpCnt, refrTm and
    seqData read anew.
    """

    def __init__(self, wire: bytes):
        fields: list[dict[int, tuple[int, int]]] = []
        for depth, tag, _, start, end in _walk(wire, 18 + _FIXED_HEADER_LEN):
            if depth == 2 and tag == TAG_ASDU:
                fields.append({})
            elif depth == 3:
                fields[-1][tag] = (start, end)
        self.asdus = tuple(
            (f[TAG_SMPCNT][0], f[TAG_REFRTM][0], *f[TAG_SEQDATA]) for f in fields)
        holes = []
        for smp_cnt, refr_tm, seq_start, seq_end in self.asdus:
            holes += [(smp_cnt, smp_cnt + 2), (refr_tm, refr_tm + 8),
                      (seq_start, seq_end)]
        codes, cursor = [">"], 0
        for start, end in sorted(holes):
            if start > cursor:
                codes.append(f"{start - cursor}s")
            codes.append(f"{end - start}x")
            cursor = end
        if len(wire) > cursor:
            codes.append(f"{len(wire) - cursor}s")
        self._fixed = struct.Struct("".join(codes))
        self._chunks = self._fixed.unpack(wire)

    def matches(self, datagram: bytes) -> bool:
        """Whether ``datagram`` has the frame's length and fixed octets."""
        return (len(datagram) == self._fixed.size
                and self._fixed.unpack(datagram) == self._chunks)


def pack_seq_data(values, schema: DatasetSchema) -> bytes:
    """Concatenate raw samples in schema order, big-endian.

    Each item is a raw integer or a ``(raw, Quality)`` pair; the quality
    octets are appended only for members with ``include_quality`` set
    (defaulting to good when the item carries none).
    """
    if len(values) != len(schema):
        raise CountMismatch(
            f"{len(values)} values for a schema of {len(schema)} members")
    fields = []
    for item, member in zip(values, schema.members):
        value, quality = item if isinstance(item, tuple) else (item, None)
        fields.append(value)
        if member.include_quality:
            fields.append(0 if quality is None else quality_word(quality))
    try:
        return schema.seq_struct.pack(*fields)
    except struct.error:
        # A value that does not fit: raise as packing member by member does.
        return _pack_members(values, schema)


def _pack_members(values, schema: DatasetSchema) -> bytes:
    out = bytearray()
    for item, member in zip(values, schema):
        value, quality = item if isinstance(item, tuple) else (item, None)
        out += ber.encode_int_fixed(value, member.width, signed=member.signed)
        if member.include_quality:
            out += encode_quality(quality if quality is not None else Quality())
    return bytes(out)


def unpack_seq_data(octets: bytes, schema: DatasetSchema) -> list:
    """Inverse of :func:`pack_seq_data`."""
    layout = schema.seq_struct
    if len(octets) != layout.size:
        raise WidthMismatch(
            f"{len(octets)} octets against a schema of {layout.size}")
    fields = layout.unpack(octets)
    if len(fields) == len(schema.members):
        return list(fields)
    out = []
    words = iter(fields)
    for member, value in zip(schema.members, words):
        out.append((value, quality_from_word(next(words)))
                   if member.include_quality else value)
    return out


# --- dissection ----------------------------------------------------------

_SMP_SYNCH_NAMES = {0: "none", 1: "local", 2: "global"}

DissectLine = tuple[int, str, str, str]


class WarningLine(tuple):
    """A ``DissectLine`` that flags a fault in the capture."""


def _warning(depth: int, name: str, raw: str = "", decoded: str = "") -> DissectLine:
    return WarningLine((depth, name, raw, decoded))


def dissect(data: bytes) -> list[DissectLine]:
    """Best-effort field walk for captures; never raises.

    Returns ``(depth, name, raw_hex, decoded)`` rows in wire order.
    Faults become :class:`WarningLine` rows, a short buffer ends in a
    ``TRUNCATED at offset N`` one.
    """
    if not data:
        return [(0, "empty capture", "", "")]
    lines: list[DissectLine] = []
    try:
        _dissect_frame(data, lines)
    except (Truncated, UnsupportedLength) as stop:
        if stop.overrun is not None:
            lines.append(_overrun_row(data, *stop.overrun))
        lines.append(_warning(0, f"TRUNCATED at offset {stop.offset}"))
    return lines


def render_dissection(lines: list[DissectLine]) -> str:
    rendered = []
    for depth, name, _, decoded in lines:
        text = f"{name}: {decoded}" if decoded else name
        rendered.append("  " * depth + text)
    return "\n".join(rendered)


def _dissect_frame(data: bytes, lines: list[DissectLine]) -> None:
    c = 0

    def take(count: int) -> bytes:
        nonlocal c
        if c + count > len(data):
            raise _stopped(Truncated, "capture ends in the link header", len(data))
        c += count
        return data[c - count:c]

    for name in ("Destination", "Source"):
        mac = take(6)
        lines.append((0, name, mac.hex(), mac_to_str(mac)))
    octets = take(2)
    if octets == b"\x81\x00":
        lines.append((0, "Type", octets.hex(), "0x8100 (802.1Q Virtual LAN)"))
        tci = take(2)
        tag = VlanTag.from_tci(int.from_bytes(tci, "big"))
        lines.append((0, "PRI/DEI/ID", tci.hex(),
                      f"priority {tag.priority}, DEI {int(tag.dei)}, VID {tag.vid}"))
        octets = take(2)
    else:
        lines.append(_warning(0, "no 802.1Q tag"))
    ethertype = int.from_bytes(octets, "big")
    note = "IEC 61850/SV" if ethertype == ETHERTYPE_SV else "not IEC 61850/SV"
    row = (0, "EtherType", octets.hex(), f"0x{ethertype:04x} ({note})")
    lines.append(row if ethertype == ETHERTYPE_SV else _warning(*row))
    apdu_start = c
    octets = take(2)
    lines.append((0, "APPID", octets.hex(), f"0x{int.from_bytes(octets, 'big'):04x}"))
    octets = take(2)
    length_field = int.from_bytes(octets, "big")
    lines.append((0, "Length", octets.hex(), str(length_field)))
    for name in ("Reserved1", "Reserved2"):
        octets = take(2)
        lines.append((0, name, octets.hex(), f"0x{int.from_bytes(octets, 'big'):04x}"))
    asdu_index = 0
    for depth, tag, tlv_start, start, end in _walk(data, c):
        if depth == 0:
            apdu_end = end
        elif depth == 2 and tag == TAG_ASDU:
            asdu_index += 1
        lines.append(_tlv_row(data, depth, tag, tlv_start, start, end, asdu_index))
    actual = apdu_end - apdu_start
    if length_field != actual:
        lines.append(_warning(0, f"Length field {length_field} != actual {actual}"))
    if apdu_end < len(data):
        tail = data[apdu_end:]
        lines.append(_warning(0, f"{len(tail)} trailing octets", tail.hex(), tail.hex()))


def _tlv_row(data: bytes, depth: int, tag: int, tlv_start: int, start: int,
             end: int, asdu_index: int = 0) -> DissectLine:
    """Row of one TLV the walker yielded."""
    header, length = data[tlv_start:start].hex(), end - start
    if depth == 3 and tag in _ASDU_FIELD_NAMES:
        value = data[start:end]
        if tag == TAG_SVID:
            text = bytes(value).decode("ascii", "replace")
        elif tag == TAG_REFRTM:
            text = _render_refr_tm(value)
        elif tag == TAG_SMPSYNCH:
            synch = int.from_bytes(value, "big")
            text = f"{synch} ({_SMP_SYNCH_NAMES.get(synch, '?')})"
        elif tag == TAG_SEQDATA:
            text = f"{length} octets {value.hex()}"
        else:
            text = str(int.from_bytes(value, "big"))
        return (3, _ASDU_FIELD_NAMES[tag], data[tlv_start:end].hex(), text)
    if depth < 3 and tag == _CONTAINER_TAGS[depth]:
        name = _CONTAINER_NAMES[depth] if depth < 2 else f"ASDU{asdu_index}"
        return (depth, name, header, f"{length} octets")
    if depth == 0:
        return _warning(0, f"tag 0x{tag:02x}", header,
                        f"{length} octets (expected savPdu 0x60)")
    if depth == 1 and tag == TAG_NOASDU:
        return (1, "noASDU", data[tlv_start:end].hex(),
                str(int.from_bytes(data[start:end], "big")))
    return _warning(depth, f"tag 0x{tag:02x}", data[tlv_start:end].hex(),
                    f"{length} octets (skipped)")


def _overrun_row(data: bytes, depth: int, tag: int, tlv_start: int, start: int,
                 end: int) -> DissectLine:
    if depth == 0:
        return _tlv_row(data, depth, tag, tlv_start, start, end)
    if depth == 3:
        name = _ASDU_FIELD_NAMES.get(tag, f"tag 0x{tag:02x}")
        return _warning(3, f"{name} overruns ASDU")
    return _warning(depth, f"tag 0x{tag:02x} overruns {_CONTAINER_NAMES[depth - 1]}",
                    data[tlv_start:start].hex())


def _render_refr_tm(value: bytes) -> str:
    if len(value) != 8:
        return f"{len(value)} octets (expected 8)"
    ts = UtcTimestamp.from_octets(value)
    moment = datetime.fromtimestamp(ts.seconds, tz=timezone.utc)
    return (f"{moment.strftime('%Y-%m-%d %H:%M:%S')}Z "
            f"+{ts.fraction}/16777216 s (q=0x{ts.time_quality:02x})")

