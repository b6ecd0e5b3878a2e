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
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from operator import itemgetter

from . import ber
from .errors import BadEtherType, BadHeader, CountMismatch, LengthMismatch, \
    Overflow, OversizeValue, SchemaMismatch, SvError, Truncated, UnknownTag, \
    UnsupportedLength, WidthMismatch
from .model import QUALITY_OF_OCTET, DatasetSchema, Quality, check_range, \
    int_range, quality_from_word, quality_word

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
# MACs, TPID, TCI, EtherType, then APPID, Length, Reserved1 and Reserved2
_LINK_HEADER = struct.Struct(">6s6sHHHHHHH")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def mac_from_str(text: str) -> bytes:
    """Six colon-separated octets of one or two hex digits each."""
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(f"MAC address needs 6 octets: {text!r}")
    # int(p, 16) alone would also take a sign, "_" and whitespace.
    if not all(0 < len(p) <= 2 and _HEX_DIGITS.issuperset(p) for p in parts):
        raise ValueError(f"bad MAC address {text!r}")
    return bytes(int(p, 16) for p in parts)


def mac_to_str(mac: bytes) -> str:
    return bytes(mac).hex(":")


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
        check_range("VLAN priority", self.priority, 0, 7)
        if type(self.dei) is not bool:
            raise ValueError(f"VLAN DEI must be of type bool, got {self.dei!r}")
        check_range("VLAN ID", self.vid, 0, 0x0FFF)

    @property
    def tci(self) -> int:
        return (self.priority << 13) | (int(self.dei) << 12) | self.vid

    @classmethod
    def from_tci(cls, tci: int) -> "VlanTag":
        tag = object.__new__(cls)  # each field bounded by its bits of the TCI
        _set_field(tag, "priority", (tci >> 13) & 0x7)
        _set_field(tag, "dei", bool(tci & 0x1000))
        _set_field(tag, "vid", tci & 0x0FFF)
        return tag


@dataclass(frozen=True)
class UtcTimestamp:
    """61850-style UTC time: seconds, 24-bit binary fraction, quality octet."""

    seconds: int = 0
    fraction: int = 0
    time_quality: int = 0

    def __post_init__(self):
        check_range("seconds", self.seconds, 0, 0xFFFF_FFFF)
        check_range("fraction", self.fraction, 0, 0xFF_FFFF)
        check_range("time quality", self.time_quality, 0, 0xFF)

    @classmethod
    def from_octets(cls, octets: bytes) -> "UtcTimestamp":
        if len(octets) != 8:
            raise WidthMismatch(f"refrTm needs 8 octets, got {len(octets)}")
        return cls._from_words(*_REFR_TM.unpack(octets))

    @classmethod
    def _from_words(cls, seconds: int, low: int) -> "UtcTimestamp":
        stamp = object.__new__(cls)  # each field bounded by its width
        _set_field(stamp, "seconds", seconds)
        _set_field(stamp, "fraction", low >> 8)
        _set_field(stamp, "time_quality", low & 0xFF)
        return stamp


def refr_tm_octets(units: int, per_second: int) -> bytes:
    """refrTm octets of the instant ``units / per_second`` seconds: the
    seconds, the 24-bit fraction rounded half to even, which carries into
    the seconds, and a zero time quality. An instant outside the 32-bit
    seconds field raises ``ValueError``."""
    stamp, remainder = divmod(units << 24, per_second)  # in 2**-24 s
    if 2 * remainder > per_second or (2 * remainder == per_second and stamp & 1):
        stamp += 1
    try:
        return (stamp << 8).to_bytes(8, "big")
    except OverflowError:
        raise ValueError(f"{units}/{per_second} s is outside the 32-bit "
                         "seconds of refrTm") from None


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
    """The ASDU's TLV, its fixed-width fields one ``_FIXED_FIELDS`` pack."""
    sv_id = asdu.sv_id
    if not isinstance(sv_id, str) or not sv_id or not sv_id.isascii():
        raise ValueError(f"svID must be a non-empty ASCII string, got {sv_id!r}")
    if len(sv_id) > SVID_MAX_LEN:
        raise OversizeValue(f"svID of {len(sv_id)} chars exceeds {SVID_MAX_LEN}")
    if type(asdu.smp_synch) is not SmpSynch:  # strict decode takes 0-2 only
        check_range("smpSynch", asdu.smp_synch, 0, 2)
    stamp = asdu.refr_tm
    if not isinstance(stamp, UtcTimestamp):
        raise ValueError(f"refrTm must be a UtcTimestamp, got {stamp!r}")
    cnt_head, rev_head, tm_head, synch_head = _FIXED_HEADS
    try:
        fixed = _FIXED_FIELDS.pack(
            cnt_head, asdu.smp_cnt, rev_head, asdu.conf_rev,
            tm_head, stamp.seconds, stamp.fraction << 8 | stamp.time_quality,
            synch_head, asdu.smp_synch)
    except struct.error:
        # Only smpCnt and confRev are unchecked: name the one that does not fit.
        check_range("smpCnt", asdu.smp_cnt, 0, 0xFFFF)
        check_range("confRev", asdu.conf_rev, 0, 0xFFFF_FFFF)
        raise
    seq_data = asdu.seq_data
    size = len(seq_data)
    seq_head = (bytes((TAG_SEQDATA, size)) if size < 0x80
                else ber.encode_header(TAG_SEQDATA, size))
    n = len(sv_id)
    body = 2 + n + _FIXED_FIELDS.size + len(seq_head) + size
    head = (bytes((TAG_ASDU, body, TAG_SVID, n)) if body < 0x80
            else ber.encode_header(TAG_ASDU, body) + bytes((TAG_SVID, n)))
    return b"".join((head, sv_id.encode("ascii"), fixed, seq_head, seq_data))


def encode_frame(frame: SvFrame, schema: DatasetSchema) -> bytes:
    """Byte-exact frame encoding; every BER length derives from content.

    An ASDU's smpCnt, confRev, refrTm and smpSynch are one struct pack
    derived from ``_ASDU_FIELDS``, and the frame is then one join. A field
    of the wrong type, or a value it cannot hold, raises ``ValueError`` (or
    an ``SvError``) naming the field; so does an smpSynch that is neither a
    ``SmpSynch`` nor an int of 0-2, which strict decode would reject.
    """
    asdus = frame.apdu.asdus
    if not asdus:
        raise ValueError("savPdu needs at least one ASDU")
    dst, src = frame.dst_mac, frame.src_mac
    if not (type(dst) is type(src) is bytes and len(dst) == len(src) == 6):
        raise ValueError(f"MACs must be bytes of 6 octets, got {dst!r}, {src!r}")
    if not isinstance(frame.vlan, VlanTag):
        raise ValueError(f"VLAN tag must be a VlanTag, got {frame.vlan!r}")
    check_range("APPID", frame.appid, 0, 0xFFFF)
    width = schema.packed_width
    for asdu in asdus:
        if not isinstance(asdu.seq_data, (bytes, bytearray, memoryview)):
            raise ValueError(f"seqData must be octets, got {asdu.seq_data!r}")
        if len(asdu.seq_data) != width:
            raise SchemaMismatch(
                f"seqData is {len(asdu.seq_data)} octets, schema packs {width}")
    count = len(asdus)
    if count > 0xFF:
        raise OversizeValue(f"{count} ASDUs exceeds the single-octet noASDU")
    seq_asdu = list(map(_encode_asdu, asdus))
    size = sum(map(len, seq_asdu))
    seq_head = ber.encode_header(TAG_SEQASDU, size)
    size += len(seq_head) + 3  # the seqASDU, and noASDU's three octets
    savpdu_head = ber.encode_header(TAG_SAVPDU, size)
    length = _FIXED_HEADER_LEN + len(savpdu_head) + size
    if length > 0xFFFF:
        raise OversizeValue(f"Length field {length} exceeds 65535")
    return b"".join([
        _LINK_HEADER.pack(dst, src, TPID_VLAN, frame.vlan.tci, ETHERTYPE_SV,
                          frame.appid, length, 0, 0),
        savpdu_head, bytes((TAG_NOASDU, 1, count)), seq_head, *seq_asdu])


# Tag of the one container the walker enters at each depth.
_CONTAINER_TAGS = (TAG_SAVPDU, TAG_SEQASDU, TAG_ASDU)
_CONTAINER_NAMES = ("savPdu", "seqASDU", "ASDU")


def _walk(data: bytes, cursor: int):
    """Return ``(tlvs, stop)``: the ``(depth, tag, tlv_start, value_start,
    value_end)`` of the savPdu at ``cursor`` (depth 0) and the TLVs inside
    it, depth first, entering only seqASDU (depth 1) and ASDU (depth 2).
    An ASDU that :func:`_read_asdu` reads is not entered: its one entry
    holds that read in place of its tag, and stands for its seven rows.

    ``stop`` is None, or the fault that ended the walk, as
    :func:`_inspect` raises it: ``Truncated`` or ``UnsupportedLength``, the
    message, ``offset``, where dissection stops, and ``overrun``, the TLV as
    read past its container, or None.
    """
    n = len(data)
    tlvs: list[tuple[int, int, int, int, int]] = []
    if cursor >= n:
        return tlvs, (Truncated, f"no tag at offset {cursor}", n, None)
    append, containers = tlvs.append, _CONTAINER_TAGS
    ends = [n]  # value end of each open container, the buffer outermost
    depth, end = 0, n
    while True:
        tag = data[cursor]
        pos = cursor + 1
        if pos < end and data[pos] < 0x80:
            start = pos + 1
            value_end = start + data[pos]
        else:
            # Length octets past the container's end are read from the buffer
            # so dissect can show the overrun; decoding still finds it Truncated.
            if pos >= n:
                return tlvs, (Truncated, f"missing length octet at offset {pos}",
                              n, None)
            first = data[pos]
            count = first & 0x7F if first & 0x80 else 0
            if first == 0x80 or count > 2:
                return tlvs, (UnsupportedLength if pos < end else Truncated,
                              f"length octet 0x{first:02x} at offset {pos} is "
                              "indefinite or exceeds the 2-octet cap", pos, None)
            start = pos + 1 + count
            if start > n:
                return tlvs, (Truncated, f"length octets cut at offset {pos + 1}",
                              n, None)
            value_end = start + (int.from_bytes(data[pos + 1:start], "big")
                                 if count else first)
        if value_end > end:
            return tlvs, (Truncated, f"tag 0x{tag:02x} at offset {cursor} overruns "
                                     f"its container ending at {end}",
                          min(n, value_end), (depth, tag, cursor, start, value_end))
        read = depth == 2 and tag == TAG_ASDU and _read_asdu(data, start, value_end)
        append((depth, read or tag, cursor, start, value_end))
        if depth < 3 and tag == containers[depth] and not read:
            ends.append(value_end)
            depth, end, cursor = depth + 1, value_end, start
        elif depth == 0:
            return tlvs, None
        else:
            cursor = value_end
        while cursor == end:
            ends.pop()
            depth -= 1
            if not depth:
                return tlvs, None
            end = ends[-1]


def _inspect(data: bytes, mode: DecodeMode | None = None):
    """Make each check of decoding on ``data`` once, in decoding's order.

    Returns ``(header, tlvs, faults, asdus)``: the TCI (None untagged),
    EtherType (the TPID untagged), APPID, Length, Reserved1 and Reserved2,
    zeros past a short frame; the walk's TLVs; the faults; and per ASDU its
    field rows and the values lenient decoding reads, or None and the read
    of one the walk read in one unpack, which has no fault. A fault is the error
    class and message strict decoding raises, the warning lenient decoding
    records instead (None: it raises too) and the dissect rows that show
    it: an int flags the row that many past the savPdu's, a row is added
    after the TLV rows. Under a decode ``mode`` the check that finds a
    fault that mode rejects raises it, and no added row is built; with
    none, every fault is listed.
    """
    faults = []
    listing = mode is None  # build the rows only dissect shows

    def add(error, message, lenient, rows):
        if mode is DecodeMode.STRICT or (mode is not None and lenient is None):
            raise error(message)
        faults.append((error, message, lenient, rows))

    n = len(data)
    tagged = data[12:14] == b"\x81\x00"
    apdu_start = 18 if tagged else 14
    cursor = apdu_start + _FIXED_HEADER_LEN  # where the savPdu starts
    head = data[:cursor].ljust(cursor, b"\0")
    header = ((head[14] << 8) | head[15] if tagged else None,
              *struct.unpack_from(">5H", head, apdu_start - 2))
    _, ethertype, _, length_field, res1, res2 = header
    if n >= apdu_start:
        if not tagged:
            add(BadEtherType, f"expected 802.1Q TPID 0x8100, got 0x{ethertype:04x}",
                "missing 802.1Q tag" if ethertype == ETHERTYPE_SV else None, (-6,))
        if ethertype != ETHERTYPE_SV:
            add(BadEtherType, f"EtherType 0x{ethertype:04x} is not IEC 61850/SV "
                              "(0x88ba)", None, (-5,))
    if n < cursor:
        message = (f"frame of {n} octets ends inside the link header" if n < 14
                   else "frame ends inside the 802.1Q tag" if n < apdu_start
                   else "frame ends inside the APPID header")
        add(Truncated, message, None,
            (_warning(0, f"TRUNCATED at offset {n}" if n else "empty capture"),)
            if listing else ())
        return header, [], faults, []
    if res1 or res2:
        message = f"reserved octets nonzero (0x{res1:04x} 0x{res2:04x})"
        add(BadHeader, message, message, (-2,) * bool(res1) + (-1,) * bool(res2))
    tlvs, stop = _walk(data, cursor)
    if tlvs:  # else the walk stopped in the savPdu's header or value
        _, tag, _, _, end = tlvs[0]
        if tag != TAG_SAVPDU:
            add(UnknownTag, f"expected savPdu tag 0x60, got 0x{tag:02x}", None, (0,))
        actual = end - apdu_start
        if length_field != actual:
            message = f"Length field {length_field} != actual APDU length {actual}"
            add(LengthMismatch, message, message,
                (_warning(0, f"Length field {length_field} != actual {actual}"),)
                if listing else ())
        if end != n:
            message = f"{n - end} trailing octets after savPdu"
            shown = ()
            if listing:
                tail = data[end:].hex()
                shown = (_warning(0, f"{n - end} trailing octets", tail, tail),)
            add(LengthMismatch, message, message, shown)

    asdus: list[tuple[dict[int, int], dict[int, bytes]]] = []
    rows: dict[int, int] = {}  # by tag, the row of each field of the open ASDU
    values: dict[int, bytes] = {}  # and its value
    no_asdu = None
    asdu_end, row = -1, 0
    for depth, tag, _, start, end in tlvs[1:]:
        row += 1
        if depth == 3 and tag in _ASDU_FIELDS:
            if tag in values:
                message = f"duplicate {_ASDU_FIELDS[tag][0]} in ASDU"
                add(SchemaMismatch, message, message + ", keeping the last", (row,))
            rows[tag] = row
            values[tag] = data[start:end]
        elif depth == 2 and tag == TAG_ASDU:
            rows = {}
            values = {}
            asdu_row = row
            asdu_end = end
        elif type(tag) is tuple:  # an ASDU read in one unpack
            asdus.append((None, tag))
            row += 6
        elif depth == 1 and tag == TAG_NOASDU:
            no_asdu = int.from_bytes(data[start:end], "big")
            no_asdu_row = row
        elif depth != 1 or tag != TAG_SEQASDU:
            where = _CONTAINER_NAMES[depth - 1]
            add(UnknownTag, f"unexpected tag 0x{tag:02x} inside {where}",
                f"skipped tag 0x{tag:02x} inside {where}", (row,))
        # An ASDU is checked once its last field is in, or at once when it
        # is empty, before any fault in a later header surfaces.
        if end == asdu_end and (depth == 3 or start == end):
            asdus.append((rows, _asdu_values(values, rows, asdu_row, add)))
    if stop is not None:
        error, message, offset, overrun = stop
        shown = ()
        if listing:
            shown = () if overrun is None else (_overrun_row(data, overrun),)
            shown += (_warning(0, f"TRUNCATED at offset {offset}"),)
        add(error, message, None, shown)
    elif no_asdu is None:
        message = "savPdu carries no noASDU field"
        add(SchemaMismatch, message, message, (0,))
    elif no_asdu != len(asdus):
        message = f"noASDU says {no_asdu}, found {len(asdus)} ASDU elements"
        add(CountMismatch, message, message, (no_asdu_row,))
    return header, tlvs, faults, asdus


def _asdu_values(raw: dict[int, bytes], rows: dict[int, int], asdu_row: int,
                 add) -> dict[int, bytes]:
    """``add`` the faults of the ASDU whose field values ``raw`` and rows
    ``rows`` hold by tag; return the values lenient decoding reads, repaired
    in ``raw`` unless a field is missing."""
    if len(raw) != len(_ASDU_FIELDS):
        missing = [field[0] for tag, field in _ASDU_FIELDS.items() if tag not in raw]
        message = "ASDU missing " + ", ".join(missing)
        add(SchemaMismatch, message, message, (asdu_row,))
        raw = _MISSING | raw
    if not raw[TAG_SVID].isascii():
        add(SchemaMismatch, "svID is not ASCII",
            "svID is not ASCII, decoded with replacements", (rows[TAG_SVID],))
    for tag, (name, width, _) in _ASDU_FIELDS.items():
        if width and len(raw[tag]) != width:
            message = f"{name} is {len(raw[tag])} octets, expected {width}"
            add(LengthMismatch, message, message, (rows[tag],))
    raw[TAG_REFRTM] = raw[TAG_REFRTM][:8].ljust(8, b"\x00")
    synch = int.from_bytes(raw[TAG_SMPSYNCH], "big")
    if synch > 2:
        message = f"smpSynch value {synch} is not 0/1/2"
        add(SchemaMismatch, message, message + ", using none", (rows[TAG_SMPSYNCH],))
        raw[TAG_SMPSYNCH] = b"\0"
    return raw


def decode_frame(data: bytes, mode: DecodeMode = DecodeMode.STRICT) -> SvFrame:
    """Parse a frame back into its model.

    Strict mode rejects wrong EtherType, nonzero reserved octets, Length
    disagreement and unknown tags. Lenient mode skips unknown tags and
    records every tolerated inconsistency on ``SvFrame.decode_warnings``,
    which keeps third-party frames with sloppy length octets readable.
    A fault is raised from this function, so the error carries none of
    the walker's frames and a caller that keeps it pins none of its state.
    """
    if not isinstance(mode, DecodeMode):
        raise ValueError(f"decode mode must be a DecodeMode, got {mode!r}")
    data = memoryview(data).tobytes()  # bytes() reads an int as that many zeros
    try:
        header, _, faults, asdus = _inspect(data, mode)
    except SvError as fault:
        raise fault.with_traceback(None)  # drop _inspect's frames and locals
    tci, _, appid, *_ = header
    return SvFrame(data[0:6], data[6:12], VlanTag.from_tci(tci or 0), appid,
                   SavApdu([_asdu_from(data, *asdu) for asdu in asdus]),
                   decode_warnings=tuple(lenient for _, _, lenient, _ in faults))


_SMP_SYNCH = tuple(SmpSynch)
_SYNCH_TEXT = tuple(f"{synch.value} ({synch.name.lower()})" for synch in SmpSynch)
_set_field = object.__setattr__  # frozen fields that octet widths bound: no checks
_REFR_TM = struct.Struct(">II")  # seconds; fraction << 8 | time quality


def _asdu_from(data: bytes, rows, raw) -> Asdu:
    if rows is None:  # the walk's read of one unpack
        sv_id, _, seq_start, end, _, cnt, _, rev, _, seconds, low, _, synch = raw
        return Asdu(sv_id, cnt, rev, UtcTimestamp._from_words(seconds, low),
                    _SMP_SYNCH[synch], data[seq_start:end])
    sv_id, smp_cnt, conf_rev, refr_tm, synch, seq_data = _FIELD_VALUES(raw)
    return Asdu(sv_id.decode("ascii", "replace"), int.from_bytes(smp_cnt, "big"),
                int.from_bytes(conf_rev, "big"), UtcTimestamp.from_octets(refr_tm),
                _SMP_SYNCH[int.from_bytes(synch, "big")], seq_data)


class FramePlan:
    """The compiled layout of one encoded frame.

    ``parts`` is the frame cut at the edges of every smpCnt, refrTm and
    seqData value, the octets that change from tick to tick: its fixed
    octets sit at even indices (empty where nothing lies between two cuts)
    and the changing octets at odd ones. ``slots`` holds, per ASDU in wire
    order, the indices in ``parts`` of its smpCnt, refrTm and seqData. With
    a fixed schema and svID every BER length is constant, so the publisher
    builds each tick by joining ``parts`` with that tick's octets in the
    slots. ``fixed`` unpacks a datagram of the frame's length
    (``fixed.size``) to its fixed octets, padding over the changing ones.
    A datagram whose unpack equals ``fixed_octets``, the frame's own,
    carries every tag and length of the frame, and it decodes to the frame
    with only smpCnt, refrTm and seqData read anew.

    Only a frame whose every ASDU is laid out as the encoder writes it, and
    so read in one unpack, is planned. A frame strict decoding rejects
    raises that ``SvError``; any other raises :class:`SchemaMismatch`.
    """

    def __init__(self, wire: bytes):
        wire = bytes(wire)
        cuts = [0]
        for index, (rows, read) in enumerate(_inspect(wire, DecodeMode.STRICT)[3]):
            if rows is not None:
                raise SchemaMismatch(
                    f"ASDU{index + 1} is not laid out as the encoder writes it")
            fixed, seq_start, end = read[1:4]
            # smpCnt 2 octets into the struct, refrTm 12, then seqData
            cuts += [fixed + 2, fixed + 4, fixed + 12, fixed + 20, seq_start, end]
        cuts.append(len(wire))
        self.parts = parts = tuple(wire[start:end] for start, end in zip(cuts, cuts[1:]))
        self.slots = tuple((at, at + 2, at + 4) for at in range(1, len(parts) - 1, 6))
        self.fixed = struct.Struct(">" + "".join(
            f"{len(part)}{'sx'[index & 1]}" for index, part in enumerate(parts)
            if part or index & 1))
        self.fixed_octets = self.fixed.unpack(wire)

    def reader(self, schema: DatasetSchema):
        """Compile one read of a datagram that carries the frame's fixed
        octets, or None.

        Only the reduced profile's frame is read: one ASDU whose seqData is
        ``schema.packed_width`` octets. Its read is one struct unpack giving
        ``(smpCnt, *seqData fields)``, the fields in ``schema.seq_struct``'s
        codes, with every other octet padded over. Any other frame gets
        None, and is decoded instead.
        """
        layout = schema.seq_struct
        if len(self.slots) != 1 or len(self.parts[5]) != layout.size:
            return None
        head, _, *between, _, tail = map(len, self.parts)
        return struct.Struct(
            f">{head}xH{sum(between)}x{layout.format[1:]}{tail}x").unpack


def pack_seq_data(values, schema: DatasetSchema) -> bytes:
    """Concatenate raw samples in schema order, big-endian.

    Each item is a raw integer or a ``(raw, Quality)`` pair; the quality
    octets are appended only for members with ``include_quality`` set
    (defaulting to good when the item carries none). An int its member
    cannot hold raises :class:`Overflow`; any other value, a quality that
    is neither a :class:`Quality` nor None, or a quality word over one
    octet, raises ``ValueError`` naming the member.
    """
    if len(values) != len(schema):
        raise CountMismatch(
            f"{len(values)} values for a schema of {len(schema)} members")
    fields = []
    for item, member in zip(values, schema.members):
        value, quality = item if isinstance(item, tuple) else (item, None)
        fields.append(value)
        if member.include_quality:
            if not isinstance(quality, (Quality, type(None))):
                raise ValueError(
                    f"{member.name} quality must be a Quality, got {quality!r}")
            fields.append(0 if quality is None else quality_word(quality))
    try:
        return schema.seq_struct.pack(*fields)
    except struct.error:
        # Name the first value that does not fit its member.
        for (index, quality_follows), member in zip(schema.value_layout, schema):
            value = fields[index]
            if not isinstance(value, int):
                raise ValueError(f"{member.name} must be of type int, got {value!r}")
            lo, hi = int_range(member.width, member.signed)
            if not lo <= value <= hi:
                kind = "signed" if member.signed else "unsigned"
                raise Overflow(f"{value} does not fit {member.width} {kind} octets")
            if quality_follows and not 0 <= fields[index + 1] <= 0xFF:
                raise ValueError(f"{member.name} quality word {fields[index + 1]} "
                                 "does not fit one octet")
        raise


def unpack_seq_data(octets: bytes, schema: DatasetSchema) -> list:
    """Inverse of :func:`pack_seq_data`."""
    layout = schema.seq_struct
    if len(octets) != layout.size:
        raise WidthMismatch(
            f"{len(octets)} octets against a schema of {layout.size}")
    return seq_data_values(layout.unpack(octets), schema)


def seq_data_values(fields, schema: DatasetSchema) -> list:
    """The values of one seqData from its ``schema.seq_struct`` fields: a
    raw integer per member, paired with its quality where it has one."""
    if len(fields) == len(schema.members):
        return list(fields)
    out = []
    for index, quality_follows in schema.value_layout:
        if quality_follows:
            word = fields[index + 1]
            quality = QUALITY_OF_OCTET[word]
            if quality is None:
                quality_from_word(word)  # raises BadQuality
            out.append((fields[index], quality))
        else:
            out.append(fields[index])
    return out


# --- dissection ----------------------------------------------------------

DissectLine = tuple[int, str, str, str]


class WarningLine(tuple):
    """A ``DissectLine`` that flags a fault in the capture."""


def _warning(depth: int, name: str, raw: str = "", decoded: str = "") -> DissectLine:
    return WarningLine((depth, name, raw, decoded))


def dissect(data: bytes) -> list[DissectLine]:
    """Best-effort field walk for captures; never raises on octets.

    Returns ``(depth, name, raw_hex, decoded)`` rows in wire order. Each
    fault that strict decoding can raise on the frame makes a
    :class:`WarningLine`, and a short buffer ends in a ``TRUNCATED at
    offset N`` one. An int, not octets, raises ``TypeError``.
    """
    data = memoryview(data).tobytes()  # bytes() reads an int as that many zeros
    header, tlvs, faults, _ = _inspect(data)
    tci, ethertype, appid, length_field, res1, res2 = header
    dst, src = data[0:6], data[6:12]
    lines = [(0, "Destination", dst.hex(), mac_to_str(dst)),
             (0, "Source", src.hex(), mac_to_str(src))]
    if tci is None:
        lines.append((0, "no 802.1Q tag", "", ""))
    else:
        lines += [(0, "Type", "8100", "0x8100 (802.1Q Virtual LAN)"),
                  (0, "PRI/DEI/ID", f"{tci:04x}",
                   f"priority {tci >> 13}, DEI {tci >> 12 & 1}, VID {tci & 0x0FFF}")]
    note = "IEC 61850/SV" if ethertype == ETHERTYPE_SV else "not IEC 61850/SV"
    lines += [(0, "EtherType", f"{ethertype:04x}", f"0x{ethertype:04x} ({note})"),
              (0, "APPID", f"{appid:04x}", f"0x{appid:04x}"),
              (0, "Length", f"{length_field:04x}", str(length_field)),
              (0, "Reserved1", f"{res1:04x}", f"0x{res1:04x}"),
              (0, "Reserved2", f"{res2:04x}", f"0x{res2:04x}")]
    savpdu_row = len(lines)
    # A short capture keeps the rows of the octets it holds.
    del lines[bisect_right(_HEADER_ROW_ENDS[tci is not None], len(data)):]
    _tlv_rows(data, tlvs, lines)
    for *_, rows in faults:
        for row in rows:
            if type(row) is int:
                lines[savpdu_row + row] = WarningLine(lines[savpdu_row + row])
            else:
                lines.append(row)
    return lines


# Indents of the row depths, 0 (link header and savPdu) to 3 (ASDU fields).
_INDENTS = ("", "  ", "    ", "      ")
# Ends the rendered text of each WarningLine, so a row's start stays its own.
WARNING_MARK = "  [warning]"


def render_dissection(lines: list[DissectLine]) -> str:
    rendered = []
    for line in lines:
        depth, name, _, decoded = line
        text = f"{_INDENTS[depth]}{name}: {decoded}" if decoded else _INDENTS[depth] + name
        rendered.append(text + WARNING_MARK if isinstance(line, WarningLine) else text)
    return "\n".join(rendered)


# Offsets where each link-header row ends, untagged and tagged. Untagged,
# the two octets after the MACs give both the 802.1Q and EtherType rows.
_HEADER_ROW_ENDS = ((6, 12, 14, 14, 16, 18, 20, 22),
                    (6, 12, 14, 16, 18, 20, 22, 24, 26))


def _render_uint(value: bytes) -> str:
    return str(int.from_bytes(value, "big"))


def _render_smp_synch(value: bytes) -> str:
    synch = int.from_bytes(value, "big")
    return _SYNCH_TEXT[synch] if synch < 3 else f"{synch} (?)"


def _render_refr_tm(value: bytes) -> str:
    return (_stamp_text(*_REFR_TM.unpack(value)) if len(value) == 8
            else f"{len(value)} octets (expected 8)")


def _stamp_text(seconds: int, low: int) -> str:
    return (f"{time.strftime('%Y-%m-%d %H:%M:%S', time.gmtime(seconds))}Z "
            f"+{low >> 8}/16777216 s (q=0x{low & 0xFF:02x})")


# The ASDU fields by tag, in the order encode writes them: name, the width
# decode requires (None: any) and the text dissect shows for the value.
# The rows with a width, between svID and seqData, encode writes with one
# struct pack, ``_FIXED_FIELDS``, derived from these rows, and no other way.
_ASDU_FIELDS = {
    TAG_SVID: ("svID", None, lambda v: v.decode("ascii", "replace")),
    TAG_SMPCNT: ("smpCnt", 2, _render_uint),
    TAG_CONFREV: ("confRev", 4, _render_uint),
    TAG_REFRTM: ("refrTm", 8, _render_refr_tm),
    TAG_SMPSYNCH: ("smpSynch", 1, _render_smp_synch),
    TAG_SEQDATA: ("seqData", None, lambda v: f"{len(v)} octets {v.hex()}"),
}
_FIELD_VALUES = itemgetter(*_ASDU_FIELDS)
# Per fixed-width field, its tag and short-form length as one word, then
# its value: refrTm's as the two words of ``_REFR_TM``.
_WIDTH_CODES = {1: "B", 2: "H", 4: "I", 8: "II"}
_FIXED_HEADS = tuple(tag << 8 | width for tag, (_, width, _) in _ASDU_FIELDS.items()
                     if width)
_FIXED_FIELDS = struct.Struct(">" + "".join(
    "H" + _WIDTH_CODES[head & 0xFF] for head in _FIXED_HEADS))
_HEADS_OF = itemgetter(0, 2, 4, 7)  # the words of _FIXED_HEADS in an unpack
# What lenient decoding reads for a missing field: the ``Asdu`` default.
_MISSING = {TAG_SVID: b"", TAG_SMPCNT: bytes(2), TAG_CONFREV: b"\0\0\0\1",
            TAG_REFRTM: bytes(8), TAG_SMPSYNCH: b"\0", TAG_SEQDATA: b""}

# Dissect rows by (depth, tag): the row name, and the renderer of a leaf
# value, or None for a container, whose row shows its header hex only.
_ROWS = {(depth, tag): (name, None) for depth, (tag, name)
         in enumerate(zip(_CONTAINER_TAGS, _CONTAINER_NAMES))}
_ROWS[1, TAG_NOASDU] = ("noASDU", _render_uint)
_ROWS.update(((3, tag), (name, render))
             for tag, (name, _, render) in _ASDU_FIELDS.items())


def _read_asdu(data: bytes, start: int, end: int):
    """``(svID, fixed, seq_start, end, *the _FIXED_FIELDS at fixed)`` of the
    ASDU value ``data[start:end]`` if laid out exactly as :func:`_encode_asdu`
    writes it, with a short-form ASCII svID and smpSynch 0-2; else None."""
    if start + 2 > end or data[start] != TAG_SVID or data[start + 1] >= 0x80 \
            or start + 27 + data[start + 1] > end:  # svID TLV, struct (23), seqData head
        return None
    fixed = start + 2 + data[start + 1]
    seq = fixed + _FIXED_FIELDS.size
    fields = _FIXED_FIELDS.unpack_from(data, fixed)
    seq_start = seq + 2 + max(data[seq + 1] - 0x80, 0)  # 0x81 and 0x82 forms
    if (seq_start > end or _HEADS_OF(fields) != _FIXED_HEADS or fields[-1] > 2
            or not (sv_id := data[start + 2:fixed]).isascii()
            or data[seq:seq_start] != ber.encode_header(TAG_SEQDATA, end - seq_start)):
        return None
    return (sv_id.decode("ascii"), fixed, seq_start, end, *fields)


def _tlv_rows(data: bytes, tlvs, lines: list[DissectLine]) -> None:
    """Append the row of each TLV the walker returned."""
    asdu_index = 0
    rows, append = _ROWS, lines.append
    for depth, tag, tlv_start, start, end in tlvs:
        if type(tag) is tuple:  # a read ASDU: fixed-field TLVs of 4, 6, 10, 3 octets
            sv_id, fixed, seq_start, _, _, cnt, _, rev, _, seconds, low, _, synch = tag
            text, size = data[tlv_start:end].hex(), end - seq_start
            at, fixed, asdu_index = 2 * (start - tlv_start), 2 * (fixed - tlv_start), \
                asdu_index + 1
            lines += [(2, f"ASDU{asdu_index}", text[:at], f"{end - start} octets"),
                      (3, "svID", text[at:fixed], sv_id),
                      (3, "smpCnt", text[fixed:fixed + 8], str(cnt)),
                      (3, "confRev", text[fixed + 8:fixed + 20], str(rev)),
                      (3, "refrTm", text[fixed + 20:fixed + 40], _stamp_text(seconds, low)),
                      (3, "smpSynch", text[fixed + 40:fixed + 46], _SYNCH_TEXT[synch]),
                      (3, "seqData", text[fixed + 46:],
                       f"{size} octets {text[len(text) - 2 * size:]}")]
            continue
        name, render = rows.get((depth, tag), ("", None))
        if render is not None:
            append((depth, name, data[tlv_start:end].hex(), render(data[start:end])))
        elif name:
            if depth == 2:
                asdu_index += 1
                name += str(asdu_index)
            append((depth, name, data[tlv_start:start].hex(), f"{end - start} octets"))
        else:  # an unknown tag; in the savPdu's place, its header only
            note = "skipped" if depth else "expected savPdu 0x60"
            raw = data[tlv_start:end if depth else start].hex()
            append((depth, f"tag 0x{tag:02x}", raw, f"{end - start} octets ({note})"))


def _overrun_row(data: bytes, tlv) -> DissectLine:
    depth, tag, tlv_start, start, _ = tlv
    if depth == 0:
        lines: list[DissectLine] = []
        _tlv_rows(data, [tlv], lines)
        # Decoding stops before its savPdu tag check, so flag a wrong tag here.
        return lines[0] if tag == TAG_SAVPDU else WarningLine(lines[0])
    if depth == 3:
        name = _ASDU_FIELDS[tag][0] if tag in _ASDU_FIELDS else f"tag 0x{tag:02x}"
        return _warning(3, f"{name} overruns ASDU")
    return _warning(depth, f"tag 0x{tag:02x} overruns {_CONTAINER_NAMES[depth - 1]}",
                    data[tlv_start:start].hex())
