"""Pinned dissect, render and decode outcomes over a seeded mutation sweep,
the exact refrTm and MAC texts, and mutation properties of the codec: among
them, that dissect shows a warning exactly when strict decoding raises.

``SWEEP_DIGEST`` is one sha256 over every row, rendered text and strict and
lenient decode outcome of the sweep; a change to any of them changes it.
"""

import hashlib
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from helpers import GOLDEN_WIRE, random_valid_frame
from svlite.codec import (
    DecodeMode,
    _inspect,
    WarningLine,
    decode_frame,
    dissect,
    encode_frame,
    mac_to_str,
    render_dissection,
)
from svlite.config import RunConfig, dump_config
from svlite.errors import SvError

SWEEP_LAYOUTS = 300
SWEEP_DIGEST = "681f2c890431b659a208a18b189ea57d0add35957110f6f02c8b94325563b51a"


def _outcome(mode: DecodeMode, wire: bytes) -> str:
    try:
        frame = decode_frame(wire, mode)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{frame!r} {frame.decode_warnings!r}"


def _datagram_record(wire: bytes) -> str:
    try:
        rows = dissect(wire)
        text = render_dissection(rows)
    except Exception as exc:
        rows, text = [], f"dissect raised {type(exc).__name__}: {exc}"
    lines = [wire.hex()]
    lines += [f"{isinstance(row, WarningLine):d} {tuple(row)!r}" for row in rows]
    lines += [text, _outcome(DecodeMode.STRICT, wire),
              _outcome(DecodeMode.LENIENT, wire)]
    return "\n".join(lines) + "\n"


def _flip_bits(wire: bytes, rng: random.Random) -> bytes:
    mutated = bytearray(wire)
    for _ in range(rng.randint(1, 3)):
        bit = rng.randrange(8 * len(wire))
        mutated[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(mutated)


def sweep():
    """Yield every datagram of the sweep: each layout's wire, three bit-flipped
    copies, truncations through the link header, the APPID header, the
    savPdu header and at random points in the body, a copy with trailing
    octets, and a copy without the 802.1Q tag, whole and cut in its header."""
    layouts, mutations = random.Random(2022), random.Random(9)
    for _ in range(SWEEP_LAYOUTS):
        frame, schema = random_valid_frame(layouts)
        wire = encode_frame(frame, schema)
        yield wire
        for _ in range(3):
            yield _flip_bits(wire, mutations)
        cuts = {0, 1, 13, 17, 25, 27, len(wire) - 1}
        cuts.update(mutations.randrange(28, len(wire)) for _ in range(4))
        for cut in sorted(cuts):
            yield wire[:cut]
        yield wire + bytes(mutations.randrange(256)
                           for _ in range(mutations.randint(1, 3)))
        untagged = wire[:12] + wire[16:]
        for cut in (13, 14, 16, 21, 23, len(untagged)):
            yield untagged[:cut]


def test_sweep_outcomes_are_pinned():
    digest = hashlib.sha256()
    for wire in sweep():
        digest.update(_datagram_record(wire).encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def _warns_and_rejects(wire: bytes) -> tuple[bool, bool]:
    """Whether dissect shows a ``WarningLine`` and whether strict decoding
    raises, on ``wire``."""
    warned = any(isinstance(row, WarningLine) for row in dissect(wire))
    try:
        decode_frame(wire, DecodeMode.STRICT)
    except SvError:
        return warned, True
    return warned, False


def test_sweep_warns_exactly_where_strict_decoding_rejects():
    outcomes = [_warns_and_rejects(wire) for wire in sweep()]
    assert outcomes.count((False, True)) == 0  # a rejected datagram shown clean
    assert outcomes.count((True, False)) == 0  # a warning on a decodable one


# The golden wire's refrTm value starts at offset 59.
_REFR_TM_AT = 59


def _reference_refr_tm(seconds: int, fraction: int, quality: int) -> str:
    moment = datetime.fromtimestamp(seconds, tz=timezone.utc)
    return (f"{moment.strftime('%Y-%m-%d %H:%M:%S')}Z "
            f"+{fraction}/16777216 s (q=0x{quality:02x})")


@pytest.mark.parametrize("seconds", [0, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1])
@pytest.mark.parametrize("fraction", [0, 0xFF_FFFF])
@pytest.mark.parametrize("quality", [0x00, 0xFF])
def test_refr_tm_row_matches_datetime_text(seconds, fraction, quality):
    octets = (seconds.to_bytes(4, "big") + fraction.to_bytes(3, "big")
              + bytes([quality]))
    wire = (GOLDEN_WIRE[:_REFR_TM_AT] + octets
            + GOLDEN_WIRE[_REFR_TM_AT + 8:])
    (row,) = [row for row in dissect(wire) if row[1] == "refrTm"]
    assert row == (3, "refrTm", "8408" + octets.hex(),
                   _reference_refr_tm(seconds, fraction, quality))


def test_mac_text():
    assert mac_to_str(bytes(6)) == "00:00:00:00:00:00"
    assert mac_to_str(bytes.fromhex("0a1bfcff7e80")) == "0a:1b:fc:ff:7e:80"
    rows = dissect(GOLDEN_WIRE)[:2]
    assert rows == [(0, "Destination", "18cc188abcdb", "18:cc:18:8a:bc:db"),
                    (0, "Source", "b827eb471fd7", "b8:27:eb:47:1f:d7")]


def test_dump_config_mac_lines():
    lines = dump_config(RunConfig(dst_mac=bytes.fromhex("01000cff0a09"))).splitlines()
    assert [line for line in lines if "_mac" in line] == [
        "dst_mac = 01:00:0c:ff:0a:09", "src_mac = b8:27:eb:47:1f:d7"]


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       flips=st.lists(st.integers(0, 2 ** 16), max_size=3),
       cut=st.none() | st.integers(0, 2 ** 16))
def test_mutation_property(seed, flips, cut):
    """Bit flips and truncations of a valid wire: dissect never raises,
    strict decode raises only ``SvError``, a cut valid wire ends in a
    TRUNCATED row, and an unchanged wire round-trips with a clean dissection."""
    frame, schema = random_valid_frame(random.Random(seed))
    wire = encode_frame(frame, schema)
    mutated = bytearray(wire)
    for flip in flips:
        bit = flip % (8 * len(wire))
        mutated[bit >> 3] ^= 0x80 >> (bit & 7)
    unflipped = mutated == wire
    if cut is not None:
        mutated = mutated[:1 + cut % (len(wire) - 1)]
    mutated = bytes(mutated)
    rows = dissect(mutated)
    render_dissection(rows)
    try:
        decoded = decode_frame(mutated, DecodeMode.STRICT)
    except SvError:
        decoded = None
    if unflipped and cut is not None:
        assert rows[-1][1].startswith("TRUNCATED")
        assert decoded is None
    elif mutated == wire:
        assert decoded == frame
        assert encode_frame(decoded, schema) == wire
        assert not any(isinstance(row, WarningLine) for row in rows)
        asdu_rows = [row[1] for row in rows if row[0] == 2]
        assert asdu_rows == [f"ASDU{i + 1}" for i in range(len(frame.apdu.asdus))]


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       edits=st.lists(st.tuples(st.booleans(), st.integers(0, 2 ** 16),
                                st.integers(0, 255)), max_size=4),
       cut=st.none() | st.integers(0, 2 ** 16),
       trailing=st.binary(max_size=3))
def test_dissect_warns_iff_strict_decoding_raises(seed, edits, cut, trailing):
    """Bit flips, byte replacements, a truncation and trailing octets of a
    valid wire: dissect shows a ``WarningLine`` exactly when strict decoding
    raises. Against the faults the pass lists with no decode mode, strict
    decoding raises the first, and lenient decoding the first it has no
    warning for, or else returns the warning of each."""
    frame, schema = random_valid_frame(random.Random(seed))
    mutated = bytearray(encode_frame(frame, schema))
    for flip, at, value in edits:
        if flip:
            bit = at % (8 * len(mutated))
            mutated[bit >> 3] ^= 0x80 >> (bit & 7)
        else:
            mutated[at % len(mutated)] = value
    if cut is not None:
        mutated = mutated[:cut % (len(mutated) + 1)]
    wire = bytes(mutated) + trailing
    warned, rejected = _warns_and_rejects(wire)
    assert warned == rejected
    faults = _inspect(wire)[2]
    assert _raised_or_warnings(wire, DecodeMode.STRICT) == (
        faults[0][:2] if faults else ())
    fatal = [fault[:2] for fault in faults if fault[2] is None]
    assert _raised_or_warnings(wire, DecodeMode.LENIENT) == (
        fatal[0] if fatal else tuple(lenient for _, _, lenient, _ in faults))


def _raised_or_warnings(wire: bytes, mode: DecodeMode):
    """The class and message of what decoding raises, or its warnings.

    A fault is raised from ``decode_frame``'s own frame: its traceback ends
    there, so a kept error pins none of the walker's frames.
    """
    try:
        return decode_frame(wire, mode).decode_warnings
    except SvError as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code is decode_frame.__code__
        assert exc.__context__ is None and exc.__cause__ is None
        return type(exc), str(exc)
