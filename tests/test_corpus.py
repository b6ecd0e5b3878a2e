"""Pinned outcomes of the codec's TLV walking over a seeded frame corpus.

Every input is built here from fixed seeds: the golden frame and each of
its truncations, bit-level mutations of multi-ASDU frames, garbage after
a valid header, unknown tags at each depth and long-form lengths. For
each one, ``corpus_outcomes.json`` holds what the codec did with it: the
dissect rows, strict and lenient ``decode_frame`` (the exception class,
or the decoded frame with its warnings), the datagrams the publisher
joins from a valid frame, and the stdout of ``svlite decode --raw`` on
a capture of the whole corpus. Frames and rows are kept as digests.

Regenerate the fixture, only for a deliberate behaviour change, with
``PYTHONPATH=src python tests/test_corpus.py --regenerate``.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from helpers import GOLDEN_SCHEMA, GOLDEN_WIRE, golden_frame, random_valid_frame, \
    reference_tlv, stamp_octets
from svlite.cli import main
from svlite.codec import DecodeMode, decode_frame, dissect, encode_frame, \
    pack_seq_data
from svlite.model import Quality, Validity
from svlite.transport import EndpointConfig, publish_stream

FIXTURE = Path(__file__).with_name("corpus_outcomes.json")

# The golden frame's 26-octet link and APPID header, and its ASDU fields.
_HEADER = GOLDEN_WIRE[:26]
_SVID = reference_tlv(0x80, b"xxxxMUnn01")
_SMPCNT = reference_tlv(0x82, b"\x00\x01")
_CONFREV = reference_tlv(0x83, b"\x00\x00\x00\x01")
_REFRTM = reference_tlv(0x84, bytes(8))
_SMPSYNCH = reference_tlv(0x85, b"\x00")
_SEQDATA = reference_tlv(0x87, bytes.fromhex("00001111" + "00" * 10))
_FIELDS = _SVID + _SMPCNT + _CONFREV + _REFRTM + _SMPSYNCH + _SEQDATA


def _frame(savpdu: bytes) -> bytes:
    """Golden link header around ``savpdu``, Length field computed."""
    return (_HEADER[:20] + (8 + len(savpdu)).to_bytes(2, "big")
            + _HEADER[22:] + savpdu)


def _savpdu(seq_content: bytes, no_asdu: int = 1, extra: bytes = b"") -> bytes:
    return reference_tlv(0x60, reference_tlv(0x80, bytes([no_asdu]))
                         + reference_tlv(0xA2, seq_content) + extra)


def _long(tag: int, value: bytes, form: int) -> bytes:
    """TLV with a non-minimal 0x81 or 0x82 length, or a rejected form."""
    if form == 0x81:
        return bytes([tag, 0x81, len(value)]) + value
    if form == 0x82:
        return bytes([tag, 0x82]) + len(value).to_bytes(2, "big") + value
    if form == 0x83:
        return bytes([tag, 0x83]) + len(value).to_bytes(3, "big") + value
    return bytes([tag, 0x80]) + value + b"\x00\x00"  # indefinite


def _structured_inputs() -> list[tuple[str, bytes]]:
    asdu = reference_tlv(0x30, _FIELDS)
    unknown = reference_tlv(0x86, b"\x0f\xa0")
    out = [
        ("unknown-depth0-tag", _frame(b"\x61" + _savpdu(asdu)[1:])),
        ("unknown-depth0-after", _frame(_savpdu(asdu)) + unknown),
        ("unknown-depth1-first",
         _frame(reference_tlv(0x60, unknown + reference_tlv(0x80, b"\x01")
                              + reference_tlv(0xA2, asdu)))),
        ("unknown-depth1-last", _frame(_savpdu(asdu, extra=unknown))),
        ("unknown-depth1-constructed",
         _frame(_savpdu(asdu, extra=reference_tlv(0xA3, asdu)))),
        ("unknown-depth2-first", _frame(_savpdu(unknown + asdu))),
        ("unknown-depth2-last", _frame(_savpdu(asdu + reference_tlv(0x31, _FIELDS)))),
        ("unknown-depth3-first", _frame(_savpdu(reference_tlv(0x30, unknown + _FIELDS)))),
        ("unknown-depth3-middle",
         _frame(_savpdu(reference_tlv(0x30, _SVID + _SMPCNT + unknown + _CONFREV
                                      + _REFRTM + _SMPSYNCH + _SEQDATA)))),
        ("unknown-depth3-last", _frame(_savpdu(reference_tlv(0x30, _FIELDS + unknown)))),
        ("duplicate-field", _frame(_savpdu(reference_tlv(0x30, _FIELDS + _SMPCNT)))),
        ("empty-asdu", _frame(_savpdu(reference_tlv(0x30, b""), no_asdu=1))),
        ("empty-seqasdu", _frame(_savpdu(b"", no_asdu=0))),
        ("empty-savpdu", _frame(reference_tlv(0x60, b""))),
        ("no-noasdu", _frame(reference_tlv(0x60, reference_tlv(0xA2, asdu)))),
        ("two-seqasdu",
         _frame(_savpdu(asdu, no_asdu=2, extra=reference_tlv(0xA2, asdu)))),
        ("bad-field-widths",
         _frame(_savpdu(reference_tlv(0x30, _SVID + reference_tlv(0x82, b"\x01")
                                      + reference_tlv(0x83, b"\x01")
                                      + reference_tlv(0x84, bytes(9))
                                      + reference_tlv(0x85, b"\x00\x03")
                                      + _SEQDATA)))),
        ("non-ascii-svid",
         _frame(_savpdu(reference_tlv(0x30, reference_tlv(0x80, b"mu\xfc01")
                                      + _FIELDS[len(_SVID):])))),
        ("smpsynch-out-of-range",
         _frame(_savpdu(reference_tlv(0x30, _FIELDS.replace(_SMPSYNCH, b"\x85\x01\x07"))))),
    ]
    # Long-form lengths at each depth: accepted 0x81/0x82, rejected 0x83
    # and indefinite 0x80.
    for form in (0x81, 0x82, 0x83, 0x80):
        out += [
            (f"long-{form:02x}-savpdu",
             _frame(_long(0x60, _savpdu(asdu)[2:], form))),
            (f"long-{form:02x}-seqasdu",
             _frame(reference_tlv(0x60, reference_tlv(0x80, b"\x01")
                                  + _long(0xA2, asdu, form)))),
            (f"long-{form:02x}-asdu", _frame(_savpdu(_long(0x30, _FIELDS, form)))),
            (f"long-{form:02x}-field",
             _frame(_savpdu(reference_tlv(
                 0x30, _FIELDS[:-len(_SEQDATA)] + _long(0x87, _SEQDATA[2:], form))))),
        ]
    # A TLV whose length octets lie past its container's end: the next
    # octet in the buffer reads as a length, an unsupported form, or is
    # missing altogether.
    lone_tag_asdu = reference_tlv(0x30, _FIELDS + b"\x87")
    out += [
        ("length-past-asdu-then-asdu", _frame(_savpdu(lone_tag_asdu + asdu, 2))),
        ("length-past-asdu-at-end", _frame(_savpdu(lone_tag_asdu))),
        ("length-past-asdu-then-0x83",
         _frame(_savpdu(lone_tag_asdu + b"\x83\x00\x00\x01\x00", 2))),
        ("length-past-seqasdu",
         _frame(reference_tlv(0x60, reference_tlv(0x80, b"\x01")
                              + reference_tlv(0xA2, asdu + b"\x30"))
                + b"\x05" + bytes(5))),
        ("long-length-past-asdu",
         _frame(_savpdu(reference_tlv(0x30, _FIELDS + b"\x87\x82\x00") + asdu, 2))),
    ]
    # An ASDU missing a field, then a sibling that overruns seqASDU.
    missing = reference_tlv(0x30, _FIELDS[:-len(_SEQDATA)])
    out += [
        ("missing-field-then-overrun", _frame(_savpdu(missing + b"\x30\x40" + _FIELDS, 2))),
        ("missing-field-then-overrun-long",
         _frame(_savpdu(missing + b"\x30\x82\x01\x00" + _FIELDS, 2))),
    ]
    return out


def build_corpus() -> list[tuple[str, bytes, tuple | None]]:
    """``(name, datagram, (template, schema) or None)`` in a fixed order."""
    corpus = [(f"golden-cut-{cut:02d}", GOLDEN_WIRE[:cut], None)
              for cut in range(len(GOLDEN_WIRE))]
    corpus.append(("golden", GOLDEN_WIRE, (golden_frame(), GOLDEN_SCHEMA)))
    rng = random.Random(2202)
    for index in range(20):
        frame, schema = random_valid_frame(rng)
        while len(frame.apdu.asdus) < 2:
            frame, schema = random_valid_frame(rng)
        wire = encode_frame(frame, schema)
        corpus.append((f"valid-{index:02d}", wire, (frame, schema)))
        for variant in range(8):
            mutated = bytearray(wire)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(12, len(wire))
                mutated[at] = (mutated[at] + rng.randrange(1, 256)) % 256
            corpus.append((f"valid-{index:02d}-mut-{variant}", bytes(mutated), None))
    for index in range(15):
        corpus.append((f"garbage-after-vlan-{index:02d}",
                       GOLDEN_WIRE[:18] + rng.randbytes(rng.randrange(0, 60)), None))
        corpus.append((f"garbage-after-appid-{index:02d}",
                       GOLDEN_WIRE[:26] + rng.randbytes(rng.randrange(0, 60)), None))
    corpus += [(name, wire, None) for name, wire in _structured_inputs()]
    return corpus


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _decode_outcome(wire: bytes, mode: DecodeMode) -> str:
    try:
        frame = decode_frame(wire, mode)
    except Exception as exc:  # the class is the pinned outcome
        return type(exc).__name__
    record = [frame.dst_mac.hex(), frame.src_mac.hex(), frame.vlan.tci,
              frame.appid, list(frame.decode_warnings)]
    for a in frame.apdu.asdus:
        record.append([a.sv_id, a.smp_cnt, a.conf_rev, stamp_octets(a.refr_tm).hex(),
                       int(a.smp_synch), a.seq_data.hex()])
    return f"SvFrame {len(frame.decode_warnings)} warnings {_digest(record)}"


class _SentDatagrams:
    def __init__(self):
        self.sent: list[str] = []

    def sendto(self, data, destination):
        self.sent.append(bytes(data).hex())


def _published(template, schema) -> str:
    """Digest of two ticks published from ``template``: where the
    publisher joins smpCnt, refrTm and seqData into each ASDU."""
    rng = random.Random(61850)

    def source(tick):
        values = []
        for member in schema:
            bits = 8 * member.width
            lo = -(1 << (bits - 1)) if member.signed else 0
            raw = rng.randint(lo, lo + (1 << bits) - 1)
            if member.include_quality:
                raw = (raw, Quality(Validity(rng.randint(0, 2)), rng.random() < 0.5))
            values.append(raw)
        return pack_seq_data(values, schema)

    sock = _SentDatagrams()
    publish_stream(EndpointConfig(), template, schema, source, 0x10000, 2,
                   pace_hz=1e6, start_smp_cnt=0xBEEF,
                   sock=sock, timestamper=lambda: 1_234_567_890.625)
    return _digest(sock.sent)


def _decode_raw_stdout(corpus) -> str:
    capture = b"".join(len(wire).to_bytes(2, "big") + wire for _, wire, _ in corpus)
    capture += (500).to_bytes(2, "big") + GOLDEN_WIRE  # cut short by the file end
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "corpus.raw")
        with open(path, "wb") as handle:
            handle.write(capture)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["decode", "--raw", path])
    text = out.getvalue()
    return f"exit {code}, {text.splitlines()[-1]}, {_digest(text)}"


def corpus_outcomes() -> dict:
    corpus = build_corpus()
    inputs = {}
    for name, wire, publish in corpus:
        rows = dissect(wire)
        entry = {
            "dissect": f"{len(rows)} rows, last {rows[-1][1]!r}, {_digest(rows)}",
            "strict": _decode_outcome(wire, DecodeMode.STRICT),
            "lenient": _decode_outcome(wire, DecodeMode.LENIENT),
        }
        if publish is not None:
            entry["publish"] = _published(*publish)
        inputs[name] = entry
    return {"inputs": inputs, "decode_raw": _decode_raw_stdout(corpus)}


@functools.cache
def _actual() -> dict:
    return corpus_outcomes()


def _mismatches(key: str) -> list[str]:
    expected = json.loads(FIXTURE.read_text())["inputs"]
    actual = _actual()["inputs"]
    assert actual.keys() == expected.keys(), "the corpus itself changed"
    return [f"{name}: {actual[name].get(key)} != {expected[name].get(key)}"
            for name in expected
            if actual[name].get(key) != expected[name].get(key)]


def test_corpus_size():
    inputs = json.loads(FIXTURE.read_text())["inputs"]
    assert 300 <= len(inputs) <= 400
    assert sum("publish" in entry for entry in inputs.values()) == 21


def test_dissect_rows():
    assert _mismatches("dissect") == []


def test_strict_decode():
    assert _mismatches("strict") == []


def test_lenient_decode():
    assert _mismatches("lenient") == []


def test_publisher_patch_offsets():
    assert _mismatches("publish") == []


def test_decode_raw_stdout():
    expected = json.loads(FIXTURE.read_text())["decode_raw"]
    assert _actual()["decode_raw"] == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --regenerate")
    FIXTURE.write_text(json.dumps(corpus_outcomes(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
