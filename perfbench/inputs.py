"""Seeded inputs: config text, CLI arguments and capture files.

The same seed always gives the same bytes. Only the values vary with the
seed; the structure of each input (member layout, rates, impairments,
capture mix) is fixed, so per-frame cost is comparable across seeds.
"""

from __future__ import annotations

import random
import string

from svlite.codec import (
    Asdu,
    SavApdu,
    SmpSynch,
    SvFrame,
    UtcTimestamp,
    VlanTag,
    encode_frame,
    pack_seq_data,
)
from svlite.model import DatasetSchema, Quality, SchemaMember, Validity

# Impairments of sim-impaired-256q: every netsim path is live (loss draw,
# jitter through the delivery heap, reorder through the hold-back slot).
IMPAIRED_ARGS = ("--loss", "0.02", "--jitter", "0.00005",
                 "--reorder", "0.01", "--latency", "0.001")


def unit_seed(seed: int, unit: int) -> int:
    """Seed of one repetition; units 0 and 1 share it for the determinism check."""
    return seed * 1000 + max(unit - 1, 0)


def impaired_config(seed: int) -> str:
    """50 Hz x 256 stream, quality on every member, one noise channel and one
    channel that goes invalid every n-th tick."""
    rng = random.Random(seed)
    return "\n".join((
        f"sv_id = bench{rng.randrange(10**6):06d}",
        "nominal_hz = 50",
        "points_per_period = 256",
        "member = TCTR1.AmpSv.instMag.i:4:signed:-3:0:q",
        "member = TCTR1.AmpSv.instMag.n:4:signed:-3:0:q",
        "member = VCVR1.VolSv.instMag.i:4:signed:-2:0:q",
        "member = VCVR1.VolSv.instMag.c:2:signed:-1:0:q",
        f"channel = sine amp={rng.uniform(50, 150):.3f} "
        f"phase={rng.uniform(0, 6.28):.4f}",
        f"channel = noise dc={rng.uniform(-5, 5):.3f} "
        f"sigma={rng.uniform(1, 3):.3f}",
        f"channel = sine amp={rng.uniform(200, 260):.3f} "
        f"phase={rng.uniform(0, 6.28):.4f} invalid_every={rng.randint(80, 120)}",
        f"channel = const dc={rng.uniform(10, 14):.2f}",
    )) + "\n"


def loopback_config(seed: int, port: int) -> str:
    """The built-in 50 Hz x 80 layout sent unicast to 127.0.0.1."""
    rng = random.Random(seed)
    return "\n".join((
        "endpoint_mode = unicast",
        "endpoint_address = 127.0.0.1",
        f"endpoint_port = {port}",
        "member = TMGF1.MagFld.instMag.i:4:signed:0:0:noq",
        "member = TMGF1.MagFld.GeoCrd.B:4:signed:-4:0:noq",
        "member = TMGF1.MagFld.GeoCrd.L:4:signed:-4:0:noq",
        "member = TMGF1.MagFld.GeoCrd.H:2:signed:-1:0:noq",
        f"channel = sine amp={rng.uniform(500, 1500):.3f}",
        f"channel = const dc={rng.uniform(-90, 90):.4f}",
        f"channel = const dc={rng.uniform(-180, 180):.4f}",
        f"channel = const dc={rng.uniform(0, 100):.1f}",
    )) + "\n"


_SVID_ALPHABET = string.ascii_letters + string.digits


def _random_schema(rng: random.Random) -> DatasetSchema:
    return DatasetSchema(
        SchemaMember(
            name=f"TCTR{index + 1}.AmpSv.instMag.i",
            width=rng.choice((2, 4)),
            signed=rng.random() < 0.5,
            scale_factor=rng.randint(-4, 2),
            offset=rng.randint(-1000, 1000),
            include_quality=rng.random() < 0.5,
        )
        for index in range(rng.randint(1, 2)))


def _random_values(rng: random.Random, schema: DatasetSchema) -> list:
    values = []
    for member in schema:
        bits = 8 * member.width
        if member.signed:
            raw = rng.randint(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        else:
            raw = rng.randint(0, (1 << bits) - 1)
        if member.include_quality:
            values.append(
                (raw, Quality(Validity(rng.randint(0, 2)), rng.random() < 0.5)))
        else:
            values.append(raw)
    return values


def _random_frame(rng: random.Random) -> tuple[SvFrame, DatasetSchema]:
    schema = _random_schema(rng)
    asdus = [
        Asdu(
            sv_id="".join(rng.choice(_SVID_ALPHABET)
                          for _ in range(rng.randint(1, 64))),
            smp_cnt=rng.randint(0, 0xFFFF),
            conf_rev=rng.randint(0, 0xFFFF_FFFF),
            refr_tm=UtcTimestamp(rng.randint(0, 0xFFFF_FFFF),
                                 rng.randint(0, 0xFF_FFFF), rng.randint(0, 0xFF)),
            smp_synch=SmpSynch(rng.randint(0, 2)),
            seq_data=pack_seq_data(_random_values(rng, schema), schema),
        )
        for _ in range(rng.randint(2, 4))]
    frame = SvFrame(
        dst_mac=rng.randbytes(6),
        src_mac=rng.randbytes(6),
        vlan=VlanTag(priority=rng.randint(0, 7), dei=rng.random() < 0.5,
                     vid=rng.randint(0, 0x0FFF)),
        appid=rng.randint(0, 0xFFFF),
        apdu=SavApdu(asdus),
    )
    return frame, schema


VALID, FLIPPED, TRUNCATED = "valid", "flipped", "truncated"


def capture(seed: int, frames: int):
    """Length-prefixed capture of ``frames`` valid multi-ASDU frames, each
    followed by a copy with 1-3 flipped bits and a truncated copy.

    Returns ``(blob, expectations)`` with one ``(kind, frame, schema)`` per
    datagram; ``frame`` and ``schema`` are the valid source it came from.
    """
    rng = random.Random(seed)
    blob = bytearray()
    expectations = []
    for _ in range(frames):
        frame, schema = _random_frame(rng)
        wire = encode_frame(frame, schema)
        flipped = bytearray(wire)
        for _ in range(rng.randint(1, 3)):
            bit = rng.randrange(8 * len(wire))
            flipped[bit // 8] ^= 1 << (bit % 8)
        truncated = wire[:rng.randrange(len(wire))]
        for kind, datagram in ((VALID, wire), (FLIPPED, bytes(flipped)),
                               (TRUNCATED, truncated)):
            blob += len(datagram).to_bytes(2, "big") + datagram
            expectations.append((kind, frame, schema))
    return bytes(blob), expectations


def read_capture(path) -> list[bytes]:
    """Split a capture of 16-bit big-endian length-prefixed datagrams."""
    with open(path, "rb") as handle:
        blob = handle.read()
    datagrams = []
    cursor = 0
    while cursor + 2 <= len(blob):
        length = int.from_bytes(blob[cursor:cursor + 2], "big")
        datagrams.append(blob[cursor + 2:cursor + 2 + length])
        cursor += 2 + length
    if cursor != len(blob):
        raise ValueError(f"capture {path} ends inside a datagram")
    return datagrams
