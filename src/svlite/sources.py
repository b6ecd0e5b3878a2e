"""Deterministic measurement sources standing in for real transducers.

Every sample is a pure function of (channel spec, tick, seed), so a run
can be replayed bit for bit. Periodic channels are locked to the sampling
grid: one electrical period spans exactly ``points_per_period`` ticks.
Each channel quantises through its own dataset member, so a sample is the
raw integer that member puts on the wire.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

from .codec import pack_seq_data
from .model import (DatasetSchema, Quality, SchemaMember, Validity,
                    check_points, quantiser, quality_word)


class WaveKind(Enum):
    SINE = "sine"
    CONSTANT = "const"
    GAUSSIAN_NOISE = "noise"


@dataclass(frozen=True)
class ChannelSpec:
    """One simulated measurement channel, quantised through ``member``."""

    member: SchemaMember
    kind: WaveKind = WaveKind.CONSTANT
    amplitude: float = 0.0
    phase_rad: float = 0.0
    dc_offset: float = 0.0
    noise_sigma: float = 0.0
    invalid_every_nth: int = 0  # 0: quality always good

    def __post_init__(self):
        if type(self.member) is not SchemaMember:
            raise ValueError(
                f"member must be of type SchemaMember, got {self.member!r}")
        if type(self.kind) is not WaveKind:
            raise ValueError(f"kind must be of type WaveKind, got {self.kind!r}")
        for name in ("amplitude", "phase_rad", "dc_offset", "noise_sigma"):
            value = getattr(self, name)
            if type(value) is not float:
                raise ValueError(f"{name} must be of type float, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if type(self.invalid_every_nth) is not int:
            raise ValueError("invalid_every_nth must be of type int, "
                             f"got {self.invalid_every_nth!r}")
        if self.invalid_every_nth < 0:
            raise ValueError(
                f"invalid_every_nth must be >= 0, got {self.invalid_every_nth}")


# Minimal PCG generator (64-bit state, 32-bit XSH-RR output) keyed per
# tick, so noise is randomly addressable instead of stream-positional.
_PCG_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1


def _normal_source(seed: int):
    """A callable giving a tick's standard normal: Box-Muller over the
    first two draws of PCG stream ``tick``, keyed by ``seed``.

    Stream ``t`` has increment ``inc = 2t+1`` and starts at ``inc + seed``,
    so its first two states are linear in ``t`` (mod 2**64):
    ``s1 = (inc + seed) * M + inc = A1*t + B1`` and ``s2 = s1 * M + inc =
    A2*t + B2``, with the four coefficients computed here once.
    """
    a1 = 2 * (_PCG_MULT + 1) & _MASK64
    b1 = (_PCG_MULT + 1 + seed * _PCG_MULT) & _MASK64
    a2 = (a1 * _PCG_MULT + 2) & _MASK64
    b2 = (b1 * _PCG_MULT + 1) & _MASK64
    log, sqrt, cos = math.log, math.sqrt, math.cos
    # 2**-32 and 2*pi*2**-32 scale exactly, so ``(a + 1) * u`` is (a + 1) /
    # 2**32 in (0, 1] and ``b * w`` is 2*pi times b / 2**32 in [0, 1).
    u, w = 2.0 ** -32, 2.0 * math.pi * 2.0 ** -32
    mask = _MASK64

    def normal(tick: int) -> float:
        s1 = (a1 * tick + b1) & mask
        s2 = (a2 * tick + b2) & mask
        # XSH-RR: x = ((s ^ s >> 18) >> 27) mod 2**32 rotated right by
        # s >> 59; x * (2**32 + 1) is x twice over, so shifting that right
        # and keeping 32 bits is the rotation.
        x = ((s1 >> 45) ^ (s1 >> 27)) & 0xFFFF_FFFF
        a = x * 0x1_0000_0001 >> (s1 >> 59) & 0xFFFF_FFFF
        x = ((s2 >> 45) ^ (s2 >> 27)) & 0xFFFF_FFFF
        b = x * 0x1_0000_0001 >> (s2 >> 59) & 0xFFFF_FFFF
        return sqrt(-2.0 * log((a + 1) * u)) * cos(b * w)

    return normal


def _sampler(spec: ChannelSpec, points_per_period: int, seed: int):
    """Raw integer this channel's member carries at a tick, at a
    ``points_per_period`` the caller has checked: the waveform, noise
    source and member quantiser bound once, evaluated per tick."""
    m = spec.member
    quantise = quantiser(m.scale_factor, m.offset, m.width, m.signed)
    dc = spec.dc_offset
    if spec.kind is WaveKind.GAUSSIAN_NOISE:
        normal, sigma = _normal_source(seed), spec.noise_sigma
        return lambda tick: quantise(dc + sigma * normal(tick))
    if spec.kind is WaveKind.SINE:
        amplitude, phase = spec.amplitude, spec.phase_rad
        # The waveform is periodic in points_per_period; reducing the tick
        # first keeps the sine argument small so late ticks quantise
        # exactly like the first period.
        return lambda tick: quantise(dc + amplitude * math.sin(
            2.0 * math.pi * (tick % points_per_period) / points_per_period
            + phase))
    return lambda tick: quantise(dc)


_INVALID = quality_word(Quality(validity=Validity.INVALID))


def sample_provider(channels, points_per_period: int, seed: int = 0):
    """Bind channel specs into a per-tick seqData source for the publisher.

    The returned callable maps a tick index to that tick's seqData
    octets: :func:`~svlite.codec.pack_seq_data` of one ``(raw, quality)``
    pair per channel, in the schema of the channels' members. Raw values
    are exactly what :func:`_sampler` gives; quality is invalid on every
    ``invalid_every_nth`` tick (the n-th, 2n-th, ... counting from 1) and
    good otherwise, and reaches the wire only for a member with quality.

    Sine and constant channels repeat once per period, so one seqData per
    tick of the period is packed here, and an unsupported rate or a value
    that does not fit its member raises now rather than on a later tick.
    Each noise channel is compiled here too, once: its keyed PCG reduced
    to two linear states and its member's quantiser bound. A tick looks
    its octets up in the table, sets the validity octet of each quality
    member whose channel is on an invalid tick, and packs each noise
    channel's sample, drawn and quantised through that compiled sampler,
    into its own span with no second rate check; a noise sample that does
    not fit its member raises :class:`~svlite.errors.Overflow` at its tick.
    """
    check_points(points_per_period)
    specs = tuple(channels)
    schema = DatasetSchema(spec.member for spec in specs)
    columns = []  # raw values per channel, repeating; noise packs as 0
    flags = []    # (validity octet, n) per quality member that goes invalid
    noise = []    # (pack_into, offset, sample) per noise channel
    at = 0
    for spec in specs:
        member = spec.member
        sample = _sampler(spec, points_per_period, seed)
        if spec.kind is WaveKind.GAUSSIAN_NOISE:
            columns.append((0,))
            noise.append((struct.Struct(">" + member.struct_code).pack_into,
                          at, sample))
        elif spec.kind is WaveKind.CONSTANT:
            columns.append((sample(0),))
        else:
            columns.append(tuple(map(sample, range(points_per_period))))
        if spec.invalid_every_nth and member.include_quality:
            # The quality word follows the value; validity is its low octet.
            flags.append((at + member.width + 1, spec.invalid_every_nth))
        at += member.packed_width
    table = tuple(
        pack_seq_data([column[tick % len(column)] for column in columns],
                      schema)
        for tick in range(points_per_period))

    if not flags and not noise:
        def provide(tick: int) -> bytes:
            return table[tick % points_per_period]
        return provide

    def provide(tick: int) -> bytes:
        octets = bytearray(table[tick % points_per_period])
        for offset, n in flags:
            if (tick + 1) % n == 0:
                octets[offset] = _INVALID
        for pack_into, offset, sample in noise:
            pack_into(octets, offset, sample(tick))
        return bytes(octets)

    return provide
