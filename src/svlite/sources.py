"""Deterministic measurement sources standing in for real transducers.

Every sample is a pure function of (channel spec, tick, seed), so a run
can be replayed bit for bit. Periodic channels are locked to the sampling
grid: one electrical period spans exactly ``points_per_period`` ticks.
Each channel quantises through its own dataset member, so a sample is the
raw integer that member puts on the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import UnsupportedRate
from .model import (SUPPORTED_POINTS, Quality, SchemaMember, Validity,
                    from_engineering)


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
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if self.invalid_every_nth < 0:
            raise ValueError(
                f"invalid_every_nth must be >= 0, got {self.invalid_every_nth}")


# Minimal PCG generator (64-bit state, 32-bit XSH-RR output) keyed per
# tick, so noise is randomly addressable instead of stream-positional.
_PCG_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1


def _pcg32_pair(seed: int, stream: int) -> tuple[int, int]:
    inc = ((stream << 1) | 1) & _MASK64
    state = (inc + seed) & _MASK64
    state = (state * _PCG_MULT + inc) & _MASK64

    def draw(state: int) -> tuple[int, int]:
        x = state
        state = (x * _PCG_MULT + inc) & _MASK64
        xorshifted = (((x >> 18) ^ x) >> 27) & 0xFFFF_FFFF
        rot = x >> 59
        out = ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFF_FFFF
        return out, state

    a, state = draw(state)
    b, _ = draw(state)
    return a, b


def _gauss(seed: int, tick: int) -> float:
    """Standard normal via the Box-Muller transform over a keyed PCG draw."""
    a, b = _pcg32_pair(seed, tick)
    u1 = (a + 1) / 4294967296.0  # (0, 1]
    u2 = b / 4294967296.0        # [0, 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def sample_at(
    spec: ChannelSpec,
    tick: int,
    points_per_period: int,
    seed: int = 0,
) -> int:
    """Raw integer this channel's member carries at a given tick."""
    if points_per_period not in SUPPORTED_POINTS:
        raise UnsupportedRate(
            f"{points_per_period} points per period, supported: "
            f"{SUPPORTED_POINTS}")
    if spec.kind is WaveKind.SINE:
        # The waveform is periodic in points_per_period; reducing the tick
        # first keeps the sine argument small so late ticks quantise
        # exactly like the first period.
        angle = (2.0 * math.pi * (tick % points_per_period) / points_per_period
                 + spec.phase_rad)
        engineering = spec.dc_offset + spec.amplitude * math.sin(angle)
    elif spec.kind is WaveKind.CONSTANT:
        engineering = spec.dc_offset
    else:
        engineering = spec.dc_offset + spec.noise_sigma * _gauss(seed, tick)
    m = spec.member
    return from_engineering(
        engineering, m.scale_factor, m.offset, m.width, m.signed)


def sample_provider(channels, points_per_period: int, seed: int = 0):
    """Bind channel specs into a per-tick provider for the publisher.

    The returned callable maps a tick index to the ``(raw, quality)``
    sequence expected by seqData packing, one entry per channel. Raw
    values are exactly what :func:`sample_at` gives; quality is invalid
    on every ``invalid_every_nth`` tick (the n-th, 2n-th, ... counting
    from 1) and good otherwise. Constant and periodic channels are
    precomputed into lookup tables, so a value that does not fit its
    member raises here rather than on a later tick: the publisher calls
    this once per 250 us tick and cannot afford the decimal quantisation
    path there.
    """
    specs = tuple(channels)
    tables: list[tuple[int, ...] | None] = []
    for spec in specs:
        if spec.kind is WaveKind.GAUSSIAN_NOISE:
            tables.append(None)
        elif spec.kind is WaveKind.CONSTANT:
            tables.append((sample_at(spec, 0, points_per_period, seed),))
        else:
            tables.append(tuple(
                sample_at(spec, tick, points_per_period, seed)
                for tick in range(points_per_period)))
    good = Quality()
    invalid = Quality(validity=Validity.INVALID)

    def provide(tick: int):
        out = []
        for spec, table in zip(specs, tables):
            if table is None:
                raw = sample_at(spec, tick, points_per_period, seed)
            else:
                raw = table[tick % len(table)]
            n = spec.invalid_every_nth
            quality = invalid if n and (tick + 1) % n == 0 else good
            out.append((raw, quality))
        return out

    return provide
