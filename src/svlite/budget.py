"""Bandwidth budget of a sampled-value stream.

A stream at nominal frequency f with p points per period sends f*p frames
per second; each frame rides in a UDP datagram whose outer headers add a
fixed overhead on top of the SV payload. The arithmetic here is exact:
rates are integers, intervals are fractions. The profile's structure, one
ASDU of at most ``MAX_DATA_ATTRIBUTES`` data attributes, is enforced where
a stream is described (``RunConfig``) and where it is received (the
analyzer), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import samples_per_second

# Outer Ethernet(14) + IPv4(20) + UDP(8) around the SV payload.
OVERHEAD_UDP_IPV4 = 42
# Same with IPv6 in place of IPv4.
OVERHEAD_UDP_IPV6 = 62


@dataclass(frozen=True)
class BudgetReport:
    payload_octets: int
    wire_octets: int
    samples_per_second: int
    bits_per_second: int
    capacity_bps: int
    fits: bool
    margin_bps: int


def project_bitrate(
    payload_octets: int,
    nominal_hz: int,
    points_per_period: int,
    capacity_bps: int,
    overhead_octets: int = OVERHEAD_UDP_IPV4,
) -> BudgetReport:
    """Project the on-air bit rate of a stream and check it against capacity."""
    sps = samples_per_second(nominal_hz, points_per_period)
    if payload_octets < 1:
        raise ValueError(f"payload must be at least 1 octet, got {payload_octets}")
    if overhead_octets < 0:
        raise ValueError(f"overhead must be >= 0 octets, got {overhead_octets}")
    wire = payload_octets + overhead_octets
    bps = wire * 8 * sps
    return BudgetReport(
        payload_octets=payload_octets,
        wire_octets=wire,
        samples_per_second=sps,
        bits_per_second=bps,
        capacity_bps=capacity_bps,
        fits=bps <= capacity_bps,
        margin_bps=capacity_bps - bps,
    )


def sample_interval(nominal_hz: int, points_per_period: int) -> Fraction:
    """Exact seconds between consecutive samples."""
    return Fraction(1, samples_per_second(nominal_hz, points_per_period))

