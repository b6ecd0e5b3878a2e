"""Deterministic in-process channel for loss, jitter and reorder experiments.

Runs entirely on caller-supplied virtual time. All randomness comes from
one seeded generator, so a given spec and operation sequence always
reproduces the same deliveries, byte for byte and time for time.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    loss_probability: float = 0.0
    jitter: float = 0.0  # uniform +/- bound, seconds
    reorder_probability: float = 0.0
    seed: int = 0
    base_latency: float = 0.0

    def __post_init__(self):
        for name in ("loss_probability", "reorder_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.base_latency < 0:
            raise ValueError(f"base latency must be >= 0, got {self.base_latency}")


class Channel:
    """Impaired datagram channel with exact conservation accounting.

    A reorder hit holds the datagram back until the next one is
    transmitted, then schedules it just past that delivery. Deliveries
    surface only from ``drain``.
    """

    REORDER_EPSILON = 1e-6

    def __init__(self, spec: LinkSpec):
        self.spec = spec
        self.transmitted = 0
        self.delivered = 0
        self.lost = 0
        self._rng = random.Random(spec.seed)
        self._pending: list[tuple[float, int, bytes]] = []
        self._held: tuple[float, int, bytes] | None = None
        self._seq = 0

    def transmit(self, datagram: bytes, send_time: float) -> None:
        """Offer one datagram at ``send_time``."""
        spec = self.spec
        self.transmitted += 1
        if self._rng.random() < spec.loss_probability:
            self.lost += 1
            return
        delay = spec.base_latency + self._rng.uniform(-spec.jitter, spec.jitter)
        at = send_time + delay
        if at < send_time:
            at = send_time
        if self._held is not None:
            self._finalize_held(past=at)
        seq = self._seq
        self._seq += 1
        entry = (at, seq, bytes(datagram))
        if self._rng.random() < spec.reorder_probability:
            self._held = entry
        else:
            heapq.heappush(self._pending, entry)
            self.delivered += 1

    def _finalize_held(self, past: float | None = None) -> None:
        at, seq, payload = self._held
        self._held = None
        if past is not None:
            at = max(at, past + self.REORDER_EPSILON)
        heapq.heappush(self._pending, (at, seq, payload))
        self.delivered += 1

    def drain(self, until: float | None = None) -> list[tuple[float, bytes]]:
        """Remove and return deliveries due by ``until``, in delivery order.

        ``None`` means end of experiment: any held datagram is finalised
        at its original time and everything pending is returned.
        """
        if until is None and self._held is not None:
            self._finalize_held()
        out = []
        while self._pending and (until is None or self._pending[0][0] <= until):
            at, _, payload = heapq.heappop(self._pending)
            out.append((at, payload))
        return out
