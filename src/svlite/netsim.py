"""Deterministic in-process channel for loss, jitter and reorder experiments.

Runs entirely on caller-supplied virtual time. All randomness comes from
one seeded generator, so a given spec and operation sequence always
reproduces the same deliveries, byte for byte and time for time.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

# Longest delay a link may add, in seconds: no subscriber waits an hour for
# a sample.
MAX_DELAY_S = 3600.0


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
        for name in ("jitter", "base_latency"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # uniform(-jitter, jitter) spans 2 * jitter. The bound keeps that
        # span, arrival times and the analyzer's squared inter-arrival
        # deviations far inside the float range.
        if not self.base_latency + 2 * self.jitter <= MAX_DELAY_S:
            raise ValueError(
                f"base_latency + 2 * jitter must be finite and at most "
                f"{MAX_DELAY_S:g} s, got {self.base_latency} + 2 * {self.jitter}")


class Channel:
    """Impaired datagram channel with exact conservation accounting.

    A reorder hit holds the datagram back until the next one is
    transmitted, then appends it before that one, just past its delivery;
    the final ``drain`` appends one still held, the last transmitted, last.
    So the plain list of ``(at, datagram)`` pairs keeps ties in transmit order.
    """

    REORDER_EPSILON = 1e-6

    def __init__(self, spec: LinkSpec):
        self._spec = spec
        self.transmitted = 0
        self.delivered = 0
        self.lost = 0
        # Bound once: the spec is read-only, so these cannot go stale.
        self._random = random.Random(spec.seed).random
        self._loss = spec.loss_probability
        self._jitter = spec.jitter
        self._latency = spec.base_latency
        self._reorder = spec.reorder_probability
        self._pending: list[tuple[float, bytes]] = []
        self._held: tuple[float, bytes] | None = None

    @property
    def spec(self) -> LinkSpec:
        return self._spec

    def transmit(self, datagram: bytes, send_time: float) -> None:
        """Offer one datagram at ``send_time``."""
        draw = self._random
        self.transmitted += 1
        if draw() < self._loss:
            self.lost += 1
            return
        # random.Random.uniform(-j, j), operation for operation.
        j = self._jitter
        delay = self._latency + (-j + (j - -j) * draw())
        at = send_time + delay
        if at < send_time:
            at = send_time
        if self._held is not None:
            self._finalize_held(past=at)
        # Free for a bytes datagram, which bytes() returns as it is; any
        # other buffer is copied, so its sender may reuse it.
        entry = (at, bytes(datagram))
        if draw() < self._reorder:
            self._held = entry
        else:
            self._pending.append(entry)
            self.delivered += 1

    def _finalize_held(self, past: float | None = None) -> None:
        at, payload = self._held
        self._held = None
        if past is not None:
            at = max(at, past + self.REORDER_EPSILON)
        self._pending.append((at, payload))
        self.delivered += 1

    def drain(self, until: float | None = None) -> list[tuple[float, bytes]]:
        """Remove and return deliveries due by ``until``, in delivery order.

        ``None`` means end of experiment: any held datagram is finalised
        at its original time, and the sorted pending list is handed over
        whole rather than copied. The sort is stable on time, so ties leave
        in transmit order, also where ``past + REORDER_EPSILON == past``.
        """
        if until is None and self._held is not None:
            self._finalize_held()
        due = self._pending
        due.sort(key=itemgetter(0))
        if until is None:
            self._pending = []
            return due
        cut = bisect_right(due, until, key=itemgetter(0))
        self._pending = due[cut:]
        return due[:cut]
