"""Subscriber-side stream analysis.

Decodes arriving datagrams leniently, or reads them through the stream's
compiled frame layout once one is known, infers loss from smpCnt gaps,
separates reordering from loss with a half-window heuristic, and applies
the discard policy: a record whose quality is not good never enters the
accepted stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .codec import DecodeMode, FramePlan, decode_frame, seq_data_values
from .codec import unpack_seq_data  # noqa: F401, perfbench traces
from .errors import SvError
from .model import DatasetSchema, check_wrap

# Quality words (the low octet) whose validity bits are not GOOD, and
# those whose validity is the undefined 0b11, which fails decoding.
_NOT_GOOD = frozenset(word for word in range(0x100) if word & 0x03)
_UNDEFINED = frozenset(word for word in range(0x100) if word & 0x03 == 0x03)


@dataclass(frozen=True)
class LinkStats:
    received: int
    decode_failures: int
    lost: int
    out_of_order: int
    quality_discarded: int
    loss_rate: float
    inter_arrival_mean: float
    inter_arrival_stddev: float


def format_link_stats(stats: LinkStats, *extra: tuple[str, str]) -> str:
    """Aligned key-value text, one counter per line, then the ``(key,
    value)`` rows of ``extra`` in the same columns."""
    rows = [
        ("received", str(stats.received)),
        ("decode_failures", str(stats.decode_failures)),
        ("lost", str(stats.lost)),
        ("out_of_order", str(stats.out_of_order)),
        ("quality_discarded", str(stats.quality_discarded)),
        ("loss_rate", f"{stats.loss_rate:.6f}"),
        ("inter_arrival_mean", f"{stats.inter_arrival_mean:.9f} s"),
        ("inter_arrival_stddev", f"{stats.inter_arrival_stddev:.9f} s"),
        *extra,
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


class StreamAnalyzer:
    """Single-stream analysis state; feed datagrams in arrival order.

    ``wrap_modulus`` must match the publisher's smpCnt wrap (the nominal
    samples per second). A forward gap shorter than half the modulus
    counts as loss; a backward step shorter than half the modulus is
    reordering or duplication and adds nothing to the loss count. Frames
    that fail to decode increment ``decode_failures`` only and do not
    advance the expected counter.

    The first datagram that decodes with no warning is learned as a
    :class:`FramePlan`. While no datagram has matched that plan, its source
    may be a stray from another stream, so the second datagram with no
    warning that misses it is learned instead, once. When the plan is the
    profile's frame, one ASDU with a seqData of the schema's width, a
    datagram with its length and fixed octets takes a straight-line
    branch: one struct unpack, then the counters and its one record. Any
    other datagram is decoded leniently and each of its seqData of the
    schema's width unpacked. One rule judges the records: a seqData of
    another width or an undefined validity is a decode failure, a record
    whose quality is not good is discarded, and only an accepted record
    has its values built. It has two implementations, one per branch, kept
    apart because sharing code between them costs the planned branch its
    speed; the tests hold both to ``reference_judge`` and to each other.
    """

    def __init__(self, wrap_modulus: int, schema: DatasetSchema):
        check_wrap(wrap_modulus)
        self.wrap_modulus = wrap_modulus
        self.schema = schema
        self.received = 0
        self.decode_failures = 0
        self.lost = 0
        self.out_of_order = 0
        self.quality_discarded = 0
        self.accepted: list = []
        # Index of each quality word among one seqData's fields, the first
        # twice, so that the getter returns a tuple for a single word too.
        codes = schema.seq_struct.format[1:].replace("x", "")
        quality_at = [index for index, code in enumerate(codes) if code == "B"]
        self._has_quality = bool(quality_at)
        if quality_at:
            self._quality_words = itemgetter(*quality_at, quality_at[0])
        self._expected: int | None = None
        # The planned branch's check and read: a datagram of
        # ``_planned_size`` octets whose ``_fixed`` unpack equals
        # ``_fixed_octets`` is read by ``_read``. No datagram has size -1,
        # the size while no plan is read.
        self._planned_size = -1
        self._fixed = self._fixed_octets = self._read = None
        # Received datagrams that were decoded, and those with no warning
        # decoded while none had been read by a plan.
        self._decoded = 0
        self._unmatched_clean = 0
        self._last_arrival: float | None = None
        # Welford accumulator over the received - 1 inter-arrival deltas.
        self._delta_mean = 0.0
        self._delta_m2 = 0.0

    def ingest(self, datagram: bytes, arrival_time: float) -> None:
        # smpCnt enters only through the gap, taken modulo the wrap, so
        # neither a wire value at or above the wrap nor its successor, the
        # expected smpCnt, needs reducing first.
        if (len(datagram) == self._planned_size
                and self._fixed(datagram) == self._fixed_octets):
            # The plan's frame, with only smpCnt, refrTm and seqData new.
            # The plan was learned from a received datagram, so the last
            # arrival and the expected smpCnt are set.
            values = list(self._read(datagram))
            smp_cnt = values.pop(0)
            self.received = received = self.received + 1
            arrival_time = float(arrival_time)
            delta = arrival_time - self._last_arrival
            self._last_arrival = arrival_time
            mean = self._delta_mean
            diff = delta - mean
            self._delta_mean = mean = mean + diff / (received - 1)
            self._delta_m2 += diff * (delta - mean)
            wrap = self.wrap_modulus
            gap = (smp_cnt - self._expected) % wrap
            if gap == 0:
                self._expected = smp_cnt + 1
            elif gap < wrap / 2:
                self.lost += gap
                self._expected = smp_cnt + 1
            else:
                self.out_of_order += 1
            if not self._has_quality:
                self.accepted.append(values)
                return
            words = self._quality_words(values)
            if _NOT_GOOD.isdisjoint(words):
                self.accepted.append(seq_data_values(values, self.schema))
            elif _UNDEFINED.isdisjoint(words):
                self.quality_discarded += 1
            else:
                self.decode_failures += 1
            return
        try:
            frame = decode_frame(datagram, DecodeMode.LENIENT)
        except SvError:
            self.decode_failures += 1
            return
        asdus = frame.apdu.asdus
        if not asdus:
            self.decode_failures += 1
            return
        # A plan that no datagram has matched may come from another
        # stream's datagram, so the second clean datagram that misses it
        # teaches it once more (not the first, which may be the stray).
        if not frame.decode_warnings and self._decoded == self.received:
            self._unmatched_clean += 1
            if self._unmatched_clean in (1, 3):
                plan = FramePlan(datagram)
                self._read = plan.reader(self.schema)
                self._planned_size = -1 if self._read is None else plan.fixed.size
                self._fixed = plan.fixed.unpack
                self._fixed_octets = plan.fixed_octets
        self._decoded += 1
        self.received += 1
        arrival_time = float(arrival_time)
        if self._last_arrival is not None:
            delta = arrival_time - self._last_arrival
            diff = delta - self._delta_mean
            self._delta_mean += diff / (self.received - 1)
            self._delta_m2 += diff * (delta - self._delta_mean)
        self._last_arrival = arrival_time
        smp_cnt = asdus[0].smp_cnt
        if self._expected is None:
            self._expected = smp_cnt + 1
        else:
            gap = (smp_cnt - self._expected) % self.wrap_modulus
            if gap == 0:
                self._expected = smp_cnt + 1
            elif gap < self.wrap_modulus / 2:
                self.lost += gap
                self._expected = smp_cnt + 1
            else:
                self.out_of_order += 1
        layout = self.schema.seq_struct
        records = [layout.unpack(asdu.seq_data) for asdu in asdus
                   if len(asdu.seq_data) == layout.size]
        self.decode_failures += len(asdus) - len(records)
        if not self._has_quality:
            for values in records:
                self.accepted.append(list(values))
            return
        for values in records:
            words = self._quality_words(values)
            if _NOT_GOOD.isdisjoint(words):
                self.accepted.append(seq_data_values(values, self.schema))
            elif _UNDEFINED.isdisjoint(words):
                self.quality_discarded += 1
            else:
                self.decode_failures += 1

    def report(self) -> LinkStats:
        """Snapshot of the counters; safe to call at any time."""
        denominator = self.received + self.lost
        loss_rate = self.lost / denominator if denominator else 0.0
        deltas = self.received - 1
        stddev = math.sqrt(self._delta_m2 / deltas) if deltas > 0 else 0.0
        return LinkStats(
            received=self.received,
            decode_failures=self.decode_failures,
            lost=self.lost,
            out_of_order=self.out_of_order,
            quality_discarded=self.quality_discarded,
            loss_rate=loss_rate,
            inter_arrival_mean=self._delta_mean,
            inter_arrival_stddev=stddev,
        )
