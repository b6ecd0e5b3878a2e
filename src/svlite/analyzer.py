"""Subscriber-side stream analysis.

Reads one record from each arriving datagram, the profile's one-ASDU
frame, by a lenient decode or through the stream's compiled frame layout
once one is known, infers loss from smpCnt gaps, separates reordering
from loss with a half-window heuristic, and applies the discard policy:
a record whose quality is not good never enters the accepted list, which
keeps each record as its unpacked ``schema.seq_struct`` fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .codec import DecodeMode, FramePlan, decode_frame
from .codec import unpack_seq_data  # noqa: F401, perfbench traces
from .errors import SvError
from .model import QUALITY_OF_OCTET, DatasetSchema, Validity, check_wrap

# Quality words (the low octet) whose validity is not GOOD, and those
# whose validity is the undefined 0b11, which fails decoding.
_NOT_GOOD = frozenset(word for word, quality in enumerate(QUALITY_OF_OCTET)
                      if quality is None or quality.validity is not Validity.GOOD)
_UNDEFINED = frozenset(word for word, quality in enumerate(QUALITY_OF_OCTET)
                       if quality is None)


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

    The profile's frame carries one ASDU, and so does every datagram read
    here: one that does not decode to exactly one ASDU counts a decode
    failure and nothing else. Any other is received and then sequenced, in
    one tail after the branches below: its smpCnt less the expected smpCnt
    (its own for the stream's first datagram, else the last in-order one's
    plus one), modulo ``wrap_modulus``, is a step of at least minus half
    the wrap and under half of it. A forward step of n counts n lost; a
    backward one is reordering or duplication, counts one out of order
    and keeps the expectation. The wrap must match the publisher's (the
    nominal samples per second). The inter-arrival mean and population
    stddev are those of the deltas between consecutive received arrival
    times, as floats, and 0.0 until there is one.

    The first datagram that decodes with no warning is learned as a
    :class:`FramePlan` in the schema. While no datagram has matched that
    plan, its source may be a stray from another stream, so the second
    datagram with no warning that misses it is learned instead, once. A
    datagram with the plan's length and fixed octets is read with the
    plan's one struct unpack; any other is decoded leniently. A datagram
    that ``FramePlan`` refuses, one not laid out as the encoder writes it
    or of another seqData width, teaches no plan.
    Either branch yields the record's ``schema.seq_struct`` fields, or
    none for a seqData of another width, and one rule, written once after
    them, judges them: no fields or an undefined validity is a decode
    failure, a record whose quality is not good is discarded, and an
    accepted record is appended to :attr:`accepted` as its fields.
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
        self.accepted: list[tuple] = []
        self._accept = self.accepted.append
        # Index of each quality word among one seqData's fields, the first
        # twice, so that the getter returns a tuple for a single word too.
        quality_at = [index + 1 for index, quality_follows
                      in schema.value_layout if quality_follows]
        self._has_quality = bool(quality_at)
        if quality_at:
            self._quality_words = itemgetter(*quality_at, quality_at[0])
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
        # Set from the first received datagram, always a decoded one.
        self._expected = 0
        self._last_arrival = 0.0
        # Welford accumulator over the received - 1 inter-arrival deltas.
        self._delta_mean = 0.0
        self._delta_m2 = 0.0

    def ingest(self, datagram: bytes, arrival_time: float) -> None:
        if (len(datagram) == self._planned_size
                and self._fixed(datagram) == self._fixed_octets):
            # The plan's frame, with only smpCnt, refrTm and seqData new.
            fields = self._read(datagram)
            smp_cnt = fields[0]
            fields = fields[1:]
        else:
            try:
                frame = decode_frame(datagram, DecodeMode.LENIENT)
            except SvError:
                self.decode_failures += 1
                return
            if len(frame.apdu.asdus) != 1:
                self.decode_failures += 1
                return
            asdu = frame.apdu.asdus[0]
            smp_cnt = asdu.smp_cnt
            if not self.received:  # in order, with a zero delta, below
                self._expected = smp_cnt
                self._last_arrival = float(arrival_time)
            # A plan that no datagram has matched may come from another
            # stream's datagram, so the second clean datagram that misses it
            # teaches it once more (not the first, which may be the stray).
            if not frame.decode_warnings and self._decoded == self.received:
                self._unmatched_clean += 1
                if self._unmatched_clean in (1, 3):
                    try:
                        plan = FramePlan(datagram, self.schema)
                    except SvError:  # not the profile's frame in this schema
                        self._planned_size = -1
                    else:
                        self._planned_size = plan.fixed.size
                        self._fixed = plan.fixed.unpack
                        self._fixed_octets = plan.fixed_octets
                        self._read = plan.read
            self._decoded += 1
            layout = self.schema.seq_struct
            fields = (layout.unpack(asdu.seq_data)
                      if len(asdu.seq_data) == layout.size else None)
        if fields is None:
            self.decode_failures += 1
        elif not self._has_quality:
            self._accept(fields)
        else:
            words = self._quality_words(fields)
            if _NOT_GOOD.isdisjoint(words):
                self._accept(fields)
            elif _UNDEFINED.isdisjoint(words):
                self.quality_discarded += 1
            else:
                self.decode_failures += 1
        self.received = received = self.received + 1
        arrival_time = float(arrival_time)
        delta = arrival_time - self._last_arrival
        self._last_arrival = arrival_time
        mean = self._delta_mean
        diff = delta - mean
        # The first datagram's zero delta leaves the accumulator at zero.
        self._delta_mean = mean = mean + diff / (received - 1 or 1)
        self._delta_m2 += diff * (delta - mean)
        # smpCnt enters only through the gap, taken modulo the wrap, so
        # neither a wire value at or above the wrap nor its successor, the
        # expected smpCnt, needs reducing first.
        wrap = self.wrap_modulus
        gap = (smp_cnt - self._expected) % wrap
        if gap == 0:
            self._expected = smp_cnt + 1
        elif gap < wrap / 2:
            self.lost += gap
            self._expected = smp_cnt + 1
        else:
            self.out_of_order += 1

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
