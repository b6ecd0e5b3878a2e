import heapq
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import GOLDEN_SCHEMA, golden_frame
from svlite.analyzer import StreamAnalyzer
from svlite.codec import encode_frame
from svlite.netsim import MAX_DELAY_S, Channel, LinkSpec


def _send_all(channel, count, interval=250e-6, payload=b"datagram"):
    for index in range(count):
        channel.transmit(payload + index.to_bytes(4, "big"), index * interval)


class TestLossFree:
    def test_every_datagram_delivered_once(self):
        channel = Channel(LinkSpec(seed=1, base_latency=1e-3))
        _send_all(channel, 50)
        deliveries = channel.drain()
        assert len(deliveries) == 50
        assert channel.delivered == 50 and channel.lost == 0

    def test_order_preserved_without_jitter(self):
        channel = Channel(LinkSpec(seed=1))
        _send_all(channel, 20)
        payloads = [p for _, p in channel.drain()]
        assert payloads == sorted(payloads, key=lambda p: p[-4:])

    def test_latency_applied(self):
        channel = Channel(LinkSpec(seed=1, base_latency=2e-3))
        channel.transmit(b"x", 1.0)
        ((at, _),) = channel.drain()
        assert at == pytest.approx(1.002)


class TestLoss:
    def test_total_loss(self):
        channel = Channel(LinkSpec(loss_probability=1.0, seed=5))
        _send_all(channel, 10)
        assert channel.drain() == []
        assert channel.lost == 10

    def test_binomial_band(self):
        channel = Channel(LinkSpec(loss_probability=0.01, seed=42))
        _send_all(channel, 100_000)
        delivered = len(channel.drain())
        # 3 sigma around Binomial(100000, 0.99)
        assert 98_700 <= delivered <= 99_300
        assert delivered == channel.delivered

    def test_conservation_exact(self):
        channel = Channel(LinkSpec(loss_probability=0.25, jitter=1e-4,
                                      reorder_probability=0.05, seed=99))
        _send_all(channel, 5000)
        delivered = len(channel.drain())
        assert delivered == channel.delivered
        assert channel.delivered + channel.lost == channel.transmitted == 5000


class TestReproducibility:
    def test_identical_runs(self):
        spec = LinkSpec(loss_probability=0.1, jitter=5e-4,
                           reorder_probability=0.02, seed=1234,
                           base_latency=1e-3)
        runs = []
        for _ in range(2):
            channel = Channel(spec)
            _send_all(channel, 2000)
            runs.append(channel.drain())
        assert runs[0] == runs[1]

    def test_spec_is_read_only(self):
        """The channel draws with the spec's numbers bound when it was
        built, so the spec cannot be swapped under it."""
        spec = LinkSpec(loss_probability=0.5, seed=7)
        channel = Channel(spec)
        with pytest.raises(AttributeError):
            channel.spec = LinkSpec()
        assert channel.spec is spec


class TestJitterReorder:
    def test_drain_before_transmit(self):
        assert Channel(LinkSpec()).drain() == []

    def test_partial_drain_by_time(self):
        channel = Channel(LinkSpec(seed=1))
        _send_all(channel, 10, interval=1.0)
        early = channel.drain(until=4.5)
        assert len(early) == 5
        assert len(channel.drain()) == 5

    def test_jitter_can_swap_adjacent_sends(self):
        # Search the seed space for a swap, then check the analyzer calls
        # it reordering rather than loss.
        interval = 250e-6
        swap_seed = None
        for seed in range(1000):
            channel = Channel(LinkSpec(jitter=300e-6, seed=seed))
            channel.transmit(b"first", 0.0)
            channel.transmit(b"second", interval)
            deliveries = [p for _, p in channel.drain()]
            if deliveries == [b"second", b"first"]:
                swap_seed = seed
                break
        assert swap_seed is not None, "no swapping seed in 0..999"

        frame = golden_frame()
        wires = []
        for smp_cnt in (0, 1):
            frame.apdu.asdus[0].smp_cnt = smp_cnt
            wires.append(encode_frame(frame, GOLDEN_SCHEMA))
        channel = Channel(LinkSpec(jitter=300e-6, seed=swap_seed))
        channel.transmit(wires[0], 0.0)
        channel.transmit(wires[1], interval)
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        for at, payload in channel.drain():
            analyzer.ingest(payload, at)
        stats = analyzer.report()
        assert stats.out_of_order == 1
        assert stats.lost == 0

    def test_forced_reorder_delays_past_next(self):
        channel = Channel(LinkSpec(reorder_probability=1.0, seed=3))
        channel.transmit(b"a", 0.0)
        channel.transmit(b"b", 1.0)
        channel.transmit(b"c", 2.0)
        deliveries = channel.drain()
        assert sorted(p for _, p in deliveries) == [b"a", b"b", b"c"]
        assert channel.delivered == 3
        times = {p: at for at, p in deliveries}
        assert times[b"a"] > times[b"b"] or times[b"a"] > 1.0

    def test_delivery_never_precedes_send(self):
        channel = Channel(LinkSpec(jitter=10.0, seed=8))
        sends = {i: float(i) for i in range(200)}
        for index, at in sends.items():
            channel.transmit(index.to_bytes(2, "big"), at)
        for at, payload in channel.drain():
            assert at >= sends[int.from_bytes(payload, "big")]


class TestChannelSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(loss_probability=-0.1),
        dict(loss_probability=1.1),
        dict(reorder_probability=2.0),
        dict(jitter=-1e-6),
        dict(base_latency=-1.0),
        dict(jitter=float("nan")),
        dict(jitter=float("inf")),
        dict(base_latency=float("nan")),
        dict(base_latency=float("inf")),
        dict(jitter=1e308),
        dict(jitter=1e308, base_latency=1e308),
        dict(jitter=4e307, base_latency=1e308),
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, accepted", [
        (dict(jitter=MAX_DELAY_S / 2), True),
        (dict(base_latency=MAX_DELAY_S), True),
        (dict(jitter=1000.0, base_latency=MAX_DELAY_S - 2000.0), True),
        (dict(jitter=MAX_DELAY_S / 2 + 1e-9), False),
        (dict(base_latency=MAX_DELAY_S + 1e-9), False),
        (dict(jitter=1e200), False),
    ])
    def test_delay_bound(self, kwargs, accepted):
        if accepted:
            LinkSpec(**kwargs)
        else:
            with pytest.raises(ValueError, match="at most 3600 s"):
                LinkSpec(**kwargs)


class HeapChannel:
    """Reference: the channel as it was with a binary heap of pending
    deliveries, popped one at a time in ``drain``."""

    REORDER_EPSILON = Channel.REORDER_EPSILON

    def __init__(self, spec):
        self.spec = spec
        self.transmitted = 0
        self.delivered = 0
        self.lost = 0
        self._rng = random.Random(spec.seed)
        self._pending = []
        self._held = None
        self._seq = 0

    def transmit(self, datagram, send_time):
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

    def _finalize_held(self, past=None):
        at, seq, payload = self._held
        self._held = None
        if past is not None:
            at = max(at, past + self.REORDER_EPSILON)
        heapq.heappush(self._pending, (at, seq, payload))
        self.delivered += 1

    def drain(self, until=None):
        if until is None and self._held is not None:
            self._finalize_held()
        out = []
        while self._pending and (until is None or self._pending[0][0] <= until):
            at, _, payload = heapq.heappop(self._pending)
            out.append((at, payload))
        return out


QUANTUM = 250e-6
# Send and drain times on a coarse grid, so equal delivery times (ties
# broken by transmit order) and drains at an exact delivery time occur.
_operation = st.one_of(
    st.tuples(st.just("transmit"), st.integers(0, 12)),
    st.tuples(st.just("until"), st.integers(-1, 14)),
    st.tuples(st.just("drain"), st.none()),
)
# From 2 ** 34 s on, past + REORDER_EPSILON rounds to past, so a held
# datagram ties the successor it is scheduled behind.
FAR = 2.0 ** 34


class TestDrainParity:
    """The sorted-list drain against the heap it replaced. Examples per run
    come from the active hypothesis profile."""

    def test_far_times_round_the_reorder_epsilon_away(self):
        assert FAR + Channel.REORDER_EPSILON == FAR

    @given(
        loss=st.just(0.0) | st.floats(0.0, 1.0),
        jitter=st.just(0.0) | st.floats(0.0, 5e-3),
        reorder=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        latency=st.just(0.0) | st.floats(0.0, 5e-3),
        seed=st.integers(0, 2 ** 32 - 1),
        offset=st.sampled_from([0.0, FAR]),
        operations=st.lists(_operation, max_size=120),
    )
    @example(loss=0.0, jitter=0.0, reorder=0.0, latency=0.0, seed=0, offset=0.0,
             operations=[("transmit", 1), ("transmit", 1), ("until", 1)])
    # At seed 2 the first datagram is held and the second is not: the held
    # one is scheduled at its successor's time, which it ties.
    @example(loss=0.0, jitter=0.0, reorder=0.5, latency=0.0, seed=2, offset=FAR,
             operations=[("transmit", 1), ("transmit", 1)])
    # Every datagram held: each is scheduled at its successor's time, which
    # it ties, and the last leaves in the final drain at its own.
    @example(loss=0.0, jitter=0.0, reorder=1.0, latency=0.0, seed=0, offset=FAR,
             operations=[("transmit", 1), ("transmit", 1), ("until", 1),
                         ("transmit", 1), ("transmit", 0), ("until", 0)])
    def test_sorted_drain_parity_with_heap(self, loss, jitter, reorder, latency,
                                           seed, offset, operations):
        spec = LinkSpec(loss_probability=loss, jitter=jitter,
                        reorder_probability=reorder, seed=seed,
                        base_latency=latency)
        channel, reference = Channel(spec), HeapChannel(spec)
        for index, (kind, slot) in enumerate([*operations, ("drain", None)]):
            if kind == "transmit":
                # Payloads fall as transmit order rises, so a tie broken by
                # payload rather than by transmit order shows.
                payload = (0xFFFF - index).to_bytes(2, "big")
                for ch in (channel, reference):
                    ch.transmit(payload, offset + slot * QUANTUM)
            else:
                until = None if kind == "drain" else offset + slot * QUANTUM
                assert channel.drain(until) == reference.drain(until)
        assert ((channel.transmitted, channel.delivered, channel.lost)
                == (reference.transmitted, reference.delivered, reference.lost))
