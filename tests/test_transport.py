import errno
import math
import random
import socket
import struct
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from helpers import GOLDEN_SCHEMA, golden_frame, random_valid_frame
from svlite import transport
from svlite.analyzer import StreamAnalyzer
from svlite.codec import (
    DecodeMode,
    SavApdu,
    UtcTimestamp,
    decode_frame,
    encode_frame,
    pack_seq_data,
)
from svlite.config import RunConfig
from svlite.errors import SchemaMismatch, TransportError, WidthMismatch
from svlite.sources import _sampler, sample_provider
from svlite.transport import (
    POLL_S,
    SO_TIMESTAMPNS,
    WAKE_S,
    EndpointConfig,
    Mode,
    PublisherState,
    ReceiveSummary,
    _wait_after,
    frame_ticks,
    publish_stream,
    read_ancillary,
    read_meminfo,
    receive,
    subscribe,
)

CHANNELS = RunConfig().channels

# A frame of one ASDU within every wire-format bound, and its schema,
# whose seqData is at most 12 octets.
TEMPLATES = st.integers(0, 2**64).map(
    lambda seed: random_valid_frame(random.Random(seed), asdu_count=1))
# Per tick, the refrTm octets and octets enough for any template's seqData.
TICK_OCTETS = st.lists(st.tuples(st.binary(min_size=8, max_size=8),
                                 st.binary(min_size=12, max_size=12)),
                       min_size=1, max_size=4)


def free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def unicast(port: int) -> EndpointConfig:
    return EndpointConfig(mode=Mode.UNICAST, address="127.0.0.1", port=port)


class Collector:
    """Subscriber thread capturing raw datagrams with arrival times."""

    def __init__(self, cfg: EndpointConfig, expected: int, timeout: float = 10.0):
        self.datagrams: list[tuple[bytes, float]] = []
        self._expected = expected
        self._deadline = time.monotonic() + timeout
        self._ready = threading.Event()
        self.summary = None
        self._thread = threading.Thread(
            target=self._run, args=(cfg,), daemon=True)

    def _run(self, cfg):
        def sink(payload):
            self.datagrams.append((payload, time.monotonic()))

        def stop():
            self._ready.set()
            return (len(self.datagrams) >= self._expected
                    or time.monotonic() >= self._deadline)

        self.summary = subscribe(cfg, sink, stop)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5.0), "subscriber never started"
        time.sleep(0.05)  # let the bind settle before publishing
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=15.0)
        assert not self._thread.is_alive(), "subscriber stuck"


class RecordingSocket:
    """Stands in for the publisher's socket: keeps each datagram sent, and
    raises ``OSError`` once ``fail_after`` have been sent."""

    def __init__(self, fail_after: int | None = None):
        self.sent: list[bytes] = []
        self.fail_after = fail_after

    def sendto(self, data, address):
        if len(self.sent) == self.fail_after:
            raise OSError("send failed")
        self.sent.append(bytes(data))


def published_stamp(clock: float) -> tuple[int, int]:
    """(seconds, fraction) of refrTm in the frame published when the
    clock reads ``clock``."""
    sock = RecordingSocket()
    publish_stream(unicast(1), golden_frame(), GOLDEN_SCHEMA,
                   lambda tick: bytes(GOLDEN_SCHEMA.packed_width),
                   rate=4000, frames=1, sock=sock, timestamper=lambda: clock)
    stamp = decode_frame(sock.sent[0]).apdu.asdus[0].refr_tm
    return stamp.seconds, stamp.fraction


def truncated_stamp(t: float) -> tuple[int, int]:
    """Reference: the clock truncated to whole seconds, and the rest to
    whole 2**-24 s, as the publisher has always stamped it."""
    seconds = int(t)
    fraction = int((t - seconds) * (1 << 24))
    return seconds, min(fraction, 0xFF_FFFF)


class TestEndpointConfig:
    def test_multicast_requires_group_address(self):
        with pytest.raises(ValueError):
            EndpointConfig(mode=Mode.MULTICAST, address="10.0.0.1", port=5000)

    def test_group_range_accepted(self):
        EndpointConfig(mode=Mode.MULTICAST, address="224.0.0.1", port=5000)
        EndpointConfig(mode=Mode.MULTICAST, address="239.255.61.85", port=5000)

    def test_unicast_any_address(self):
        EndpointConfig(mode=Mode.UNICAST, address="127.0.0.1", port=5000)

    def test_port_range(self):
        with pytest.raises(ValueError):
            EndpointConfig(mode=Mode.UNICAST, address="127.0.0.1", port=0)


class TestFrameTicks:
    @pytest.mark.parametrize("width", [0, 13, 15])
    def test_seq_data_of_the_wrong_length_raises(self, width):
        ticks = frame_ticks(golden_frame(), GOLDEN_SCHEMA,
                            lambda tick: bytes(width), 4000,
                            lambda tick: bytes(8))
        with pytest.raises(WidthMismatch):
            next(ticks)

    def test_wrap_past_16_bit_smp_cnt_raises_before_the_first_tick(self):
        sources = []
        with pytest.raises(ValueError, match="65536"):
            frame_ticks(golden_frame(), GOLDEN_SCHEMA, sources.append, 0x10001,
                        lambda tick: bytes(8))
        sock = RecordingSocket()
        with pytest.raises(ValueError, match="65536"):
            publish_stream(unicast(1), golden_frame(), GOLDEN_SCHEMA,
                           sources.append, rate=0x10001, frames=3, sock=sock)
        assert (sources, sock.sent) == ([], [])

    @pytest.mark.parametrize("wrap", [0, -5, 1, 0x10001])
    def test_publish_rejects_a_wrap_smp_cnt_cannot_count(self, wrap, monkeypatch):
        # Before any socket opens, and as a ValueError rather than the
        # ZeroDivisionError or OverflowError of reducing smpCnt by it.
        def no_socket(*args, **kwargs):
            raise AssertionError("publish_stream opened a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        sources = []
        with pytest.raises(ValueError, match="2..65536"):
            publish_stream(unicast(1), golden_frame(), GOLDEN_SCHEMA,
                           sources.append, rate=wrap, frames=3)
        assert sources == []

    @pytest.mark.parametrize("pace", [0.0, -5.0, math.nan, math.inf])
    def test_publish_rejects_a_pace_that_is_not_finite_and_positive(
            self, pace, monkeypatch):
        # 0 divided by zero, -5 sent every frame at once, each a miss, and
        # nan never reached its first deadline.
        def no_socket(*args, **kwargs):
            raise AssertionError("publish_stream opened a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        sources = []
        with pytest.raises(ValueError, match="pace must be finite and positive"):
            publish_stream(unicast(1), golden_frame(), GOLDEN_SCHEMA,
                           sources.append, rate=4000, frames=3, pace_hz=pace)
        assert sources == []

    @pytest.mark.parametrize("width", [7, 9])
    def test_refr_tm_of_the_wrong_length_raises(self, width):
        # Rather than a frame one octet longer per tick, or one that
        # strict decoding rejects.
        ticks = frame_ticks(golden_frame(), GOLDEN_SCHEMA,
                            lambda tick: bytes(GOLDEN_SCHEMA.packed_width),
                            4000, lambda tick: bytes(width))
        with pytest.raises(WidthMismatch, match=f"{width} refrTm octets"):
            next(ticks)

    def test_seq_data_is_joined_as_it_is(self):
        seq_data = bytes(range(1, 15))
        ticks = frame_ticks(golden_frame(), GOLDEN_SCHEMA,
                            lambda tick: seq_data, 4000,
                            lambda tick: bytes(8))
        frame = decode_frame(next(ticks), DecodeMode.STRICT)
        assert frame.apdu.asdus[0].seq_data == seq_data

    # Small wraps wrap within the drawn ticks.
    @given(TEMPLATES, st.one_of(st.integers(2, 4), st.integers(2, 0x10000)),
           TICK_OCTETS)
    def test_tick_parity_with_encode_frame(self, drawn, wrap, octets):
        template, schema = drawn
        width = schema.packed_width
        ticks = frame_ticks(template, schema,
                            lambda tick: octets[tick][1][:width], wrap,
                            lambda tick: octets[tick][0])
        sent = [next(ticks) for _ in octets]
        for tick, (refr_tm, seq_data) in enumerate(octets):
            reference = replace(template, apdu=SavApdu([
                replace(asdu, smp_cnt=tick % wrap,
                        refr_tm=UtcTimestamp.from_octets(refr_tm),
                        seq_data=seq_data[:width])
                for asdu in template.apdu.asdus]))
            # Checked once every tick is drawn: no later tick changed it.
            assert type(sent[tick]) is bytes
            assert sent[tick] == encode_frame(reference, schema)


class TestPublishCounters:
    def test_smp_cnt_wraps_at_rate(self):
        # Pace far above nominal so 4000 frames take well under a second.
        port = free_port()
        provider = sample_provider(CHANNELS, 80)
        state = publish_stream(
            unicast(port), golden_frame(), GOLDEN_SCHEMA, provider,
            rate=4000, frames=4000, pace_hz=100_000.0)
        assert state.frames_sent == 4000
        assert state.smp_cnt == 0
        assert state.wrap_modulus == 4000

    def test_single_frame_advances_counter(self):
        port = free_port()
        provider = sample_provider(CHANNELS, 80)
        state = publish_stream(
            unicast(port), golden_frame(), GOLDEN_SCHEMA, provider,
            rate=4000, frames=1, pace_hz=100_000.0)
        assert (state.frames_sent, state.smp_cnt) == (1, 1)

    def test_zero_frames(self):
        state = publish_stream(
            unicast(free_port()), golden_frame(), GOLDEN_SCHEMA,
            lambda tick: [], rate=4000, frames=0)
        assert state.frames_sent == 0

    def test_template_not_mutated(self):
        template = golden_frame()
        before = encode_frame(template, GOLDEN_SCHEMA)
        provider = sample_provider(CHANNELS, 80)
        publish_stream(unicast(free_port()), template, GOLDEN_SCHEMA,
                       provider, rate=4000, frames=10, pace_hz=100_000.0)
        assert encode_frame(template, GOLDEN_SCHEMA) == before

    def test_closed_socket_raises_transport_error(self):
        dead = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        dead.close()
        provider = sample_provider(CHANNELS, 80)
        with pytest.raises(TransportError) as excinfo:
            publish_stream(unicast(free_port()), golden_frame(),
                           GOLDEN_SCHEMA, provider, rate=4000, frames=5,
                           pace_hz=100_000.0, sock=dead)
        assert isinstance(excinfo.value.state, PublisherState)
        assert excinfo.value.state.frames_sent == 0

    def test_transport_error_carries_the_counter_reached(self):
        # Five sends reach smpCnt 0-3 and then 0 again: the counter wrapped.
        sock = RecordingSocket(fail_after=5)
        with pytest.raises(TransportError) as excinfo:
            publish_stream(unicast(1), golden_frame(), GOLDEN_SCHEMA,
                           lambda tick: bytes(GOLDEN_SCHEMA.packed_width),
                           rate=4, frames=7, pace_hz=100_000.0, sock=sock)
        state = excinfo.value.state
        assert (state.frames_sent, state.smp_cnt) == (5, 1)
        assert [decode_frame(wire).apdu.asdus[0].smp_cnt
                for wire in sock.sent] == [0, 1, 2, 3, 0]

    def test_a_template_of_two_asdus_is_refused_before_any_send(self):
        template = golden_frame()
        template.apdu.asdus.append(replace(template.apdu.asdus[0], sv_id="x"))
        sources, sock = [], RecordingSocket()
        with pytest.raises(SchemaMismatch, match="2 ASDUs, the profile's frame"):
            publish_stream(unicast(1), template, GOLDEN_SCHEMA, sources.append,
                           rate=4000, frames=3, sock=sock)
        assert (sources, sock.sent) == ([], [])


class TestPublisherStamp:
    def test_fraction_truncates_where_rounding_would_not(self):
        assert published_stamp(3 * 2**-25) == (0, 1)  # 1.5 steps, not 2

    def test_fraction_just_below_a_second_does_not_carry(self):
        assert published_stamp(1 - 2**-30) == (0, 0xFF_FFFF)

    @pytest.mark.parametrize("clock", [-1.0, 2.0**32])
    def test_clock_outside_the_seconds_field_raises(self, clock):
        with pytest.raises(ValueError):
            published_stamp(clock)

    @given(st.floats(0, 2.0**32, exclude_max=True))
    def test_stamp_parity_with_truncation(self, clock):
        assert published_stamp(clock) == truncated_stamp(clock)


class TestLoopbackUnicast:
    def test_delivery_and_payload_identity(self):
        port = free_port()
        provider = sample_provider(CHANNELS, 80)
        with Collector(unicast(port), expected=100) as collector:
            state = publish_stream(
                unicast(port), golden_frame(), GOLDEN_SCHEMA, provider,
                rate=4000, frames=100, pace_hz=2000.0,
                timestamper=lambda: 0.0)
        assert state.frames_sent == 100
        received = [payload for payload, _ in collector.datagrams]
        assert len(received) == 100  # loopback should be loss free

        # Byte identity: re-encode what the publisher must have sent, from
        # the samples themselves rather than from the provider under test.
        reference = golden_frame()
        for tick, payload in enumerate(received):
            reference.apdu.asdus[0].smp_cnt = tick
            reference.apdu.asdus[0].seq_data = pack_seq_data(
                [_sampler(c, 80, 0)(tick) for c in CHANNELS], GOLDEN_SCHEMA)
            assert payload == encode_frame(reference, GOLDEN_SCHEMA)

    def test_smp_cnt_continuity_observed(self):
        port = free_port()
        provider = sample_provider(CHANNELS, 80)
        with Collector(unicast(port), expected=300) as collector:
            publish_stream(
                unicast(port), golden_frame(), GOLDEN_SCHEMA, provider,
                rate=4000, frames=300, pace_hz=4000.0)
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        for payload, at in collector.datagrams:
            analyzer.ingest(payload, at)
        stats = analyzer.report()
        assert stats.received == 300
        assert stats.lost == 0
        assert stats.out_of_order == 0

    def test_malformed_datagram_counted_by_sink(self):
        port = free_port()
        cfg = unicast(port)
        analyzer = StreamAnalyzer(4000, GOLDEN_SCHEMA)
        seen = []

        def sink(payload):
            seen.append(payload)
            analyzer.ingest(payload, time.monotonic())

        def stop():
            return len(seen) >= 2

        thread = threading.Thread(
            target=lambda: subscribe(cfg, sink, stop),
            daemon=True)
        thread.start()
        time.sleep(0.1)
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        tx.sendto(b"not a frame", ("127.0.0.1", port))
        tx.sendto(encode_frame(golden_frame(), GOLDEN_SCHEMA),
                  ("127.0.0.1", port))
        thread.join(timeout=5.0)
        tx.close()
        assert not thread.is_alive()
        stats = analyzer.report()
        assert stats.decode_failures == 1
        assert stats.received == 1

    def test_sink_exception_counted_and_reception_continues(self):
        port = free_port()
        cfg = unicast(port)
        count = [0]

        def sink(payload):
            count[0] += 1
            if count[0] == 1:
                raise RuntimeError("boom")

        def stop():
            return count[0] >= 2

        result = {}
        thread = threading.Thread(
            target=lambda: result.setdefault(
                "summary", subscribe(cfg, sink, stop)),
            daemon=True)
        thread.start()
        time.sleep(0.1)
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        tx.sendto(b"a", ("127.0.0.1", port))
        tx.sendto(b"b", ("127.0.0.1", port))
        thread.join(timeout=5.0)
        tx.close()
        summary = result["summary"]
        assert summary.datagrams == 2
        assert summary.decode_failures == 1

    def test_stop_immediately(self):
        summary = subscribe(unicast(free_port()), lambda d: None, lambda: True)
        assert summary.datagrams == 0

    def test_bind_to_foreign_address_raises(self):
        cfg = EndpointConfig(mode=Mode.UNICAST, address="192.0.2.1", port=50000)
        with pytest.raises(TransportError):
            subscribe(cfg, lambda d: None, lambda: True)


def drain_and_wait(monkeypatch, queued: int):
    """Queue ``queued`` datagrams on ``receive``'s first ``stop()`` poll and
    stop once the loop has drained them and waited; return the arrivals it
    yielded, the waits it asked ``time.sleep`` for and what each of its
    ``read_meminfo`` calls gave."""
    sleeps, reads = [], []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    monkeypatch.setattr(transport, "read_meminfo",
                        lambda sock: reads.append(read_meminfo(sock)) or reads[-1])
    port = free_port()
    received, polls = [], []

    def stop():
        if not polls:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
                for index in range(queued):
                    tx.sendto(bytes([index]), ("127.0.0.1", port))
        polls.append(len(received))
        # Once after the last datagram, once after the wait.
        return polls.count(queued) == 2 or len(polls) > 1000

    received.extend(receive(unicast(port), stop, ReceiveSummary()))
    assert [datagram for datagram, _ in received] == [
        bytes([index]) for index in range(queued)]
    return [arrival for _, arrival in received], sleeps, reads


class TestReceive:
    def test_back_to_back_datagrams_arrive_in_order_and_stamped(self):
        port = free_port()
        summary = ReceiveSummary()
        received = []
        ready = threading.Event()
        deadline = time.monotonic() + 10.0

        def stop():
            ready.set()
            return len(received) >= 200 or time.monotonic() >= deadline

        thread = threading.Thread(
            target=lambda: received.extend(
                receive(unicast(port), stop, summary)),
            daemon=True)
        thread.start()
        assert ready.wait(5.0), "receiver never started"
        sent = [index.to_bytes(2, "big") for index in range(200)]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
            for payload in sent:
                tx.sendto(payload, ("127.0.0.1", port))
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert [datagram for datagram, _ in received] == sent
        arrivals = [arrival for _, arrival in received]
        assert arrivals == sorted(arrivals)
        if sys.platform.startswith("linux"):
            now = time.time()
            assert all(abs(now - arrival) < 1.0 for arrival in arrivals)
        assert (summary.datagrams, summary.kernel_dropped) == (200, 0)

    def test_control_messages_give_the_kernel_stamp(self):
        stamp = (socket.SOL_SOCKET, SO_TIMESTAMPNS,
                 struct.pack("@ll", 1_700_000_000, 250_000_000))
        foreign = [(socket.IPPROTO_IP, SO_TIMESTAMPNS, bytes(16)),
                   (socket.SOL_SOCKET, socket.SCM_RIGHTS, bytes(4)),
                   (socket.SOL_SOCKET, SO_TIMESTAMPNS, bytes(8))]
        assert read_ancillary([*foreign, stamp]) == 1_700_000_000.25
        assert read_ancillary(foreign) is None
        assert read_ancillary([]) is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="SO_MEMINFO is Linux's")
    def test_meminfo_gives_the_queue_the_kernel_charges(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as rx, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
            rx.bind(("127.0.0.1", 0))
            assert read_meminfo(rx) == (
                0, rx.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF), 0)
            for _ in range(3):
                tx.sendto(bytes(86), rx.getsockname())
            queued, _, drops = read_meminfo(rx)
            assert queued >= 3 * 86  # each charged at least its payload
            assert drops == 0

    @pytest.mark.parametrize("reply", [OSError(errno.ENOPROTOOPT, "no"),
                                       bytes(8 * 4)],
                             ids=["unreadable", "eight_words"])
    def test_meminfo_unreadable_or_short_gives_none(self, reply):
        class Unreadable:
            def getsockopt(self, level, option, size):
                assert (level, size) == (socket.SOL_SOCKET, 9 * 4)
                if isinstance(reply, OSError):
                    raise reply
                return reply

        assert read_meminfo(Unreadable()) is None

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="SO_MEMINFO is Linux's")
    def test_receive_queue_overflow_is_counted_apart(self):
        # 2000 datagrams of 1400 octets overflow the socket's buffer, at
        # most twice the 1 MB asked for, before the first drain, so the
        # tail is dropped. The wake before a marker, sent once a drain
        # runs dry, reads the kernel's count of those drops.
        port = free_port()
        flood = [index.to_bytes(2, "big") * 700 for index in range(2000)]
        summary = ReceiveSummary()
        received, polls, marker = [], [], []
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

        def stop():
            if not polls:
                for payload in flood:
                    tx.sendto(payload, ("127.0.0.1", port))
            elif polls[-1] == len(received) and not marker:
                marker.append(b"end")
                tx.sendto(b"end", ("127.0.0.1", port))
            polls.append(len(received))
            return received[-1:] == [b"end"] or len(polls) > 10_000

        try:
            for datagram, _ in receive(unicast(port), stop, summary):
                received.append(datagram)
        finally:
            tx.close()
        assert received[-1] == b"end"
        kept = len(received) - 1
        assert received[:-1] == flood[:kept]
        assert summary.kernel_dropped == len(flood) - kept > 0
        assert summary.datagrams == len(received)

    def test_stop_ends_a_batch_at_the_datagram_it_asks_for(self):
        # 3N datagrams queue before the first wake; stop() after each one
        # keeps the rest of the batch from the sink.
        port = free_port()
        n = 5
        seen, polls = [], []

        def stop():
            if not polls:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
                    for index in range(3 * n):
                        tx.sendto(bytes([index]), ("127.0.0.1", port))
            polls.append(len(seen))
            return len(seen) >= n

        summary = subscribe(unicast(port), seen.append, stop)
        assert seen == [bytes([index]) for index in range(n)]
        assert summary.datagrams == n

    def test_stop_is_first_polled_once_the_port_is_bound(self):
        # perfbench's subscriber reports ready on that first poll.
        port = free_port()
        errors = []

        def stop():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                try:
                    probe.bind(("127.0.0.1", port))
                except OSError as exc:
                    errors.append(exc.errno)
            return True

        subscribe(unicast(port), lambda d: None, stop)
        assert errors == [errno.EADDRINUSE]

    def test_closing_the_generator_closes_the_socket(self):
        port = free_port()
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

        def stop():
            tx.sendto(b"x", ("127.0.0.1", port))
            return False

        datagrams = receive(unicast(port), stop, ReceiveSummary())
        assert next(datagrams)[0] == b"x"
        datagrams.close()
        tx.close()
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", port))  # EADDRINUSE while it is open

    def test_without_kernel_stamps_each_datagram_is_stamped_on_receipt(
            self, monkeypatch):
        # Where the options cannot be set, the loop never sleeps between
        # drains and stamps time.time() as recvmsg returns.
        monkeypatch.setattr(sys, "platform", "darwin")
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        port = free_port()
        received, polls, sent_at = [], [], []

        def stop():
            if not polls:
                sent_at.append(time.time())
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
                    for index in range(3):
                        tx.sendto(bytes([index]), ("127.0.0.1", port))
            polls.append(len(received))
            return polls.count(3) == 2  # once after the third, once after a wait

        summary = ReceiveSummary()
        received.extend(receive(unicast(port), stop, summary))
        assert [datagram for datagram, _ in received] == [b"\0", b"\1", b"\2"]
        assert all(sent_at[0] <= arrival <= time.time()
                   for _, arrival in received)
        assert sleeps == []
        assert summary.kernel_dropped == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the wait follows kernel stamps")
    def test_a_drain_sleeps_while_a_quarter_of_the_queue_fills(
            self, monkeypatch):
        arrivals, sleeps, reads = drain_and_wait(monkeypatch, 10)
        # Read as the socket opens, at the wake before the drain, and as
        # iteration ends after its sleep.
        assert len(reads) == 3
        queued, capacity, _ = reads[1]
        assert 0 < queued <= capacity
        assert sleeps == [
            _wait_after(10, arrivals[0], arrivals[-1], queued, capacity)]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the wait follows kernel stamps")
    def test_a_drain_of_one_datagram_waits_wake_s(self, monkeypatch):
        _, sleeps, _ = drain_and_wait(monkeypatch, 1)
        assert sleeps == [WAKE_S]

    def test_without_meminfo_each_datagram_wakes_the_loop(self, monkeypatch):
        # A socket whose SO_MEMINFO cannot be read never sleeps between
        # drains, as without kernel stamps.
        monkeypatch.setattr(transport, "read_meminfo", lambda sock: None)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        port = free_port()
        received, polls = [], []

        def stop():
            if not polls:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
                    for index in range(3):
                        tx.sendto(bytes([index]), ("127.0.0.1", port))
            polls.append(len(received))
            return polls.count(3) == 2

        summary = ReceiveSummary()
        received.extend(receive(unicast(port), stop, summary))
        assert [datagram for datagram, _ in received] == [b"\0", b"\1", b"\2"]
        assert sleeps == []
        assert summary.kernel_dropped == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="SO_MEMINFO is Linux's")
    def test_drops_after_the_last_wake_count_when_iteration_ends(self):
        # The flood overflows the queue while the loop holds the first
        # datagram, and stop() ends iteration before another wake.
        port = free_port()
        summary = ReceiveSummary()
        polls = []

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
            def stop():
                if not polls:
                    tx.sendto(b"first", ("127.0.0.1", port))
                else:
                    for index in range(2000):
                        tx.sendto(index.to_bytes(2, "big") * 700,
                                  ("127.0.0.1", port))
                polls.append(summary.datagrams)
                return len(polls) > 1

            received = list(receive(unicast(port), stop, summary))
        assert [datagram for datagram, _ in received] == [b"first"]
        assert summary.datagrams == 1
        assert summary.kernel_dropped > 0

    def test_a_second_unicast_receiver_fails_to_bind(self):
        # Only multicast mode shares its port; a second unicast receiver
        # would otherwise take every datagram from the first.
        port = free_port()
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

        def stop():
            tx.sendto(b"x", ("127.0.0.1", port))
            return False

        first = receive(unicast(port), stop, ReceiveSummary())
        try:
            assert next(first)[0] == b"x"
            summary = ReceiveSummary()
            with pytest.raises(TransportError, match="bind/join") as raised:
                next(receive(unicast(port), lambda: True, summary))
            assert raised.value.state is summary
        finally:
            first.close()
            tx.close()


# The octets Linux charges the queue for each 86-octet datagram over
# loopback, and the queue it grants at its default rmem_max (212992).
LOOPBACK_CHARGE = 832
DEFAULT_QUEUE = 2 * 212992


class TestWaitAfter:
    # The sleep after a drain is the time a quarter of the queue takes to
    # fill at the spacing of its first and last stamps, each datagram
    # charged as the drain's share of the queue, capped at POLL_S; WAKE_S
    # after one datagram, stamps that do not rise or nothing queued. On
    # the default queue a quarter is 128 loopback datagrams.
    @pytest.mark.parametrize("count, first, last, wait", [
        (20, 0.0, 19 * 250e-6, 0.032),  # 4000 SPS
        (65, 0.0, 64 * 78.125e-6, 0.010),  # 12800 SPS
        (3, 0.0, 2 * 0.010, POLL_S),  # 100 SPS
        (1, 1_700_000_000.0, 1_700_000_000.0, WAKE_S),
        (4, 1_700_000_000.0, 1_700_000_000.0, WAKE_S),
        (4, 1_700_000_000.0, 1_699_999_999.0, WAKE_S),
    ])
    def test_wait_after_a_drain(self, count, first, last, wait):
        assert _wait_after(count, first, last, count * LOOPBACK_CHARGE,
                           DEFAULT_QUEUE) == pytest.approx(wait)

    @pytest.mark.parametrize("queued, capacity, wait", [
        (20 * LOOPBACK_CHARGE, 2 << 20, 0.1575),  # a 2 MiB grant: 630 datagrams
        (20 * 4096, DEFAULT_QUEUE, 0.0065),  # 4 KiB a datagram: 26 datagrams
        (0, DEFAULT_QUEUE, WAKE_S),  # nothing queued as the drain began
    ])
    def test_wait_after_follows_the_queue_the_kernel_reports(
            self, queued, capacity, wait):
        # 20 datagrams at 4000 SPS, as the first case above.
        assert _wait_after(20, 0.0, 19 * 250e-6, queued, capacity) \
            == pytest.approx(wait, rel=1e-3)

    @given(count=st.integers(2, 10_000), first=st.floats(0.0, 2.0**32),
           spacing=st.floats(1e-9, 1.0), queued=st.integers(1, 2**31),
           capacity=st.integers(1, 2**31))
    def test_wait_after_fills_at_most_a_quarter_of_the_queue(
            self, count, first, spacing, queued, capacity):
        last = first + (count - 1) * spacing
        for args in [(1, first, last), (count, first, first),
                     (count, last, first)]:
            assert _wait_after(*args, queued, capacity) == WAKE_S
        assert _wait_after(count, first, last, 0, capacity) == WAKE_S
        if last <= first:
            return  # the spacing is below the clock's resolution here
        wait = _wait_after(count, first, last, queued, capacity)
        assert 0 < wait <= POLL_S
        # What arrives at the drain's spacing and charge during the wait
        # fills at most a quarter of the queue, and a quarter unless capped.
        filled = wait / ((last - first) / (count - 1)) * queued / count
        assert filled <= capacity / 4 * (1 + 1e-9)
        assert wait == POLL_S or filled >= capacity / 4 * (1 - 1e-9)


class TestMulticastLoopback:
    def test_group_publish_subscribe(self):
        port = free_port()
        cfg = EndpointConfig(mode=Mode.MULTICAST, address="239.255.61.85",
                             port=port, multicast_ttl=1)
        provider = sample_provider(CHANNELS, 80)
        try:
            with Collector(cfg, expected=50) as collector:
                publish_stream(cfg, golden_frame(), GOLDEN_SCHEMA, provider,
                               rate=4000, frames=50, pace_hz=2000.0)
        except TransportError as exc:
            pytest.skip(f"multicast unavailable here: {exc}")
        if not collector.datagrams:
            pytest.skip("multicast loopback delivered nothing")
        frame = decode_frame(collector.datagrams[0][0], DecodeMode.STRICT)
        assert frame.apdu.asdus[0].sv_id == "xxxxMUnn01"


class TestPacing:
    def test_mean_interval_tracks_rate(self):
        # Absolute-deadline scheduling keeps the mean exact even when the
        # host steals time; tick N fires at t0 + N * interval.
        port = free_port()
        provider = sample_provider(CHANNELS, 80)
        rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        rx.bind(("127.0.0.1", port))
        rx.setblocking(False)
        frames = 800
        t0 = time.monotonic()
        publish_stream(
            unicast(port), golden_frame(), GOLDEN_SCHEMA, provider,
            rate=4000, frames=frames)
        elapsed = time.monotonic() - t0
        rx.close()
        mean = elapsed / frames
        assert 240e-6 <= mean <= 260e-6

    def test_miss_accounting_with_roomy_budget(self):
        # At 50 frames per second the per-tick budget is 20 ms; misses
        # then require a scheduler stall that long, so a correct counter
        # stays near zero while an inverted one would hit every tick.
        port = free_port()
        provider = sample_provider(CHANNELS, 80)
        frames = 50
        state = publish_stream(
            unicast(port), golden_frame(), GOLDEN_SCHEMA, provider,
            rate=4000, frames=frames, pace_hz=50.0)
        assert state.deadline_misses <= 5
        assert state.frames_sent == frames
