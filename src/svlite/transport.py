"""UDP carriage of sampled-value frames, unicast or multicast.

The datagram payload is the entire link-level frame, VLAN tag and MAC
addresses included, so a capture of the UDP stream dissects exactly like
the raw stream. The publisher paces with absolute deadlines (tick N fires
at t0 + N * interval) so scheduling error never accumulates as drift.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import select
import socket
import struct
import sys
import time
from dataclasses import dataclass
from enum import Enum
from ipaddress import IPv4Address

from .codec import FramePlan, SvFrame, encode_frame, refr_tm_octets
from .codec import pack_seq_data  # noqa: F401, perfbench traces
from .errors import TransportError, WidthMismatch
from .model import DatasetSchema, check_range, check_wrap

DEFAULT_GROUP = "239.255.61.85"
DEFAULT_PORT = 61850
DEFAULT_TTL = 1
# Inclusive bounds of the integer endpoint fields, which config checks too.
PORT_RANGE = (1, 0xFFFF)
TTL_RANGE = (0, 0xFF)
# Octets the subscriber reads of each datagram; the rest of a longer one is lost.
RECV_BUFFER = 2048
# socket(7) options that Python's socket module does not name.
SO_TIMESTAMPNS = 35  # SCM_TIMESTAMPNS: a struct timespec, realtime clock
SO_MEMINFO = 55  # u32 words indexed by sock_diag(7)'s SK_MEMINFO_*
_TIMESPEC = struct.Struct("@ll")
_MEMINFO = struct.Struct("@9I")  # [0] RMEM_ALLOC, [1] RCVBUF, [8] DROPS
ANCILLARY_SPACE = socket.CMSG_SPACE(_TIMESPEC.size)
# The sleep after a drain of one datagram, or of stamps that do not rise.
WAKE_S = 0.005
# Longest block in poll() after an empty drain, and longest sleep after one
# that found datagrams: how soon the receive loop sees ``stop()`` turn true.
POLL_S = 0.2


class Mode(Enum):
    UNICAST = "unicast"
    MULTICAST = "multicast"


@dataclass(frozen=True)
class EndpointConfig:
    mode: Mode = Mode.MULTICAST
    address: str = DEFAULT_GROUP
    port: int = DEFAULT_PORT
    multicast_ttl: int = DEFAULT_TTL
    bind_interface: str | None = None

    def __post_init__(self):
        if type(self.mode) is not Mode:
            raise ValueError(f"mode must be of type Mode, got {self.mode!r}")
        if type(self.address) is not str:  # IPv4Address also takes ints and bytes
            raise ValueError(f"address must be of type str, got {self.address!r}")
        addr = IPv4Address(self.address)
        if self.mode is Mode.MULTICAST and not addr.is_multicast:
            raise ValueError(
                f"{self.address} is not in 224.0.0.0/4, required for multicast")
        check_range("port", self.port, *PORT_RANGE)
        check_range("multicast_ttl", self.multicast_ttl, *TTL_RANGE)


@dataclass
class PublisherState:
    smp_cnt: int
    wrap_modulus: int
    frames_sent: int = 0
    deadline_misses: int = 0


@dataclass
class ReceiveSummary:
    """What the receive loop counted: ``datagrams`` received,
    ``decode_failures`` raised by :func:`subscribe`'s sink, and
    ``kernel_dropped``, the datagrams the socket's receive queue dropped
    for want of room, as the kernel last reported it (Linux only, else 0).
    Loss on the wire is the analyzer's to count, from smpCnt gaps."""
    datagrams: int = 0
    decode_failures: int = 0
    kernel_dropped: int = 0


def _sleep_until(deadline: float) -> None:
    # Coarse sleep, then a clock spin for the last stretch. A bare sleep
    # overshoots by 100 us or more, and even sleep(0) can stall for tens
    # of milliseconds under sandboxed kernels, so the final approach
    # polls the clock without yielding.
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        if remaining > 0.0015:
            time.sleep(remaining - 0.001)


def _open_publish_socket(cfg: EndpointConfig) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        if cfg.mode is Mode.MULTICAST:
            sock.setsockopt(
                socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, cfg.multicast_ttl)
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            if cfg.bind_interface:
                sock.setsockopt(
                    socket.IPPROTO_IP, socket.IP_MULTICAST_IF,
                    socket.inet_aton(cfg.bind_interface))
        elif cfg.bind_interface:
            sock.bind((cfg.bind_interface, 0))
    except OSError as exc:
        sock.close()
        raise TransportError(f"publisher socket setup failed: {exc}") from exc
    return sock


def frame_ticks(template: SvFrame, schema: DatasetSchema, source, wrap: int,
                start_smp_cnt: int, stamp):
    """Encode ``template`` now, then on tick N yield it with smpCnt
    ``(start_smp_cnt + N) % wrap``, the 8 refrTm octets ``stamp(N)`` and
    the seqData octets ``source(N)`` in every ASDU, as they are. A fixed
    schema and svID keep every BER length constant, so each tick is one
    join of the frame's :class:`FramePlan` parts with those octets in its
    slots, byte-exact and without a re-encode. Each tick is a new
    ``bytes`` object. seqData octets of another length than the schema's
    packed width, or refrTm octets of another length than 8, raise
    :class:`WidthMismatch` rather than resize the frame. A ``wrap`` that
    :func:`~svlite.model.check_wrap` rejects raises before the first tick."""
    check_wrap(wrap)
    plan = FramePlan(encode_frame(template, schema))
    parts, slots = list(plan.parts), plan.slots
    width = schema.packed_width
    join = b"".join

    def ticks():
        for tick in itertools.count():
            seq_data = source(tick)
            if len(seq_data) != width:
                raise WidthMismatch(
                    f"source gave {len(seq_data)} seqData octets at tick "
                    f"{tick}, the schema packs {width}")
            refr_tm = stamp(tick)
            if len(refr_tm) != 8:
                raise WidthMismatch(
                    f"stamp gave {len(refr_tm)} refrTm octets at tick {tick}, "
                    f"expected 8")
            counter = ((start_smp_cnt + tick) % wrap).to_bytes(2, "big")
            for smp_cnt, refr_tm_at, seq_data_at in slots:
                parts[smp_cnt] = counter
                parts[refr_tm_at] = refr_tm
                parts[seq_data_at] = seq_data
            yield join(parts)

    return ticks()


def publish_stream(
    cfg: EndpointConfig,
    template: SvFrame,
    schema: DatasetSchema,
    source,
    rate: int,
    frames: int,
    *,
    pace_hz: float | None = None,
    start_smp_cnt: int = 0,
    sock: socket.socket | None = None,
    timestamper=time.time,
) -> PublisherState:
    """Send ``frames`` datagrams paced at ``pace_hz`` (default: ``rate``).

    ``source(tick)`` returns that tick's seqData octets, packed in
    ``schema`` (see :func:`~svlite.sources.sample_provider`); they are sent
    as they are, and a wrong length raises :class:`WidthMismatch`.
    smpCnt starts at ``start_smp_cnt`` and wraps at ``rate``, one wrap per
    nominal second, which :func:`frame_ticks` checks first. A pace that
    is not finite and positive raises ``ValueError``, as a bad rate does,
    before any socket opens. A tick whose send completes after the next
    tick's deadline counts as a deadline miss.
    ``timestamper`` feeds refrTm and exists so tests can pin it. Socket
    failures raise :class:`TransportError` carrying the state accumulated
    so far.
    """
    if frames < 0:
        raise ValueError(f"frame count must be >= 0, got {frames}")
    ticks = frame_ticks(
        template, schema, source, rate, start_smp_cnt,
        # The product is exact, so the floor truncates the clock to 2**-24 s.
        lambda _: refr_tm_octets(math.floor(timestamper() * 2**24), 2**24))
    pace = pace_hz if pace_hz is not None else float(rate)
    if not (math.isfinite(pace) and pace > 0):
        raise ValueError(f"pace must be finite and positive, got {pace}")
    interval = 1.0 / pace
    state = PublisherState(smp_cnt=start_smp_cnt % rate, wrap_modulus=rate)
    own_sock = sock is None
    if own_sock:
        sock = _open_publish_socket(cfg)
    destination = (cfg.address, cfg.port)
    try:
        t0 = time.monotonic()
        for tick in range(frames):
            _sleep_until(t0 + tick * interval)
            wire = next(ticks)
            try:
                sock.sendto(wire, destination)
            except OSError as exc:
                raise TransportError(
                    f"send to {destination} failed: {exc}", state=state) from exc
            if time.monotonic() > t0 + (tick + 1) * interval:
                state.deadline_misses += 1
            state.frames_sent += 1
    finally:
        state.smp_cnt = (start_smp_cnt + state.frames_sent) % rate
        if own_sock:
            sock.close()
    return state


def read_ancillary(ancdata) -> float | None:
    """The kernel arrival stamp, in seconds on the realtime clock, in
    ``recvmsg``'s control messages, or ``None`` where no message carries
    it. Messages of any other level or type are ignored."""
    for level, kind, data in ancdata:
        if (level, kind) == (socket.SOL_SOCKET, SO_TIMESTAMPNS) \
                and len(data) == _TIMESPEC.size:
            seconds, nanoseconds = _TIMESPEC.unpack(data)
            return seconds + nanoseconds * 1e-9
    return None


def read_meminfo(sock: socket.socket) -> tuple[int, int, int] | None:
    """``SO_MEMINFO``'s ``(rmem_alloc, rcvbuf, drops)``: octets charged for
    ``sock``'s queued datagrams, the queue granted, and datagrams dropped for
    want of room; ``None`` if unreadable or shorter than 9 words."""
    try:
        queued, capacity, *_, drops = _MEMINFO.unpack_from(sock.getsockopt(
            socket.SOL_SOCKET, SO_MEMINFO, _MEMINFO.size))
    except (OSError, struct.error):
        return None
    return queued, capacity, drops


def _wait_after(count: int, first: float, last: float, queued: int,
                capacity: int) -> float:
    """The sleep after a drain of ``count`` datagrams stamped ``first`` to
    ``last`` and charged ``queued`` octets of a ``capacity``-octet queue:
    the time a quarter of ``capacity`` fills at that spacing and charge, at
    most :data:`POLL_S`; :data:`WAKE_S` for one datagram, stamps that do not
    rise, or nothing queued."""
    if count < 2 or last <= first or queued <= 0:
        return WAKE_S
    return min(POLL_S, capacity * count / (4 * queued)
               * (last - first) / (count - 1))


def receive(cfg: EndpointConfig, stop, summary: ReceiveSummary):
    """Receive datagrams in batches: a generator of ``(datagram,
    arrival)`` pairs in arrival order, counting into ``summary``.

    Iteration binds, joins the group in multicast mode (the only mode that
    shares its port), and only then polls ``stop()`` for the first time;
    bind or join failures raise :class:`TransportError` carrying
    ``summary``. ``stop()`` is polled again after every datagram and every
    wait, and a true result ends iteration. An empty drain blocks up to
    :data:`POLL_S` for a datagram; one that found datagrams sleeps
    :func:`_wait_after` its stamps and :func:`read_meminfo` as it began, so
    a wake finds the queue about a quarter full: only a rate that more than
    quadruples within one sleep can overflow it.

    On Linux ``arrival`` is the kernel's stamp on the realtime clock
    (``SO_TIMESTAMPNS``) and ``summary.kernel_dropped`` ``SO_MEMINFO``'s drop
    count, read at each wake and as iteration ends. If either option fails
    the loop wakes per datagram; an unstamped ``arrival`` is ``time.time()``.
    Ending or closing the generator closes the socket.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    memory = None  # (queued, capacity, drops) at the last wake, batched only
    try:
        with contextlib.suppress(OSError):  # best effort, kernel may clamp
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        try:
            if cfg.mode is Mode.MULTICAST:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("", cfg.port))
                member = socket.inet_aton(cfg.address) + socket.inet_aton(
                    cfg.bind_interface or "0.0.0.0")
                sock.setsockopt(
                    socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, member)
            else:
                sock.bind((cfg.address, cfg.port))
        except OSError as exc:
            raise TransportError(
                f"bind/join {cfg.address}:{cfg.port} failed: {exc}",
                state=summary) from exc
        if sys.platform.startswith("linux"):
            with contextlib.suppress(OSError):  # else wake per datagram
                sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
                memory = read_meminfo(sock)
        sock.setblocking(False)
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        count = first = 0  # datagrams in this drain, and the first's arrival
        while not stop():
            if not count and memory:
                memory = read_meminfo(sock) or memory
                summary.kernel_dropped = memory[2]
            try:
                datagram, ancdata, _, _ = sock.recvmsg(
                    RECV_BUFFER, ANCILLARY_SPACE)
            except BlockingIOError:
                if count and memory:
                    time.sleep(_wait_after(count, first, arrival, *memory[:2]))
                else:
                    poller.poll(POLL_S * 1000)
                count = 0
                continue
            arrival = read_ancillary(ancdata) or time.time()
            if not count:
                first = arrival
            count += 1
            summary.datagrams += 1
            yield datagram, arrival
    finally:
        if memory:
            summary.kernel_dropped = (read_meminfo(sock) or memory)[2]
        sock.close()


def subscribe(cfg: EndpointConfig, sink, stop) -> ReceiveSummary:
    """Hand each datagram :func:`receive` yields to ``sink`` and return
    the summary.

    ``stop`` is :func:`receive`'s, and so are its errors. An exception
    from the sink counts as a decode failure and reception continues.
    """
    summary = ReceiveSummary()
    with contextlib.closing(receive(cfg, stop, summary)) as datagrams:
        for datagram, _ in datagrams:
            try:
                sink(datagram)
            except Exception:
                summary.decode_failures += 1
    return summary
