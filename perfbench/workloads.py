"""The benchmark's workloads.

Each ``run_*`` function takes ``(name, seed, seconds, trace, work)`` and
returns a :class:`Result`. Untraced (``trace`` false) it repeats the
workload's unit until ``seconds`` have passed and fills the end-to-end
metrics. Traced it runs one fixed-size unit twice, first untraced and then
with spans, so that the counters repeat exactly for a seed and the
difference in wall time is the tracing overhead; it fills the per-layer
metrics.

The instruments left on in untraced runs sit at one boundary each and
record a clock reading, never wrapping the layers being compared:

- simulate: an entry timestamp in ``Channel.transmit`` and a CPU-time mark
  at ``Channel.drain``;
- loopback: a timing provider and a timing socket handed to
  ``publish_stream``;
- capture: clock readings around the harness's own calls.

Untraced timings of CPU work on the simulate and capture workloads are
scaled to a reference host speed by a calibration loop run in the same
process, on the same pinned CPU (see ``hostspeed``). The raw per-unit
values and the factors are kept in the detail line.
"""

from __future__ import annotations

import contextlib
import io
import hashlib
import json
import math
import resource
import select
import socket
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import inputs
from hostspeed import HostSpeed
from tracer import Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Spans recorded by traced runs, named after the module that owns the call.
LAYERS = (
    "cli.main",
    "config.load_config",
    "sources.provide",
    "codec.pack_seq_data",
    "codec.encode_frame",
    "codec.decode_frame",
    "codec.unpack_seq_data",
    "codec.dissect",
    "codec.render_dissection",
    "ber.decode_tlv",
    "netsim.transmit",
    "netsim.drain",
    "analyzer.ingest",
    "transport.sendto",
)

# Counters of traced runs, with their units; 0 where a workload has no
# such layer.
COUNTERS = {
    "netsim.lost": "count",
    "netsim.delivered": "count",
    "analyzer.received": "count",
    "analyzer.lost": "count",
    "analyzer.out_of_order": "count",
    "analyzer.quality_discarded": "count",
    "analyzer.decode_failures": "count",
    "analyzer.accepted_len": "count",
    "analyzer.loss_count_error": "count",
    "codec.strict_rejected": "count",
    "codec.dissect_warnings": "count",
    "transport.tick_us_p99": "us",
    "transport.sendto_us_p50": "us",
    "transport.deadline_miss_frac": "ratio",
    "transport.lateness_us_p99": "us",
    "transport.bare_floor_miss_frac": "ratio",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60.0
MAX_PROBLEMS = 20


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Record ``message`` unless ``ok``; return ``ok``."""
        if ok:
            return True
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)
        elif len(self.problems) == MAX_PROBLEMS:
            self.problems.append("(further problems not listed)")
        return False

    def end_to_end(self, setup, frames_per_s, peak_rss_mb, delivery_ratio,
                   pub_tick_us_p50, sub_cpu_us_per_frame) -> None:
        self.metrics.update({
            "setup_s": (setup, "s"),
            "frames_per_s": (frames_per_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "delivery_ratio": (delivery_ratio, "ratio"),
            "pub_tick_us_p50": (pub_tick_us_p50, "us"),
            "sub_cpu_us_per_frame": (sub_cpu_us_per_frame, "us"),
        })

    def per_layer(self, tracer: Tracer, counters: dict) -> None:
        self.metrics.update(tracer.metrics(LAYERS))
        for name, unit in COUNTERS.items():
            self.metrics[name] = (counters.get(name, 0), unit)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _samples(unit_factors, setup_factors, **raw) -> dict:
    """Raw per-unit values behind the medians, and their scale factors."""
    return {"raw": raw, "unit_factors": unit_factors,
            "setup_factors": setup_factors}


def _scaled_median(values, factors) -> float:
    return statistics.median(v * f for v, f in zip(values, factors))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- child processes ---------------------------------------------------


def _spawn(*args) -> subprocess.Popen:
    # Unbuffered, so a line read never pulls the next one out of the pipe
    # where select() would not see it.
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)


def _read_json_line(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else b""
    if not line:
        raise RuntimeError(f"child {proc.args[2:]} sent nothing in {timeout} s")
    return json.loads(line)


def _finish(proc: subprocess.Popen) -> dict:
    """Last JSON line of a child, then wait for it to exit."""
    try:
        message = _read_json_line(proc, CHILD_TIMEOUT_S)
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"child {proc.args[2:]} exited {proc.returncode}")
    return message


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _setup_probes(*args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the end of set-up, and
    the scale factor of each from the probe's own calibration loop."""
    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = _spawn(*args)
        try:
            ready = _read_json_line(proc, CHILD_TIMEOUT_S)["ready"]
            times.append(time.perf_counter() - start)
            message = _finish(proc)
        finally:
            _stop(proc)
        if not ready:
            raise RuntimeError(f"set-up probe {args} failed")
        factors.append(hostspeed.factor(message["calibration_s"]))
    return times, factors


def _pin_one_cpu() -> None:
    """Pin this process and the probes it starts to one CPU."""
    cpus = hostspeed.cpus()
    hostspeed.pin(cpus[-1] if cpus else None)


# --- sim-loss-80 and sim-impaired-256q ---------------------------------

# Frames per simulate call: short units, many to a run, each next to its
# own calibration, so the median over units filters the host's drift. The
# loss-only unit spans one smpCnt wrap (4000).
SIM_UNIT_FRAMES = {"sim-loss-80": 5_000, "sim-impaired-256q": 2_500}
SIM_TRACE_FRAMES = {"sim-loss-80": 20_000, "sim-impaired-256q": 10_000}


@dataclass
class SimRun:
    code: int
    report: str
    wall: float  # whole call
    frames_wall: float  # from the first transmit to the end of the call
    tick_deltas: array
    sub_cpu: float
    counters: dict


def _simulate(argv: list[str], tracer: Tracer | None = None) -> SimRun:
    """One ``cli.main(argv)`` call with the simulate instruments on."""
    from svlite import analyzer, ber, cli, netsim

    clock = time.perf_counter
    transmit, drain = netsim.Channel.transmit, netsim.Channel.drain
    report = analyzer.StreamAnalyzer.report
    main = cli.main
    replacements = []
    if tracer is not None:
        transmit = tracer.wrap("netsim.transmit", transmit)
        drain = tracer.wrap("netsim.drain", drain)
        main = tracer.wrap("cli.main", main)
        sample_provider = cli.sample_provider

        def traced_provider(*args, **kwargs):
            return tracer.wrap("sources.provide", sample_provider(*args, **kwargs))

        replacements = [
            (cli, "load_config",
             tracer.wrap("config.load_config", cli.load_config)),
            (cli, "sample_provider", traced_provider),
            (cli, "pack_seq_data",
             tracer.wrap("codec.pack_seq_data", cli.pack_seq_data)),
            (cli, "encode_frame",
             tracer.wrap("codec.encode_frame", cli.encode_frame)),
            (analyzer.StreamAnalyzer, "ingest",
             tracer.wrap("analyzer.ingest", analyzer.StreamAnalyzer.ingest)),
            (analyzer, "decode_frame",
             tracer.wrap("codec.decode_frame", analyzer.decode_frame)),
            (analyzer, "unpack_seq_data",
             tracer.wrap("codec.unpack_seq_data", analyzer.unpack_seq_data)),
            (ber, "decode_tlv", tracer.wrap("ber.decode_tlv", ber.decode_tlv)),
        ]
    stamps = array("d")
    seen = {}

    def timed_transmit(self, datagram, send_time):
        stamps.append(clock())
        return transmit(self, datagram, send_time)

    def marked_drain(self, until=None):
        seen["drain_cpu"] = time.process_time()
        deliveries = drain(self, until)
        # After the call: the final drain releases a held datagram.
        seen["channel"] = (self.transmitted, self.delivered, self.lost)
        return deliveries

    def kept_report(self):
        seen["analyzer"] = (self.received, self.lost, self.out_of_order,
                            self.quality_discarded, self.decode_failures,
                            len(self.accepted))
        return report(self)

    replacements += [
        (netsim.Channel, "transmit", timed_transmit),
        (netsim.Channel, "drain", marked_drain),
        (analyzer.StreamAnalyzer, "report", kept_report),
    ]
    out = io.StringIO()
    with patched(replacements), contextlib.redirect_stdout(out):
        start = clock()
        code = main(argv)
        wall = clock() - start
        cpu_end = time.process_time()
    transmitted, delivered, channel_lost = seen["channel"]
    received, lost, out_of_order, discarded, failures, accepted = seen["analyzer"]
    return SimRun(
        code=code,
        report=out.getvalue(),
        wall=wall,
        frames_wall=start + wall - stamps[0],
        tick_deltas=array("d", (b - a for a, b in zip(stamps, stamps[1:]))),
        sub_cpu=cpu_end - seen["drain_cpu"],
        counters={
            "netsim.transmitted": transmitted,
            "netsim.delivered": delivered,
            "netsim.lost": channel_lost,
            "analyzer.received": received,
            "analyzer.lost": lost,
            "analyzer.out_of_order": out_of_order,
            "analyzer.quality_discarded": discarded,
            "analyzer.decode_failures": failures,
            "analyzer.accepted_len": accepted,
            "analyzer.loss_count_error": abs(lost - channel_lost),
        },
    )


def _check_sim(result: Result, run: SimRun, frames: int, loss_only: bool) -> None:
    c = run.counters
    received, delivered = c["analyzer.received"], c["netsim.delivered"]
    landed = c["analyzer.accepted_len"] + c["analyzer.quality_discarded"]
    failures = c["analyzer.decode_failures"]
    result.attempted += frames
    result.failed += frames if run.code else min(
        frames, failures + abs(received - delivered) + abs(landed - received))
    result.check(run.code == 0, f"simulate exited {run.code}")
    result.check(c["netsim.transmitted"] == frames,
                 f"netsim transmitted {c['netsim.transmitted']} of {frames}")
    result.check(delivered + c["netsim.lost"] == c["netsim.transmitted"],
                 f"netsim conservation broken: {c}")
    result.check(received == delivered,
                 f"analyzer received {received}, netsim delivered {delivered}")
    result.check(failures == 0, f"{failures} decode failures on valid traffic")
    result.check(landed == received,
                 f"{received} frames received but {landed} accepted or discarded")
    if loss_only:
        result.check(c["analyzer.out_of_order"] == 0 == c["analyzer.quality_discarded"],
                     f"loss-only run reordered or discarded frames: {c}")


def run_sim(name: str, seed: int, seconds: int, trace: bool, work: Path) -> Result:
    if name == "sim-loss-80":
        base = ["simulate", "--loss", "0.01"]
    else:
        config = work / "impaired.cfg"
        config.write_text(inputs.impaired_config(seed))
        base = ["simulate", "--config", str(config), *inputs.IMPAIRED_ARGS]
    loss_only = name == "sim-loss-80"

    def argv(unit: int, frames: int) -> list[str]:
        return [*base, "--frames", str(frames),
                "--seed", str(inputs.unit_seed(seed, unit))]

    _pin_one_cpu()
    result = Result()
    if trace:
        frames = SIM_TRACE_FRAMES[name]
        plain = _simulate(argv(0, frames))
        tracer = Tracer()
        traced = _simulate(argv(0, frames), tracer)
        for run in (plain, traced):
            _check_sim(result, run, frames, loss_only)
        result.check(plain.report == traced.report,
                     "tracing changed the simulate report")
        result.per_layer(tracer, {**traced.counters,
                                  "trace.overhead_s": traced.wall - plain.wall})
        result.details["report_sha256"] = _digest(traced.report)
        return result

    frames = SIM_UNIT_FRAMES[name]
    setups, setup_factors = _setup_probes("setup-sim", *base)
    rates, ticks, sub_cpu, received, digests = [], [], [], 0, []
    speed = HostSpeed()
    start = time.perf_counter()
    while len(rates) < 2 or time.perf_counter() - start < seconds:
        run = _simulate(argv(len(rates), frames))
        speed.after_unit()
        _check_sim(result, run, frames, loss_only)
        rates.append(frames / run.frames_wall)
        ticks.append(statistics.median(run.tick_deltas) * 1e6)
        sub_cpu.append(run.sub_cpu / run.counters["analyzer.received"] * 1e6)
        received += run.counters["analyzer.received"]
        digests.append(_digest(run.report))
    # Units 0 and 1 share a seed: the reports must match byte for byte.
    result.check(digests[0] == digests[1],
                 f"same seed gave different simulate reports: {digests[:2]}")
    factors = speed.factors
    result.details.update(
        units=len(rates), frames_per_unit=frames, report_sha256=digests[:2],
        samples=_samples(factors, setup_factors, setup_s=setups,
                         frames_per_s=rates, pub_tick_us_p50=ticks,
                         sub_cpu_us_per_frame=sub_cpu))
    result.end_to_end(
        setup=_scaled_median(setups, setup_factors),
        frames_per_s=_scaled_median(rates, [1 / f for f in factors]),
        peak_rss_mb=_peak_rss_mb(),
        delivery_ratio=received / (len(rates) * frames),
        pub_tick_us_p50=_scaled_median(ticks, factors),
        sub_cpu_us_per_frame=_scaled_median(sub_cpu, factors),
    )
    return result


# --- capture-dissect ---------------------------------------------------

CAPTURE_FRAMES = 500


def _warning_rows(rows) -> int:
    """Rows ``svlite decode`` counts as warnings."""
    return sum(1 for row in rows
               if row[1].startswith(("TRUNCATED", "no 802.1Q"))
               or "overruns" in row[1] or "!=" in row[1])


def _capture_pass(datagrams, expectations, result: Result,
                  tracer: Tracer | None = None) -> dict:
    """Dissect, render and strict-decode every datagram and re-encode the
    valid ones; check each outcome afterwards, outside the timed region.
    ``cpu`` is the pass's CPU time less the time spent encoding."""
    from svlite import ber, codec
    from svlite.errors import SvError

    dissect, render = codec.dissect, codec.render_dissection
    decode, encode = codec.decode_frame, codec.encode_frame
    replacements = []
    if tracer is not None:
        dissect = tracer.wrap("codec.dissect", dissect)
        render = tracer.wrap("codec.render_dissection", render)
        decode = tracer.wrap("codec.decode_frame", decode)
        encode = tracer.wrap("codec.encode_frame", encode)
        replacements = [(ber, "decode_tlv", tracer.wrap("ber.decode_tlv", ber.decode_tlv))]
    strict = codec.DecodeMode.STRICT
    clock = time.perf_counter
    valid = inputs.VALID
    outcomes = []
    encode_times = array("d")
    reencoded = {}
    with patched(replacements):
        start = clock()
        cpu = time.process_time()
        for index, datagram in enumerate(datagrams):
            # Any exception is kept as the outcome and judged below.
            try:
                rows = dissect(datagram)
                text = render(rows)
            except Exception as exc:
                rows, text = exc, ""
            try:
                decoded = decode(datagram, strict)
            except Exception as exc:
                decoded = exc
            outcomes.append((rows, text, decoded))
            kind, _, schema = expectations[index]
            if kind == valid and isinstance(decoded, codec.SvFrame):
                # Timed here rather than in a second loop, so the encode
                # samples spread over the whole pass like the rest.
                began = clock()
                try:
                    reencoded[index] = encode(decoded, schema)
                except Exception as exc:
                    reencoded[index] = exc
                encode_times.append(clock() - began)
        cpu = time.process_time() - cpu - sum(encode_times)
        wall = clock() - start

    counts = {"codec.strict_rejected": 0, "codec.dissect_warnings": 0,
              "valid": 0, "recovered": 0}
    for index, (datagram, (kind, frame, _), (rows, text, decoded)) in enumerate(
            zip(datagrams, expectations, outcomes)):
        result.attempted += 1
        where = f"datagram {index} ({kind})"
        if isinstance(rows, Exception):
            result.check(False, f"{where}: dissect raised {rows!r}")
            result.failed += 1
            continue
        if isinstance(decoded, Exception) and not isinstance(decoded, SvError):
            result.check(False, f"{where}: strict decode raised {decoded!r}")
            result.failed += 1
            continue
        counts["codec.strict_rejected"] += isinstance(decoded, SvError)
        counts["codec.dissect_warnings"] += _warning_rows(rows)
        if kind == inputs.VALID:
            counts["valid"] += 1
            asdu_rows = sum(1 for row in rows if row[1].startswith("ASDU"))
            ok = (decoded == frame and reencoded.get(index) == datagram
                  and _warning_rows(rows) == 0 and bool(text)
                  and asdu_rows == len(frame.apdu.asdus))
            counts["recovered"] += ok
            result.failed += not result.check(
                ok, f"{where}: did not decode, re-encode and dissect back to "
                    "its source frame")
        elif kind == inputs.TRUNCATED:
            last = rows[-1][1]
            result.failed += not result.check(
                isinstance(decoded, SvError)
                and (last.startswith("TRUNCATED") or last == "empty capture"),
                f"{where}: truncation not reported (decode {decoded!r}, "
                f"last dissect row {last!r})")
    counts.update(wall=wall, cpu=cpu, encode_times=encode_times)
    return counts


def run_capture(name: str, seed: int, seconds: int, trace: bool, work: Path) -> Result:
    blob, expectations = inputs.capture(seed, CAPTURE_FRAMES)
    path = work / "capture.raw"
    path.write_bytes(blob)
    _pin_one_cpu()
    result = Result()
    if trace:
        datagrams = inputs.read_capture(path)
        plain = _capture_pass(datagrams, expectations, result)
        tracer = Tracer()
        traced = _capture_pass(datagrams, expectations, result, tracer)
        counters = {key: traced[key] for key in
                    ("codec.strict_rejected", "codec.dissect_warnings")}
        counters["trace.overhead_s"] = traced["wall"] - plain["wall"]
        result.per_layer(tracer, counters)
        return result

    setups, setup_factors = _setup_probes("setup-capture", path)
    datagrams = inputs.read_capture(path)
    passes = []
    speed = HostSpeed()
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        passes.append(_capture_pass(datagrams, expectations, result))
        speed.after_unit()
    count = len(datagrams)
    factors = speed.factors
    rates = [count / p["wall"] for p in passes]
    ticks = [statistics.median(p["encode_times"]) * 1e6 for p in passes]
    sub_cpu = [p["cpu"] / count * 1e6 for p in passes]
    result.details.update(
        passes=len(passes), datagrams_per_pass=count, capture_bytes=len(blob),
        samples=_samples(factors, setup_factors, setup_s=setups,
                         frames_per_s=rates, pub_tick_us_p50=ticks,
                         sub_cpu_us_per_frame=sub_cpu))
    result.end_to_end(
        setup=_scaled_median(setups, setup_factors),
        frames_per_s=_scaled_median(rates, [1 / f for f in factors]),
        peak_rss_mb=_peak_rss_mb(),
        delivery_ratio=sum(p["recovered"] for p in passes)
        / sum(p["valid"] for p in passes),
        pub_tick_us_p50=_scaled_median(ticks, factors),
        sub_cpu_us_per_frame=_scaled_median(sub_cpu, factors),
    )
    return result


# --- loopback-4k ---------------------------------------------------------


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


class _TimedSocket:
    """The socket handed to ``publish_stream``: records when each
    ``sendto`` begins and returns."""

    def __init__(self, sock, sendto):
        self._sock = sock
        self._sendto = sendto
        self.begins = array("d")
        self.ends = array("d")

    def sendto(self, data, address):
        self.begins.append(time.monotonic())
        sent = self._sendto(data, address)
        self.ends.append(time.monotonic())
        return sent


def _loopback_unit(seed: int, frames: int, work: Path, sub_cpu: int | None,
                   tracer: Tracer | None = None) -> dict:
    """Spawn the subscriber (pinned to ``sub_cpu``), publish ``frames`` at
    the configured rate and collect both sides. Times use
    ``time.monotonic``, the publisher's clock."""
    from svlite import config, sources, transport

    start = time.perf_counter()
    path = work / f"loopback-{seed}.cfg"
    path.write_text(inputs.loopback_config(seed, _free_port()))
    cfg = config.load_config(path)
    template = config.build_template(cfg)
    provide = sources.sample_provider(cfg.channels, cfg.points_per_period, seed)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sendto = sock.sendto
    replacements = []
    if tracer is not None:
        provide = tracer.wrap("sources.provide", provide)
        sendto = tracer.wrap("transport.sendto", sendto)
        replacements = [
            (transport, "pack_seq_data",
             tracer.wrap("codec.pack_seq_data", transport.pack_seq_data)),
            (transport, "encode_frame",
             tracer.wrap("codec.encode_frame", transport.encode_frame)),
        ]
    timed = _TimedSocket(sock, sendto)
    calls = array("d")

    def timing_provider(tick):
        calls.append(time.monotonic())
        return provide(tick)

    child = _spawn("subscribe", path, frames, int(tracer is not None),
                   "-" if sub_cpu is None else sub_cpu)
    try:
        _read_json_line(child, CHILD_TIMEOUT_S)
        setup = time.perf_counter() - start
        began = time.perf_counter()
        with patched(replacements):
            state = transport.publish_stream(
                cfg.endpoint, template, cfg.schema, timing_provider,
                cfg.samples_per_second, frames, sock=timed)
        published = time.perf_counter()
        sub = _finish(child)
        done = time.perf_counter()
    finally:
        sock.close()
        _stop(child)
    if tracer is not None:
        tracer.merge(sub["spans"])
    interval = 1.0 / cfg.samples_per_second
    first = calls[0]
    return {
        "setup": setup,
        "publish_wall": published - began,
        "wall": done - began,
        "sent": state.frames_sent,
        "misses": state.deadline_misses,
        "ticks": array("d", (e - c for c, e in zip(calls, timed.ends))),
        "sendto": array("d", (e - b for b, e in zip(timed.begins, timed.ends))),
        "lateness": array("d", (e - (first + i * interval)
                                for i, e in enumerate(timed.ends))),
        "sub": sub,
    }


def _check_loopback(result: Result, unit: dict, frames: int) -> None:
    sub, sent = unit["sub"], unit["sent"]
    result.attempted += frames
    result.failed += min(frames, frames - sub["received"] + sub["decode_failures"])
    result.check(sent == frames, f"published {sent} of {frames} frames")
    result.check(sub["received"] == sub["datagrams"],
                 f"{sub['datagrams']} datagrams, {sub['received']} decoded")
    result.check(sub["decode_failures"] == 0,
                 f"{sub['decode_failures']} decode failures on valid traffic")
    result.check(sub["received"] + sub["lost"] == sent,
                 f"received {sub['received']} + lost {sub['lost']} != sent {sent}")
    result.check(sub["out_of_order"] == 0,
                 f"{sub['out_of_order']} frames out of order on loopback")
    result.check(sub["accepted_len"] == sub["received"],
                 f"{sub['received']} received, {sub['accepted_len']} accepted")


def _bare_floor(frames: int, rate: int, sub_cpu: int | None) -> float:
    """Deadline-miss fraction of a bare paced ``sendto`` loop against a bare
    receiving process: the host's own pacing limit, with no svlite code."""
    port = _free_port()
    child = _spawn("bare", port, frames, "-" if sub_cpu is None else sub_cpu)
    try:
        _read_json_line(child, CHILD_TIMEOUT_S)
        tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            payload = bytes(86)
            interval = 1.0 / rate
            misses = 0
            t0 = time.monotonic()
            for tick in range(frames):
                while time.monotonic() < t0 + tick * interval:
                    pass
                tx.sendto(payload, ("127.0.0.1", port))
                if time.monotonic() > t0 + (tick + 1) * interval:
                    misses += 1
        finally:
            tx.close()
        _finish(child)
    finally:
        _stop(child)
    return misses / frames


LOOPBACK_UNIT_FRAMES = 2000  # half a second at 4000 SPS
# Two seconds per traced unit and for the bare floor, as the criterion-7
# probe uses, so the p99 figures rest on 80 samples beyond them.
LOOPBACK_TRACE_FRAMES = 8000


def run_loopback(name: str, seed: int, seconds: int, trace: bool, work: Path) -> Result:
    # Publisher and subscriber each get a CPU of their own when there are two.
    cpus = hostspeed.cpus()
    sub_cpu = cpus[-2] if len(cpus) >= 2 else None
    if sub_cpu is not None:
        hostspeed.pin(cpus[-1])
    result = Result()
    if trace:
        frames = LOOPBACK_TRACE_FRAMES
        plain = _loopback_unit(inputs.unit_seed(seed, 0), frames, work, sub_cpu)
        tracer = Tracer()
        traced = _loopback_unit(inputs.unit_seed(seed, 0), frames, work, sub_cpu,
                                tracer)
        for unit in (plain, traced):
            _check_loopback(result, unit, frames)
        sub = traced["sub"]
        floor = _bare_floor(frames, 4000, sub_cpu)
        result.details["bare_floor_miss_frac"] = floor
        result.per_layer(tracer, {
            "analyzer.received": sub["received"],
            "analyzer.lost": sub["lost"],
            "analyzer.out_of_order": sub["out_of_order"],
            "analyzer.quality_discarded": sub["quality_discarded"],
            "analyzer.decode_failures": sub["decode_failures"],
            "analyzer.accepted_len": sub["accepted_len"],
            "analyzer.loss_count_error":
                abs(sub["lost"] - (traced["sent"] - sub["received"])),
            # Tick-level publisher timings come from the untraced unit:
            # spans inside the tick would inflate its lateness.
            "transport.tick_us_p99": _percentile(plain["ticks"], 0.99) * 1e6,
            "transport.sendto_us_p50": statistics.median(plain["sendto"]) * 1e6,
            "transport.deadline_miss_frac": plain["misses"] / plain["sent"],
            "transport.lateness_us_p99": _percentile(plain["lateness"], 0.99) * 1e6,
            "transport.bare_floor_miss_frac": floor,
            "trace.overhead_s": traced["wall"] - plain["wall"],
        })
        return result

    frames = LOOPBACK_UNIT_FRAMES
    units = []
    start = time.perf_counter()
    while len(units) < 2 or time.perf_counter() - start < seconds:
        unit = _loopback_unit(inputs.unit_seed(seed, len(units)), frames, work,
                              sub_cpu)
        _check_loopback(result, unit, frames)
        units.append(unit)
    sent = sum(u["sent"] for u in units)
    received = sum(u["sub"]["received"] for u in units)
    setups = [u["setup"] for u in units]
    rates = [u["sub"]["received"] / u["publish_wall"] for u in units]
    ticks = [statistics.median(u["ticks"]) * 1e6 for u in units]
    sub_cpu_us = [u["sub"]["cpu_s"] / u["sub"]["received"] * 1e6 for u in units]
    result.details.update(
        units=len(units), frames_per_unit=frames,
        deadline_miss_frac=sum(u["misses"] for u in units) / sent,
        samples=_samples(None, None, setup_s=setups, frames_per_s=rates,
                         pub_tick_us_p50=ticks, sub_cpu_us_per_frame=sub_cpu_us))
    # Not scaled: this workload loads both CPUs itself, and the calibration
    # loop, in either process, tracked its per-frame costs worse than none.
    result.end_to_end(
        setup=statistics.median(setups),
        frames_per_s=statistics.median(rates),
        peak_rss_mb=max([_peak_rss_mb()] + [u["sub"]["peak_rss_mb"] for u in units]),
        delivery_ratio=received / sent,
        pub_tick_us_p50=statistics.median(
            tick for u in units for tick in u["ticks"]) * 1e6,
        sub_cpu_us_per_frame=statistics.median(sub_cpu_us),
    )
    return result


WORKLOADS = {
    "sim-loss-80": run_sim,
    "sim-impaired-256q": run_sim,
    "loopback-4k": run_loopback,
    "capture-dissect": run_capture,
}
