"""Operator command line: publish, subscribe, decode, budget, simulate."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import signal
import sys
import time

from . import budget, transport
from .analyzer import StreamAnalyzer, format_link_stats
from .codec import WarningLine, dissect, refr_tm_octets, render_dissection
from .codec import encode_frame, pack_seq_data  # noqa: F401, perfbench traces
from .config import RunConfig, build_template, dump_config, \
    load_config
from .errors import ConfigError, SvError, TransportError
from .netsim import Channel, LinkSpec
from .sources import sample_provider

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_OVER_BUDGET = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed reader shows here
        return code
    except BrokenPipeError:
        # The reader of stdout has gone. Point stdout at devnull so that
        # the flush at exit stays silent, and fail with nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (SvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svlite",
        description="Reduced IEC 61850-9-2 sampled-value toolkit for "
                    "energy-IoT links over UDP.")
    sub = parser.add_subparsers(dest="command", required=True)

    pub = sub.add_parser("publish", help="send a paced stream over UDP")
    _add_config_options(pub)
    pub.add_argument("--duration", default="1s",
                     help="run time, e.g. 5s (default 1s)")
    pub.add_argument("--frames", type=int,
                     help="frame count, overrides --duration")
    pub.add_argument("--rate-limit", type=float, dest="rate_limit",
                     help="throttle pacing to this many frames per second "
                          "while keeping nominal smpCnt wrapping")
    pub.add_argument("--seed", type=int, default=0, help="source noise seed")
    pub.set_defaults(func=cmd_publish)

    rcv = sub.add_parser("subscribe", help="receive and analyze a stream")
    _add_config_options(rcv)
    rcv.add_argument("--duration", help="stop after this long, e.g. 10s")
    rcv.add_argument("--max-frames", type=int, dest="max_frames",
                     help="stop after this many decoded frames (at least 1)")
    rcv.add_argument("--stats-interval", type=float, default=1.0,
                     dest="stats_interval",
                     help="seconds between interim stats lines (default 1)")
    rcv.set_defaults(func=cmd_subscribe)

    dec = sub.add_parser("decode", help="dissect captured frames")
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--hex", metavar="FILE",
                       help="whitespace-separated hex octets, one datagram")
    group.add_argument("--raw", metavar="FILE",
                       help="repeated 16-bit big-endian length + payload")
    dec.set_defaults(func=cmd_decode)

    bud = sub.add_parser("budget", help="project stream bit rate vs capacity")
    bud.add_argument("--payload", type=int, required=True,
                     help="SV payload octets per frame")
    bud.add_argument("--hz", type=int, default=50, help="nominal frequency")
    bud.add_argument("--points", type=int, default=80,
                     help="points per period, 80 or 256")
    bud.add_argument("--capacity", default="30M",
                     help="link capacity in bps, suffixes k/M/G (default 30M)")
    bud.add_argument("--overhead", type=int, default=budget.OVERHEAD_UDP_IPV4,
                     help="outer header octets per datagram (default 42, "
                          "IPv4; use 62 for IPv6)")
    bud.set_defaults(func=cmd_budget)

    sim = sub.add_parser("simulate",
                         help="virtual-time loss/jitter experiment")
    _add_config_options(sim)
    sim.add_argument("--loss", type=float, default=0.0,
                     help="drop probability in [0, 1]")
    sim.add_argument("--jitter", type=float, default=0.0,
                     help="uniform +/- delay bound in seconds")
    sim.add_argument("--reorder", type=float, default=0.0,
                     help="reorder probability in [0, 1]")
    sim.add_argument("--latency", type=float, default=0.0,
                     help="base one-way latency in seconds")
    sim.add_argument("--frames", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(func=cmd_simulate)
    return parser


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="stream configuration (built-in defaults if omitted)")
    parser.add_argument("--dump-config", metavar="FILE", dest="dump_config",
                        help="write the effective configuration and exit")


def _load(args):
    return load_config(args.config) if args.config else RunConfig()


def _dump_requested(cfg, args) -> bool:
    if not args.dump_config:
        return False
    try:
        with open(args.dump_config, "w", encoding="utf-8") as handle:
            handle.write(dump_config(cfg))
    except OSError as exc:
        raise ConfigError(f"cannot write {args.dump_config}: {exc}") from exc
    print(f"wrote {args.dump_config}")
    return True


def _parse_duration(text: str) -> float:
    value = text.strip().lower().removesuffix("s")
    try:
        seconds = float(value)
    except ValueError:
        raise ValueError(f"bad duration {text!r}, expected like 5s") from None
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"duration must be finite and >= 0, got {text!r}")
    return seconds


def _parse_capacity(text: str) -> int:
    value = text.strip().removesuffix("bps").strip()
    scale = 1
    if value and value[-1] in "kKmMgG":
        scale = {"k": 10**3, "m": 10**6, "g": 10**9}[value[-1].lower()]
        value = value[:-1]
    try:
        capacity = int(float(value) * scale)
    except ValueError:
        raise ValueError(f"bad capacity {text!r}, expected like 30M") from None
    except OverflowError:
        raise ValueError(f"capacity must be finite, got {text!r}") from None
    if capacity <= 0:
        raise ValueError(f"capacity must be above 0 bps, got {text!r}")
    return capacity


def cmd_publish(args) -> int:
    cfg = _load(args)
    if _dump_requested(cfg, args):
        return EXIT_OK
    rate = cfg.samples_per_second
    pace = float(rate) if args.rate_limit is None else args.rate_limit
    if not (math.isfinite(pace) and pace > 0):
        raise ValueError(f"rate limit must be finite and positive, got {pace}")
    if args.frames is not None:
        frames = args.frames
    else:
        try:
            frames = int(round(_parse_duration(args.duration) * pace))
        except OverflowError:
            raise ValueError(f"duration {args.duration!r} at {pace:g} frames/s "
                             "is too many frames") from None
    provider = sample_provider(cfg.channels, cfg.points_per_period, args.seed)
    state = transport.publish_stream(
        cfg.endpoint, build_template(cfg), cfg.schema, provider,
        rate, frames, pace_hz=pace)
    print(f"frames_sent      {state.frames_sent}")
    print(f"deadline_misses  {state.deadline_misses}")
    print(f"final_smp_cnt    {state.smp_cnt}")
    print(f"wrap_modulus     {state.wrap_modulus}")
    return EXIT_OK


def cmd_subscribe(args) -> int:
    cfg = _load(args)
    if _dump_requested(cfg, args):
        return EXIT_OK
    if not (math.isfinite(args.stats_interval) and args.stats_interval > 0):
        raise ValueError(f"stats interval must be finite and positive, "
                         f"got {args.stats_interval}")
    if args.max_frames is not None and args.max_frames < 1:
        raise ValueError(f"max frames must be at least 1, got {args.max_frames}")
    analyzer = StreamAnalyzer(cfg.samples_per_second, cfg.schema)
    duration = _parse_duration(args.duration) if args.duration else None
    t0 = time.monotonic()
    deadline = t0 + duration if duration is not None else None
    next_report = t0 + args.stats_interval
    interrupted = []
    previous_handler = signal.signal(
        signal.SIGINT, lambda *_: interrupted.append(True))

    def stop() -> bool:
        if interrupted:
            return True
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return bool(args.max_frames) and analyzer.received >= args.max_frames

    summary = transport.ReceiveSummary()
    try:
        with contextlib.closing(
                transport.receive(cfg.endpoint, stop, summary)) as datagrams:
            for datagram, arrival in datagrams:
                analyzer.ingest(datagram, arrival)
                now = time.monotonic()
                if now >= next_report:
                    s = analyzer.report()
                    print(f"t={now - t0:6.1f}s received={s.received} "
                          f"lost={s.lost} out_of_order={s.out_of_order} "
                          f"discarded={s.quality_discarded}")
                    # One line per stall: the report times a silence spanned are skipped.
                    interval = args.stats_interval
                    next_report += ((now - next_report) // interval + 1) * interval
    finally:
        signal.signal(signal.SIGINT, previous_handler)
    print(format_link_stats(analyzer.report(),
                            ("datagrams", str(summary.datagrams)),
                            ("kernel_dropped", str(summary.kernel_dropped))))
    return EXIT_OK


def _read_hex_file(path: str) -> list[bytes]:
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    if not tokens:
        return []
    text = "".join(t.removeprefix("0x").removeprefix("0X") for t in tokens)
    return [bytes.fromhex(text)]


def _read_raw_file(path: str) -> tuple[list[bytes], int]:
    with open(path, "rb") as handle:
        blob = handle.read()
    datagrams = []
    warnings = 0
    cursor = 0
    while cursor < len(blob):
        if cursor + 2 > len(blob):
            warnings += 1
            break
        length = int.from_bytes(blob[cursor:cursor + 2], "big")
        cursor += 2
        if cursor + length > len(blob):
            warnings += 1
            datagrams.append(blob[cursor:])
            break
        datagrams.append(blob[cursor:cursor + length])
        cursor += length
    return datagrams, warnings


def cmd_decode(args) -> int:
    path = args.hex or args.raw
    try:
        if args.hex:
            datagrams = _read_hex_file(path)
            warnings = 0
        else:
            datagrams, warnings = _read_raw_file(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"bad hex in {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for index, datagram in enumerate(datagrams, 1):
        print(f"datagram {index} ({len(datagram)} octets)")
        lines = dissect(datagram)
        print(render_dissection(lines))
        warnings += sum(isinstance(line, WarningLine) for line in lines)
    print(f"{len(datagrams)} datagrams, {warnings} warnings")
    return EXIT_OK


def cmd_budget(args) -> int:
    report = budget.project_bitrate(
        args.payload, args.hz, args.points, _parse_capacity(args.capacity),
        overhead_octets=args.overhead)
    interval = budget.sample_interval(args.hz, args.points)
    print(f"payload_octets      {report.payload_octets}")
    print(f"wire_octets         {report.wire_octets}")
    print(f"samples_per_second  {report.samples_per_second}")
    print(f"sample_interval     {float(interval) * 1e6:.3g} us "
          f"(exact {interval} s)")
    print(f"bits_per_second     {report.bits_per_second} "
          f"({report.bits_per_second / 1e6:.3f} Mbps)")
    print(f"capacity_bps        {report.capacity_bps} "
          f"({report.capacity_bps / 1e6:.3f} Mbps)")
    print(f"fits                {'yes' if report.fits else 'no'}")
    print(f"margin_bps          {report.margin_bps}")
    return EXIT_OK if report.fits else EXIT_OVER_BUDGET


def simulate(cfg: RunConfig, link: LinkSpec, frames: int,
             seed: int) -> tuple[StreamAnalyzer, Channel]:
    """Send ``frames`` ticks of ``cfg``'s stream through a netsim channel
    in virtual time and analyze what it delivers; ``seed`` seeds sources."""
    if frames < 0:
        raise ValueError(f"frame count must be >= 0, got {frames}")
    wrap = cfg.samples_per_second
    interval = 1.0 / wrap
    channel = Channel(link)
    provider = sample_provider(cfg.channels, cfg.points_per_period, seed)
    ticks = transport.frame_ticks(
        build_template(cfg), cfg.schema, provider, wrap,
        lambda tick: refr_tm_octets(tick, wrap))
    for tick, wire in zip(range(frames), ticks):
        channel.transmit(wire, tick * interval)
    analyzer = StreamAnalyzer(wrap, cfg.schema)
    for arrival, payload in channel.drain():
        analyzer.ingest(payload, arrival)
    return analyzer, channel


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if _dump_requested(cfg, args):
        return EXIT_OK
    link = LinkSpec(
        loss_probability=args.loss,
        jitter=args.jitter,
        reorder_probability=args.reorder,
        seed=args.seed,
        base_latency=args.latency,
    )
    analyzer, channel = simulate(cfg, link, args.frames, args.seed)
    stats = analyzer.report()
    print(format_link_stats(stats))
    print(f"frames_transmitted    {channel.transmitted}")
    print(f"ground_truth_lost     {channel.lost}")
    print(f"ground_truth_check    {'ok' if channel.delivered + channel.lost == channel.transmitted else 'BROKEN'}")
    print(f"injected_loss         {args.loss:.6f}")
    print(f"measured_loss_rate    {stats.loss_rate:.6f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
