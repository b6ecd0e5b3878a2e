"""Child processes of the benchmark, one per role.

    python3 perfbench/child.py subscribe CONFIG FRAMES TRACE CPU
    python3 perfbench/child.py bare PORT FRAMES CPU
    python3 perfbench/child.py setup-sim ARG...
    python3 perfbench/child.py setup-capture CAPTURE

Each prints one JSON line when it is ready to take traffic (or, for the
set-up probes, when set-up is done) and one JSON line with its results
before it exits. CPU is the CPU to pin the receiver to, or ``-``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import socket
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402

# A receiver gives up this long after the last datagram, so a lost tail
# ends the unit instead of hanging it.
IDLE_S = 0.5


def _say(obj) -> None:
    print(json.dumps(obj), flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subscribe(config_path: str, frames: int, trace: bool) -> None:
    """``transport.subscribe`` feeding a ``StreamAnalyzer``, as
    ``svlite subscribe`` does, until ``frames`` datagrams have arrived."""
    from svlite import analyzer, ber, transport
    from svlite.config import load_config
    from tracer import Tracer, patched

    cfg = load_config(config_path)
    stream = analyzer.StreamAnalyzer(cfg.samples_per_second, cfg.schema)
    tracer = Tracer()
    replacements = []
    if trace:
        replacements = [
            (analyzer.StreamAnalyzer, "ingest",
             tracer.wrap("analyzer.ingest", analyzer.StreamAnalyzer.ingest)),
            (analyzer, "decode_frame",
             tracer.wrap("codec.decode_frame", analyzer.decode_frame)),
            (analyzer, "unpack_seq_data",
             tracer.wrap("codec.unpack_seq_data", analyzer.unpack_seq_data)),
            (ber, "decode_tlv", tracer.wrap("ber.decode_tlv", ber.decode_tlv)),
        ]
    arrived = 0
    last = None
    cpu_start = None
    hard_stop = time.monotonic() + 60.0 + frames / cfg.samples_per_second

    def sink(datagram: bytes) -> None:
        nonlocal arrived, last
        last = time.monotonic()
        arrived += 1
        stream.ingest(datagram, last)

    def stop() -> bool:
        nonlocal cpu_start
        if cpu_start is None:
            # First poll: the socket is bound, so traffic can start.
            cpu_start = time.process_time()
            _say({"ready": True})
        if arrived >= frames:
            return True
        now = time.monotonic()
        if last is not None and now - last > IDLE_S:
            return True
        return now > hard_stop

    with patched(replacements):
        summary = transport.subscribe(cfg.endpoint, sink, stop)
    cpu_s = time.process_time() - cpu_start
    _say({
        "received": stream.received,
        "lost": stream.lost,
        "out_of_order": stream.out_of_order,
        "decode_failures": stream.decode_failures + summary.decode_failures,
        "quality_discarded": stream.quality_discarded,
        "accepted_len": len(stream.accepted),
        "datagrams": summary.datagrams,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.export(),
    })


def bare(port: int, frames: int) -> None:
    """Receive on a plain socket with no svlite code, for the pacing floor."""
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        rx.bind(("127.0.0.1", port))
        rx.settimeout(0.05)
        _say({"ready": True})
        count = 0
        last = time.monotonic()
        hard_stop = last + 60.0 + frames / 1000.0
        while count < frames:
            try:
                rx.recv(2048)
            except socket.timeout:
                now = time.monotonic()
                if (count and now - last > IDLE_S) or now > hard_stop:
                    break
                continue
            count += 1
            last = time.monotonic()
    finally:
        rx.close()
    _say({"received": count})


def setup_sim(argv: list[str]) -> None:
    """Everything ``svlite simulate`` does before its first frame."""
    from svlite import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--frames", "0"])
    _say({"ready": code == 0})
    _say({"calibration_s": hostspeed.calibration_s()})


def setup_capture(path: str) -> None:
    """Import the codec and split the capture into datagrams."""
    import svlite.codec  # noqa: F401
    from inputs import read_capture

    _say({"ready": len(read_capture(path)) > 0})
    _say({"calibration_s": hostspeed.calibration_s()})


def main(argv: list[str]) -> int:
    role, args = argv[0], argv[1:]
    if role in ("subscribe", "bare"):
        hostspeed.pin(None if args[-1] == "-" else int(args[-1]))
    if role == "subscribe":
        subscribe(args[0], int(args[1]), args[2] == "1")
    elif role == "bare":
        bare(int(args[0]), int(args[1]))
    elif role == "setup-sim":
        setup_sim(args)
    elif role == "setup-capture":
        setup_capture(args[0])
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
