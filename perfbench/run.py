"""svlite benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports svlite from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The lines before the last give the host,
details of the run and any failed check; the last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every correctness check passed, 1 when one failed
and 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sim-loss-80", "sim-impaired-256q", "loopback-4k", "capture-dissect")


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "network": "127.0.0.1 loopback only; no traffic crossed a real link",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "svlite" / "__init__.py").is_file():
        print(f"no svlite sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared_metrics(bool(args.trace))
    emitted = {name: unit for name, (_, unit) in result.metrics.items()}
    if emitted != declared:
        result.check(False, f"emitted metrics {sorted(emitted.items())} differ "
                            f"from BENCHMARK.json {sorted(declared.items())}")
    correct = not result.problems
    print(json.dumps({"host": _host(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "details": result.details}))
    for problem in result.problems:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
