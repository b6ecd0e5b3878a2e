"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. It checks that metrics.json and
BENCHMARK.json agree, runs every workload briefly untraced and twice
traced, and asserts that each run passes its correctness checks, emits
exactly the declared metrics with their units, and that traced counts
repeat exactly for a seed. Last, it runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark, where it must fail without
printing a result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SPAN_METRICS = (("calls", "count"), ("total_us", "us"), ("self_us_per_call", "us"))


def _registry_problems(spec: dict, registry: dict) -> list[str]:
    problems = []
    workloads = {w["name"] for w in spec["workloads"]}
    if workloads != set(registry["workloads"]):
        problems.append(f"workloads differ: {sorted(workloads)} vs "
                        f"{sorted(registry['workloads'])}")
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["end_to_end"] + spec["per_layer"]}
    entries = {}
    for name, entry in registry["end_to_end"].items():
        entries[name] = entry
    for layer, entry in registry["spans"].items():
        for suffix, unit in SPAN_METRICS:
            entries[f"{layer}.{suffix}"] = {**entry, "unit": unit, "better": "lower"}
    entries.update(registry["counters"])
    registered = {name: (e["unit"], e["better"]) for name, e in entries.items()}
    if registered != declared:
        mismatched = sorted(set(registered.items()) ^ set(declared.items()))
        problems.append(f"metrics differ from BENCHMARK.json: {mismatched}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, entry in entries.items():
        for workload in entry["workloads"]:
            if workload not in workloads:
                problems.append(f"{name}: unknown workload {workload}")
        for target, targets in entry.get("moves", {}).items():
            if target not in end_to_end or not set(targets) <= workloads:
                problems.append(f"{name}: bad prediction {target} on {targets}")
    return problems


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result_problems(label: str, proc, declared: dict) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}"], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        problems.append(f"{label}: metrics differ: "
                        f"{sorted(set(emitted.items()) ^ set(declared.items()))}")
    return problems, metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    registry = json.loads((HERE / "metrics.json").read_text())
    problems = _registry_problems(spec, registry)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        found, metrics = _result_problems(
            f"{workload} untraced", _run(workload, 0), end_to_end)
        problems += found
        problems += [f"{workload}: {name} is {m['value']}, must not be 0"
                     for name, m in metrics.items() if not m["value"]]
        counts = []
        for attempt in (1, 2):
            found, metrics = _result_problems(
                f"{workload} traced #{attempt}", _run(workload, 1), per_layer)
            problems += found
            counts.append({name: m["value"] for name, m in metrics.items()
                           if m["unit"] == "count"})
        if counts[0] != counts[1]:
            changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: counts differ between traced runs: {changed}")
        print(f"{workload}: checked", flush=True)

    stripped = HERE / ".work" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, stripped / HERE.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        proc = _run(spec["workloads"][0]["name"], 0, cwd=stripped)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("run.py did not fail without the svlite sources")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
