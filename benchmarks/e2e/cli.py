"""Command line of the end-to-end benchmark.

Three forms, all from the checkout root::

    python3 -m benchmarks.e2e --seed S [--runs N] [--quick] [--out FILE]
    python3 -m benchmarks.e2e --workload W --seed S --seconds T --trace 0|1
    python3 -m benchmarks.e2e --compare A.json B.json

The first runs every workload ``--runs`` times, round-robin, then once
traced, prints every metric and writes one JSON report.  The second runs
one workload for about ``T`` seconds and prints, as its last line, one
JSON object with the ``BENCHMARK.json`` metrics of that mode.  The third
compares two reports of the first form.

Each run is a fresh worker process (:mod:`benchmarks.e2e.worker`),
single-threaded, and workers run one at a time; every invocation starts
with one untimed warm-up worker that only builds inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import OUT_DIR, ROOT, SRC
from benchmarks.e2e.measure import SIMULATED
from benchmarks.e2e.report import (
    compare,
    end_to_end_table,
    layer_table,
    load_spec,
    summarize,
    unit_of,
)
from benchmarks.e2e.workloads import WORKLOADS

#: Keeps numeric libraries in a worker on one thread.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
#: Keeps one invocation under three minutes even when a worker hangs.
WORKER_TIMEOUT_S = 120


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=0, help="0 is the dev seed, 1 the holdout")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--quick", action="store_true", help="shrink every workload")
    parser.add_argument("--out", type=Path, help="report path (default: out/report-*.json)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="with --workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    return args


# ------------------------------------------------------------------ workers
def spawn(
    workload: str,
    seed: int,
    quick: bool,
    *,
    trace: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one worker to completion; its record, with ``error`` on failure."""
    command = [sys.executable, "-m", "benchmarks.e2e.worker", "--workload", workload]
    command += ["--seed", str(seed)]
    command += ["--quick"] * quick + ["--trace"] * trace + ["--setup-only"] * setup_only
    env = {**os.environ, **SINGLE_THREAD}
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"workload": workload, "error": done.stderr.strip()[-2000:] or "no output"}
    if done.returncode != 0 and "error" not in record:
        failed = [name for name, ok in record.get("checks", {}).items() if not ok]
        record["error"] = "checks failed: " + ", ".join(failed)
    return record


def _signature(record: Dict[str, Any]) -> tuple:
    """What must not differ between runs of one set: the simulated metrics
    and the accounting are deterministic per seed."""
    return (
        tuple(record["metrics"][name] for name in SIMULATED),
        tuple(sorted(record["accounting"].items())),
    )


def _consistent(records: List[Dict[str, Any]]) -> bool:
    """Every run of a set gave identical simulated metrics and counts."""
    return len({_signature(r) for r in records if "metrics" in r}) <= 1


def _describe(record: Dict[str, Any]) -> str:
    if "error" in record:
        return f"{record['workload']}: FAILED {record['error'].strip().splitlines()[-1]}"
    acc = record["accounting"]
    return (
        f"{record['workload']}: {acc['ops_attempted']} patches in {record['wall_s']:.3f} s"
        f" (setup {record['setup_s']:.3f} s){' traced' if record['traced'] else ''}"
    )


def _warm_up(workload: str, args: argparse.Namespace) -> bool:
    """The untimed first worker: it only builds inputs, so later workers
    find bytecode and imported files cached."""
    record = spawn(workload, args.seed, args.quick, setup_only=True)
    if "error" in record:
        print(f"benchmarks.e2e: warm-up failed: {record['error']}", file=sys.stderr)
    return "error" not in record


# --------------------------------------------------------------- one workload
def run_timed(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """``--workload``: measure one workload for about ``--seconds``."""
    if not _warm_up(args.workload, args):
        return 1
    started = time.monotonic()
    records: List[Dict[str, Any]] = []
    # With --trace 1, untraced and traced runs alternate so that each pair
    # prices the tracing overhead under the same machine load.
    group = 2 if args.trace else 1
    while True:
        traced = len(records) % group == 1
        record = spawn(args.workload, args.seed, args.quick, trace=traced)
        records.append(record)
        print(_describe(record), file=sys.stderr)
        if "error" in record:
            break
        # Stop when one more group of average length would overrun.
        elapsed = time.monotonic() - started
        if len(records) % group == 0 and elapsed * (1 + group / len(records)) > args.seconds:
            break

    errors = [r["error"] for r in records if "error" in r]
    if not _consistent(records):
        errors.append("simulated metrics differ between runs of one seed")
    attempted = sum(r["accounting"]["ops_attempted"] for r in records if "accounting" in r)
    failed = sum(
        r["accounting"]["ops_attempted" if "error" in r else "lost"]
        for r in records
        if "accounting" in r
    )
    metrics: Dict[str, Dict[str, Any]] = {}
    if not errors:
        plain = [r for r in records if not r["traced"]]
        if args.trace:
            traced = [r for r in records if r["traced"]]
            values = {
                name: statistics.median(r["layers"][name] for r in traced)
                for name in traced[0]["layers"]
            }
            values["trace.overhead_ratio"] = statistics.median(
                t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)
            )
            wanted = spec["per_layer"]
        else:
            values = {
                name: statistics.median(r["metrics"][name] for r in plain)
                for name in plain[0]["metrics"]
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for error in errors:
        print(f"benchmarks.e2e: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": max(1, attempted),
                "failed": failed if not errors else max(1, failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


# -------------------------------------------------------------- all workloads
def run_full(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload ``--runs`` times round-robin, then once traced."""
    names = [w["name"] for w in spec["workloads"]]
    print(
        f"seed {args.seed}, {args.runs} runs per workload{' (quick sizes)' if args.quick else ''};"
        " open loop in simulated time: the capture schedule is replayed as fast as"
        " possible, so generator lateness is 0 s by construction"
    )
    if not _warm_up(names[0], args):
        return 1
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for _round in range(args.runs):
        for name in names:
            runs[name].append(spawn(name, args.seed, args.quick))
            print("  " + _describe(runs[name][-1]))
    traced: Dict[str, Dict[str, Any]] = {}
    for name in names:
        traced[name] = spawn(name, args.seed, args.quick, trace=True)
        print("  " + _describe(traced[name]))

    workloads: Dict[str, Any] = {}
    for name in names:
        records = runs[name] + [traced[name]]
        ok = [r for r in runs[name] if "error" not in r]
        errors = [r["error"] for r in records if "error" in r]
        if not _consistent(records):
            errors.append("simulated metrics differ between runs of one seed")
        data: Dict[str, Any] = {
            "tail_pct": WORKLOADS[name].size(args.quick).tail_pct,
            "errors": errors,
        }
        if ok:
            data["end_to_end"] = {
                metric: {**summarize([r["metrics"][metric] for r in ok]), "unit": unit_of(metric)}
                for metric in ok[0]["metrics"]
            }
            data["accounting"] = ok[0]["accounting"]
        if "layers" in traced[name] and ok:
            layers = dict(traced[name]["layers"])
            layers["trace.overhead_ratio"] = layers["trace.wall_s"] / statistics.median(
                r["wall_s"] for r in ok
            )
            data["layers"] = {
                metric: {"value": value, "unit": unit_of(metric)} for metric, value in layers.items()
            }
        workloads[name] = data

    correct = not any(data["errors"] for data in workloads.values())
    report = {
        "schema": 1,
        "seed": args.seed,
        "runs": args.runs,
        "quick": args.quick,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "correct": correct,
        "workloads": workloads,
    }
    complete = {name: data for name, data in workloads.items() if "end_to_end" in data}
    if complete:
        print()
        print("\n".join(end_to_end_table(complete)))
        print()
        for name, data in complete.items():
            acc = data["accounting"]
            print(
                f"{name:<14} ops_attempted {acc['ops_attempted']:>7}  ops_failed"
                f" {acc['ops_failed']:>6}  (late {acc['late']}, no result {acc['lost']});"
                f" tail = p{data['tail_pct']:g}"
            )
        print()
        print("\n".join(layer_table(complete)))
    out = args.out or OUT_DIR / f"report-seed{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print()
    for name, data in workloads.items():
        for error in data["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
    print(f"report: {out}  ({'all checks passed' if correct else 'CHECKS FAILED'})")
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as error:
        print(f"benchmarks.e2e: cannot use BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if args.compare:
        try:
            lines = compare(args.compare[0], args.compare[1], spec)
        except (OSError, ValueError, KeyError) as error:
            print(f"benchmarks.e2e: cannot compare the reports: {error!r}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 1 if any(line.endswith(" worse") for line in lines) else 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no program to measure under {SRC}", file=sys.stderr)
        return 2
    return run_timed(args, spec) if args.workload else run_full(args, spec)
