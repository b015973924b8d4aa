"""CLI entry point: ``PYTHONPATH=src python -m benchmarks.perf``.

Modes
-----
default:
    Run every section, print a table plus the derived speedups, and write
    the report next to this file as ``BENCH_perf.last.json`` (the committed
    baseline is never overwritten implicitly).
``--check``:
    Additionally compare against the committed ``BENCH_perf.json`` and exit
    non-zero when any timed section regressed more than ``--max-regression``
    (default 2x) or the scheduler arrival speedup fell below
    ``--min-speedup`` (default 5x).
``--update-baseline``:
    Write the fresh report to ``BENCH_perf.json`` (commit it with the PR
    that changes performance).
``--quick``:
    Smoke mode: one repeat of the cheap 256-depth sections only.  The
    tier-1 test suite runs ``--quick --check`` (see
    ``tests/test_perf_smoke.py``) so hot-path regressions fail pytest.
``--profile``:
    Instead of the timed sections, run one instrumented deep-queue
    arrival scenario and print the per-stage time shares (probe /
    consolidation / commit), reproducing the ROADMAP's arrival-path
    profile from the harness.  ``--profile-mix`` picks the workload
    (``fleet`` or ``crowded``), ``--profile-depth`` the queue depth.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.perf.harness import (
    BASELINE_PATH,
    QUICK_SECTIONS,
    SECTIONS,
    check_against_baseline,
    load_baseline,
    profile_arrival,
    run_all,
    write_results,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Time the reproduction's hot paths and track regressions.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when a section regresses past --max-regression vs the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"write the report to the committed baseline ({BASELINE_PATH.name})",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per section, best kept (default 3)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: 1 repeat, only the cheap 256-depth sections "
        "(deep-queue and fleet scenarios are skipped, and so are their "
        "derived-ratio gates) — what the tier-1 smoke test runs",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="--check fails when a section is this many times slower (default 2.0)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="--check fails when the scheduler arrival speedup drops below this (default 5.0)",
    )
    parser.add_argument(
        "--min-efficiency-ratio",
        type=float,
        default=0.99,
        help="--check fails when partial-re-pack mean canvas efficiency "
        "falls below this fraction of the batch packer's (default 0.99)",
    )
    parser.add_argument(
        "--min-fleet-efficiency-ratio",
        type=float,
        default=0.95,
        help="--check fails when the churn run's delivered stream "
        "efficiency falls below this fraction of the fault-free run "
        "(default 0.95)",
    )
    parser.add_argument(
        "--max-fleet-overreaction",
        type=float,
        default=0.05,
        help="--check fails when the churn run sheds/expires more than "
        "the injected-fault fraction plus this margin (default 0.05)",
    )
    parser.add_argument(
        "--min-sharded-speedup",
        type=float,
        default=1.5,
        help="--check fails when the 4-shard frontend's scheduler-side "
        "patches/sec falls below this multiple of the single scheduler's "
        "(default 1.5)",
    )
    parser.add_argument(
        "--max-sharded-slo-delta",
        type=float,
        default=0.0,
        help="--check fails when the sharded run's SLO-violation rate "
        "exceeds the single scheduler's by more than this (default 0.0)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the instrumented arrival-path profile (per-stage time "
        "shares: probe / consolidation / commit) instead of the sections",
    )
    parser.add_argument(
        "--profile-mix",
        choices=["fleet", "crowded"],
        default="fleet",
        help="--profile workload: the uniform fleet mix (default) or the "
        "crowded-fleet mix under a hard-consolidating budget",
    )
    parser.add_argument(
        "--profile-depth",
        type=int,
        default=4096,
        help="--profile queue depth (default 4096)",
    )
    parser.add_argument(
        "--ratios-only",
        action="store_true",
        help="--check gates only the same-run derived ratios, skipping the "
        "absolute per-section timing comparison against the committed "
        "baseline (for shared CI runners, where cross-machine wall-clock "
        "comparisons are noise)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="SECTION",
        help=f"run a subset of sections (choices: {', '.join(SECTIONS)})",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the fresh report (default: BENCH_perf.last.json)",
    )
    args = parser.parse_args(argv)

    if args.profile:
        report = profile_arrival(depth=args.profile_depth, mix=args.profile_mix)
        print(f"arrival-path profile: {report['section']}")
        print(f"{'stage'.ljust(14)}  seconds    share")
        for stage, entry in report["stages"].items():
            print(
                f"{stage.ljust(14)}  {entry['seconds']:8.4f}  "
                f"{100 * entry['share']:5.1f}%"
            )
        print(f"{'total'.ljust(14)}  {report['total_seconds']:8.4f}  100.0%")
        stats = report["consolidation_stats"]
        if stats:
            print(
                "consolidation: "
                + ", ".join(f"{key}={value}" for key, value in stats.items())
            )
        return 0

    if args.update_baseline and (args.only or args.quick):
        # A partial report would overwrite the baseline and silently drop
        # every section not re-run from the regression gate.
        parser.error(
            "--update-baseline requires running all sections (drop --only/--quick)"
        )

    only = args.only
    repeats = args.repeats
    if args.quick:
        only = only or list(QUICK_SECTIONS)
        repeats = 1

    report = run_all(repeats=repeats, only=only)
    sections = report["sections"]
    width = max(len(name) for name in sections)
    print(f"{'section'.ljust(width)}  seconds")
    for name, entry in sections.items():
        print(f"{name.ljust(width)}  {float(entry['seconds']):.6f}")
    for key, value in report.get("derived", {}).items():
        print(f"{key}: {value}x")

    output = args.output or (BASELINE_PATH.parent / "BENCH_perf.last.json")
    write_results(report, output)
    print(f"report written to {output}")

    # Snapshot the baseline *before* any update so `--update-baseline
    # --check` still compares against the previous run instead of the
    # report it just wrote (which would make the check a tautology).
    baseline = load_baseline()

    if args.update_baseline:
        write_results(report, BASELINE_PATH)
        print(f"baseline updated at {BASELINE_PATH}")

    if args.check:
        if baseline is None:
            print(f"ERROR: no committed baseline at {BASELINE_PATH}", file=sys.stderr)
            return 2
        failures = check_against_baseline(
            report,
            baseline,
            max_regression=args.max_regression,
            min_speedup=args.min_speedup,
            min_efficiency_ratio=args.min_efficiency_ratio,
            min_fleet_efficiency_ratio=args.min_fleet_efficiency_ratio,
            max_fleet_overreaction=args.max_fleet_overreaction,
            min_sharded_speedup=args.min_sharded_speedup,
            max_sharded_slo_delta=args.max_sharded_slo_delta,
            ratios_only=args.ratios_only,
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("perf check passed: no section regressed past the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
