"""One benchmark run in a fresh process.

``python3 -m benchmarks.e2e.worker --workload NAME --seed S [--trace]``
builds the workload's inputs from the seed, runs them through the
runner once, checks the outputs and prints one JSON object on its last
line of standard output.  It exits 1 when a check fails or the run
raises.  The parent (:mod:`benchmarks.e2e.cli`) starts one worker per run
so no run inherits another's heap, caches or lazily built state.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from benchmarks.e2e import OUT_DIR, SRC


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--trace", action="store_true", help="the traced run; spans go to out/trace-<workload>.json"
    )
    parser.add_argument(
        "--setup-only", action="store_true", help="build the inputs, run nothing"
    )
    parser.add_argument(
        "--spawned-at",
        type=float,
        help="the parent's time.monotonic() when it started this process",
    )
    return parser.parse_args(argv)


def _patches_per_frame(inputs: Any) -> int:
    """Fleet inputs are ``(FleetScenarioConfig, plan)``; traces need none."""
    if isinstance(inputs, tuple):
        return inputs[0].workload.patches_per_frame
    return 1


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    sys.path.insert(0, str(SRC))
    # Set-up imports both runners, so no timed region pays for an import.
    import repro.fleet  # noqa: F401
    import repro.pipeline.endtoend  # noqa: F401
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.size(args.quick)
    inputs = workload.build(args.seed, size)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": time.monotonic() - spawned_at,
    }
    if args.setup_only:
        return record

    from benchmarks.e2e.measure import Capture, account, run_checks, simulated_metrics

    capture = Capture()
    capture.install()
    gc.collect()
    if args.trace:
        from benchmarks.e2e.tracing import Tracer, layer_metrics

        tracer = Tracer()
        result = tracer.run(lambda: workload.run(inputs))
        wall = tracer.wall_s()
    else:
        began = time.perf_counter()
        result = workload.run(inputs)
        wall = time.perf_counter() - began

    acc = account(result, capture, _patches_per_frame(inputs))
    checks = run_checks(result, acc, capture, size.tail_pct)
    record.update(
        wall_s=wall,
        accounting=acc.as_dict(),
        metrics={
            "setup_s": record["setup_s"],
            "patches_per_s": acc.attempted / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **simulated_metrics(acc, capture, size.tail_pct),
        },
        checks=checks,
    )
    if args.trace:
        checks["packing_valid"] = tracer.invoked_batches > 0 and tracer.invalid_packings == 0
        record["layers"] = layer_metrics(tracer, acc, capture, result, size.tail_pct)
        tracer.dump(OUT_DIR / f"trace-{workload.name}.json")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    try:
        record = measure(args)
    except Exception:  # reported to the parent, which counts the run as failed
        print(json.dumps({"workload": args.workload, "error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0 if all(record.get("checks", {}).values()) else 1


if __name__ == "__main__":
    sys.exit(main())
