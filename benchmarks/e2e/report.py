"""Units, summary statistics, tables and the ``--compare`` verdicts.

Metric names, their direction and their regression bounds come from the
root ``BENCHMARK.json`` only; this module knows each metric's unit so the
benchmark can refuse a ``BENCHMARK.json`` that disagrees with it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence

from benchmarks.e2e import SPEC_PATH

#: Units of the metrics whose unit does not follow from a name suffix.
UNITS: Dict[str, str] = {
    "patches_per_s": "patches/s",
    "peak_rss_mb": "MB",
    "slo_attainment": "fraction",
    "cost_per_frame_uusd": "uUSD/frame",
    "uplink_kb_per_frame": "KB/frame",
    "simulation.events_per_patch": "events/patch",
    "partitioning.patches_per_frame": "patches/frame",
    "retry.attempts_per_transfer": "ratio",
    "shard.load_skew": "ratio",
    "scheduler.patches_per_batch": "patches/batch",
    "stitching.mean_canvas_efficiency": "fraction",
    "stitching.canvases_per_batch": "canvases/batch",
    "consolidation.success_ratio": "fraction",
    "serverless.exec_s_per_batch": "s",
    "trace.overhead_ratio": "ratio",
}
_SUFFIX_UNITS = (("_us", "us"), ("_s", "s"), ("share", "fraction"))


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    """``BENCHMARK.json``, checked against the units this benchmark emits."""
    spec = json.loads(path.read_text())
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if metric["unit"] != unit_of(metric["name"]):
                raise ValueError(
                    f"{path.name}: {metric['name']} has unit {metric['unit']!r}, "
                    f"the benchmark emits {unit_of(metric['name'])!r}"
                )
    return spec


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, q3 = (statistics.quantiles(ordered, n=4)[::2]) if len(ordered) > 1 else (median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(ordered),
        "values": list(values),
    }


def _relative(amount: float, base: float) -> float:
    if base == 0:
        return 0.0 if amount == 0 else float("inf")
    return amount / abs(base)


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    """``better``/``same``/``worse``/``unresolved`` for B against A.

    A metric is unresolved when either side's IQR, as a share of its
    median, is wider than the bound -- unless every B run beats every A
    run.  Otherwise B is worse (better) when its median is worse (better)
    than A's by more than the bound, and the same when it is not.
    """
    sign = 1.0 if better == "lower" else -1.0
    spread = max(_relative(a["iqr"], a["median"]), _relative(b["iqr"], b["median"]))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a["values"] for y in b["values"]):
            return "better"
        return "unresolved"
    change = sign * _relative(b["median"] - a["median"], a["median"])
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path, spec: Dict[str, Any]) -> List[str]:
    """One line per workload x end-to-end metric of two full reports."""
    report_a = json.loads(Path(path_a).read_text())
    report_b = json.loads(Path(path_b).read_text())
    lines = [
        f"A = {path_a}  (seed {report_a['seed']})",
        f"B = {path_b}  (seed {report_b['seed']})",
        f"{'workload':<14} {'metric':<22} {'A median':>12} {'A IQR':>10} {'nA':>3}"
        f" {'B median':>12} {'B IQR':>10} {'nB':>3} {'change':>8} {'bound':>6}  verdict",
    ]
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            a = report_a["workloads"][name]["end_to_end"][metric["name"]]
            b = report_b["workloads"][name]["end_to_end"][metric["name"]]
            change = _relative(b["median"] - a["median"], a["median"])
            lines.append(
                f"{name:<14} {metric['name']:<22} {a['median']:>12.6g} {a['iqr']:>10.3g}"
                f" {a['n']:>3} {b['median']:>12.6g} {b['iqr']:>10.3g} {b['n']:>3}"
                f" {change:>+8.2%} {metric['bound']:>6.3g}  "
                f"{verdict(a, b, metric['bound'], metric['better'])}"
            )
    return lines


def end_to_end_table(workloads: Dict[str, Any]) -> List[str]:
    lines = [
        f"{'workload':<14} {'metric':<22} {'unit':<12} {'median':>12} {'IQR':>10} {'n':>3}"
    ]
    for name, data in workloads.items():
        for metric, s in data["end_to_end"].items():
            lines.append(
                f"{name:<14} {metric:<22} {s['unit']:<12} {s['median']:>12.6g}"
                f" {s['iqr']:>10.3g} {s['n']:>3}"
            )
    return lines


def layer_table(workloads: Dict[str, Any]) -> List[str]:
    names = list(workloads)
    metrics = sorted({m for data in workloads.values() for m in data.get("layers", {})})
    lines = [f"{'per-layer metric (traced run)':<40} {'unit':<14}" + "".join(
        f" {name:>14}" for name in names
    )]
    for metric in metrics:
        cells = "".join(
            f" {workloads[name].get('layers', {}).get(metric, {}).get('value', float('nan')):>14.6g}"
            for name in names
        )
        lines.append(f"{metric:<40} {unit_of(metric):<14}{cells}")
    return lines
