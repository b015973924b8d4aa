"""Fig. 12: end-to-end average cost and SLO violation rate.

For each bandwidth (20/40/80 Mbps) and a range of SLOs, the four online
scheduling strategies (Tangram, Clipper, ELF, MArk) run the same camera
traces.  The paper's shape:

* Tangram has the lowest cost at (almost) every point and keeps the SLO
  violation rate below 5%;
* Clipper and MArk violate substantially more at tight SLOs because their
  batching ignores deadlines;
* ELF never violates (it never waits) but pays the highest cost.

The benchmark uses a subset of the paper's SLO grid (the extremes and the
middle of each range) to keep the sweep affordable; the trends are the
same.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.tables import format_table
from repro.pipeline.endtoend import STRATEGIES, EndToEndConfig, run_end_to_end
from repro.workloads.sweeps import SLO_GRID_BY_BANDWIDTH, SweepPoint

#: Subset of each bandwidth's SLO grid: tightest, middle, loosest.
SLO_SUBSET = {
    bandwidth: (grid[0], grid[2], grid[4])
    for bandwidth, grid in SLO_GRID_BY_BANDWIDTH.items()
}


def _run_sweep(camera_traces):
    results = {}
    for bandwidth, slos in sorted(SLO_SUBSET.items()):
        for slo in slos:
            for strategy in STRATEGIES:
                point = SweepPoint(strategy=strategy, bandwidth_mbps=bandwidth, slo=slo)
                result = run_end_to_end(
                    point.to_config(EndToEndConfig(seed=2024)), camera_traces
                )
                results[(bandwidth, slo, strategy)] = result
    return results


def test_fig12_cost_and_slo_violation(benchmark, camera_traces):
    results = benchmark.pedantic(_run_sweep, args=(camera_traces,), rounds=1, iterations=1)

    print()
    rows = []
    for (bandwidth, slo, strategy), result in sorted(results.items()):
        rows.append(
            [
                f"{bandwidth:.0f}Mbps",
                slo,
                strategy,
                result.total_cost,
                100 * result.slo_violation_rate,
                result.mean_canvas_efficiency,
            ]
        )
    print(
        format_table(
            ["bandwidth", "SLO (s)", "strategy", "cost ($)", "violation (%)", "canvas eff."],
            rows,
            title="Fig. 12 -- end-to-end cost and SLO violations",
        )
    )

    # --- Tangram keeps violations within 5% at every point. ----------------
    for (bandwidth, slo, strategy), result in results.items():
        if strategy == "tangram":
            assert result.slo_violation_rate <= 0.05, (bandwidth, slo)

    # --- Tangram is the cheapest strategy on average, and never the most
    #     expensive at any point. -------------------------------------------
    mean_cost = defaultdict(list)
    for (bandwidth, slo, strategy), result in results.items():
        mean_cost[strategy].append(result.total_cost)
    averages = {strategy: float(np.mean(costs)) for strategy, costs in mean_cost.items()}
    assert averages["tangram"] == min(averages.values())
    assert averages["elf"] > averages["tangram"] * 1.3
    for (bandwidth, slo, _), _result in results.items():
        point_costs = {
            strategy: results[(bandwidth, slo, strategy)].total_cost
            for strategy in STRATEGIES
        }
        assert point_costs["tangram"] < max(point_costs.values())

    # --- Deadline-blind baselines violate more than Tangram at the tightest
    #     SLO of the fastest bandwidth (where batching pressure is highest).
    tight_bandwidth = 80.0
    tight_slo = SLO_SUBSET[tight_bandwidth][0]
    tangram_violation = results[(tight_bandwidth, tight_slo, "tangram")].slo_violation_rate
    baseline_worst = max(
        results[(tight_bandwidth, tight_slo, strategy)].slo_violation_rate
        for strategy in ("clipper", "mark")
    )
    assert baseline_worst >= tangram_violation
