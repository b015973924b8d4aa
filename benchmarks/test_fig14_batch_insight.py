"""Fig. 14: a deep dive into Tangram's batches at SLO = 1 s.

Reproduced series:

* Fig. 14(a): the distribution of per-batch function execution latency at
  20/40/80 Mbps (the paper's boxes sit between ~0.1 s and ~0.5 s, growing
  with bandwidth);
* Fig. 14(b): the distribution of the number of patches per batch (up to
  ~40 at 80 Mbps);
* Fig. 14(c): the latency breakdown -- total transmission time vs. total
  function execution time;
* Fig. 14(d): the joint distribution of patches vs. canvases per batch
  (positively correlated);
* the amortised per-patch latency decreases as bandwidth grows
  (0.0252 s / 0.0223 s / 0.0213 s in the paper).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import joint_histogram, summarise
from repro.analysis.tables import format_table
from repro.pipeline.endtoend import EndToEndConfig, run_end_to_end

BANDWIDTHS = (20.0, 40.0, 80.0)


def _run_all(camera_traces):
    results = {}
    for bandwidth in BANDWIDTHS:
        config = EndToEndConfig(
            strategy="tangram", bandwidth_mbps=bandwidth, slo=1.0, seed=99
        )
        results[bandwidth] = run_end_to_end(config, camera_traces)
    return results


def test_fig14_batch_insight(benchmark, camera_traces):
    results = benchmark.pedantic(_run_all, args=(camera_traces,), rounds=1, iterations=1)

    print()
    # ---- Fig. 14(a): execution latency per batch --------------------------
    print(
        format_table(
            ["bandwidth", "mean exec (s)", "p95 exec (s)", "max exec (s)"],
            [
                [
                    f"{bw:.0f}Mbps",
                    summarise(r.batch_execution_latencies).mean,
                    summarise(r.batch_execution_latencies).p95,
                    summarise(r.batch_execution_latencies).maximum,
                ]
                for bw, r in sorted(results.items())
            ],
            title="Fig. 14(a) -- per-batch execution latency",
        )
    )
    # ---- Fig. 14(b): patches per batch ------------------------------------
    print(
        format_table(
            ["bandwidth", "mean patches/batch", "max patches/batch"],
            [
                [
                    f"{bw:.0f}Mbps",
                    float(np.mean(r.patches_per_batch)),
                    int(np.max(r.patches_per_batch)),
                ]
                for bw, r in sorted(results.items())
            ],
            title="Fig. 14(b) -- patches per batch",
            float_format="{:.1f}",
        )
    )
    # ---- Fig. 14(c): latency breakdown -------------------------------------
    print(
        format_table(
            ["bandwidth", "transmission (s)", "execution (s)", "amortised latency/patch (s)"],
            [
                [
                    f"{bw:.0f}Mbps",
                    r.total_transmission_time,
                    r.total_execution_time,
                    r.amortised_latency_per_patch,
                ]
                for bw, r in sorted(results.items())
            ],
            title="Fig. 14(c) -- latency breakdown",
        )
    )

    # ---- Assertions on the paper's qualitative findings --------------------
    for bandwidth, result in results.items():
        latencies = result.batch_execution_latencies
        assert latencies
        # Per-batch execution stays within the same order of magnitude as
        # the paper's 0.1-0.5 s boxes.
        assert 0.02 <= float(np.mean(latencies)) <= 0.8
        assert max(result.patches_per_batch) <= 60

    # Higher bandwidth -> bigger batches (more patches per invocation) and a
    # longer per-batch execution, but the amortised per-patch waiting does
    # not get worse.
    mean_patches = {bw: float(np.mean(r.patches_per_batch)) for bw, r in results.items()}
    assert mean_patches[80.0] >= mean_patches[20.0] - 1.0
    transmission = {bw: r.total_transmission_time for bw, r in results.items()}
    assert transmission[20.0] > transmission[80.0]

    # ---- Fig. 14(d): patches vs. canvases joint distribution ---------------
    result_80 = results[80.0]
    histogram = joint_histogram(
        result_80.patches_per_batch,
        result_80.canvases_per_batch,
        x_edges=np.arange(0.5, 46.5, 5.0),
        y_edges=np.arange(0.5, 11.0, 1.0),
    )
    assert histogram.shape == (10, 9)
    # Positive correlation between canvases and patches per batch.
    if len(set(result_80.canvases_per_batch)) > 1:
        correlation = np.corrcoef(result_80.canvases_per_batch, result_80.patches_per_batch)[0, 1]
        assert correlation > 0.3
