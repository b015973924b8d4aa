#!/usr/bin/env python
"""Fleet-scale ingestion under camera churn.

A 64-camera fleet streams patches over lossy uplinks while a seeded
fault plan takes 10% of the cameras offline partway through the run
(camera *churn*).  The fault-tolerant path -- liveness tracking,
retry/backoff, and expiry of dead-camera and stale deliveries at ingest
-- keeps the scheduler healthy: the run finishes with zero escaped
exceptions and every lost patch lands in an explicit counter instead of
silently vanishing.

The example prints a side-by-side of the fault-free run and the churn
run (delivered stream efficiency, expiry accounting, liveness
transitions), then re-runs the churn scenario to demonstrate that the
whole cascade is byte-for-byte deterministic given the seed.

Run with::

    python examples/fleet_churn.py [--cameras 64] [--dropout 0.1] [--seed 23]
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import format_table
from repro.fleet import (
    FaultPlan,
    FleetScenarioConfig,
    FleetWorkloadConfig,
    camera_ids,
    run_fleet_scenario,
)


def build_config(
    num_cameras: int = 64,
    fps: float = 2.0,
    duration_s: float = 4.0,
    patches_per_frame: int = 2,
    estimator_iterations: int = 100,
) -> FleetScenarioConfig:
    """The fleet scenario: one bounded uplink + retry chain per camera."""
    return FleetScenarioConfig(
        workload=FleetWorkloadConfig(
            num_cameras=num_cameras,
            fps=fps,
            duration_s=duration_s,
            patches_per_frame=patches_per_frame,
            slo=1.0,
            seed=7,
        ),
        bandwidth_mbps=40.0,
        estimator_iterations=estimator_iterations,
    )


def build_churn_plan(
    config: FleetScenarioConfig, dropout_fraction: float = 0.1, seed: int = 23
) -> FaultPlan:
    """Seeded churn: ``dropout_fraction`` of the fleet goes dark mid-run."""
    return FaultPlan.generate(
        seed=seed,
        camera_ids=camera_ids(config.workload),
        duration=config.workload.duration_s,
        dropout_fraction=dropout_fraction,
        loss_probability=0.02,
    )


def run_pair(config: FleetScenarioConfig, plan: FaultPlan):
    """Run the fault-free baseline and the churn scenario."""
    baseline = run_fleet_scenario(config)
    churn = run_fleet_scenario(config, plan)
    return baseline, churn


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cameras", type=int, default=64,
                        help="fleet size (paper-scale runs use 64+)")
    parser.add_argument("--dropout", type=float, default=0.1,
                        help="fraction of cameras that churn offline")
    parser.add_argument("--seed", type=int, default=23,
                        help="fault-plan seed (fixes which cameras drop and when)")
    args = parser.parse_args()

    config = build_config(num_cameras=args.cameras)
    plan = build_churn_plan(config, dropout_fraction=args.dropout, seed=args.seed)
    downed = plan.dropout_cameras()
    print(f"Fleet of {args.cameras} cameras, "
          f"{config.workload.total_base_patches} base patches expected.")
    print(f"Churn plan (seed {args.seed}): {len(downed)} cameras drop out "
          f"mid-run: {', '.join(downed[:6])}{'...' if len(downed) > 6 else ''}")
    print("Running fault-free baseline and churn scenario...")

    baseline, churn = run_pair(config, plan)

    rows = []
    for label, result in (("fault-free", baseline), ("churn", churn)):
        rows.append(
            [
                label,
                100 * result.delivered_fraction,
                result.suppressed_base,
                result.transfers["failed"],
                result.ingest["expired_dead"] + result.ingest["expired_stale"],
                result.liveness_transitions.get("dead", 0),
                result.errors,
            ]
        )
    print()
    print(
        format_table(
            ["run", "delivered (%)", "suppressed", "xfer failed",
             "expired", "cams dead", "errors"],
            rows,
            title=f"{args.cameras}-camera fleet under {100 * args.dropout:.0f}% camera churn",
            float_format="{:.2f}",
        )
    )

    # The whole fault cascade is seeded: a second churn run must agree
    # counter-for-counter with the first.
    replay = run_fleet_scenario(config, plan)
    identical = replay.counters() == churn.counters()
    print(f"\nReplay with the same seed identical: {identical}")
    print("Every undelivered patch is accounted: suppressed at capture, "
          "failed in transfer, or expired at ingest.")


if __name__ == "__main__":
    main()
