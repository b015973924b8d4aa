"""The scheduler's one arrival path vs. the literal Algorithm 2.

Two layers of guarantees:

* driving the :class:`~tests.oracles.AlwaysRepackStitcher` oracle (a
  full re-pack of the queue per arrival), the scheduler reproduces the
  literal Algorithm 2: its batch records hash to the digests recorded
  from the scheduler's former literal route before that route was
  deleted — same invoke, completion and execution times, costs, canvas
  counts, efficiencies and patches;
* on its production stitcher the metrics may differ slightly, but the
  behavioural guarantees (SLO compliance, memory constraint, flush
  semantics) must hold unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.latency import LatencyEstimator
from repro.core.scheduler import TangramScheduler
from repro.core.stitching import PatchStitchingSolver
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.engine import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel
from tests.conftest import make_patch
from tests.oracles import use_always_repack


def _scheduler(simulator: Simulator, **kwargs) -> TangramScheduler:
    platform = ServerlessPlatform(simulator, cold_start_time=0.0)
    latency_model = DetectorLatencyModel.serverless()
    estimator = LatencyEstimator(
        latency_model=latency_model, iterations=100, streams=RandomStreams(5)
    )
    return TangramScheduler(
        simulator,
        platform,
        solver=PatchStitchingSolver(),
        estimator=estimator,
        latency_model=latency_model,
        streams=RandomStreams(6),
        **kwargs,
    )


def _arrival_trace(count: int = 90, seed: int = 11):
    rng = np.random.default_rng(seed)
    widths = rng.integers(80, 640, size=count)
    heights = rng.integers(80, 640, size=count)
    gen_times = np.sort(rng.uniform(0.0, 2.5, size=count))
    slos = rng.choice([0.6, 1.0, 1.5], size=count)
    return [
        (float(w), float(h), float(t), float(slo))
        for w, h, t, slo in zip(widths, heights, gen_times, slos)
    ]


#: The 3-patch trace of the earliest-deadline test: one loose-SLO patch
#: followed by a tight one (the earliest deadline) and a looser one.
_DEADLINE_TRACE = [
    (300.0, 300.0, 0.0, 5.0),
    (300.0, 300.0, 0.05, 1.0),
    (200.0, 200.0, 0.1, 4.0),
]


def _run_trace(trace, always_repack=False, **scheduler_kwargs):
    """Run an arrival trace of ``(width, height, generation time, SLO)``
    tuples, each patch arriving 20 ms after its generation.
    ``always_repack`` swaps in the always-re-pack oracle."""
    simulator = Simulator()
    scheduler = _scheduler(simulator, **scheduler_kwargs)
    if always_repack:
        use_always_repack(scheduler)
    for width, height, gen_time, slo in trace:
        patch = make_patch(width, height, generation_time=gen_time, slo=slo)
        simulator.schedule_at(
            gen_time + 0.02, lambda sim, p=patch: scheduler.receive_patch(p)
        )
    simulator.run()
    scheduler.flush()
    simulator.run()
    return scheduler


def _batch_digest(scheduler: TangramScheduler) -> str:
    """sha256 over each batch's invoke, completion and execution time,
    cost, canvas count and canvas efficiencies, and each outcome's patch
    width, height and generation time, in batch and outcome order.

    ``patch_id`` is left out: it is a process-global counter.  Floats
    are hashed at 10 significant digits so that the pins do not depend
    on the last bits of the platform's arithmetic.
    """

    def fmt(value: float) -> str:
        return format(value, ".10g")

    digest = hashlib.sha256()
    for batch in scheduler.batches:
        digest.update(
            repr(
                (
                    fmt(batch.invoke_time),
                    fmt(batch.completion_time),
                    fmt(batch.execution_time),
                    fmt(batch.cost),
                    batch.num_canvases,
                    tuple(fmt(e) for e in batch.canvas_efficiencies),
                    tuple(
                        (
                            fmt(o.patch.width),
                            fmt(o.patch.height),
                            fmt(o.patch.generation_time),
                        )
                        for o in batch.outcomes
                    ),
                )
            ).encode()
        )
    return digest.hexdigest()


#: :func:`_batch_digest` of the literal Algorithm 2 on each trace,
#: recorded from the scheduler's former literal route (a fresh batch
#: pack of the queue per arrival) before it was deleted: 6 batches of
#: 90 patches on the mixed trace, 1 batch of 3 on the deadline trace.
LITERAL_DIGESTS = {
    "mixed": "2ab27d20050727bc3f1573fa2eb99ca0b3d391de6a36e86ab521f839d7db9ac4",
    "deadline": "4a887950a45def67576d2c5783cf40247878421b4ea347c162d09ea2bbaa1c72",
}


def test_full_repack_equivalent_mode_metrics_are_identical():
    """The regression guarantee: the scheduler driving the always-re-pack
    oracle reproduces the literal Algorithm 2's batch records on a mixed
    arrival trace."""
    oracle = _run_trace(_arrival_trace(), always_repack=True)
    assert sum(batch.num_patches for batch in oracle.batches) == 90
    assert _batch_digest(oracle) == LITERAL_DIGESTS["mixed"]


def test_fast_path_meets_slos_on_steady_load():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    arrival = 0.0
    for _ in range(60):
        arrival += 0.03
        patch = make_patch(300, 400, generation_time=arrival, slo=1.0)
        simulator.schedule_at(
            arrival + 0.05, lambda sim, p=patch: scheduler.receive_patch(p)
        )
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert len(scheduler.all_outcomes) == 60
    assert scheduler.slo_violation_rate <= 0.05


def test_fast_path_respects_memory_constraint():
    simulator = Simulator()
    scheduler = _scheduler(
        simulator,
        gpu_memory_gb=6.0,
        model_memory_gb=2.5,
        canvas_memory_gb=0.35,
    )
    for index in range(14):
        patch = make_patch(1000, 1000, generation_time=0.0, slo=5.0)
        simulator.schedule_at(
            0.01 * index, lambda sim, p=patch: scheduler.receive_patch(p)
        )
    simulator.run()
    scheduler.flush()
    simulator.run()
    assert all(
        batch.num_canvases <= scheduler.max_canvases for batch in scheduler.batches
    )
    assert len(scheduler.batches) >= 2


def test_fast_path_flush_resets_packer_state():
    simulator = Simulator()
    scheduler = _scheduler(simulator)
    patch = make_patch(200, 200, generation_time=0.0, slo=10.0)
    simulator.schedule_at(0.0, lambda sim: scheduler.receive_patch(patch))
    simulator.run(until=0.1)
    assert scheduler.pending_patches == 1
    scheduler.flush()
    simulator.run()
    assert scheduler.pending_patches == 0
    assert scheduler.pending_canvases == 0
    # A new patch after the flush starts a clean queue.
    late = make_patch(250, 250, generation_time=simulator.now, slo=10.0)
    scheduler.receive_patch(late)
    assert scheduler.pending_patches == 1
    assert scheduler.packing_stats["resets"] >= 1


def test_fast_path_uses_incremental_placements():
    """The point of the fast path: most arrivals must not re-pack."""
    trace = _arrival_trace(count=120, seed=3)
    scheduler = _run_trace(trace)
    stats = scheduler.packing_stats
    assert stats["probes"] == 120
    assert stats["incremental_placements"] > stats["full_repacks"]


def test_fast_path_tracks_earliest_deadline_like_literal_mode():
    """The heap must yield the same earliest deadline the O(n) scan did:
    with one loose-SLO patch followed by tight-SLO patches, the invocation
    must still honour the tightest deadline, as the literal Algorithm 2
    does."""
    oracle = _run_trace(_DEADLINE_TRACE, always_repack=True)
    assert _batch_digest(oracle) == LITERAL_DIGESTS["deadline"]
    fast = _run_trace(_DEADLINE_TRACE)
    assert [b.invoke_time for b in fast.batches] == [
        b.invoke_time for b in oracle.batches
    ]
    for outcome in fast.all_outcomes:
        assert not outcome.violated


def test_incremental_mode_stays_close_to_literal_metrics():
    """Default fast path: aggregate metrics stay within a few percent of
    the literal Algorithm 2, which the always-re-pack oracle reproduces
    (cost, violations, canvas efficiency)."""
    trace = _arrival_trace(count=120, seed=9)
    literal = _run_trace(trace, always_repack=True)
    fast = _run_trace(trace)
    assert fast.slo_violation_rate <= literal.slo_violation_rate + 0.05
    lit_eff = np.mean(
        [e for b in literal.completed_batches for e in b.canvas_efficiencies]
    )
    fast_eff = np.mean(
        [e for b in fast.completed_batches for e in b.canvas_efficiencies]
    )
    assert fast_eff >= lit_eff - 0.05 * max(lit_eff, 1e-9)
    assert fast.total_cost <= literal.total_cost * 1.10
