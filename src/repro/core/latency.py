"""The latency estimator (offline profiling, slack = mean + 3 sigma).

Before the system goes online, canvases of the configured size with diverse
patch compositions are grouped by batch size and each group is run through
the serverless function many times; the mean and standard deviation of the
execution time are recorded per batch size.  At run time the estimator
returns the conservative slack

    T_slack(b) = mu(b) + 3 * sigma(b)

for a batch of ``b`` canvases, which by the three-sigma rule leaves the
function enough time to finish without violating the SLO in the vast
majority of invocations.  Profiling happens offline, so its cost does not
appear in any online metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.stitching import Canvas, equivalent_canvases
from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel


@dataclass
class LatencyProfile:
    """Mean/stddev of execution time for one batch size."""

    batch_size: int
    mean: float
    std: float
    samples: int

    @property
    def slack(self) -> float:
        """The conservative estimate used online."""
        return self.mean + 3.0 * self.std


@dataclass
class LatencyEstimator:
    """Offline-profiled execution-time estimator.

    Parameters
    ----------
    latency_model:
        The ground-truth execution-time model being profiled (in the real
        system this is the deployed function; here it is the simulated
        detector's latency model).
    canvas_width, canvas_height:
        Canvas size the profile is valid for.
    iterations:
        Profiling iterations per batch size (the paper uses 1000).  Each
        batch size is profiled lazily, on its first use.
    sigma_multiplier:
        The number of standard deviations added to the mean.  The paper
        uses 3; SLO-critical deployments can raise it (Section V-B).
    """

    latency_model: DetectorLatencyModel
    canvas_width: float = 1024.0
    canvas_height: float = 1024.0
    iterations: int = 1000
    sigma_multiplier: float = 3.0
    streams: Optional[RandomStreams] = None
    _profiles: Dict[int, LatencyProfile] = field(default_factory=dict)
    _estimate_cache: Dict[Tuple[int, int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise ValueError("iterations must be at least 2")
        if self.streams is None:
            self.streams = RandomStreams(101)
        self._rng = self.streams.get("latency-estimator/profiling")

    # -------------------------------------------------------------- profiling
    @property
    def canvas_pixels(self) -> float:
        return self.canvas_width * self.canvas_height

    def profile(self, batch_size: int) -> LatencyProfile:
        """Profile one batch size (cached)."""
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if batch_size not in self._profiles:
            samples = np.array(
                [
                    self.latency_model.sample_latency(
                        batch_size=batch_size,
                        total_pixels=batch_size * self.canvas_pixels,
                        rng=self._rng,
                    )
                    for _ in range(self.iterations)
                ]
            )
            self._profiles[batch_size] = LatencyProfile(
                batch_size=batch_size,
                mean=float(samples.mean()),
                std=float(samples.std(ddof=1)),
                samples=self.iterations,
            )
        return self._profiles[batch_size]

    # ---------------------------------------------------------------- queries
    def slack_time(self, batch_size: int) -> float:
        """T_slack for a batch of ``batch_size`` canvases."""
        if batch_size <= 0:
            return 0.0
        profile = self.profile(batch_size)
        return profile.mean + self.sigma_multiplier * profile.std

    def estimate(self, canvases: Sequence[Canvas]) -> float:
        """T_slack for the given canvases (the online call in Algorithm 2).

        Oversized canvases (patches bigger than the profiled canvas size)
        are charged as the equivalent number of standard canvases, rounded
        up, which keeps the estimate conservative.

        Results are memoized on ``(num_canvases, total pixels in whole
        standard canvases, equivalent canvases)``; repeated queue states
        short-circuit to the cached slack.  (Per-batch-size profiles are
        themselves cached in ``_profiles``, so the memo is a fast path over
        the profile lookup, not what prevents re-profiling.)  Including
        the equivalent-canvas count keeps the memo exact even when several
        oversized canvases share a pixel bucket, so ``estimate`` always
        returns the same value as :meth:`slack_time` on the equivalent
        batch size — the identity the scheduler's fast path relies on.
        """
        if not canvases:
            return 0.0
        num_canvases = 0
        total_pixels = 0.0
        for canvas in canvases:
            num_canvases += 1
            total_pixels += canvas.area
        equivalent = equivalent_canvases(canvases, self.canvas_pixels)
        key = (num_canvases, int(total_pixels / self.canvas_pixels), equivalent)
        cached = self._estimate_cache.get(key)
        if cached is not None:
            return cached
        slack = self.slack_time(max(1, equivalent))
        self._estimate_cache[key] = slack
        return slack
