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

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.simulation.random_streams import RandomStreams
from repro.vision.detector import DetectorLatencyModel


@dataclass
class LatencyProfile:
    """Mean/stddev of execution time for one batch size."""

    batch_size: int
    mean: float
    std: float
    samples: int


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
        Profiling iterations per batch size, an integer of at least 2
        (the paper uses 1000).  Each batch size is profiled lazily, on
        its first use.
    sigma_multiplier:
        The number of standard deviations added to the mean, a finite
        number.  The paper uses 3; SLO-critical deployments can raise it
        (Section V-B).
    """

    latency_model: DetectorLatencyModel
    canvas_width: float = 1024.0
    canvas_height: float = 1024.0
    iterations: int = 1000
    sigma_multiplier: float = 3.0
    streams: Optional[RandomStreams] = None
    _profiles: Dict[int, LatencyProfile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Fractional and NaN counts pass ``< 2`` and would only fail in
        # ``range()`` at the first profile, mid-run, so they fail here.
        if not isinstance(self.iterations, numbers.Integral) or self.iterations < 2:
            raise ValueError("iterations must be an integer of at least 2")
        if not math.isfinite(self.sigma_multiplier):
            raise ValueError("sigma_multiplier must be finite")
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
