"""Experiment sweep grids.

Fig. 12 evaluates each scheduling strategy over three bandwidths, each with
its own SLO range (tighter SLOs become feasible as bandwidth grows because
transmission takes less of the budget):

* 20 Mbps -> SLO in {1.0, 1.1, 1.2, 1.3, 1.4} s
* 40 Mbps -> SLO in {0.8, 0.9, 1.0, 1.1, 1.2} s
* 80 Mbps -> SLO in {0.6, 0.7, 0.8, 0.9, 1.0} s

Fig. 13(d) fixes SLO = 1.0 s and varies the bandwidth; Fig. 14 does the
same.  Each cell is a :class:`SweepPoint`, convertible to an
:class:`~repro.pipeline.endtoend.EndToEndConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.pipeline.endtoend import EndToEndConfig

#: The per-bandwidth SLO grids of Fig. 12 (seconds).
SLO_GRID_BY_BANDWIDTH: Dict[float, Tuple[float, ...]] = {
    20.0: (1.0, 1.1, 1.2, 1.3, 1.4),
    40.0: (0.8, 0.9, 1.0, 1.1, 1.2),
    80.0: (0.6, 0.7, 0.8, 0.9, 1.0),
}

#: MArk's timeout has to be retuned per bandwidth (the paper notes this);
#: higher bandwidth means faster patch arrival and a shorter useful wait.
MARK_TIMEOUT_BY_BANDWIDTH: Dict[float, float] = {20.0: 0.40, 40.0: 0.25, 80.0: 0.15}


@dataclass(frozen=True)
class SweepPoint:
    """One (strategy, bandwidth, SLO) cell of the end-to-end sweep."""

    strategy: str
    bandwidth_mbps: float
    slo: float

    def to_config(self, base: Optional[EndToEndConfig] = None) -> EndToEndConfig:
        """Materialise an :class:`EndToEndConfig` for this cell."""
        base = base or EndToEndConfig()
        return replace(
            base,
            strategy=self.strategy,
            bandwidth_mbps=self.bandwidth_mbps,
            slo=self.slo,
            mark_timeout=MARK_TIMEOUT_BY_BANDWIDTH.get(
                self.bandwidth_mbps, base.mark_timeout
            ),
        )
