"""Named, independently seeded random streams.

Every stochastic component of the reproduction (scene generation, detector
noise, latency jitter, network jitter) draws from its own named stream so
that changing one component's consumption pattern never perturbs another's
draws.  This mirrors common practice in simulation studies and makes every
experiment reproducible from a single root seed.
"""

from __future__ import annotations

import hashlib
import numbers
from typing import Dict

import numpy as np


class RandomStreams:
    """A factory of named :class:`numpy.random.Generator` instances.

    Parameters
    ----------
    root_seed:
        The experiment-level seed, an integer of at least 0.  Each named
        stream derives its own seed from ``(root_seed, name)`` via
        SHA-256, so streams are mutually independent and stable across
        runs and machines.
    """

    def __init__(self, root_seed: int = 0) -> None:
        # ``int()`` would truncate a fractional seed, so 2.5 would replay
        # seed 2, and a NaN seed would fail only inside ``int()``.
        if not isinstance(root_seed, numbers.Integral) or root_seed < 0:
            raise ValueError("root_seed must be an integer of at least 0")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self.root_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "little")

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(self._derive_seed(name))
        return self._streams[name]

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.get(name)

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child factory whose streams are independent of ours."""
        return RandomStreams(self._derive_seed(name) % (2**31 - 1))

    def reset(self) -> None:
        """Forget all streams so they restart from their derived seeds."""
        self._streams.clear()
