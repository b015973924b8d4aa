"""Load-balancing policies over function instances (and shard workers).

The paper fronts its function instances with NGINX using the default
policy (round robin).

The sharded fleet frontend (:mod:`repro.fleet.shard`) routes *cameras to
scheduler shards* through the same factory, which added the two
ownership-aware policies:

* ``"consistent_hash"`` -- a BLAKE2-based hash ring with virtual nodes,
  so a camera's owner is a pure function of ``(key, len(instances))``:
  stable across runs and machines (Python's ``hash`` is per-process
  salted, so it is deliberately not used), and adding/removing one shard
  only moves ~1/N of the keys;
* ``"least_loaded"`` -- assign to the target currently carrying the
  least ``load``, ties broken by position for determinism.

Every policy accepts an optional ``key=`` on :meth:`LoadBalancer.select`;
the classic policies ignore it, the consistent-hash ring requires it to
be the sticky routing identity (e.g. the camera id).  The platform's
instance pool always rotates round robin.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.serverless.function import FunctionInstance


def stable_hash(value: Hashable, salt: str = "") -> int:
    """A process-independent 64-bit hash (BLAKE2b over ``repr``)."""
    digest = hashlib.blake2b(
        f"{salt}:{value!r}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class LoadBalancer(Protocol):
    """Interface every balancing policy implements."""

    def select(
        self, instances: Sequence[FunctionInstance], key: Optional[Hashable] = None
    ) -> FunctionInstance:
        """Pick the instance the next invocation should be routed to.

        ``key`` is the sticky routing identity for ownership-aware
        policies; stateless policies ignore it.
        """
        ...


class RoundRobinBalancer:
    """NGINX's default policy: rotate through the upstream list."""

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self, instances: Sequence[FunctionInstance], key: Optional[Hashable] = None
    ) -> FunctionInstance:
        if not instances:
            raise ValueError("no instances available to balance across")
        instance = instances[self._cursor % len(instances)]
        self._cursor += 1
        return instance


def _target_load(target, position: int) -> Tuple[float, int]:
    """Deterministic load key: the target's ``load`` (every target is a
    shard worker), then its position."""
    return (float(target.load), position)


class LeastLoadedBalancer:
    """Assign to the currently least-loaded target, first index on ties.

    It understands the shard workers' aggregate ``load`` (scheduler
    backlog plus owned cameras), and its tie-break is positional, so
    camera placement is deterministic even when every target is idle
    (the common state at registration time — the effect is then a
    balanced round-robin-by-count whenever the caller assigns sticky
    keys one at a time).
    """

    def select(
        self, instances: Sequence[FunctionInstance], key: Optional[Hashable] = None
    ) -> FunctionInstance:
        if not instances:
            raise ValueError("no instances available to balance across")
        index = min(
            range(len(instances)),
            key=lambda position: _target_load(instances[position], position),
        )
        return instances[index]


class ConsistentHashBalancer:
    """A consistent-hash ring over the target *positions*.

    Each of the ``len(instances)`` positions contributes ``replicas``
    virtual nodes; a key is routed to the first virtual node clockwise
    from its own hash.  Rings are cached per target count, so repeated
    selects are two hashes and a bisect.
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.replicas = replicas
        self._rings: Dict[int, Tuple[List[int], List[int]]] = {}

    def _ring(self, count: int) -> Tuple[List[int], List[int]]:
        if count not in self._rings:
            points = sorted(
                (stable_hash((position, replica), salt="ring"), position)
                for position in range(count)
                for replica in range(self.replicas)
            )
            self._rings[count] = (
                [point for point, _position in points],
                [position for _point, position in points],
            )
        return self._rings[count]

    def select(
        self, instances: Sequence[FunctionInstance], key: Optional[Hashable] = None
    ) -> FunctionInstance:
        if not instances:
            raise ValueError("no instances available to balance across")
        if key is None:
            raise ValueError("consistent hashing needs a routing key")
        points, positions = self._ring(len(instances))
        slot = bisect_left(points, stable_hash(key, salt="key"))
        if slot == len(points):
            slot = 0
        return instances[positions[slot]]


#: Policy names accepted by :func:`make_balancer`.
BALANCER_POLICIES = (
    "round_robin",
    "least_loaded",
    "consistent_hash",
)


def make_balancer(name: str) -> LoadBalancer:
    """Factory used by experiment configs (see :data:`BALANCER_POLICIES`)."""
    policies = {
        "round_robin": RoundRobinBalancer,
        "least_loaded": LeastLoadedBalancer,
        "consistent_hash": ConsistentHashBalancer,
    }
    if name not in policies:
        raise KeyError(f"unknown load balancer {name!r}; valid: {sorted(policies)}")
    return policies[name]()
