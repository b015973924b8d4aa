"""Load-balancing policies over function instances (and shard workers).

The paper fronts its function instances with NGINX using the default
policy (round robin).

The sharded fleet frontend (:mod:`repro.fleet.shard`) assigns *cameras to
scheduler shards* through the same factory, once per camera when it
registers.  Round robin then deals camera *i* to shard *i* mod N, and the
factory adds one ownership-aware policy:

* ``"consistent_hash"`` -- a BLAKE2-based hash ring with virtual nodes,
  so a camera's owner is a pure function of ``(key, len(instances))``:
  stable across runs and machines (Python's ``hash`` is per-process
  salted, so it is deliberately not used), and adding/removing one shard
  only moves ~1/N of the keys.

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
    "consistent_hash",
)


def make_balancer(name: str) -> LoadBalancer:
    """Factory used by experiment configs (see :data:`BALANCER_POLICIES`)."""
    policies = {
        "round_robin": RoundRobinBalancer,
        "consistent_hash": ConsistentHashBalancer,
    }
    if name not in policies:
        raise KeyError(f"unknown load balancer {name!r}; valid: {sorted(policies)}")
    return policies[name]()
