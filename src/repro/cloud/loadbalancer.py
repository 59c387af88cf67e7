"""Load-balancing strategies for request dispatch.

The paper's application provisioner forwards each accepted request to a
virtualized application instance "following a round-robin strategy"
(§IV-C), noting that with low service-time variability this keeps load
even at negligible monitoring cost.  :class:`RoundRobinBalancer`
implements that default; :class:`LeastConnectionsBalancer` and
:class:`RandomBalancer` are the provider-supplied alternatives the
paper alludes to (Amazon Load-Balancer / GoGrid Controller) and feed
the load-balancer ablation benchmark.

A balancer must return an instance that is *accepting* and *not full*,
or ``None`` — ``None`` is precisely the admission-control rejection
condition ("all virtualized application instances have k requests in
their queues").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from .instance import AppInstance

__all__ = [
    "LoadBalancer",
    "RoundRobinBalancer",
    "LeastConnectionsBalancer",
    "RandomBalancer",
]


class LoadBalancer(ABC):
    """Strategy interface: pick a dispatch target among active instances."""

    #: Identifier used in reports and benchmark labels.
    name: str = "balancer"

    @abstractmethod
    def select(self, active: List[AppInstance]) -> Optional[AppInstance]:
        """Return a non-full instance from ``active``, or ``None``.

        ``active`` contains only instances in the ACTIVE state; the
        balancer is responsible for skipping full ones.
        """

    def notify_membership_change(self, active_count: int) -> None:
        """Hook called when instances join/leave the active set."""


class RoundRobinBalancer(LoadBalancer):
    """The paper's default: cycle through instances, skipping full ones.

    The pointer advances past the chosen instance so consecutive
    requests spread across the fleet.  When every instance is full the
    scan costs O(m) — the unavoidable price of the "all full?"
    admission question — but the common case is O(1).
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, active: List[AppInstance]) -> Optional[AppInstance]:
        n = len(active)
        if n == 0:
            return None
        i = start = self._next % n
        while True:
            inst = active[i]
            i = i + 1 if i + 1 < n else 0
            if inst.occupancy < inst.capacity:
                self._next = i
                return inst
            if i == start:
                return None

    def notify_membership_change(self, active_count: int) -> None:
        if active_count > 0:
            self._next %= active_count
        else:
            self._next = 0


class LeastConnectionsBalancer(LoadBalancer):
    """Route to the instance with the smallest occupancy.

    O(m) per request — used in ablations, not in the big benchmarks.
    Ties break on the lower index for determinism.
    """

    name = "least-connections"

    def select(self, active: List[AppInstance]) -> Optional[AppInstance]:
        best: Optional[AppInstance] = None
        best_occ = None
        for inst in active:
            occ = inst.occupancy
            if occ >= inst.capacity:
                continue
            if best_occ is None or occ < best_occ:
                best, best_occ = inst, occ
                if occ == 0:
                    break
        return best


class RandomBalancer(LoadBalancer):
    """Uniformly random among non-full instances.

    Parameters
    ----------
    rng:
        Dedicated random stream (keeps workload streams untouched).
    """

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select(self, active: List[AppInstance]) -> Optional[AppInstance]:
        candidates = [inst for inst in active if not inst.is_full]
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]
