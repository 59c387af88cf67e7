"""Virtualized application instance — the M/M/1/k station of Figure 2.

One instance ``s_j`` runs inside one VM ``v_j`` (the paper's one-to-one
mapping) and serves requests FIFO from a bounded queue: at most ``k``
requests may be present (one in service plus ``k − 1`` waiting), with
``k = ⌊Ts/Tr⌋`` enforced upstream by admission control — an instance is
never *offered* a request while full.

Lifecycle (paper §IV-C):

``BOOTING`` → ``ACTIVE`` → (``DRAINING`` ⇄ ``ACTIVE``) → ``DESTROYED``

A draining instance stops receiving work but finishes what it holds;
the provisioner may *revive* it back to ACTIVE if load returns before
it empties — exactly the paper's "removes them from the list of
instances to be destroyed".

This class sits on the DES hot path.  It uses ``__slots__``, keeps the
occupancy as a plain integer slot that ``accept``/``_complete``/``crash``
update (so ``is_full`` is one integer compare), queues waiting arrival
timestamps as plain floats in a ``deque``, and holds the in-service
request's arrival and service times in two slots, so a completion
schedules one bound method created with the instance rather than a
closure per request.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Optional

from ..sim.engine import Engine
from ..workloads.base import ServiceTimeSampler
from .monitor import Monitor
from .vm import VirtualMachine

__all__ = ["InstanceState", "AppInstance"]


class InstanceState(enum.Enum):
    """Lifecycle state of an application instance."""

    BOOTING = "booting"
    ACTIVE = "active"
    DRAINING = "draining"
    DESTROYED = "destroyed"


class AppInstance:
    """A single-server bounded-queue application instance.

    Parameters
    ----------
    instance_id:
        Fleet-unique identifier (``j`` of ``s_j``).
    vm:
        The backing :class:`~repro.cloud.vm.VirtualMachine`.
    capacity:
        Maximum requests present at once (the paper's ``k``).
    engine:
        The simulation engine (for completion events).
    sampler:
        Per-request service-time sampler.
    monitor:
        Metric/monitoring sink notified of completions.
    on_drained:
        Callback ``(instance) -> None`` fired when a DRAINING instance
        empties and can be destroyed.
    """

    __slots__ = (
        "instance_id",
        "vm",
        "capacity",
        "state",
        "busy_seconds",
        "served",
        "occupancy",
        "_engine",
        "_sampler",
        "_monitor",
        "_on_drained",
        "_queue",
        "_arrival",
        "_service",
        "_complete_cb",
        "_pending",
    )

    def __init__(
        self,
        instance_id: int,
        vm: VirtualMachine,
        capacity: int,
        engine: Engine,
        sampler: ServiceTimeSampler,
        monitor: Monitor,
        on_drained: Callable[["AppInstance"], None],
    ) -> None:
        if capacity < 1:
            raise ValueError(f"instance capacity must be >= 1, got {capacity}")
        self.instance_id = instance_id
        self.vm = vm
        self.capacity = capacity
        self.state = InstanceState.BOOTING
        self.busy_seconds = 0.0
        self.served = 0
        #: Requests currently present (waiting + in service).
        self.occupancy = 0
        self._engine = engine
        self._sampler = sampler
        self._monitor = monitor
        self._on_drained = on_drained
        #: Arrival times of the waiting requests (the one in service
        #: is not in it).
        self._queue: deque = deque()
        #: Arrival and service time of the request in service.
        self._arrival = 0.0
        self._service = 0.0
        self._complete_cb = self._complete
        self._pending = None  # completion-event handle, for crash cancellation

    # ------------------------------------------------------------------
    # state inspection (hot path uses these constantly)
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        """Whether admission must not offer another request."""
        return self.occupancy >= self.capacity

    @property
    def is_idle(self) -> bool:
        """Whether the instance holds no requests at all."""
        return self.occupancy == 0

    @property
    def accepting(self) -> bool:
        """Whether the dispatcher may route requests here."""
        return self.state is InstanceState.ACTIVE

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """BOOTING/DRAINING → ACTIVE (boot completed or revived)."""
        if self.state is InstanceState.DESTROYED:
            raise ValueError(f"instance {self.instance_id} is destroyed")
        self.state = InstanceState.ACTIVE

    def drain(self) -> None:
        """ACTIVE → DRAINING; fires ``on_drained`` at once if empty."""
        if self.state is not InstanceState.ACTIVE:
            raise ValueError(
                f"instance {self.instance_id} cannot drain from {self.state.name}"
            )
        self.state = InstanceState.DRAINING
        if self.is_idle:
            self._on_drained(self)

    def mark_destroyed(self) -> None:
        """Terminal transition; the fleet destroys the backing VM."""
        self.state = InstanceState.DESTROYED

    def crash(self) -> int:
        """Hard-kill the instance; returns the number of requests lost.

        Cancels the outstanding completion event (the in-service
        request dies with the VM) and empties the queue.  The fleet is
        responsible for VM destruction and metric accounting.
        """
        lost = self.occupancy
        if self._pending is not None:
            self._engine.discard(self._pending)
            self._pending = None
        self.occupancy = 0
        self._queue.clear()
        self.state = InstanceState.DESTROYED
        return lost

    # ------------------------------------------------------------------
    # request flow (hot path)
    # ------------------------------------------------------------------
    def accept(self, arrival_time: float) -> None:
        """Take responsibility for a request that arrived at ``arrival_time``.

        The dispatcher guarantees ``not self.is_full`` and
        ``self.accepting``; violating that is a programming error and
        raises immediately rather than corrupting the queue invariant.
        """
        occupancy = self.occupancy
        if occupancy >= self.capacity or self.state is not InstanceState.ACTIVE:
            raise RuntimeError(
                f"instance {self.instance_id} offered a request while "
                f"{'full' if occupancy >= self.capacity else self.state.name}"
            )
        self.occupancy = occupancy + 1
        if occupancy:
            self._queue.append(arrival_time)
        else:
            self._start_service(arrival_time)

    def _start_service(self, arrival_time: float) -> None:
        self._arrival = arrival_time
        self._service = service_time = self._sampler.draw()
        self._pending = self._engine.schedule(service_time, self._complete_cb)

    def _complete(self) -> None:
        service_time = self._service
        self.busy_seconds += service_time
        self.served += 1
        self.occupancy -= 1
        self._pending = None
        self._monitor.record_response(self._engine.now - self._arrival, service_time)
        if self._queue:
            self._start_service(self._queue.popleft())
        elif self.state is InstanceState.DRAINING:
            self._on_drained(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AppInstance {self.instance_id} {self.state.name} "
            f"occ={self.occupancy}/{self.capacity}>"
        )
