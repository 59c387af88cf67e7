"""Application fleet — instance lifecycle and request dispatch.

:class:`ApplicationFleet` owns the set of virtualized application
instances of one SaaS deployment and implements the mechanics of the
paper's application provisioner (§IV-C):

* **dispatch** — accepted requests go to a non-full ACTIVE instance via
  the configured load balancer (round-robin by default);
* **scale up** — first *revive* instances that were draining ("removes
  them from the list of instances to be destroyed"), then create fresh
  VMs through the data center's resource provisioner;
* **scale down** — destroy idle instances immediately; non-idle victims
  (fewest requests in progress first) stop receiving requests and are
  destroyed "only when running requests finish" (graceful drain).

The decision of *how many* instances to run belongs to
:class:`repro.core.provisioner.ApplicationProvisioner`; the fleet only
executes.  Through its ``serving_count`` / ``scale_to`` surface the
fleet satisfies the backend-agnostic
:class:`repro.core.controlplane.FleetActuator` protocol — it is the
DES-side actuator of the shared control plane (analytical backends use
:class:`repro.core.controlplane.RecordingActuator` instead).
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigurationError, PlacementError
from ..metrics.collector import MetricsCollector
from ..sim.engine import Engine
from ..workloads.base import ServiceTimeSampler
from .datacenter import Datacenter
from .instance import AppInstance, InstanceState
from .loadbalancer import LoadBalancer, RoundRobinBalancer
from .monitor import Monitor
from .vm import DEFAULT_VM_SPEC, VMSpec

__all__ = ["ApplicationFleet"]


class ApplicationFleet:
    """Executes instance lifecycle operations for one application.

    Parameters
    ----------
    engine:
        Simulation engine.
    datacenter:
        IaaS substrate that places/destroys the backing VMs.
    sampler:
        Shared service-time sampler (instances are homogeneous).
    monitor:
        Monitoring sink passed to every instance.
    metrics:
        Run metrics (fleet-size extrema are recorded here).
    capacity:
        Per-instance queue capacity ``k`` (Eq. 1).
    balancer:
        Dispatch strategy; defaults to the paper's round-robin.
    vm_spec:
        VM class for new instances.
    boot_delay:
        Seconds between VM placement and the instance turning ACTIVE.
        The paper's simulations provision ahead of demand via the
        analyzer's lead time; 0 models an instantaneous boot.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, instance
        lifecycle transitions emit ``vm.created`` / ``vm.draining`` /
        ``vm.destroyed`` events (destruction carries the reason:
        ``idle``, ``drained``, ``cancelled`` or ``crashed``).
    """

    def __init__(
        self,
        engine: Engine,
        datacenter: Datacenter,
        sampler: ServiceTimeSampler,
        monitor: Monitor,
        metrics: MetricsCollector,
        capacity: int,
        balancer: Optional[LoadBalancer] = None,
        vm_spec: VMSpec = DEFAULT_VM_SPEC,
        boot_delay: float = 0.0,
        tracer: Optional[object] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity k must be >= 1, got {capacity}")
        if boot_delay < 0.0:
            raise ConfigurationError(f"boot delay must be >= 0, got {boot_delay}")
        self._engine = engine
        self._datacenter = datacenter
        self._sampler = sampler
        self._monitor = monitor
        self._metrics = metrics
        self.capacity = int(capacity)
        self.balancer = balancer if balancer is not None else RoundRobinBalancer()
        self.vm_spec = vm_spec
        self.boot_delay = float(boot_delay)
        self._tracer = tracer
        self._active: List[AppInstance] = []
        self._booting: List[AppInstance] = []
        self._draining: List[AppInstance] = []
        self._next_instance_id = 0

    def _emit_vm(self, event_type: str, inst: AppInstance, **fields: object) -> None:
        """Trace one instance lifecycle transition (no-op untraced)."""
        if self._tracer is not None:
            self._tracer.emit(
                event_type, self._engine.now, instance=inst.instance_id, **fields
            )

    # ------------------------------------------------------------------
    # census
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Instances currently accepting requests."""
        return len(self._active)

    @property
    def serving_count(self) -> int:
        """Instances provisioned for service (active + still booting).

        This is the fleet's notion of ``m`` — draining instances no
        longer count toward capacity.
        """
        return len(self._active) + len(self._booting)

    @property
    def live_count(self) -> int:
        """All non-destroyed instances (includes draining)."""
        return len(self._active) + len(self._booting) + len(self._draining)

    @property
    def active_instances(self) -> List[AppInstance]:
        """The ACTIVE list (read-only by convention)."""
        return self._active

    @property
    def live_instances(self) -> List[AppInstance]:
        """Every non-destroyed instance (a fresh list)."""
        return self._active + self._booting + self._draining

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed across the fleet."""
        return sum(inst.occupancy for inst in self.live_instances)

    # ------------------------------------------------------------------
    # dispatch (hot path)
    # ------------------------------------------------------------------
    def dispatch(self, arrival_time: float) -> bool:
        """Route one request; ``False`` means every instance is full.

        The ``False`` case is exactly the paper's admission-control
        rejection condition.
        """
        inst = self.balancer.select(self._active)
        if inst is None:
            return False
        inst.accept(arrival_time)
        return True

    # ------------------------------------------------------------------
    # scaling
    # ------------------------------------------------------------------
    def scale_to(self, target: int) -> int:
        """Adjust the serving fleet toward ``target`` instances.

        Returns the serving count actually reached (placement limits
        may cap growth).  Never raises on data-center exhaustion — the
        provisioner treats the achieved size as the new plan, matching
        a real IaaS quota refusal.
        """
        if target < 0:
            raise ConfigurationError(f"target fleet size must be >= 0, got {target}")
        current = self.serving_count
        if target > current:
            self._grow(target - current)
        elif target < current:
            self._shrink(current - target)
        return self.serving_count

    def _grow(self, count: int) -> None:
        # 1. Revive draining instances (most recently drained first —
        #    they are the least drained and retain the most capacity).
        while count > 0 and self._draining:
            inst = self._draining.pop()
            inst.activate()
            self._active.append(inst)
            count -= 1
        # 2. Create fresh VMs.
        while count > 0:
            if not self._create_instance():
                break  # quota/capacity reached; serve with what we have
            count -= 1
        self._after_membership_change()

    def _create_instance(self) -> bool:
        """Place one VM of the fleet's class and wrap it in an instance.

        Returns ``False`` when the data center refuses placement.
        Callers are responsible for :meth:`_after_membership_change`.
        """
        now = self._engine.now
        try:
            vm = self._datacenter.create_vm(now, self.vm_spec)
        except PlacementError:
            return False
        inst = AppInstance(
            self._next_instance_id,
            vm,
            self.capacity,
            self._engine,
            self._sampler,
            self._monitor,
            self._on_drained,
        )
        self._next_instance_id += 1
        if self.boot_delay > 0.0:
            self._booting.append(inst)
            self._engine.schedule(self.boot_delay, lambda i=inst: self._boot_done(i))
        else:
            vm.boot_completed()
            inst.activate()
            self._active.append(inst)
        self._emit_vm("vm.created", inst, booting=self.boot_delay > 0.0)
        return True

    def _boot_done(self, inst: AppInstance) -> None:
        if inst.state is not InstanceState.BOOTING:
            return  # was cancelled while booting
        self._booting.remove(inst)
        inst.vm.boot_completed()
        inst.activate()
        self._active.append(inst)
        self._after_membership_change()

    def _shrink(self, count: int) -> None:
        now = self._engine.now
        # 1. Cancel instances that have not even booted yet.
        while count > 0 and self._booting:
            inst = self._booting.pop()
            inst.mark_destroyed()
            self._datacenter.destroy_vm(inst.vm, now)
            self._emit_vm("vm.destroyed", inst, reason="cancelled")
            count -= 1
        if count <= 0:
            self._after_membership_change()
            return
        # 2. Destroy idle actives immediately ("the first ... to be
        #    destroyed are the idle ones").
        idle = [inst for inst in self._active if inst.is_idle]
        for inst in idle[:count]:
            self._active.remove(inst)
            inst.mark_destroyed()
            self._datacenter.destroy_vm(inst.vm, now)
            self._emit_vm("vm.destroyed", inst, reason="idle")
        count -= min(count, len(idle))
        if count <= 0:
            self._after_membership_change()
            return
        # 3. Drain the busiest-to-least? No: "the instances with smaller
        #    number of requests in progress are chosen to be destroyed".
        victims = sorted(self._active, key=lambda i: (i.occupancy, i.instance_id))[:count]
        for inst in victims:
            self._active.remove(inst)
            self._draining.append(inst)
            self._emit_vm("vm.draining", inst)
            inst.drain()  # may call _on_drained synchronously if idle
        self._after_membership_change()

    def kill(self, inst: AppInstance, reason: str = "crashed") -> int:
        """Crash ``inst`` (failure/revocation injection); returns requests lost.

        Unlike a drain, the instance's queued and in-service requests
        die with it; they are recorded as losses, not rejections.
        ``reason`` tags the ``vm.destroyed`` trace event (``"crashed"``
        for faults, ``"revoked"`` for spot reclamation).
        """
        if inst.state is InstanceState.DESTROYED:
            return 0
        for bucket in (self._active, self._booting, self._draining):
            if inst in bucket:
                bucket.remove(inst)
                break
        lost = inst.crash()
        self._datacenter.destroy_vm(inst.vm, self._engine.now)
        self._emit_vm("vm.destroyed", inst, reason=reason, lost=lost)
        self._metrics.record_loss(lost)
        self._after_membership_change()
        return lost

    def _on_drained(self, inst: AppInstance) -> None:
        """A draining instance emptied — destroy it now."""
        if inst.state is InstanceState.DESTROYED:
            return
        if inst in self._draining:
            self._draining.remove(inst)
        inst.mark_destroyed()
        self._datacenter.destroy_vm(inst.vm, self._engine.now)
        self._emit_vm("vm.destroyed", inst, reason="drained")
        self._metrics.record_fleet_size(self._engine.now, self.live_count)

    def _after_membership_change(self) -> None:
        self.balancer.notify_membership_change(len(self._active))
        self._metrics.record_fleet_size(self._engine.now, self.live_count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ApplicationFleet active={len(self._active)} "
            f"booting={len(self._booting)} draining={len(self._draining)}>"
        )
