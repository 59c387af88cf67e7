"""DES execution backends — one replication driver, two data planes.

:class:`DESDriver` runs one ``(scenario, policy)`` replication of the
discrete-event simulation: it wires the shared part of the data plane
(random streams, engine, collector, data center, monitor, service
sampler), attaches the policy, the profit ledger and the telemetry,
runs to the horizon, finalizes the collector and reports the unified
:class:`~repro.backends.base.RunMetrics`, checked against the
conservation laws.  A data plane supplies only three things: how the
fleet, admission and source are wired (:meth:`DESDriver._wire`), how
the run reaches the horizon (:meth:`DESDriver._drive`) and what it
counts as work (:meth:`DESDriver._tally`).

:class:`DESBackend` (``"des"``) is the event-per-request plane: an
:class:`~repro.cloud.fleet.ApplicationFleet` behind
:class:`~repro.cloud.admission.AdmissionControl`, fed by a cursor
broker that schedules every arrival.  The batched plane
(``"des-vec"``) lives in :mod:`repro.backends.des_vec`.
:func:`build_context` wires the scalar plane for callers that drive
the engine themselves.

Replications use spawned random streams (seed 0, 1, 2 …), so each is
independent yet exactly reproducible, and policies compared on the same
replication index share identical arrival streams (common random
numbers — the variance-reduction discipline the static-vs-adaptive
comparison benefits from).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

from ..cloud.admission import AdmissionControl
from ..cloud.broker import WorkloadSource
from ..cloud.datacenter import Datacenter
from ..cloud.fleet import ApplicationFleet
from ..cloud.loadbalancer import LoadBalancer
from ..cloud.monitor import Monitor
from ..core.context import SimulationContext
from ..core.policies import ProvisioningPolicy
from ..economy.ledger import ProfitLedger
from ..metrics.collector import MetricsCollector
from ..obs.bus import TraceBus, TraceConfig
from ..obs.metrics import MetricsConfig, RunTelemetry
from ..obs.profile import RunProfile, Stopwatch
from ..sim.engine import Engine
from ..sim.rng import RandomStreams
from .base import RunMetrics, check_conservation, economy_fields, run_lifecycle

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from ..experiments.scenario import ScenarioConfig

__all__ = ["DESDriver", "DESBackend", "build_context"]


def build_context(
    scenario: "ScenarioConfig",
    seed: int = 0,
    balancer: Optional[LoadBalancer] = None,
    tracer: Optional[TraceBus] = None,
    audit: Optional[object] = None,
    registry: Optional[object] = None,
) -> SimulationContext:
    """Wire the scalar data plane of one replication (no policy attached).

    ``tracer`` (a :class:`~repro.obs.bus.TraceBus`), ``audit`` (a
    :class:`~repro.obs.audit.DecisionAuditLog`) and ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) are threaded into every
    instrumented component; all default to ``None`` — observability off.
    """
    return DESBackend()._build_context(scenario, seed, balancer, tracer, audit, registry)


def _build_telemetry(
    metrics: MetricsConfig,
    registry,
    scenario: "ScenarioConfig",
    ctx: SimulationContext,
    tracer: Optional[TraceBus],
) -> RunTelemetry:
    """One :class:`RunTelemetry` wired to a built DES context.

    Both data planes sample the identical snapshot fields at the
    identical cadence (``metrics.interval`` falling back to the
    scenario's control epoch).
    """
    modeler = getattr(ctx.provisioner, "modeler", None)
    cache_fn = (
        (lambda md=modeler: (md.cache_hits, md.cache_misses))
        if modeler is not None
        else None
    )
    return RunTelemetry(
        registry,
        metrics,
        scenario.qos.max_response_time,
        metrics.interval if metrics.interval is not None else scenario.update_interval,
        collector=ctx.metrics,
        fleet_size_fn=lambda f=ctx.fleet: f.serving_count,
        cache_fn=cache_fn,
        tracer=tracer,
    )


def _build_ledger(
    scenario: "ScenarioConfig",
    policy: ProvisioningPolicy,
    ctx: SimulationContext,
    tracer: Optional[TraceBus],
    registry,
) -> Optional[ProfitLedger]:
    """One :class:`ProfitLedger` wired to a built DES context.

    ``None`` when the scenario carries no pricing model — economics is
    strictly opt-in, so priced and unpriced runs differ only by the
    extra low-priority accounting tick.  Both data planes bill at the
    identical cadence.
    """
    if scenario.pricing is None:
        return None
    return ProfitLedger(
        scenario.pricing,
        interval=scenario.update_interval,
        cores_per_vm=float(ctx.fleet.vm_spec.cores),
        spot_fraction=float(getattr(policy, "spot_fraction", 0.0)),
        collector=ctx.metrics,
        vm_hours_fn=ctx.datacenter.vm_hours,
        tracer=tracer,
        registry=registry,
    )


def _finalize_ledger(ledger: Optional[ProfitLedger], ctx, now: float) -> dict:
    """Close the ledger and return the economy RunMetrics kwargs."""
    if ledger is None:
        return {}
    revoker = getattr(ctx, "revoker", None)
    totals = ledger.finalize(
        now, revocations=revoker.revocations if revoker is not None else 0
    )
    return economy_fields(totals)


class DESDriver:
    """Build → run → finalize of one DES replication, over any data plane.

    Subclasses are the data planes; each keeps a ``run`` of its own
    that calls :meth:`_replicate`.
    """

    def _build_context(
        self,
        scenario: "ScenarioConfig",
        seed: int,
        balancer: Optional[LoadBalancer],
        tracer: Optional[TraceBus],
        audit: Optional[object],
        registry: Optional[object],
    ) -> SimulationContext:
        """The shared data-plane prefix, then the plane's own wiring.

        Construction order fixes the event sequence numbers (the
        monitor schedules its rate sampler when it is built), so both
        planes build the prefix identically before :meth:`_wire`.
        """
        streams = RandomStreams(seed)
        engine = Engine(tracer=tracer)
        workload = scenario.workload
        metrics = MetricsCollector(
            qos_response_time=scenario.qos.max_response_time,
            track_fleet_series=scenario.track_fleet_series,
        )
        datacenter = Datacenter(
            num_hosts=scenario.num_hosts,
            cores_per_host=scenario.cores_per_host,
            ram_per_host_mb=scenario.ram_per_host_mb,
        )
        monitor = Monitor(
            engine=engine,
            metrics=metrics,
            default_service_time=workload.mean_service_time,
            rate_sample_interval=scenario.rate_sample_interval,
            tracer=tracer,
            registry=registry,
        )
        sampler = workload.service_sampler(streams.get("service"))
        ctx = SimulationContext(
            engine=engine,
            streams=streams,
            workload=workload,
            qos=scenario.qos,
            capacity=scenario.capacity,
            datacenter=datacenter,
            fleet=None,
            monitor=monitor,
            metrics=metrics,
            admission=None,
            source=None,
            horizon=scenario.horizon,
            tracer=tracer,
            audit=audit,
            registry=registry,
        )
        self._wire(ctx, scenario, sampler, balancer)
        return ctx

    def _wire(self, ctx: SimulationContext, scenario, sampler, balancer) -> None:
        """Set ``ctx.fleet``, ``ctx.admission`` and ``ctx.source``."""
        raise NotImplementedError

    def _drive(self, ctx: SimulationContext, horizon: float) -> None:
        """Run the built context up to ``horizon``."""
        raise NotImplementedError

    def _tally(self, ctx: SimulationContext, profile: RunProfile) -> Tuple[int, int]:
        """Count the run's work into ``profile``.

        Returns ``(run.end events, RunMetrics.events)``.
        """
        raise NotImplementedError

    def _replicate(
        self,
        scenario: "ScenarioConfig",
        policy: ProvisioningPolicy,
        seed: int,
        balancer: Optional[LoadBalancer],
        trace: Optional[Union[TraceConfig, TraceBus]],
        audit: Optional[object],
        metrics: Optional[MetricsConfig],
    ) -> RunMetrics:
        """Run one replication of (scenario, policy) and collect metrics."""
        with run_lifecycle(scenario, policy, seed, trace, metrics) as life:
            tracer, profile = life.tracer, life.profile
            with profile.phase("build"):
                registry = (
                    metrics.build(scenario.qos.max_response_time)
                    if metrics is not None
                    else None
                )
                ctx = self._build_context(
                    scenario, seed, balancer, tracer, audit, registry
                )
                policy.attach(ctx)
                ledger = _build_ledger(scenario, policy, ctx, tracer, registry)
                if ledger is not None:
                    ledger.install(ctx.engine)
                if metrics is not None:
                    telemetry = _build_telemetry(metrics, registry, scenario, ctx, tracer)
                    telemetry.install(ctx.engine)
                    life.open_telemetry(telemetry)
                ctx.source.start()
            watch = Stopwatch()
            with profile.phase("run"):
                self._drive(ctx, scenario.horizon)
            wall = watch.elapsed()
            with profile.phase("finalize"):
                now = ctx.engine.now
                ctx.metrics.finalize(now, ctx.datacenter.vm_hours(now))
                m = ctx.metrics
                scale = scenario.scale
                modeler = getattr(ctx.provisioner, "modeler", None)
                cache_hits = modeler.cache_hits if modeler is not None else 0
                cache_misses = modeler.cache_misses if modeler is not None else 0
                control = getattr(ctx.provisioner, "control", None)
                control_series = control.trajectory if control is not None else ()
                economy = _finalize_ledger(ledger, ctx, now)
                telemetry_dict = life.finish_telemetry(
                    m.total_requests,
                    m.accepted,
                    m.rejected,
                    m.completed,
                    m.violations,
                    ctx.fleet.serving_count,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
            end_events, events = self._tally(ctx, profile)
            profile.count("compactions", ctx.engine.compactions)
            life.end(now, end_events, ctx.engine.compactions)
            result = RunMetrics(
                scenario=scenario.name,
                policy=policy.name,
                seed=seed,
                total_requests=m.total_requests,
                accepted=m.accepted,
                completed=m.completed,
                rejected=m.rejected,
                rejection_rate=m.rejection_rate,
                mean_response_time=m.mean_response_time / scale,
                response_time_std=m.response_time_std / scale,
                qos_violations=m.violations,
                min_instances=m.min_instances if m.min_instances is not None else 0,
                max_instances=m.max_instances if m.max_instances is not None else 0,
                vm_hours=m.vm_hours,
                core_hours=ctx.datacenter.core_hours(now),
                failures=m.failures,
                lost_requests=m.lost_requests,
                utilization=m.utilization,
                wall_seconds=wall,
                events=events,
                fleet_series=tuple(m.fleet_series),
                control_series=control_series,
                backend=self.name,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                compactions=ctx.engine.compactions,
                profile=profile.to_dict(),
                telemetry=telemetry_dict,
                **economy,
            )
            check_conservation(
                result, ctx.source.generated, ctx.fleet.in_flight, m.busy_seconds
            )
            return result


class DESBackend(DESDriver):
    """Event-per-request execution of one replication."""

    name = "des"

    def run(
        self,
        scenario: "ScenarioConfig",
        policy: ProvisioningPolicy,
        seed: int = 0,
        balancer: Optional[LoadBalancer] = None,
        trace: Optional[Union[TraceConfig, TraceBus]] = None,
        audit: Optional[object] = None,
        metrics: Optional[MetricsConfig] = None,
    ) -> RunMetrics:
        """Run one replication of (scenario, policy) and collect metrics.

        Parameters
        ----------
        trace:
            ``None`` (default) runs untraced.  A
            :class:`~repro.obs.bus.TraceConfig` builds (and closes) a
            per-run bus — this is the picklable form the parallel path
            needs.  A ready :class:`~repro.obs.bus.TraceBus` is used
            as-is and left open, so callers can inspect an in-memory
            ring buffer after the run.
        audit:
            Optional :class:`~repro.obs.audit.DecisionAuditLog`
            capturing every Algorithm-1 invocation of this run.
        metrics:
            Optional :class:`~repro.obs.metrics.MetricsConfig`.  When
            set, the run carries a metrics registry (response-time
            histogram fed by the monitor, control-plane counters) and a
            periodic ``metrics.snapshot`` sampler; the finalized
            telemetry lands in :attr:`RunMetrics.telemetry` (and on
            disk when the config has a ``path``).
        """
        return self._replicate(scenario, policy, seed, balancer, trace, audit, metrics)

    def _wire(self, ctx: SimulationContext, scenario, sampler, balancer) -> None:
        ctx.fleet = ApplicationFleet(
            engine=ctx.engine,
            datacenter=ctx.datacenter,
            sampler=sampler,
            monitor=ctx.monitor,
            metrics=ctx.metrics,
            capacity=ctx.capacity,
            balancer=balancer,
            boot_delay=scenario.boot_delay,
            tracer=ctx.tracer,
        )
        ctx.admission = AdmissionControl(
            ctx.fleet, ctx.monitor, count_arrivals=scenario.count_arrivals,
            tracer=ctx.tracer,
        )
        ctx.source = WorkloadSource(
            engine=ctx.engine,
            workload=ctx.workload,
            rng=ctx.streams.get("arrivals"),
            admission=ctx.admission,
            horizon=scenario.horizon,
            tracer=ctx.tracer,
        )

    def _drive(self, ctx: SimulationContext, horizon: float) -> None:
        ctx.engine.run(until=horizon)

    def _tally(self, ctx: SimulationContext, profile: RunProfile) -> Tuple[int, int]:
        events = ctx.engine.events_fired
        profile.count("events", events)
        return events, events
