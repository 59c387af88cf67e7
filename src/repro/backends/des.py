"""DES execution backend — event-per-request simulation.

Home of :func:`build_context` (the data-plane wiring that used to live
in ``repro.experiments.runner``) and :class:`DESBackend`, which runs
one replication through the event loop and reports the unified
:class:`~repro.backends.base.RunMetrics`.

Replications use spawned random streams (seed 0, 1, 2 …), so each is
independent yet exactly reproducible, and policies compared on the same
replication index share identical arrival streams (common random
numbers — the variance-reduction discipline the static-vs-adaptive
comparison benefits from).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

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
from .base import RunMetrics, check_conservation

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from ..experiments.scenario import ScenarioConfig

__all__ = ["DESBackend", "build_context"]


def build_context(
    scenario: "ScenarioConfig",
    seed: int = 0,
    balancer: Optional[LoadBalancer] = None,
    tracer: Optional[TraceBus] = None,
    audit: Optional[object] = None,
    registry: Optional[object] = None,
) -> SimulationContext:
    """Wire the data plane of one replication (no policy attached).

    ``tracer`` (a :class:`~repro.obs.bus.TraceBus`), ``audit`` (a
    :class:`~repro.obs.audit.DecisionAuditLog`) and ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) are threaded into every
    instrumented component; all default to ``None`` — observability off.
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
    capacity = scenario.capacity
    fleet = ApplicationFleet(
        engine=engine,
        datacenter=datacenter,
        sampler=sampler,
        monitor=monitor,
        metrics=metrics,
        capacity=capacity,
        balancer=balancer,
        boot_delay=scenario.boot_delay,
        tracer=tracer,
    )
    admission = AdmissionControl(
        fleet, monitor, count_arrivals=scenario.count_arrivals, tracer=tracer
    )
    source = WorkloadSource(
        engine=engine,
        workload=workload,
        rng=streams.get("arrivals"),
        admission=admission,
        horizon=scenario.horizon,
        tracer=tracer,
    )
    return SimulationContext(
        engine=engine,
        streams=streams,
        workload=workload,
        qos=scenario.qos,
        capacity=capacity,
        datacenter=datacenter,
        fleet=fleet,
        monitor=monitor,
        metrics=metrics,
        admission=admission,
        source=source,
        horizon=scenario.horizon,
        tracer=tracer,
        audit=audit,
        registry=registry,
    )


def _build_telemetry(
    metrics: MetricsConfig,
    registry,
    scenario: "ScenarioConfig",
    ctx: SimulationContext,
    tracer: Optional[TraceBus],
) -> RunTelemetry:
    """One :class:`RunTelemetry` wired to a built DES context.

    Shared by the scalar and vectorized DES backends so both sample the
    identical snapshot fields at the identical cadence
    (``metrics.interval`` falling back to the scenario's control epoch).
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
    extra low-priority accounting tick.  Shared by the scalar and
    vectorized DES backends so both bill at the identical cadence.
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
    return dict(
        revenue=totals.revenue,
        cost=totals.cost,
        penalty=totals.penalty,
        profit=totals.profit,
        spot_vm_hours=totals.spot_vm_hours,
        revocations=totals.revocations,
    )


class DESBackend:
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
        profile = RunProfile()
        if isinstance(trace, TraceConfig):
            tracer: Optional[TraceBus] = trace.build(scenario.name, policy.name, seed)
            owns_bus = True
        else:
            tracer = trace
            owns_bus = False
        telemetry: Optional[RunTelemetry] = None
        try:
            if tracer is not None:
                tracer.emit(
                    "run.start",
                    0.0,
                    scenario=scenario.name,
                    policy=policy.name,
                    seed=int(seed),
                )
            with profile.phase("build"):
                registry = (
                    metrics.build(scenario.qos.max_response_time)
                    if metrics is not None
                    else None
                )
                ctx = build_context(
                    scenario, seed, balancer, tracer=tracer, audit=audit,
                    registry=registry,
                )
                policy.attach(ctx)
                ledger = _build_ledger(scenario, policy, ctx, tracer, registry)
                if ledger is not None:
                    ledger.install(ctx.engine)
                telemetry = (
                    _build_telemetry(metrics, registry, scenario, ctx, tracer)
                    if metrics is not None
                    else None
                )
                if telemetry is not None:
                    telemetry.install(ctx.engine)
                    if metrics.path and not metrics.history:
                        # History off + path on: stream each snapshot
                        # to disk as it is taken.
                        telemetry.open_stream(
                            metrics.resolve_path(scenario.name, policy.name, seed)
                        )
                ctx.source.start()
            watch = Stopwatch()
            with profile.phase("run"):
                ctx.engine.run(until=scenario.horizon)
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
                telemetry_dict: dict = {}
                if telemetry is not None:
                    telemetry_dict = telemetry.finalize(
                        m.total_requests,
                        m.accepted,
                        m.rejected,
                        m.completed,
                        m.violations,
                        ctx.fleet.serving_count,
                        cache_hits=cache_hits,
                        cache_misses=cache_misses,
                    )
                    if metrics.path:
                        telemetry.write_jsonl(
                            metrics.resolve_path(scenario.name, policy.name, seed)
                        )
            profile.count("events", ctx.engine.events_fired)
            profile.count("compactions", ctx.engine.compactions)
            if tracer is not None:
                tracer.emit(
                    "run.end",
                    now,
                    events=ctx.engine.events_fired,
                    compactions=ctx.engine.compactions,
                )
                profile.count("trace_events", tracer.emitted)
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
                events=ctx.engine.events_fired,
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
        finally:
            if telemetry is not None:
                telemetry.close_stream()
            if owns_bus and tracer is not None:
                tracer.close()
