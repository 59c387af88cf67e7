"""Fluid execution backend — interval-analytical evaluation.

:class:`FluidBackend` runs the same ``(scenario, policy)`` replication
contract as the DES backend, but through the flow engine
(:class:`~repro.sim.fluid.FluidSimulator`).  Adaptive policies are
executed by a *self-driving* shared control plane built from the policy
itself (:meth:`repro.core.policies.AdaptivePolicy.control_plane`), so
the cadence and Algorithm-1 decisions are byte-for-byte the DES code —
the engine only integrates the flow underneath the resulting fleet
trajectory.

The backend is deterministic: ``seed`` is echoed into the result for
bookkeeping, and replications with different seeds return identical
metrics (apart from ``wall_seconds``).  Load balancers are a data-plane
concept with no fluid counterpart and are rejected if passed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..cloud.datacenter import Datacenter
from ..cloud.vm import DEFAULT_VM_SPEC
from ..core.policies import AdaptivePolicy, ProvisioningPolicy, StaticPolicy
from ..economy.ledger import EconomyTotals, publish_totals
from ..errors import ConfigurationError
from ..obs.bus import TraceBus, TraceConfig
from ..obs.metrics import MetricsConfig, RunTelemetry
from ..obs.profile import Stopwatch
from ..sim.fluid import FluidSimulator
from ..sim.rng import RandomStreams
from .base import RunMetrics, economy_fields, run_lifecycle

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from ..experiments.scenario import ScenarioConfig

__all__ = ["FluidBackend"]


class FluidBackend:
    """Interval-analytical execution of one replication.

    Parameters
    ----------
    dt:
        Integration interval in seconds (default 60).
    flow_model:
        ``"deterministic"`` (default) or ``"markovian"`` — see
        :class:`~repro.sim.fluid.FluidSimulator`.
    """

    name = "fluid"

    def __init__(self, dt: float = 60.0, flow_model: str = "deterministic") -> None:
        self.dt = float(dt)
        self.flow_model = flow_model

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FluidBackend(dt={self.dt!r}, flow_model={self.flow_model!r})"

    def run(
        self,
        scenario: "ScenarioConfig",
        policy: ProvisioningPolicy,
        seed: int = 0,
        balancer=None,
        trace: Optional[Union[TraceConfig, TraceBus]] = None,
        audit: Optional[object] = None,
        metrics: Optional[MetricsConfig] = None,
    ) -> RunMetrics:
        """Evaluate one replication analytically and collect metrics.

        ``trace``/``audit`` behave exactly as on the DES backend: the
        run emits ``run.start``/``run.end``, the control plane emits
        ``prediction.issued``/``decision``/``scaling.actuated``, and
        the engine adds one ``fluid.interval`` event per constant-fleet
        segment.  ``metrics`` computes the ``metrics.snapshot`` series
        from the integration grid (expected flows — see
        :meth:`~repro.obs.metrics.RunTelemetry.sample_grid`).
        """
        if balancer is not None:
            raise ConfigurationError(
                "the fluid backend has no per-request data plane; "
                "load balancers only apply to the DES backends ('des', 'des-vec')"
            )
        with run_lifecycle(scenario, policy, seed, trace, metrics) as life:
            tracer, profile = life.tracer, life.profile
            telemetry = None
            with profile.phase("build"):
                sim = FluidSimulator(
                    scenario.workload,
                    scenario.qos,
                    dt=self.dt,
                    flow_model=self.flow_model,
                )
                registry = (
                    metrics.build(scenario.qos.max_response_time)
                    if metrics is not None
                    else None
                )
                control = None
                if isinstance(policy, AdaptivePolicy):
                    datacenter = Datacenter(
                        num_hosts=scenario.num_hosts,
                        cores_per_host=scenario.cores_per_host,
                        ram_per_host_mb=scenario.ram_per_host_mb,
                    )
                    control = policy.control_plane(
                        workload=scenario.workload,
                        qos=scenario.qos,
                        capacity=scenario.capacity,
                        max_vms=datacenter.max_vms(DEFAULT_VM_SPEC),
                        tracer=tracer,
                        audit=audit,
                        registry=registry,
                    )
                elif not isinstance(policy, StaticPolicy):
                    raise ConfigurationError(
                        f"the fluid backend cannot execute {type(policy).__name__}; "
                        "supported policies are StaticPolicy and AdaptivePolicy"
                    )
                if metrics is not None:
                    telemetry = RunTelemetry(
                        registry,
                        metrics,
                        scenario.qos.max_response_time,
                        metrics.interval
                        if metrics.interval is not None
                        else scenario.update_interval,
                        tracer=tracer,
                    )
                    life.open_telemetry(telemetry)
            watch = Stopwatch()
            # Spot policies revoke on the same seeded stream the DES
            # draws from, so the fluid run sees the DES's schedule; this
            # is the one place the "deterministic" backend reads a seed.
            revocation_times: tuple = ()
            schedule_fn = getattr(policy, "revocation_schedule", None)
            if schedule_fn is not None and scenario.pricing is not None:
                revocation_times = tuple(
                    schedule_fn(RandomStreams(seed), scenario.horizon)
                )
            with profile.phase("run"):
                if control is not None:
                    agg = sim.run_adaptive(
                        control,
                        scenario.horizon,
                        tracer=tracer,
                        telemetry=telemetry,
                        interventions=revocation_times,
                    )
                else:
                    agg = sim.run_static(
                        policy.instances,
                        scenario.horizon,
                        tracer=tracer,
                        telemetry=telemetry,
                    )
            wall = watch.elapsed()
            with profile.phase("finalize"):
                scale = scenario.scale
                cache_hits = control.cache_hits if control is not None else 0
                cache_misses = control.cache_misses if control is not None else 0
                control_series = (
                    control.trajectory if control is not None else agg.fleet_series
                )
                economy: dict = {}
                if scenario.pricing is not None:
                    # No per-request distribution on the fluid backend →
                    # no QoS-violating intervals, so the penalty is 0 by
                    # construction (documented in docs/economy.md).
                    totals = EconomyTotals.from_aggregates(
                        scenario.pricing,
                        completed=agg.accepted,
                        core_hours=agg.vm_hours * DEFAULT_VM_SPEC.cores,
                        vm_hours=agg.vm_hours,
                        spot_fraction=float(getattr(policy, "spot_fraction", 0.0)),
                        violating_intervals=0,
                        revocations=len(revocation_times),
                    )
                    publish_totals(
                        totals,
                        scenario.horizon,
                        violating_intervals=0,
                        tracer=tracer,
                        registry=registry,
                    )
                    economy = economy_fields(totals)
                telemetry_dict = life.finish_telemetry(
                    agg.total_requests,
                    agg.accepted,
                    agg.rejected,
                    agg.accepted,  # flows always drain: completed == accepted
                    0,
                    agg.fleet_series[-1][1] if agg.fleet_series else 0,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
            profile.count("intervals", agg.intervals)
            life.end(scenario.horizon, agg.intervals, 0)
            return RunMetrics(
                scenario=scenario.name,
                policy=policy.name,
                seed=seed,
                total_requests=agg.total_requests,
                accepted=agg.accepted,
                completed=agg.accepted,
                rejected=agg.rejected,
                rejection_rate=agg.rejection_rate,
                mean_response_time=agg.mean_response_time / scale,
                response_time_std=0.0,
                qos_violations=0,
                min_instances=agg.min_instances,
                max_instances=agg.max_instances,
                vm_hours=agg.vm_hours,
                core_hours=agg.vm_hours * DEFAULT_VM_SPEC.cores,
                failures=0,
                lost_requests=0,
                utilization=agg.utilization,
                wall_seconds=wall,
                events=agg.intervals,
                fleet_series=agg.fleet_series,
                control_series=control_series,
                backend=self.name,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                compactions=0,
                profile=profile.to_dict(),
                telemetry=telemetry_dict,
                **economy,
            )
