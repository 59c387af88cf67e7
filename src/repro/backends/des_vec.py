"""Vectorized DES execution backend — the batched data plane.

:class:`DESVecBackend` is the second data plane of the one DES
replication driver (:class:`~repro.backends.des.DESDriver`): build,
finalize, the ledger, the telemetry and the run lifecycle are the
scalar backend's, and only the plane differs.  The per-request hot
loop is replaced by the structure-of-arrays data plane
(:class:`~repro.cloud.vecfleet.VectorFleet` over
:mod:`repro.sim.batch`).  Python events are only materialized at
control-plane epochs — analyzer alerts, Algorithm-1 decisions, VM
boots, monitor samples — where the unchanged
:mod:`repro.core.controlplane` machinery takes over.  Workload windows
are no events: the fleet pulls them from the broker, so between epochs
whole arrival blocks, spanning many windows, move through numpy
kernels.

On jitterless scenarios des-vec is exact: the control and fleet
trajectories, accepted/rejected/completed counts, QoS violations and
the bill match the scalar DES bit for bit (the
``tests/test_batch_engine.py`` cross-checks).  Under service jitter the
match is statistical only: des-vec draws one service time per arrival,
a window at a time, while the scalar instance draws one at each
service start and only for admitted requests.  Per-request outcomes
then differ, and on some seeds so do control decisions and counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

from ..cloud.broker import WorkloadSource
from ..cloud.loadbalancer import LoadBalancer
from ..cloud.vecfleet import VectorFleet
from ..core.context import SimulationContext
from ..core.policies import ProvisioningPolicy
from ..obs.bus import TraceBus, TraceConfig
from ..obs.metrics import MetricsConfig
from ..obs.profile import RunProfile
from .base import RunMetrics
from .des import DESDriver

if TYPE_CHECKING:  # pragma: no cover - import-time only for annotations
    from ..experiments.scenario import ScenarioConfig

__all__ = ["DESVecBackend"]


class DESVecBackend(DESDriver):
    """Batched structure-of-arrays execution of one replication.

    Parameters
    ----------
    max_block:
        Upper bound on one arrival block (a memory/latency knob; the
        results are provably block-size invariant).
    """

    name = "des-vec"

    def __init__(self, max_block: int = 65_536) -> None:
        self.max_block = int(max_block)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DESVecBackend(max_block={self.max_block!r})"

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
        """Run one replication through the epoch loop and collect metrics.

        ``trace``/``audit``/``metrics`` behave exactly as on the scalar
        DES backend; traced runs additionally emit one ``batch.span``
        summary per non-empty span (a span ends at every window start
        and every engine event), and the metrics registry additionally
        counts spans and flushed requests.
        """
        return self._replicate(scenario, policy, seed, balancer, trace, audit, metrics)

    def _wire(self, ctx: SimulationContext, scenario, sampler, balancer) -> None:
        # The fleet pulls whole arrival windows from a pull-mode broker
        # instead of the broker walking a per-arrival cursor.  There is
        # no admission object: the fleet's block loop *is* the
        # admission gate (the paper's all-instances-full test,
        # evaluated in bulk).
        ctx.source = WorkloadSource(
            engine=ctx.engine,
            workload=ctx.workload,
            rng=ctx.streams.get("arrivals"),
            horizon=scenario.horizon,
            tracer=ctx.tracer,
        )
        ctx.fleet = VectorFleet(
            engine=ctx.engine,
            datacenter=ctx.datacenter,
            sampler=sampler,
            monitor=ctx.monitor,
            metrics=ctx.metrics,
            capacity=ctx.capacity,
            balancer=balancer,
            boot_delay=scenario.boot_delay,
            tracer=ctx.tracer,
            max_block=self.max_block,
            count_arrivals=scenario.count_arrivals,
            registry=ctx.registry,
            source=ctx.source,
        )

    def _drive(self, ctx: SimulationContext, horizon: float) -> None:
        engine = ctx.engine
        plane = ctx.fleet
        # Epoch loop: advance the array data plane to each engine
        # event's timestamp, then fire the event.
        while True:
            t_next = engine.peek()
            if t_next is None or t_next > horizon:
                break
            plane.advance(t_next)
            engine.step()
        plane.finish(horizon)
        engine.run(until=horizon)

    def _tally(self, ctx: SimulationContext, profile: RunProfile) -> Tuple[int, int]:
        # The backend's unit of work: epoch events, the windows the
        # data plane pulled (each once an engine event of its own) and
        # the arrivals/completions the array plane absorbed.  ``run.end``
        # reports the first two, which equal the scalar backend's event
        # count on jitterless runs.
        plane = ctx.fleet
        events = ctx.engine.events_fired + ctx.source.windows
        profile.count("events", ctx.engine.events_fired)
        profile.count("arrivals", plane.arrivals_processed)
        profile.count("completions", plane.completions_processed)
        profile.count("spans", plane.spans)
        return events, events + plane.arrivals_processed + plane.completions_processed
