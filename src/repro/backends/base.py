"""Execution-backend protocol and the unified run-metrics record.

A *backend* is a way of executing one ``(scenario, policy)``
replication: the event-per-request DES (:class:`~repro.backends.des.DESBackend`)
or the interval-analytical fluid engine
(:class:`~repro.backends.fluid.FluidBackend`).  Both satisfy
:class:`ExecutionBackend` and both return the same
:class:`RunMetrics` record, so everything downstream — replication
fan-out, persistence, figures, the CLI perf summary, trace validation —
works identically regardless of how the run was executed.

This package is deliberately the **only** place in the library that
imports both engines (enforced by the ``layering`` lint rule): the
control plane in :mod:`repro.core` knows neither, and each engine knows
nothing about the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

try:
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py3.7 fallback, not supported
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from ..errors import ConfigurationError, SimulationError

__all__ = [
    "RunMetrics",
    "ExecutionBackend",
    "resolve_backend",
    "check_conservation",
    "BACKENDS",
]


@dataclass(frozen=True)
class RunMetrics:
    """Output metrics of one replication, on any backend.

    The union of the DES runner's result fields and the fluid engine's
    aggregates, tagged with the executing backend.  Fields that a
    backend cannot measure are reported as 0 (documented per field); a
    consumer that needs to distinguish "zero" from "not measured"
    should branch on :attr:`backend`.

    Attributes
    ----------
    scenario, policy, seed:
        Identification of the run.  The fluid backend is deterministic,
        so ``seed`` merely echoes the requested replication index.
    total_requests, accepted, completed, rejected:
        Arrival accounting.  Integers on the DES; *expected* counts
        (floats) on the fluid backend, where ``completed`` equals
        ``accepted`` (flows always drain).
    rejection_rate:
        Fraction of arrivals rejected.
    mean_response_time, response_time_std:
        Accepted-request response statistics, divided by the scenario
        scale factor so they are directly comparable to the paper.
        The fluid backend has no per-request distribution: its mean is
        the accepted-flow-weighted sojourn and its std is 0.
    qos_violations:
        Accepted requests that exceeded ``T_s`` (DES only; 0 on fluid).
    min_instances, max_instances:
        Fleet-size extrema observed during the run.
    vm_hours:
        Σ instance wall-clock lifetime in hours (Figure 5(c)/6(c)).
    core_hours:
        Σ VM-spec cores × wall-clock hours — the unit capacity is
        priced in (``repro.economy``); equals ``vm_hours`` for the
        paper's one-core VMs.
    failures, lost_requests:
        Failure-injection accounting (0 without an injector; always 0
        on the fluid backend).
    utilization:
        Busy time / provisioned VM time (Figure 5(b)/6(b)).
    wall_seconds:
        Host wall-clock of the run — the only field that is not a
        deterministic function of (scenario, policy, seed, backend).
    events:
        DES: engine events fired.  Fluid: integration intervals
        evaluated.  Either way, the backend's unit of work.
    fleet_series:
        ``(time, instances)`` trajectory.  DES: per instance-lifecycle
        change when the scenario tracks it (empty otherwise).  Fluid:
        the control trajectory (one entry per decision).
    control_series:
        ``(time, fleet_size_reached)`` per control-plane actuation —
        the backend-independent trajectory that
        ``tests/test_backend_xcheck.py`` compares bit-for-bit.  Empty
        for policies without a control plane (Static-N on the DES).
    backend:
        ``"des"`` or ``"fluid"``.
    cache_hits, cache_misses:
        Algorithm-1 decision-cache counters of the run's modeler
        (both 0 for policies without one, e.g. Static-N).
    compactions:
        Heap compactions the engine performed (0 on fluid — there is
        no event heap).
    profile:
        :meth:`repro.obs.profile.RunProfile.to_dict` snapshot of the
        run's phase wall-clock and event counters.  Excluded from
        equality (``compare=False``): timings are nondeterministic, so
        sequential and parallel replications still compare equal.
    telemetry:
        :meth:`repro.obs.metrics.RunTelemetry.finalize` dump (registry
        state + snapshot series) when the run was executed with a
        :class:`~repro.obs.metrics.MetricsConfig`; empty otherwise.
        Excluded from equality like ``profile`` so metrics-on and
        metrics-off replications of the same run still compare equal.
    revenue, cost, penalty, profit:
        :class:`~repro.economy.ledger.ProfitLedger` end-of-run billing
        (all 0 when the scenario has no pricing model).  ``profit`` is
        always ``revenue - cost - penalty``.
    spot_vm_hours:
        VM hours billed at the discounted spot rate (0 without a
        :class:`~repro.economy.policies.SpotPolicy`).
    revocations:
        Spot instances reclaimed by the provider during the run
        (distinct from :attr:`failures`, which counts fault-injector
        crashes).
    """

    scenario: str
    policy: str
    seed: int
    total_requests: float
    accepted: float
    completed: float
    rejected: float
    rejection_rate: float
    mean_response_time: float
    response_time_std: float
    qos_violations: int
    min_instances: int
    max_instances: int
    vm_hours: float
    core_hours: float
    failures: int
    lost_requests: int
    utilization: float
    wall_seconds: float
    events: int
    fleet_series: Tuple[Tuple[float, int], ...] = ()
    control_series: Tuple[Tuple[float, int], ...] = ()
    backend: str = "des"
    cache_hits: int = 0
    cache_misses: int = 0
    compactions: int = 0
    revenue: float = 0.0
    cost: float = 0.0
    penalty: float = 0.0
    profit: float = 0.0
    spot_vm_hours: float = 0.0
    revocations: int = 0
    profile: Dict[str, Dict[str, float]] = field(default_factory=dict, compare=False)
    telemetry: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def qos_attainment(self) -> float:
        """``P[T <= Ts]`` over all submitted requests.

        The paper's QoS objective: the fraction of *arrivals* served
        within ``T_s``.  Rejected and lost requests never complete, so
        they count against attainment — a policy that trims the fleet
        and sheds load pays for it here, which is exactly the
        profit-vs-QoS tension the economy campaign tabulates.  1.0 when
        the run saw no demand.
        """
        if self.total_requests <= 0:
            return 1.0
        met = max(0.0, self.completed - self.qos_violations)
        return min(1.0, met / self.total_requests)


def check_conservation(
    metrics: RunMetrics, arrivals: int, in_flight: int, busy_seconds: float
) -> None:
    """Check the end-of-run conservation laws of one DES replication.

    * every arrival generated before the horizon (``arrivals``) was
      accepted or rejected;
    * every accepted request completed, was lost in a crash, or is
      still on board an instance (``in_flight``, read from the fleet's
      own state, not derived from the counters);
    * service time (``busy_seconds``) does not exceed provisioned core
      time, up to float rounding.

    Raises :class:`~repro.errors.SimulationError` naming each law the
    run breaks.
    """
    errors = []
    if arrivals != metrics.accepted + metrics.rejected:
        errors.append(
            f"arrivals {arrivals} != accepted {metrics.accepted} "
            f"+ rejected {metrics.rejected}"
        )
    if metrics.accepted != metrics.completed + metrics.lost_requests + in_flight:
        errors.append(
            f"accepted {metrics.accepted} != completed {metrics.completed} "
            f"+ lost {metrics.lost_requests} + in flight {in_flight}"
        )
    provisioned = metrics.core_hours * 3600.0
    if busy_seconds > provisioned * (1.0 + 1e-9):
        errors.append(f"busy {busy_seconds!r} s > provisioned {provisioned!r} core-s")
    if errors:
        raise SimulationError(
            f"{metrics.backend} run {metrics.scenario}/{metrics.policy}/"
            f"seed {metrics.seed} breaks conservation: " + "; ".join(errors)
        )


@runtime_checkable
class ExecutionBackend(Protocol):
    """One way of executing a ``(scenario, policy)`` replication."""

    #: Backend tag stamped into every :class:`RunMetrics` it produces.
    name: str

    def run(
        self,
        scenario,
        policy,
        seed: int = 0,
        balancer=None,
        trace=None,
        audit=None,
        metrics=None,
    ) -> RunMetrics:
        """Execute one replication and return its unified metrics."""
        ...  # pragma: no cover - protocol body


def _make_des() -> "ExecutionBackend":
    from .des import DESBackend

    return DESBackend()


def _make_fluid() -> "ExecutionBackend":
    from .fluid import FluidBackend

    return FluidBackend()


def _make_des_vec() -> "ExecutionBackend":
    from .des_vec import DESVecBackend

    return DESVecBackend()


#: Backend registry: spec string → zero-argument factory.
BACKENDS = {"des": _make_des, "des-vec": _make_des_vec, "fluid": _make_fluid}


def resolve_backend(
    spec: Union[str, ExecutionBackend, None],
) -> "ExecutionBackend":
    """Turn a backend spec into a ready :class:`ExecutionBackend`.

    ``None`` and ``"des"`` give the default DES backend, ``"des-vec"``
    the vectorized (batched structure-of-arrays) DES, ``"fluid"`` the
    fluid backend, and an object with ``run`` + ``name`` passes
    through unchanged (so callers can hand in a pre-configured
    ``FluidBackend(dt=10.0)``).
    """
    if spec is None:
        return _make_des()
    if isinstance(spec, str):
        factory = BACKENDS.get(spec)
        if factory is None:
            raise ConfigurationError(
                f"unknown backend {spec!r}; expected one of {sorted(BACKENDS)}"
            )
        return factory()
    if callable(getattr(spec, "run", None)) and hasattr(spec, "name"):
        return spec
    raise ConfigurationError(
        f"cannot interpret {spec!r} as an execution backend; "
        "pass 'des', 'fluid', or an ExecutionBackend instance"
    )
