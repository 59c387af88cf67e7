"""Tests of the execution-backend layer (repro.backends)."""

from __future__ import annotations

import pytest

from repro.backends import (
    DESBackend,
    FluidBackend,
    RunMetrics,
    resolve_backend,
)
from repro.backends.base import check_conservation
from repro.cloud.loadbalancer import RoundRobinBalancer
from repro.core import AdaptivePolicy, StaticPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.metrics import MetricsCollector
from repro.experiments import (
    run_policy,
    run_replications,
    scientific_scenario,
    web_scenario,
)
from repro.obs.bus import RingBufferSink, TraceBus, TraceConfig
from repro.obs.exporters import load_snapshots
from repro.obs.metrics import MetricsConfig
from repro.obs.schema import load_trace, validate_trace
from repro.sim.fluid import FluidSimulator


# ----------------------------------------------------------------------
# resolve_backend
# ----------------------------------------------------------------------
def test_resolve_backend_specs():
    assert isinstance(resolve_backend(None), DESBackend)
    assert isinstance(resolve_backend("des"), DESBackend)
    assert isinstance(resolve_backend("fluid"), FluidBackend)


def test_resolve_backend_passes_instances_through():
    backend = FluidBackend(dt=30.0)
    assert resolve_backend(backend) is backend


def test_resolve_backend_rejects_unknown_spec():
    with pytest.raises(ConfigurationError):
        resolve_backend("quantum")
    with pytest.raises(ConfigurationError):
        resolve_backend(42)


# ----------------------------------------------------------------------
# RunMetrics
# ----------------------------------------------------------------------
def _metrics(**overrides) -> RunMetrics:
    base = dict(
        scenario="s",
        policy="p",
        seed=0,
        total_requests=10.0,
        accepted=10.0,
        completed=10.0,
        rejected=0.0,
        rejection_rate=0.0,
        mean_response_time=1.0,
        response_time_std=0.0,
        qos_violations=0,
        min_instances=1,
        max_instances=2,
        vm_hours=1.0,
        core_hours=8.0,
        failures=0,
        lost_requests=0,
        utilization=0.5,
        wall_seconds=0.1,
        events=100,
    )
    base.update(overrides)
    return RunMetrics(**base)


def test_runmetrics_defaults():
    m = _metrics()
    assert m.backend == "des"
    assert m.control_series == ()
    assert m.cache_hits == 0 and m.cache_misses == 0 and m.compactions == 0
    assert m.profile == {}


def test_runmetrics_profile_excluded_from_equality():
    assert _metrics(profile={"a": 1}) == _metrics(profile={"b": 2})
    assert _metrics(backend="des") != _metrics(backend="fluid")


# ----------------------------------------------------------------------
# fluid backend behaviour
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sci_fluid():
    return run_policy(
        scientific_scenario(), AdaptivePolicy(update_interval=1800.0), backend="fluid"
    )


def test_fluid_adaptive_warm_cache_counters(sci_fluid):
    # The scientific day revisits the same (rate, T_m, fleet) operating
    # points, so a warmed Algorithm-1 decision cache must show hits —
    # the fluid path reports the same hot-path diagnostics as the DES.
    assert sci_fluid.cache_misses > 0
    assert sci_fluid.cache_hits > 0


def test_fluid_reports_run_diagnostics(sci_fluid):
    assert sci_fluid.wall_seconds > 0.0
    assert sci_fluid.events > 0  # integration intervals
    phases = sci_fluid.profile.get("phase_seconds", {})
    assert {"build", "run", "finalize"} <= set(phases)
    assert sci_fluid.profile.get("counters", {}).get("intervals") == sci_fluid.events


def test_fluid_trace_validates_against_schema(tmp_path):
    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0)
    trace = TraceConfig(sink="jsonl", path=str(tmp_path))
    run_policy(scenario, AdaptivePolicy(), backend="fluid", trace=trace)
    (trace_file,) = sorted(tmp_path.glob("*.jsonl"))
    events = load_trace(trace_file)
    assert validate_trace(events) == len(events)
    kinds = {e["type"] for e in events}
    assert {
        "run.start",
        "prediction.issued",
        "decision",
        "scaling.actuated",
        "fluid.interval",
        "run.end",
    } <= kinds


def test_fluid_rejects_load_balancers():
    scenario = web_scenario(scale=5000.0, horizon=3600.0)
    with pytest.raises(ConfigurationError):
        run_policy(
            scenario, StaticPolicy(5), backend="fluid", balancer=RoundRobinBalancer()
        )


def test_fluid_rejects_unsupported_policies():
    class OddPolicy(StaticPolicy.__bases__[0]):  # ProvisioningPolicy
        name = "odd"

        def attach(self, ctx):  # pragma: no cover - never attached
            pass

    scenario = web_scenario(scale=5000.0, horizon=3600.0)
    with pytest.raises(ConfigurationError):
        run_policy(scenario, OddPolicy(), backend="fluid")


def test_fluid_replications_deterministic_across_seeds():
    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0)
    results = run_replications(
        scenario, lambda: StaticPolicy(10), seeds=(0, 1), backend="fluid"
    )
    assert [r.seed for r in results] == [0, 1]
    # Seed is bookkeeping only on the analytical backend.
    a, b = results
    assert (a.total_requests, a.vm_hours, a.rejection_rate) == (
        b.total_requests,
        b.vm_hours,
        b.rejection_rate,
    )


# ----------------------------------------------------------------------
# end-of-run conservation
# ----------------------------------------------------------------------
def test_conservation_accepts_a_balanced_run():
    check_conservation(_metrics(), arrivals=10, in_flight=0, busy_seconds=8 * 3600.0)


@pytest.mark.parametrize(
    "arrivals, in_flight, busy, law",
    [
        (11, 0, 1.0, "arrivals 11 != accepted"),
        (10, 1, 1.0, "in flight 1"),
        (10, 0, 8 * 3600.0 * 1.001, "provisioned"),
    ],
)
def test_conservation_names_the_broken_law(arrivals, in_flight, busy, law):
    with pytest.raises(SimulationError, match=law):
        check_conservation(
            _metrics(), arrivals=arrivals, in_flight=in_flight, busy_seconds=busy
        )


_CONSERVED = web_scenario(scale=5000.0, horizon=6 * 3600.0)


@pytest.mark.parametrize("backend", ["des", "des-vec"])
def test_conservation_holds_on_real_runs(backend):
    result = run_policy(_CONSERVED, StaticPolicy(3), seed=0, backend=backend)
    assert result.rejected > 0 and result.accepted > result.completed


def _flip_one_scalar_accept(monkeypatch):
    """Count the scalar plane's first acceptance as a rejection."""
    accept = MetricsCollector.record_acceptance
    flipped = []

    def flip(self):
        if flipped:
            accept(self)
        else:
            flipped.append(True)
            self.record_rejection()

    monkeypatch.setattr(MetricsCollector, "record_acceptance", flip)
    return flipped


def _flip_one_batched_accept(monkeypatch):
    """Count one acceptance of the batched plane's first block as a rejection."""
    accept = MetricsCollector.record_acceptances
    flipped = []

    def flip(self, count):
        if flipped:
            accept(self, count)
        else:
            flipped.append(True)
            accept(self, count - 1)
            self.record_rejection()

    monkeypatch.setattr(MetricsCollector, "record_acceptances", flip)
    return flipped


def test_des_conservation_catches_one_accept_counted_as_reject(monkeypatch):
    flipped = _flip_one_scalar_accept(monkeypatch)
    with pytest.raises(SimulationError, match="accepted .* in flight"):
        run_policy(_CONSERVED, AdaptivePolicy(), seed=0, backend="des")
    assert flipped


def test_des_vec_conservation_catches_one_accept_counted_as_reject(monkeypatch):
    flipped = _flip_one_batched_accept(monkeypatch)
    with pytest.raises(SimulationError, match="accepted .* in flight"):
        run_policy(_CONSERVED, AdaptivePolicy(), seed=0, backend="des-vec")
    assert flipped


# ----------------------------------------------------------------------
# run lifecycle (shared by every backend)
# ----------------------------------------------------------------------
class _BorrowedSink(RingBufferSink):
    closed = False

    def close(self) -> None:
        self.closed = True


def _make_run_raise(monkeypatch, backend):
    if backend == "des":
        _flip_one_scalar_accept(monkeypatch)
        return SimulationError
    if backend == "des-vec":
        _flip_one_batched_accept(monkeypatch)
        return SimulationError

    def boom(self, *args, **kwargs):
        raise RuntimeError("fluid run interrupted")

    monkeypatch.setattr(FluidSimulator, "run_adaptive", boom)
    return RuntimeError


@pytest.mark.parametrize("backend", ["des", "des-vec", "fluid"])
def test_lifecycle_closes_owned_and_keeps_borrowed_on_failure(
    monkeypatch, tmp_path, backend
):
    def run_failing(**observe):
        with monkeypatch.context() as patch:
            error = _make_run_raise(patch, backend)
            with pytest.raises(error) as caught:
                run_policy(
                    _CONSERVED, AdaptivePolicy(), seed=0, backend=backend, **observe
                )
        return caught

    # Holding the exception keeps the failed run's frames, and so its
    # bus, alive: the trace below is on disk because the bus was closed,
    # not because it was garbage-collected.
    failure = run_failing(
        trace=TraceConfig(sink="jsonl", path=str(tmp_path / "trace.jsonl")),
        metrics=MetricsConfig(history=False, path=str(tmp_path / "snapshots.jsonl")),
    )
    # The owned bus was closed: the trace is complete JSONL on disk.  The
    # DES runs fail their conservation check after ``run.end``.
    events = load_trace(tmp_path / "trace.jsonl")
    assert events[0]["type"] == "run.start"
    if backend != "fluid":
        assert events[-1]["type"] == "run.end"
    validate_trace(events)
    # The snapshot stream was published, not left as a .tmp sibling.
    snapshots = load_snapshots(tmp_path / "snapshots.jsonl")
    assert not (tmp_path / "snapshots.jsonl.tmp").exists()
    if backend != "fluid":  # the fluid run failed before its first sample
        assert snapshots
    del failure

    sink = _BorrowedSink()
    run_failing(trace=TraceBus(sink))
    assert not sink.closed
    assert sink.of_type("run.start")
