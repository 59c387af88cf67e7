"""The vectorized SoA data plane against its scalar reference.

Three layers of evidence that ``repro.sim.batch`` + ``VectorFleet``
are a *performance* change and not a *semantics* change:

1. Kernel unit tests — every array kernel (Lindley unroll, grouped
   rows, round-robin reshape, SoA dispatch-time departures with the
   verify-and-cut admission check, pool split) checked against a
   brute-force scalar loop.
2. Backend cross-checks — ``des-vec`` vs ``des`` on jitterless web and
   scientific scenarios must agree **bit-for-bit** on the control
   trajectory and exactly on every count; the fluid backend ties in as
   the third independent implementation of the same control plane.
3. A hypothesis property — the ``max_block`` batching knob changes
   wall-clock only: any block size yields the identical
   :class:`~repro.backends.base.RunMetrics`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.datacenter import Datacenter
from repro.cloud.monitor import Monitor
from repro.cloud.vecfleet import VectorFleet
from repro.core import AdaptivePolicy, QoSTarget, StaticPolicy
from repro.economy import PricingModel, SpotPolicy
from repro.errors import ConfigurationError
from repro.experiments import run_policy, scientific_scenario, web_scenario
from repro.backends import DESVecBackend
from repro.metrics.collector import MetricsCollector
from repro.workloads.base import ServiceTimeSampler
from repro.sim import (
    Engine,
    SoAQueues,
    fifo_departures,
    fifo_departures_grouped,
    round_robin_departures,
)
from repro.workloads import ScientificWorkload, WebWorkload

# ---------------------------------------------------------------------------
# kernel unit tests
# ---------------------------------------------------------------------------


def _lindley_loop(arrivals, services, ready=-math.inf):
    dep = []
    prev = ready
    for a, s in zip(arrivals, services):
        start = max(a, prev)
        prev = start + s
        dep.append(prev)
    return np.array(dep)


def test_fifo_departures_matches_scalar_loop():
    rng = np.random.default_rng(7)
    arrivals = np.sort(rng.uniform(0.0, 100.0, size=200))
    services = rng.exponential(2.0, size=200)
    # The cumsum unroll reassociates the float additions, so the match
    # is to within a few ulps, not bitwise (the SoA data plane used by
    # VectorFleet performs the scalar-ordered arithmetic and IS exact).
    np.testing.assert_allclose(
        fifo_departures(arrivals, services),
        _lindley_loop(arrivals, services),
        rtol=1e-12,
    )


def test_fifo_departures_respects_ready_time():
    arrivals = np.array([1.0, 2.0, 3.0])
    services = np.array([1.0, 1.0, 1.0])
    # Server busy until t=10: everything queues behind it.
    np.testing.assert_array_equal(
        fifo_departures(arrivals, services, ready=10.0),
        np.array([11.0, 12.0, 13.0]),
    )


def test_fifo_departures_empty_and_mismatch():
    assert fifo_departures(np.empty(0), np.empty(0)).size == 0
    with pytest.raises(ConfigurationError):
        fifo_departures(np.zeros(3), np.zeros(2))


def test_fifo_departures_grouped_rows_are_independent_servers():
    rng = np.random.default_rng(11)
    arrivals = np.sort(rng.uniform(0.0, 50.0, size=(4, 40)), axis=1)
    services = rng.exponential(1.5, size=(4, 40))
    ready = rng.uniform(0.0, 10.0, size=4)
    got = fifo_departures_grouped(arrivals, services, ready=ready)
    for row in range(4):
        np.testing.assert_allclose(
            got[row],
            _lindley_loop(arrivals[row], services[row], ready=ready[row]),
            rtol=1e-12,
        )


def test_round_robin_departures_matches_scalar_dispatch():
    rng = np.random.default_rng(3)
    n, m = 237, 5  # deliberately not a multiple of m: exercises padding
    arrivals = np.sort(rng.uniform(0.0, 300.0, size=n))
    services = rng.exponential(4.0, size=n)
    got = round_robin_departures(arrivals, services, m)
    free = [-math.inf] * m
    want = np.empty(n)
    for i in range(n):
        q = i % m
        start = max(arrivals[i], free[q])
        free[q] = start + services[i]
        want[i] = free[q]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def _scalar_round_robin(arrivals, services, width, capacity, recent):
    """Brute-force reference for one :meth:`SoAQueues.assign` block.

    Walks the requests in order; request ``i`` goes to lane ``i mod
    width``.  A lane is full when ``capacity`` of its departures lie
    after the arrival — the walk stops there.  Returns the departures
    of the admitted prefix.
    """
    deps = [list(row) for row in recent]
    out = []
    for i, (a, s) in enumerate(zip(arrivals, services)):
        lane = deps[i % width]
        if sum(d > a for d in lane) >= capacity:
            break
        lane.append(max(a, lane[-1]) + s)
        out.append(lane[-1])
    return np.array(out)


def _soa_with(capacity, width, busy_until=()):
    """Fresh kernel with ``width`` stations; station ``q`` optionally
    pre-loaded with one request departing at ``busy_until[q]``."""
    soa = SoAQueues(capacity=capacity, initial_slots=2)
    stations = np.array([soa.alloc() for _ in range(width)], dtype=np.intp)
    for q, d in enumerate(busy_until):
        assert soa.assign(stations[q : q + 1], np.array([0.0]), np.array([d]), 1) == 1
    return soa, stations


def test_soa_assign_and_drain_single_station_is_lindley():
    rng = np.random.default_rng(5)
    arrivals = np.sort(rng.uniform(0.0, 50.0, size=40))
    services = rng.exponential(2.0, size=40)
    soa, station = _soa_with(capacity=40, width=1)
    assert soa.assign(np.repeat(station, 40), arrivals, services, 1) == 40
    assert soa.pool()[0].size == 40
    (done,) = soa.drain(np.inf)
    # Bit-equal, not merely close: the kernel performs the scalar
    # instance's max-then-add per request, in order.
    np.testing.assert_array_equal(done[1], _lindley_loop(arrivals, services))
    np.testing.assert_array_equal(done[2], arrivals)
    np.testing.assert_array_equal(done[3], services)
    assert soa.pool()[0].size == 0


def test_soa_drain_strict_excludes_boundary_completion():
    soa, station = _soa_with(capacity=2, width=1, busy_until=(5.0,))
    assert soa.drain(5.0, strict=True) == []
    assert soa.pool()[0].size == 1
    (done,) = soa.drain(5.0, strict=False)
    np.testing.assert_array_equal(done[1], np.array([5.0]))
    assert soa.pool()[0].size == 0


def test_soa_assign_cuts_block_at_first_full_arrival():
    # k = 1, two stations; station 1 is busy until t=10.  Round 1:
    # requests at 1 (station 0 -> departs 3) and 2 (station 1, full:
    # its one slot departs at 10 > 2) — the cut lands on request 1.
    soa, stations = _soa_with(capacity=1, width=2, busy_until=(0.0, 10.0))
    soa.drain(0.0)
    offered = np.tile(stations, 2)
    took = soa.assign(offered, np.array([1.0, 2.0, 3.0, 4.0]), np.full(4, 2.0), 2)
    assert took == 1
    np.testing.assert_array_equal(soa.recent[stations, 0], np.array([3.0, 10.0]))
    # A departure at exactly the arrival instant frees the slot: a
    # request arriving at 3 fits on station 0, one at 2.5 does not.
    assert soa.assign(stations[:1], np.array([2.5]), np.array([1.0]), 1) == 0
    assert soa.assign(stations[:1], np.array([3.0]), np.array([1.0]), 1) == 1
    assert soa.evict(int(stations[1])) == 1
    assert sorted(soa.pool()[1].tolist()) == [3.0, 4.0]


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    width=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_soa_assign_matches_scalar_round_robin(capacity, width, n, seed):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 20.0, size=n))
    services = rng.exponential(rng.uniform(0.2, 8.0), size=n)
    busy = rng.uniform(0.0, 10.0, size=width)
    soa, stations = _soa_with(capacity, width, busy_until=busy)
    recent = [[-math.inf] * (capacity - 1) + [d] for d in busy]
    want = _scalar_round_robin(arrivals, services, width, capacity, recent)
    took = soa.assign(np.resize(stations, n), arrivals, services, width)
    assert took == want.size
    _, dep = soa.drain(np.inf)[0][:2]
    np.testing.assert_array_equal(np.sort(dep), np.sort(np.concatenate((busy, want))))


def test_engine_peek_skips_cancelled_and_reports_next_time():
    eng = Engine()
    first = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.peek() == 1.0
    eng.cancel(first)
    assert eng.peek() == 2.0
    eng.run()
    assert eng.peek() is None


def _vec_fleet(capacity, service=1.0):
    engine = Engine()
    metrics = MetricsCollector(track_fleet_series=True)
    fleet = VectorFleet(
        engine=engine,
        datacenter=Datacenter(num_hosts=4),
        sampler=ServiceTimeSampler(np.random.default_rng(0), base=service, jitter=0.0),
        monitor=Monitor(engine=engine, metrics=metrics, default_service_time=service),
        metrics=metrics,
        capacity=capacity,
    )
    return fleet, metrics


def test_vecfleet_departure_at_arrival_instant_frees_the_slot():
    fleet, metrics = _vec_fleet(capacity=1, service=2.0)
    fleet.scale_to(1)
    # 0.0 departs at 2.0; 1.0 finds the station full; 2.0 arrives as
    # 0.0 leaves and is admitted (the documented tie order).
    fleet.load(np.array([0.0, 1.0, 2.0]))
    fleet.advance(3.0)
    assert (metrics.accepted, metrics.rejected) == (2, 1)
    assert fleet.in_flight == 1 and fleet.occupancy(0) == 1
    fleet.finish(4.0)
    assert metrics.completed == 2 and fleet.in_flight == 0


def test_vecfleet_drained_station_with_queued_work_destroyed_once():
    """A draining station that finishes several requests within one
    span (in-service + queued) must be destroyed exactly once, at its
    *last* departure.  Regression: the per-wave emptied test compared
    against the post-drain state, scheduling the destroy once per wave
    and crashing the flush on the duplicate removal.
    """
    fleet, metrics = _vec_fleet(capacity=3)
    fleet.scale_to(1)
    fleet.load(np.array([0.0, 0.1]))
    fleet.advance(0.5)  # both admitted: one in service, one queued
    assert fleet.in_flight == 2
    fleet.scale_to(0)  # occupied station -> graceful drain
    assert fleet.live_count == 1
    fleet.finish(10.0)  # both completions land in the same span
    assert fleet.completions_processed == 2
    assert fleet.live_count == 0
    # Destroyed at the second departure (t=2.0), not the first.
    assert metrics.fleet_series[-1] == (2.0, 0)


# ---------------------------------------------------------------------------
# backend cross-checks
# ---------------------------------------------------------------------------

SCALE = 5000.0
HORIZON = 6 * 3600.0

EXACT_FIELDS = (
    "total_requests",
    "accepted",
    "completed",
    "rejected",
    "qos_violations",
    "min_instances",
    "max_instances",
    "vm_hours",
    "core_hours",
    "utilization",
    "mean_response_time",
)


@pytest.fixture(scope="module")
def web():
    base = web_scenario(scale=SCALE, horizon=HORIZON, track_fleet_series=True)
    scenario = base.with_updates(
        workload=WebWorkload(service_jitter=0.0).scaled(SCALE)
    )
    return {
        backend: run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend)
        for backend in ("des", "des-vec", "fluid")
    }


@pytest.fixture(scope="module")
def scientific():
    scale = 50.0
    base = scientific_scenario(scale=scale, horizon=12 * 3600.0, track_fleet_series=True)
    scenario = base.with_updates(
        workload=ScientificWorkload(service_jitter=0.0).scaled(scale)
    )
    return {
        backend: run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend)
        for backend in ("des", "des-vec")
    }


def test_vec_backend_reports_its_tag(web):
    assert web["des-vec"].backend == "des-vec"


def test_web_control_series_bit_identical_across_all_backends(web):
    assert web["des"].control_series, "adaptive run produced no actuations"
    assert web["des-vec"].control_series == web["des"].control_series
    assert web["fluid"].control_series == web["des"].control_series


def test_web_fleet_series_identical(web):
    assert web["des"].fleet_series
    assert web["des-vec"].fleet_series == web["des"].fleet_series


def test_web_aggregates_exactly_equal(web):
    for name in EXACT_FIELDS:
        assert getattr(web["des-vec"], name) == getattr(web["des"], name), name
    assert web["des-vec"].response_time_std == web["des"].response_time_std


def test_scientific_control_series_bit_identical(scientific):
    assert scientific["des"].control_series
    assert scientific["des-vec"].control_series == scientific["des"].control_series
    assert scientific["des-vec"].fleet_series == scientific["des"].fleet_series
    for name in EXACT_FIELDS:
        assert getattr(scientific["des-vec"], name) == getattr(
            scientific["des"], name
        ), name


def test_jittered_web_still_matches_scalar():
    """A jittered run that happens to match the scalar engine exactly.

    The backends draw service times differently: the scalar instance
    draws one at each service *start*, and only for admitted requests,
    while des-vec draws one per arrival, a whole window at a time.
    Under jitter the per-request service times therefore differ and
    des-vec matches des only statistically.  This seed stays equal
    because its draws never move a control decision; other seeds
    diverge in their control series and counts.  Exactness is asserted
    on jitterless runs (``test_jitterless_des_vec_equals_des``).
    """
    scenario = web_scenario(scale=SCALE, horizon=HORIZON)
    des = run_policy(scenario, AdaptivePolicy(), seed=1, backend="des")
    vec = run_policy(scenario, AdaptivePolicy(), seed=1, backend="des-vec")
    assert vec.control_series == des.control_series
    assert vec.accepted == des.accepted
    assert vec.rejected == des.rejected
    assert vec.completed == des.completed
    assert vec.vm_hours == des.vm_hours
    assert vec.mean_response_time == pytest.approx(des.mean_response_time, rel=1e-9)


_XCHECK_PRICING = PricingModel(
    revenue_per_request=0.002,
    cost_per_core_hour=0.1,
    sla_penalty=0.05,
    spot_mtbf=1800.0,
)


def _jitterless_web(k=None, **overrides):
    """Jitterless web day at scale 5000 (~14 k requests); ``k`` via Ts."""
    base = web_scenario(
        scale=SCALE, horizon=24 * 3600.0, track_fleet_series=True, **overrides
    )
    changes = {"workload": WebWorkload(service_jitter=0.0).scaled(SCALE)}
    if k is not None:
        # Eq. 1: k = floor(Ts / Tr), Tr = 0.1 s scaled.
        changes["qos"] = QoSTarget(
            max_response_time=(k + 0.5) * 0.1 * SCALE,
            max_rejection_rate=0.0,
            min_utilization=0.80,
        )
    return base.with_updates(**changes)


#: Fields that are not a deterministic function of the run, or that
#: name the backend.
_NON_OUTPUT_FIELDS = ("wall_seconds", "profile", "backend")


@pytest.mark.parametrize(
    "scenario, policy, k, saturated",
    [
        pytest.param(lambda: _jitterless_web(k=1), AdaptivePolicy, 1, False, id="k1"),
        pytest.param(lambda: _jitterless_web(k=3), AdaptivePolicy, 3, False, id="k3"),
        pytest.param(lambda: _jitterless_web(k=5), AdaptivePolicy, 5, False, id="k5"),
        pytest.param(
            lambda: _jitterless_web(boot_delay=120.0),
            AdaptivePolicy,
            2,
            False,
            id="boot120",
        ),
        pytest.param(
            lambda: _jitterless_web(),
            lambda: StaticPolicy(3),
            2,
            True,
            id="static3-saturated",
        ),
        pytest.param(
            lambda: _jitterless_web(pricing=_XCHECK_PRICING, boot_delay=60.0),
            lambda: SpotPolicy(0.3),
            2,
            False,
            id="spot30-boot60",
        ),
    ],
)
def test_jitterless_des_vec_equals_des(scenario, policy, k, saturated):
    """des-vec reproduces des on every output field of a jitterless run."""
    scenario = scenario()
    assert scenario.capacity == k
    des = run_policy(scenario, policy(), seed=0, backend="des")
    vec = run_policy(scenario, policy(), seed=0, backend="des-vec")
    assert des.total_requests <= 20_000
    if saturated:
        assert des.rejection_rate > 0.5
    if scenario.pricing is not None:
        assert des.revocations > 0 and des.lost_requests > 0
    for field in dataclasses.fields(des):
        if field.name not in _NON_OUTPUT_FIELDS:
            assert getattr(vec, field.name) == getattr(des, field.name), field.name


# ---------------------------------------------------------------------------
# batching invariance property
# ---------------------------------------------------------------------------

_PROP_SCENARIO = web_scenario(scale=SCALE, horizon=2 * 3600.0)


def _normalized(metrics):
    # wall_seconds is the only field that is not a deterministic
    # function of (scenario, policy, seed, backend); profile is already
    # excluded from equality (compare=False).
    return dataclasses.replace(metrics, wall_seconds=0.0)


_REFERENCE = None


def _reference():
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = _normalized(
            run_policy(_PROP_SCENARIO, AdaptivePolicy(), seed=0, backend="des-vec")
        )
    return _REFERENCE


@settings(max_examples=12, deadline=None)
@given(max_block=st.integers(min_value=1, max_value=4096))
def test_max_block_choice_never_changes_results(max_block):
    got = run_policy(
        _PROP_SCENARIO,
        AdaptivePolicy(),
        seed=0,
        backend=DESVecBackend(max_block=max_block),
    )
    assert _normalized(got) == _reference()


# ---------------------------------------------------------------------------
# bounded memory without engine events
# ---------------------------------------------------------------------------


def _static_day_peaks(monkeypatch, max_block):
    """Run a static des-vec day; return (result, drain calls, peak, bound).

    ``peak`` is the most buffered plus pooled requests seen entering a
    pool drain, ``bound`` the least of ``max_block`` + the largest
    window + k × live stations over the same drains.
    """
    fleets, windows, seen = [], [0], []
    load, drain = VectorFleet.load, SoAQueues.drain

    def spy_load(self, times):
        if not fleets or fleets[-1] is not self:
            fleets.append(self)
        windows[0] = max(windows[0], len(times))
        load(self, times)

    def spy_drain(self, t, strict=False):
        fleet = fleets[-1]
        held = int(self.pool()[0].size) + fleet.buffered
        seen.append((held, max_block + windows[0] + self.capacity * fleet.live_count))
        return drain(self, t, strict)

    monkeypatch.setattr(VectorFleet, "load", spy_load)
    monkeypatch.setattr(SoAQueues, "drain", spy_drain)
    scenario = web_scenario(scale=2000.0, horizon=24 * 3600.0, track_fleet_series=True)
    result = run_policy(
        scenario, StaticPolicy(60), seed=0, backend=DESVecBackend(max_block=max_block)
    )
    monkeypatch.undo()
    assert len(fleets) == 1
    return (
        result,
        len(seen),
        max(held for held, _ in seen),
        min(bound for _, bound in seen),
    )


def test_static_day_keeps_buffer_and_pool_bounded(monkeypatch):
    """A static policy posts no engine event for a whole day, so only the
    early flush at a window start keeps the buffered arrivals and the
    pool within ``max_block`` + one window + k × stations."""
    small, drains, peak, bound = _static_day_peaks(monkeypatch, 2048)
    assert small.profile["counters"]["events"] == 0
    assert small.total_requests > 8 * 2048
    assert drains > 8
    assert peak <= bound
    # The default block holds the whole day at once, past that bound.
    default, default_drains, default_peak, _ = _static_day_peaks(monkeypatch, 65_536)
    assert default_drains == 1 and default_peak > bound
    assert _normalized(small) == _normalized(default)
