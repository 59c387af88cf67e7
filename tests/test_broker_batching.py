"""Tests of batched arrival dispatch in the broker (WorkloadSource)."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.broker import WorkloadSource, _ArrivalCursor
from repro.cloud.datacenter import Datacenter
from repro.cloud.monitor import Monitor
from repro.cloud.vecfleet import VectorFleet
from repro.core import AdaptivePolicy
from repro.errors import ConfigurationError, SchedulingInPastError
from repro.experiments import run_policy, web_scenario
from repro.metrics.collector import MetricsCollector
from repro.obs.metrics import MetricsConfig
from repro.sim import Engine
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL
from repro.workloads import WebWorkload
from repro.workloads.base import ServiceTimeSampler


class RecordingAdmission:
    """Stands in for AdmissionControl: records every submit time."""

    def __init__(self):
        self.times = []

    def submit(self, arrival_time):
        self.times.append(arrival_time)
        return True


class GridWorkload:
    """Deterministic workload: ``per_window`` evenly spaced arrivals."""

    window = 60.0

    def __init__(self, per_window=100):
        self.per_window = per_window

    def sample_window(self, rng, t0):
        return t0 + np.linspace(0.0, self.window, self.per_window, endpoint=False)


def make_source(per_window=100, horizon=180.0):
    eng = Engine()
    admission = RecordingAdmission()
    source = WorkloadSource(eng, GridWorkload(per_window), None, admission, horizon)
    return eng, admission, source


def test_every_arrival_dispatched_in_order_across_windows():
    eng, admission, source = make_source(per_window=50, horizon=180.0)
    source.start()
    eng.run()
    assert source.generated == 3 * 50
    assert len(admission.times) == 3 * 50
    assert admission.times == sorted(admission.times)
    assert admission.times[0] == 0.0
    assert admission.times[-1] < 180.0


def test_heap_stays_small_despite_large_batches():
    eng, admission, source = make_source(per_window=5000, horizon=120.0)
    source.start()
    max_pending = 0
    while eng.step():
        max_pending = max(max_pending, eng.pending)
    # One cursor entry plus one window-generation event: the 5000-arrival
    # batch never lands in the heap.
    assert len(admission.times) == 2 * 5000
    assert max_pending <= 2


def test_arrivals_beyond_horizon_are_clipped():
    eng, admission, source = make_source(per_window=60, horizon=90.0)
    source.start()
    eng.run()
    # Window [60, 120) is generated but clipped at the 90-s horizon.
    assert all(t < 90.0 for t in admission.times)
    assert source.generated == 60 + 30
    assert len(admission.times) == 90


def test_cursor_index_resets_between_windows():
    # Regression: after fully draining a batch the cursor must not treat
    # its last (already-dispatched) timestamp as a leftover — merging it
    # into the next window would schedule an event in the past.
    eng = Engine()
    admission = RecordingAdmission()
    cursor = _ArrivalCursor(eng, admission)
    cursor.load([1.0, 2.0])

    def reload():
        assert admission.times == [1.0, 2.0]
        assert cursor.remaining == 0
        cursor.load([6.0, 7.0])  # must not re-dispatch t=2.0

    eng.schedule_at(5.0, reload)
    eng.run(until=10.0)
    assert admission.times == [1.0, 2.0, 6.0, 7.0]


def test_cursor_merges_genuine_leftovers():
    eng = Engine()
    admission = RecordingAdmission()
    cursor = _ArrivalCursor(eng, admission)
    cursor.load([5.0, 6.0, 7.0])

    def early_reload():
        assert cursor.remaining == 2  # only t=5.0 dispatched so far
        cursor.load([8.0])

    eng.schedule_at(5.5, early_reload)
    eng.run(until=10.0)
    assert admission.times == [5.0, 6.0, 7.0, 8.0]


def test_invalid_horizon_rejected():
    eng = Engine()
    with pytest.raises(ConfigurationError):
        WorkloadSource(eng, GridWorkload(), None, RecordingAdmission(), 0.0)
    with pytest.raises(ConfigurationError):
        WorkloadSource(eng, GridWorkload(), None, RecordingAdmission(), float("inf"))


# ---------------------------------------------------------------------------
# inline dispatch: arrivals due before every pending event skip the heap
# ---------------------------------------------------------------------------


class LoggingAdmission:
    """Logs ``("arrival", now)``; optionally schedules a follow-up event."""

    def __init__(self, eng, log, follow_up=None):
        self.eng = eng
        self.log = log
        self.follow_up = follow_up

    def submit(self, arrival_time):
        assert arrival_time == self.eng.now
        self.log.append(("arrival", self.eng.now))
        if self.follow_up is not None:
            self.eng.schedule(
                self.follow_up, lambda: self.log.append(("follow-up", self.eng.now))
            )
        return True


def _logged_event(eng, log, when, label, priority=PRIORITY_NORMAL):
    eng.schedule_at(when, lambda: log.append((label, eng.now)), priority)


def _drive(times, others, by_step, horizon=None, follow_up=None):
    """Run a cursor over ``times`` among ``others``; return log and counts."""
    eng = Engine()
    log = []
    cursor = _ArrivalCursor(eng, LoggingAdmission(eng, log, follow_up))
    for when, priority in others:
        _logged_event(eng, log, when, f"event@{priority}", priority)
    cursor.load(list(times))
    if by_step:
        while eng.step():
            pass
    else:
        eng.run(until=horizon)
    return log, eng.events_fired, eng


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(st.integers(0, 12), min_size=1, max_size=30).map(sorted),
    others=st.lists(
        st.tuples(
            st.integers(0, 12),
            st.sampled_from([PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW]),
        ),
        max_size=10,
    ),
    follow_up=st.sampled_from([None, 0.0, 0.5, 2.0]),
)
def test_run_and_step_fire_the_same_sequence(times, others, follow_up):
    """step() never dispatches inline, run() does; both orders are equal.

    A coarse integer grid forces ties between arrivals and pending
    events of every priority.
    """
    times = [float(t) for t in times]
    others = [(float(t), p) for t, p in others]
    stepped, stepped_fired, _ = _drive(times, others, True, follow_up=follow_up)
    ran, ran_fired, _ = _drive(times, others, False, follow_up=follow_up)
    assert ran == stepped
    assert ran_fired == stepped_fired == len(stepped)


def test_run_dispatches_quiet_arrivals_without_the_heap():
    log, fired, eng = _drive([1.0, 2.0, 3.0, 4.0], [], by_step=False)
    assert [t for _, t in log] == [1.0, 2.0, 3.0, 4.0]
    # Only the first arrival was popped; the other three fired in place
    # and still count as events.
    assert fired == 4
    assert eng._inline_fired == 3


def test_step_fires_exactly_one_arrival():
    eng = Engine()
    log = []
    cursor = _ArrivalCursor(eng, LoggingAdmission(eng, log))
    cursor.load([1.0, 2.0, 3.0])
    assert eng.step()
    assert log == [("arrival", 1.0)]
    assert eng.events_fired == 1
    assert cursor.remaining == 2


def test_arrival_tied_with_high_priority_event_fires_after_it():
    log, _, _ = _drive([1.0, 5.0], [(5.0, PRIORITY_HIGH)], by_step=False)
    assert log == [
        ("arrival", 1.0),
        (f"event@{PRIORITY_HIGH}", 5.0),
        ("arrival", 5.0),
    ]


def test_arrival_tied_with_low_priority_event_fires_before_it():
    log, _, _ = _drive([1.0, 5.0], [(5.0, PRIORITY_LOW)], by_step=False)
    assert log == [
        ("arrival", 1.0),
        ("arrival", 5.0),
        (f"event@{PRIORITY_LOW}", 5.0),
    ]


def test_cursor_never_moves_the_clock_past_the_horizon():
    times = [1.0, 2.0, 3.0, 10.0, 11.0]
    eng = Engine()
    log = []
    cursor = _ArrivalCursor(eng, LoggingAdmission(eng, log))
    cursor.load(times)
    eng.run(until=5.0)
    assert log == [("arrival", 1.0), ("arrival", 2.0), ("arrival", 3.0)]
    assert eng.now == 5.0
    assert cursor.remaining == 2
    # The first arrival past the horizon stays pending in the heap.
    assert eng.peek() == 10.0


def test_event_scheduled_by_a_submission_fires_before_the_next_arrival():
    log, _, _ = _drive([1.0, 2.0, 3.0], [], by_step=False, follow_up=0.5)
    assert log == [
        ("arrival", 1.0),
        ("follow-up", 1.5),
        ("arrival", 2.0),
        ("follow-up", 2.5),
        ("arrival", 3.0),
        ("follow-up", 3.5),
    ]


def test_out_of_order_arrival_still_raises_instead_of_rewinding_the_clock():
    eng = Engine()
    cursor = _ArrivalCursor(eng, LoggingAdmission(eng, []))
    cursor.load([1.0, 3.0, 2.0])
    with pytest.raises(SchedulingInPastError):
        eng.run()
    assert eng.now == 3.0


# ---------------------------------------------------------------------------
# pull mode: the vectorized data plane pulls windows, none is an event
# ---------------------------------------------------------------------------


def _pull_fleet(horizon, per_window=10):
    engine = Engine()
    metrics = MetricsCollector()
    source = WorkloadSource(engine, GridWorkload(per_window), None, horizon=horizon)
    fleet = VectorFleet(
        engine=engine,
        datacenter=Datacenter(num_hosts=4),
        sampler=ServiceTimeSampler(np.random.default_rng(0), base=1.0, jitter=0.0),
        monitor=Monitor(engine=engine, metrics=metrics, default_service_time=1.0),
        metrics=metrics,
        capacity=2,
        source=source,
    )
    fleet.scale_to(2)
    return engine, source, fleet, metrics


def test_pull_mode_start_schedules_nothing():
    eng = Engine()
    source = WorkloadSource(eng, GridWorkload(), None, horizon=180.0)
    assert source.next_window == math.inf
    source.start()
    assert eng.pending == 0 and eng.peek() is None
    assert source.next_window == 0.0
    assert source.pull().tolist() == GridWorkload().sample_window(None, 0.0).tolist()
    assert (source.windows, source.next_window) == (1, 60.0)


@pytest.mark.parametrize(
    "times",
    [
        # Repeats, window starts, a time between them, one past the horizon.
        (0.0, 0.0, 60.0, 61.5, 61.5, 119.0, 120.0, 200.0, 1e9),
        (120.0, 130.0, 250.0),
        (),
    ],
    ids=["irregular", "to-the-horizon", "finish-only"],
)
def test_advance_pulls_every_window_once_in_order(monkeypatch, times):
    # A 250-s horizon is no multiple of the 60-s window: the last
    # window [240, 300) is clipped to [240, 250).
    engine, source, fleet, metrics = _pull_fleet(horizon=250.0)
    loaded = []
    load = VectorFleet.load

    def spy(self, batch):
        loaded.append(np.asarray(batch).tolist())
        load(self, batch)

    monkeypatch.setattr(VectorFleet, "load", spy)
    source.start()
    for t in times:
        fleet.advance(t)
        # Every window starting before t has been pulled, no other.
        pulled = min(math.ceil(t / 60.0), 5)
        assert source.windows == len(loaded) == pulled
        assert source.next_window == (60.0 * pulled if pulled < 5 else math.inf)
        assert fleet.arrivals_processed == sum(len(b) for b in loaded) - fleet.buffered
    fleet.finish(250.0)
    assert [b[0] for b in loaded] == [0.0, 60.0, 120.0, 180.0, 240.0]
    assert loaded[-1] == [240.0, 246.0]
    flat = [t for b in loaded for t in b]
    assert flat == sorted(flat) and len(flat) == len(set(flat)) == source.generated == 42
    assert fleet.buffered == 0
    assert fleet.arrivals_processed == metrics.total_requests == 42
    assert engine.events_fired == 0


def _scheduled_callbacks(monkeypatch, run):
    """Qualified names of every callback scheduled on an engine during ``run``."""
    names = []
    schedule, schedule_at = Engine.schedule, Engine.schedule_at

    def spy(method):
        def wrapper(self, when, callback, *args):
            names.append(getattr(callback, "__qualname__", type(callback).__name__))
            return method(self, when, callback, *args)

        return wrapper

    monkeypatch.setattr(Engine, "schedule", spy(schedule))
    monkeypatch.setattr(Engine, "schedule_at", spy(schedule_at))
    result = run()
    return names, result


@pytest.mark.parametrize("backend", ["des", "des-vec"])
def test_no_window_event_reaches_the_engine_under_des_vec(monkeypatch, backend):
    sc = web_scenario(scale=2000.0, horizon=3600.0)
    names, result = _scheduled_callbacks(
        monkeypatch, lambda: run_policy(sc, AdaptivePolicy(), seed=0, backend=backend)
    )
    windows = [n for n in names if n.startswith("WorkloadSource.")]
    if backend == "des":
        assert len(windows) == 60  # the scalar cursor mode is unchanged
    else:
        assert windows == []
        assert result.profile["counters"]["events"] < 60


class _WindowTicks(AdaptivePolicy):
    """Adaptive, plus a no-op engine event at every window start.

    Each window start is then an engine event, as it was when windows
    were generated on the engine, so every batch span is flushed by
    the epoch loop instead of at a mark inside a longer flush.
    """

    def attach(self, ctx):
        super().attach(ctx)
        t = 0.0
        while t < ctx.horizon:
            ctx.engine.schedule_at(t, lambda: None, PRIORITY_HIGH)
            t += ctx.workload.window


def test_window_marks_post_exactly_what_window_events_did():
    # Jittered web with boot delays and telemetry; control epochs every
    # 900 s fall on window starts.
    sc = web_scenario(scale=2000.0, horizon=6 * 3600.0, boot_delay=60.0, track_fleet_series=True)
    assert sc.update_interval % sc.workload.window == 0.0
    plain = run_policy(sc, AdaptivePolicy(), seed=0, backend="des-vec", metrics=MetricsConfig())
    ticked = run_policy(sc, _WindowTicks(), seed=0, backend="des-vec", metrics=MetricsConfig())
    windows = 6 * 60
    assert ticked.profile["counters"]["events"] == plain.profile["counters"]["events"] + windows
    assert ticked.profile["counters"]["spans"] == plain.profile["counters"]["spans"]
    # The no-op events are counted; pulled windows count once either way.
    assert ticked.events == plain.events + windows
    assert dataclasses.replace(ticked, events=plain.events, wall_seconds=0.0) == dataclasses.replace(
        plain, wall_seconds=0.0
    )


def test_des_vec_counts_windows_as_events_like_des():
    # Jitterless web: des-vec reproduces des exactly, event count
    # included, with control epochs on window starts.
    sc = web_scenario(
        scale=2000.0,
        horizon=6 * 3600.0,
        workload=WebWorkload(service_jitter=0.0).scaled(2000.0),
    )
    des = run_policy(sc, AdaptivePolicy(), seed=0, backend="des")
    vec = run_policy(sc, AdaptivePolicy(), seed=0, backend="des-vec")
    assert vec.events == des.events
    assert vec.control_series == des.control_series
    assert vec.profile["counters"]["events"] + 6 * 60 + vec.total_requests + vec.completed == vec.events
