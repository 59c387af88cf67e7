"""Tests of batched arrival dispatch in the broker (WorkloadSource)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.broker import WorkloadSource, _ArrivalCursor
from repro.errors import ConfigurationError, SchedulingInPastError
from repro.sim import Engine
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL


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
