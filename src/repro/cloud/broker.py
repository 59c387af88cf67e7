"""Workload source — the broker generating end-user requests.

The paper's simulation "contains one broker generating requests
representing several users" (§V-A).  :class:`WorkloadSource` is that
broker: it walks the simulation horizon one workload window at a time,
asks the workload model for the window's arrival timestamps, and feeds
them to admission control.  Windowed generation keeps the future-event
list small even for the multi-million-request web scenario.

Arrival dispatch is *batched*: a window's timestamps are sampled as one
numpy block, horizon-clipped vectorized, and walked by a single rolling
cursor instead of one ``schedule()`` per request.  The cursor holds at
most one heap entry, and it skips even that while the next arrival is
strictly earlier than every pending event: it then submits the arrival
in place through :meth:`~repro.sim.engine.Engine.advance_inline`, which
moves the clock and counts the arrival as a fired event.  Each arrival
is still one engine event and fires at the same place in
``(time, priority, seq)`` order.  On the web day at scale 200 about
half of the arrivals never touch the heap.

Without an admission gate the source runs in *pull* mode and no
window is an engine event: the vectorized data plane calls
:meth:`WorkloadSource.pull` for every window that starts before the
time it advances to, so a batch span runs from one control epoch to
the next.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.events import PRIORITY_HIGH
from ..workloads.base import Workload
from .admission import AdmissionControl

__all__ = ["WorkloadSource"]


class _ArrivalCursor:
    """Rolling dispatcher over one window's sorted arrival batch.

    One reusable callable walks the batch.  Each firing submits the
    arrival at the current index, then keeps submitting the following
    ones for as long as the engine lets them fire in place (strictly
    before the next pending event, within the run's horizon).  The
    first arrival that is not due first goes back to the heap as the
    cursor's single entry.  No per-arrival closure is allocated.
    """

    __slots__ = ("_engine", "_admission", "_times", "_idx", "_pending")

    def __init__(self, engine: Engine, admission: AdmissionControl) -> None:
        self._engine = engine
        self._admission = admission
        self._times: List[float] = []
        self._idx = 0
        self._pending = None

    @property
    def remaining(self) -> int:
        """Arrivals of the current batch not yet dispatched."""
        return len(self._times) - self._idx

    def load(self, times) -> None:
        """Start dispatching a new batch of sorted timestamps.

        Accepts a numpy array (the broker's sampled window) or a list.
        A window's batch always drains before the next window is
        generated (arrivals live in ``[t0, t0 + window)`` and the next
        generation fires at ``t0 + window``); any leftovers — a
        misbehaving workload model — are merged rather than dropped.
        """
        if isinstance(times, np.ndarray):
            times = times.tolist()
        if self._idx < len(self._times):
            times = sorted(self._times[self._idx :] + times)
            if self._pending is not None:
                self._engine.discard(self._pending)
        self._times = times
        self._idx = 0
        self._pending = None
        if times:
            self._pending = self._engine.schedule_at(times[0], self)

    def __call__(self) -> None:
        engine = self._engine
        submit = self._admission.submit
        advance = engine.advance_inline
        times = self._times
        end = len(times)
        idx = self._idx
        submit(engine.now)
        idx += 1
        while idx < end and advance(times[idx]):
            submit(times[idx])
            idx += 1
        self._idx = idx
        self._pending = engine.schedule_at(times[idx], self) if idx < end else None


class WorkloadSource:
    """Generates a workload's arrivals one window at a time.

    Parameters
    ----------
    engine:
        Simulation engine.
    workload:
        Arrival-process model.
    rng:
        Dedicated random stream for arrival sampling.
    admission:
        The deployment's front door.  With it, the source runs in
        *cursor* mode: every window is an engine event, and a rolling
        cursor submits each arrival to admission at its timestamp.
        Without it (the vectorized backend), the source runs in *pull*
        mode: nothing is scheduled, and the consumer calls :meth:`pull`
        while :attr:`next_window` is earlier than the time it advances
        to, taking one window's arrival batch per call.
    horizon:
        Generation stops at this simulation time (arrivals beyond it
        are discarded).

    Notes
    -----
    In cursor mode window generation runs at
    :data:`~repro.sim.events.PRIORITY_HIGH` so that a window's first
    arrival is in the event list before any same-instant completion
    fires.  Both modes generate the same windows in the same order
    with the same ``rng`` draws; :attr:`windows` counts them.
    """

    def __init__(
        self,
        engine: Engine,
        workload: Workload,
        rng: np.random.Generator,
        admission: Optional[AdmissionControl] = None,
        horizon: float = 0.0,
        tracer: Optional[object] = None,
    ) -> None:
        if horizon <= 0.0 or not math.isfinite(horizon):
            raise ConfigurationError(f"horizon must be finite and > 0, got {horizon!r}")
        self._engine = engine
        self._workload = workload
        self._rng = rng
        self._cursor = None if admission is None else _ArrivalCursor(engine, admission)
        self.horizon = float(horizon)
        self.generated = 0
        #: Windows generated so far.  A pulled window is no engine
        #: event, but still counts as one in ``RunMetrics.events``.
        self.windows = 0
        #: Start of the window :meth:`pull` generates next; ``inf``
        #: before :meth:`start`, in cursor mode and past the horizon.
        self.next_window = math.inf
        #: Optional :class:`repro.obs.bus.TraceBus`; one event per
        #: generated window (cold path — never per arrival).
        self._tracer = tracer

    def start(self) -> None:
        """Begin generation at the current clock (call before run).

        Cursor mode schedules the first window on the engine; pull
        mode only arms :attr:`next_window`.
        """
        now = self._engine.now
        if self._cursor is None:
            self.next_window = now
        else:
            self._engine.schedule_at(now, lambda: self._scheduled_window(now), PRIORITY_HIGH)

    def pull(self) -> np.ndarray:
        """Generate the window starting at :attr:`next_window` (pull mode).

        Returns the window's sorted, horizon-clipped arrival times.
        """
        t0 = self.next_window
        arrivals = self._sample_window(t0)
        t_next = t0 + self._workload.window
        self.next_window = t_next if t_next < self.horizon else math.inf
        return arrivals

    def _scheduled_window(self, t0: float) -> None:
        arrivals = self._sample_window(t0)
        if arrivals.size:
            self._cursor.load(arrivals)
        t_next = t0 + self._workload.window
        if t_next < self.horizon:
            self._engine.schedule_at(
                t_next, lambda: self._scheduled_window(t_next), PRIORITY_HIGH
            )

    def _sample_window(self, t0: float) -> np.ndarray:
        arrivals = self._workload.sample_window(self._rng, t0)
        horizon = self.horizon
        if arrivals.size and arrivals[-1] >= horizon:
            arrivals = arrivals[arrivals < horizon]
        self.windows += 1
        self.generated += int(arrivals.size)
        if self._tracer is not None:
            self._tracer.emit("window.generated", t0, t0=t0, arrivals=int(arrivals.size))
        return arrivals
