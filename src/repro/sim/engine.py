"""The discrete-event simulation engine.

:class:`Engine` owns the simulation clock and the future-event list (a
binary heap of plain list entries; see :mod:`repro.sim.events`).  Model
components — *entities* — schedule callbacks with
:meth:`Engine.schedule` / :meth:`Engine.schedule_at` and the engine
fires them in non-decreasing ``(time, priority, seq)`` order until the
horizon is reached or the event list drains.

The engine is deliberately minimal: no process coroutines, no channels.
Every higher-level abstraction (queues, servers, provisioners) is built
from plain callbacks in :mod:`repro.cloud` and :mod:`repro.core`.  This
keeps the inner loop short: profiling showed heap operations and
callback dispatch dominate, so the loop binds ``heappop`` to a local,
the heap compares C-level list entries, and :meth:`schedule` pushes
inline rather than delegating to :meth:`schedule_at` (the hpc-parallel
guide's rule: measure first, then shave only the measured hot path).

Heap hygiene
------------
Cancellation is lazy (an O(1) flag flip), which is the right trade for
the common case but lets crash/drain-heavy runs accumulate dead entries
in the future-event list.  :meth:`discard` therefore tracks the count
of live cancelled entries and *compacts* the heap in place — filtering
dead entries and re-heapifying — whenever they exceed half of a
non-trivially-sized heap.  Compaction is O(n) but amortized O(1) per
cancellation, and mutates the list in place so a running event loop
(which binds the heap to a local) never observes a stale binding.
"""

from __future__ import annotations

import math
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Callable, List, Optional

from ..errors import EngineStateError, SchedulingInPastError
from .events import CANCELLED, PRIORITY_NORMAL, EventHandle

__all__ = ["Engine"]


class Engine:
    """Sequential discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Scenario code
        usually starts at ``0.0``, meaning "Monday 12 a.m." for the web
        workload (see :mod:`repro.sim.calendar`).

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> eng.run(until=10.0)
    >>> fired
    [5.0]
    """

    #: Compaction is skipped below this heap size — filtering a small
    #: list costs more bookkeeping than the dead entries ever will.
    COMPACT_MIN_SIZE = 1024

    def __init__(self, start_time: float = 0.0, tracer: Optional[object] = None) -> None:
        self._now = float(start_time)
        self._heap: List[EventHandle] = []
        self._seq = 0
        self._running = False
        self._finished = False
        self._events_fired = 0
        #: Arrivals fired in place by :meth:`advance_inline`.
        self._inline_fired = 0
        #: Latest time :meth:`advance_inline` may move the clock to:
        #: the horizon of the running :meth:`run`, ``-inf`` otherwise.
        self._inline_until = -math.inf
        self._cancelled = 0
        #: Number of heap compactions performed (observability).
        self.compactions = 0
        #: Optional :class:`repro.obs.bus.TraceBus`.  Only the cold
        #: paths (compaction) emit — the inner event loop is untouched
        #: so tracing can never slow an untraced run.
        self.tracer = tracer
        #: Hooks invoked (with the engine) after a clean run completes.
        self.at_end: List[Callable[["Engine"], None]] = []

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded).

        Includes the arrivals fired in place through
        :meth:`advance_inline`: each is one event that skipped the
        heap.  Updated *before* each callback fires, so a callback
        observing the counter sees itself included — identically under
        :meth:`run` and :meth:`step`.
        """
        return self._events_fired + self._inline_fired

    @property
    def pending(self) -> int:
        """Number of entries still in the future-event list.

        Includes lazily-cancelled entries, so this is an upper bound on
        the live events.
        """
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Tracked count of cancelled-but-unpopped entries in the heap.

        Only cancellations routed through :meth:`discard` are counted;
        the static :meth:`cancel` cannot reach the engine's counter.
        """
        return self._cancelled

    @property
    def finished(self) -> bool:
        """Whether :meth:`run` has completed (including by exception)."""
        return self._finished

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the event handle, which may be passed to :meth:`cancel`
        or :meth:`discard`.
        """
        # Inlined schedule_at: this sits on the DES hot path (one call
        # per completion) and the extra frame is measurable.
        when = self._now + delay
        if self._finished:
            raise EngineStateError("cannot schedule events on a finished engine")
        if not when >= self._now:  # also catches NaN
            raise SchedulingInPastError(self._now, when)
        self._seq = seq = self._seq + 1
        entry: EventHandle = [when, priority, seq, callback, False]
        _heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when``.

        Raises
        ------
        SchedulingInPastError
            If ``when`` is earlier than the current clock (or NaN).
        EngineStateError
            If the engine already finished its run.
        """
        if self._finished:
            raise EngineStateError("cannot schedule events on a finished engine")
        if not when >= self._now:  # also catches NaN
            raise SchedulingInPastError(self._now, when)
        self._seq = seq = self._seq + 1
        entry: EventHandle = [float(when), priority, seq, callback, False]
        _heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(entry: EventHandle) -> None:
        """Lazily cancel a scheduled event (idempotent).

        The entry stays in the heap but is skipped when popped.  Prefer
        :meth:`discard` when an engine reference is at hand — it also
        feeds the compaction heuristic.
        """
        entry[CANCELLED] = True

    def discard(self, entry: EventHandle) -> None:
        """Cancel ``entry`` and account for it (idempotent).

        Identical semantics to :meth:`cancel`, plus the engine tracks
        how many cancelled entries are still sitting in the heap and
        compacts the future-event list when they exceed half of a
        heap larger than :attr:`COMPACT_MIN_SIZE`.
        """
        if entry[CANCELLED]:
            return
        entry[CANCELLED] = True
        self._cancelled += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_SIZE and 2 * self._cancelled >= len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        In-place (slice assignment) so locals bound to the heap by a
        running loop stay valid.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [e for e in heap if not e[CANCELLED]]
        _heapify(heap)
        self._cancelled = 0
        self.compactions += 1
        if self.tracer is not None:
            self.tracer.emit(
                "engine.compacted",
                self._now,
                removed=before - len(heap),
                remaining=len(heap),
            )

    def advance_inline(self, when: float) -> bool:
        """Fire an event at ``when`` in place if it would pop next anyway.

        Called from inside a running callback that is about to
        schedule itself again at ``when`` (the broker's arrival
        cursor).  When ``when`` is strictly earlier than the head of
        the future-event list and no later than the horizon of the
        current :meth:`run`, that entry would be the very next one
        popped, so pushing and popping it would change nothing: the
        clock moves to ``when``, the event is counted, and ``True``
        tells the caller to run its work now.  A tie with the head
        returns ``False`` and leaves ``(time, priority, seq)`` order to
        the heap, as does any call outside :meth:`run`, so
        :meth:`step` still fires exactly one event.  A time in the past
        (or NaN) also returns ``False``, so the caller's
        :meth:`schedule_at` raises as it would have without this
        shortcut.
        """
        heap = self._heap
        if not self._now <= when <= self._inline_until or (heap and heap[0][0] <= when):
            return False
        self._now = when
        self._inline_fired += 1
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Firing time of the next live event, or ``None`` if drained.

        Pops lazily-cancelled heads as a side effect (they are dead
        weight either way), so a following :meth:`step` fires exactly
        the event whose time was returned.  Used by the vectorized
        backend's epoch loop: the array data plane advances to the next
        engine event's time before the event fires.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[4]:
                _heappop(heap)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            return entry[0]
        return None

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Simulation horizon.  Events strictly after ``until`` are
            not fired and the clock stops exactly at ``until``.  When
            omitted, the engine runs until the event list drains.

        Raises
        ------
        EngineStateError
            If called re-entrantly or after the engine finished.

        Notes
        -----
        The engine is marked finished even when a callback raises — a
        half-run engine is not resumable (its clock and entity state
        are mid-transaction), so re-running or scheduling afterwards
        raises :class:`EngineStateError`.  ``at_end`` hooks only fire
        after a *clean* completion.
        """
        if self._running:
            raise EngineStateError("Engine.run() is not re-entrant")
        if self._finished:
            raise EngineStateError("engine already finished; create a new Engine")
        self._running = True
        heap = self._heap
        pop = _heappop
        horizon = math.inf if until is None else float(until)
        self._inline_until = horizon
        fired = self._events_fired
        try:
            while heap:
                entry = pop(heap)
                if entry[4]:
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                when = entry[0]
                if when > horizon:
                    _heappush(heap, entry)  # keep it pending; we overshot
                    break
                self._now = when
                fired += 1
                self._events_fired = fired
                entry[3]()
            if until is not None and self._now < horizon:
                self._now = horizon
        finally:
            self._inline_until = -math.inf
            self._running = False
            self._finished = True
        for hook in self.at_end:
            hook(self)

    def step(self) -> bool:
        """Fire the single next live event.

        Returns ``True`` if an event fired, ``False`` if the list is
        empty.  Useful in tests that need to observe intermediate state.
        Shares :meth:`run`'s accounting: ``events_fired`` is updated
        before the callback executes.
        """
        if self._running:
            raise EngineStateError("Engine.step() is not re-entrant")
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            if entry[4]:
                if self._cancelled:
                    self._cancelled -= 1
                continue
            self._now = entry[0]
            self._events_fired += 1
            entry[3]()
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine t={self._now:.6g} pending={len(self._heap)} "
            f"fired={self.events_fired}>"
        )
