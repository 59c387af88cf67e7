"""Vectorized application fleet — the batched DES data plane.

:class:`VectorFleet` is the array twin of
:class:`~repro.cloud.fleet.ApplicationFleet`: same instance lifecycle
(revive-first growth, cancel-booting / idle-first / graceful-drain
shrink, round-robin dispatch), but the per-request hot loop runs on the
structure-of-arrays kernel in :mod:`repro.sim.batch` instead of one
engine event per arrival and completion.

Epoch model
-----------
The ``des-vec`` backend drives the fleet with an *epoch loop*: before
every engine event (control alerts, Algorithm-1 decisions, VM boots,
monitor samples) it calls :meth:`advance` up to the event's timestamp.
Workload windows are not engine events: ``advance`` pulls every window
of its pull-mode :class:`~repro.cloud.broker.WorkloadSource` that
starts before that timestamp, in window order, through :meth:`load`,
and remembers each window start as a *mark*.  A request's departure is
fixed when it is dispatched (:class:`~repro.sim.batch.SoAQueues`), so
``advance`` only has to admit arrivals; it consumes the pending arrival
buffer in *blocks*, across marks:

1. if every active station is full, bulk-reject arrivals up to the
   first release of a full station (one ``searchsorted``);
2. otherwise offer the arrivals up to the earliest of the next release
   of a full station, the flush end and ``max_block`` to the non-full
   stations, cyclically in round-robin-pointer order.  The kernel
   computes the block's departures and cuts it at the first arrival
   that finds its station full — there the scalar balancer would skip
   the station, so the next block starts at that arrival with the
   open set re-planned.  Up to the cut, blocked cyclic assignment is
   the scalar balancer's pointer walk, arrival by arrival.

Completion is not a simulation step.  Each flush drains the pool once
at its end (``dep < t`` before an epoch, ``dep ≤ t`` at the horizon),
sorted by departure time, and posts all its completions in one
:meth:`Monitor.record_responses` call.  The response statistics do not
depend on that batching: the collector and the response-time histogram
merge mean, M2 and busy time only at every ``CUT``-th completion of the
run (:mod:`repro.metrics.moments`), the same cuts scalar ``des`` uses,
and the monitor folds ``T_m`` at those cuts and at the end of every
:meth:`advance` (one per engine event).  The flush then splits the
completion count and the admitted and rejected arrivals at the marks;
each resulting *span* — from one mark or epoch to the next — posts its
accept/reject counts, draining-station destroys, ``batch.span`` event
and span counters in time order, exactly as a flush at every window
start would have.  A draining station is destroyed at its last
departure and a killed station loses its pooled requests.  Because no
recorded quantity depends on a block boundary, an early close or a span
boundary, every output is invariant to the block size (the hypothesis
property test in ``tests/test_batch_engine.py``).  Without engine events
for a long stretch (a static policy) the flush closes early at a mark
once ``max_block`` arrivals are pending, so the buffer and the pool stay
within ``max_block`` + one window + ``k`` × stations.

Fidelity to the scalar fleet:

* jitterless runs are exact — every output field, the response-time
  mean and standard deviation included, is bit-identical to the scalar
  backend;
* under service jitter the match is statistical only: the service-time
  stream is drawn per *window* (``draw_many``) in arrival order, while
  the scalar instance draws at service *start* and only for admitted
  requests, so the two backends see the same distribution but
  different per-request draws;
* simultaneous events of measure zero (an arrival or completion at
  exactly a control epoch) resolve in a fixed documented order rather
  than by engine sequence number.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, PlacementError
from ..metrics.collector import MetricsCollector
from ..sim.batch import SoAQueues
from ..sim.engine import Engine
from ..workloads.base import ServiceTimeSampler
from .broker import WorkloadSource
from .datacenter import Datacenter
from .loadbalancer import LoadBalancer, RoundRobinBalancer
from .monitor import Monitor
from .vm import DEFAULT_VM_SPEC, VirtualMachine, VMSpec

__all__ = ["VectorFleet"]

_EMPTY = np.empty(0)


class VectorFleet:
    """Array-backed instance fleet satisfying the FleetActuator protocol.

    Parameters mirror :class:`~repro.cloud.fleet.ApplicationFleet`;
    additionally ``max_block`` caps the arrival-block size and the
    arrivals buffered between flushes (purely a memory/latency knob —
    results are block-size invariant), ``count_arrivals`` enables the
    monitor's arrival-rate counter, ``registry`` (a
    :class:`repro.obs.metrics.MetricsRegistry`) counts flushed spans and
    the requests they carried — span-cadence updates, so the
    per-request hot loop stays untouched — and ``source`` is the
    pull-mode :class:`~repro.cloud.broker.WorkloadSource` whose windows
    :meth:`advance` loads (without one, only batches handed to
    :meth:`load` are processed).

    Only round-robin dispatch is implemented: a ``balancer`` argument
    must be ``None`` or a :class:`RoundRobinBalancer` (other strategies
    need the scalar backend).
    """

    def __init__(
        self,
        engine: Engine,
        datacenter: Datacenter,
        sampler: ServiceTimeSampler,
        monitor: Monitor,
        metrics: MetricsCollector,
        capacity: int,
        balancer: Optional[LoadBalancer] = None,
        vm_spec: VMSpec = DEFAULT_VM_SPEC,
        boot_delay: float = 0.0,
        tracer: Optional[object] = None,
        max_block: int = 65_536,
        count_arrivals: bool = False,
        registry: Optional[object] = None,
        source: Optional[WorkloadSource] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity k must be >= 1, got {capacity}")
        if boot_delay < 0.0:
            raise ConfigurationError(f"boot delay must be >= 0, got {boot_delay}")
        if balancer is not None and not isinstance(balancer, RoundRobinBalancer):
            raise ConfigurationError(
                "the vectorized fleet implements round-robin dispatch only; "
                f"use backend='des' for {type(balancer).__name__}"
            )
        if max_block < 1:
            raise ConfigurationError(f"max_block must be >= 1, got {max_block}")
        self._engine = engine
        self._datacenter = datacenter
        self._sampler = sampler
        self._monitor = monitor
        self._metrics = metrics
        self.capacity = int(capacity)
        self.vm_spec = vm_spec
        self.boot_delay = float(boot_delay)
        self._tracer = tracer
        self._max_block = int(max_block)
        self._count_arrivals = bool(count_arrivals)
        if registry is not None:
            self._m_spans = registry.counter("batch.spans")
            self._m_flushed = registry.counter("batch.flushed_requests")
        else:
            self._m_spans = None
            self._m_flushed = None
        self._last_span_t = 0.0
        # -- station state ---------------------------------------------
        self._soa = SoAQueues(self.capacity)
        self._vms: Dict[int, VirtualMachine] = {}
        self._active: List[int] = []
        self._booting: List[int] = []
        self._draining: List[int] = []
        self._active_idx = np.empty(0, dtype=np.intp)
        self._rr = 0
        # -- arrival buffer (the broker's sink) ------------------------
        self._source = source
        self._times = np.empty(0)
        self._services = np.empty(0)
        self._pos = 0
        self._loaded: List[Tuple[np.ndarray, np.ndarray]] = []
        self._buffered = 0
        # -- span state (reset at every flush) -------------------------
        #: Window starts pulled since the last flush; each ends a span.
        self._marks: List[float] = []
        #: ``(start, stop)`` buffer ranges rejected since the last flush.
        self._rejects: List[Tuple[int, int]] = []
        self._accepting: Optional[bool] = None
        # -- counters --------------------------------------------------
        self.arrivals_processed = 0
        self.completions_processed = 0
        self.spans = 0

    def _emit_vm(self, event_type: str, idx: int, t: Optional[float] = None, **fields: object) -> None:
        """Trace one instance lifecycle transition (no-op untraced)."""
        if self._tracer is not None:
            when = self._engine.now if t is None else t
            self._tracer.emit(event_type, when, instance=idx, **fields)

    # ------------------------------------------------------------------
    # census (FleetActuator surface + scalar-fleet parity)
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Instances currently accepting requests."""
        return len(self._active)

    @property
    def serving_count(self) -> int:
        """Instances provisioned for service (active + still booting)."""
        return len(self._active) + len(self._booting)

    @property
    def live_count(self) -> int:
        """All non-destroyed instances (includes draining)."""
        return len(self._active) + len(self._booting) + len(self._draining)

    def occupancy(self, idx: int) -> int:
        """Requests on board one station (in service + queued)."""
        return int(np.count_nonzero(self._soa.pool()[0] == idx))

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed across the fleet."""
        return int(self._soa.pool()[0].size)

    # ------------------------------------------------------------------
    # scaling (identical ordering semantics to ApplicationFleet)
    # ------------------------------------------------------------------
    def scale_to(self, target: int) -> int:
        """Adjust the serving fleet toward ``target`` instances."""
        if target < 0:
            raise ConfigurationError(f"target fleet size must be >= 0, got {target}")
        current = self.serving_count
        if target > current:
            self._grow(target - current)
        elif target < current:
            self._shrink(current - target)
        return self.serving_count

    def _grow(self, count: int) -> None:
        # 1. Revive draining instances, most recently drained first.
        while count > 0 and self._draining:
            self._active.append(self._draining.pop())
            count -= 1
        # 2. Create fresh VMs.
        while count > 0:
            if self._create_instance() is None:
                break  # quota/capacity reached; serve with what we have
            count -= 1
        self._after_membership_change()

    def _create_instance(self) -> Optional[int]:
        now = self._engine.now
        try:
            vm = self._datacenter.create_vm(now, self.vm_spec)
        except PlacementError:
            return None
        idx = self._soa.alloc()
        self._vms[idx] = vm
        if self.boot_delay > 0.0:
            self._booting.append(idx)
            self._engine.schedule(self.boot_delay, lambda i=idx: self._boot_done(i))
        else:
            vm.boot_completed()
            self._active.append(idx)
        self._emit_vm("vm.created", idx, booting=self.boot_delay > 0.0)
        return idx

    def _boot_done(self, idx: int) -> None:
        if idx not in self._booting:
            return  # cancelled while booting
        self._booting.remove(idx)
        self._vms[idx].boot_completed()
        self._active.append(idx)
        self._after_membership_change()

    def _shrink(self, count: int) -> None:
        now = self._engine.now
        # 1. Cancel instances that have not even booted yet.
        while count > 0 and self._booting:
            idx = self._booting.pop()
            self._destroy(idx, now, "cancelled")
            count -= 1
        if count <= 0:
            self._after_membership_change()
            return
        # 2. Destroy idle actives immediately.
        occ = np.bincount(self._soa.pool()[0], minlength=self._soa.allocated)
        idle = [i for i in self._active if occ[i] == 0]
        for idx in idle[:count]:
            self._active.remove(idx)
            self._destroy(idx, now, "idle")
        count -= min(count, len(idle))
        if count <= 0:
            self._after_membership_change()
            return
        # 3. Drain the least-loaded remaining actives.
        victims = sorted(self._active, key=lambda i: (occ[i], i))[:count]
        for idx in victims:
            self._active.remove(idx)
            self._draining.append(idx)
            self._emit_vm("vm.draining", idx)
        self._after_membership_change()

    def _destroy(self, idx: int, t: float, reason: str) -> None:
        self._datacenter.destroy_vm(self._vms.pop(idx), t)
        self._emit_vm("vm.destroyed", idx, t=t, reason=reason)

    @property
    def live_instances(self) -> List[int]:
        """Every non-destroyed station index (a fresh list).

        Scalar-fleet parity surface for the failure/revocation
        injectors: station indices are allocated monotonically and
        never reused, so index order *is* creation order — the same
        ordering the scalar fleet's ``instance_id`` carries.
        """
        return self._active + self._booting + self._draining

    def kill(self, idx: int, reason: str = "crashed") -> int:
        """Crash one station (failure/revocation); returns requests lost.

        Mirrors :meth:`ApplicationFleet.kill` exactly: queued and
        in-service requests die with the station and are recorded as
        losses, not rejections.  The injector fires at
        ``PRIORITY_HIGH``, i.e. after the epoch loop's strict flush up
        to *now* — so a request departing at the kill instant is still
        in the pool and is lost, matching the scalar engine's event
        ordering (kill cancels the pending completion).
        """
        for bucket in (self._active, self._booting, self._draining):
            if idx in bucket:
                bucket.remove(idx)
                break
        else:
            return 0  # already destroyed
        lost = self._soa.evict(idx)
        self._datacenter.destroy_vm(self._vms.pop(idx), self._engine.now)
        self._emit_vm("vm.destroyed", idx, reason=reason, lost=lost)
        self._metrics.record_loss(lost)
        self._after_membership_change()
        return lost

    def _after_membership_change(self) -> None:
        n = len(self._active)
        self._rr = self._rr % n if n else 0
        self._active_idx = np.array(self._active, dtype=np.intp)
        self._metrics.record_fleet_size(self._engine.now, self.live_count)

    # ------------------------------------------------------------------
    # arrival sink (the broker's window hand-off)
    # ------------------------------------------------------------------
    def load(self, times: np.ndarray) -> None:
        """Buffer one window's sorted arrival batch.

        Service times are drawn here, one vectorized block per window.
        Loaded windows join the sorted buffer at the next admission
        pass (:meth:`_merge_loaded`).
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        self._loaded.append((times, self._sampler.draw_many(times.size)))
        self._buffered += int(times.size)

    @property
    def buffered(self) -> int:
        """Arrivals loaded but not yet admitted or rejected."""
        return self._buffered

    # ------------------------------------------------------------------
    # the epoch hot loop
    # ------------------------------------------------------------------
    def advance(self, t_end: float) -> None:
        """Process all arrivals and completions strictly before ``t_end``.

        Called by the backend before each engine event fires; the
        strictness mirrors the scalar priority order, where a
        same-instant control event (PRIORITY_HIGH) precedes data-plane
        events.  Pulls every window that starts before ``t_end`` from
        the broker, then flushes span statistics so the event's control
        logic observes exactly the pre-epoch state.
        """
        t_end = float(t_end)
        self._pull_windows(t_end)
        self._flush(t_end, strict=True)
        self._monitor.fold_service_time()

    def finish(self, horizon: float) -> None:
        """Close the data plane at the horizon (completions inclusive).

        Pulls and consumes the arrivals remaining after the last engine
        event, then reports completions *including* those at exactly
        the horizon — the scalar engine fires those events, while the
        epoch loop's strict flushes exclude them.
        """
        horizon = float(horizon)
        self._pull_windows(horizon)
        self._flush(horizon, strict=False)
        self._monitor.fold_service_time()

    def _pull_windows(self, t_end: float) -> None:
        """Load every source window starting before ``t_end``; mark each start.

        Once ``max_block`` arrivals are pending, a flush closes early
        at the next window start, so a long stretch without engine
        events (a static policy) keeps the buffer and the pool bounded.
        """
        source = self._source
        if source is None:
            return
        while source.next_window < t_end:
            mark = source.next_window
            if self._buffered >= self._max_block:
                self._flush(mark, strict=True)
            else:
                self._marks.append(mark)
            self.load(source.pull())

    def _merge_loaded(self) -> None:
        """Fold the loaded windows into the sorted arrival buffer."""
        parts = [(self._times[self._pos :], self._services[self._pos :]), *self._loaded]
        self._loaded = []
        times = np.concatenate([t for t, _ in parts])
        services = np.concatenate([s for _, s in parts])
        if any(a.size and a[-1] > b[0] for (a, _), (b, _) in zip(parts, parts[1:])):
            # A window reaching past the next one's start (a misbehaving
            # workload model): keep the buffer sorted.
            order = np.argsort(times, kind="stable")
            times = times[order]
            services = services[order]
        self._times = times
        self._services = services
        self._pos = 0

    def _consume_arrivals(self, t_end: float) -> int:
        """Admit or reject every buffered arrival strictly before ``t_end``.

        Returns the buffer index the pass started from.
        """
        if self._loaded:
            self._merge_loaded()
        soa = self._soa
        times = self._times
        services = self._services
        lo = i = self._pos
        stop = int(np.searchsorted(times, t_end, side="left"))
        while i < stop:
            act = self._active_idx
            na = act.size
            if na == 0:
                self._reject_block(times, i, stop)
                i = stop
                break
            # A station is full on an arrival when its departure k
            # places back is later; a departure at exactly the arrival
            # instant has already freed its slot.
            oldest = soa.recent[act, 0]
            full = oldest > times[i]
            if full.all():
                # The paper's rejection condition, in bulk up to the
                # first slot-freeing departure.
                j = int(np.searchsorted(times, oldest.min(), side="left"))
                j = min(j, stop)
                self._reject_block(times, i, j)
                i = j
                continue
            # Cyclic station order from the round-robin pointer.
            order = np.concatenate((np.arange(self._rr, na), np.arange(self._rr)))
            j = min(stop, i + self._max_block)
            if full.any():
                order = order[~full[order]]
                # The full set cannot shrink before its first release.
                t_free = oldest[full].min()
                j = min(j, int(np.searchsorted(times, t_free, side="left")))
            width = order.size
            stations = np.resize(act[order], j - i)
            took = soa.assign(stations, times[i:j], services[i:j], width)
            self._accept_block(times, i, i + took)
            self._rr = int((order[(took - 1) % width] + 1) % na)
            i += took
        self._buffered -= i - lo
        self._pos = i
        return lo

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _accept_block(self, times: np.ndarray, i: int, j: int) -> None:
        tracer = self._tracer
        if tracer is not None:
            if self._accepting is not True:
                self._accepting = True
                tracer.emit("admission.state", float(times[i]), accepting=True)
            for t in times[i:j].tolist():
                tracer.emit("request.admitted", t)

    def _reject_block(self, times: np.ndarray, i: int, j: int) -> None:
        if j <= i:
            return
        self._rejects.append((i, j))
        tracer = self._tracer
        if tracer is not None:
            if self._accepting is not False:
                self._accepting = False
                tracer.emit("admission.state", float(times[i]), accepting=False)
            for t in times[i:j].tolist():
                tracer.emit("request.rejected", t)

    def _rejected_before(self, cuts: List[int]) -> List[int]:
        """Rejected arrivals of this flush before each buffer index in ``cuts``."""
        if not self._rejects:
            return [0] * len(cuts)
        ranges = np.array(self._rejects, dtype=np.intp)
        self._rejects = []
        starts, ends = ranges[:, 0], ranges[:, 1]
        total = np.concatenate(([0], np.cumsum(ends - starts)))
        at = np.array(cuts, dtype=np.intp)
        # Every range starting before a cut counts whole, less the part
        # of the last such range that runs past the cut.
        k = np.searchsorted(starts, at)
        over = np.where(k > 0, np.maximum(ends[k - 1] - at, 0), 0)
        return (total[k] - over).tolist()

    def _flush(self, t_end: float, strict: bool) -> None:
        """Admit the arrivals before ``t_end``, then post every span they close.

        The spans end at the pulled window starts (strictly) and at
        ``t_end``.  The pool is drained once, and its completions and
        this pass's arrivals are split at the window starts, so each
        span posts exactly what a flush of its own would have posted.
        """
        lo = self._consume_arrivals(t_end)
        marks = self._marks
        self._marks = []
        hi = self._pos
        drained = self._soa.drain(t_end, strict=strict)
        dep = _EMPTY
        if drained:
            _, dep, arr, svc = drained[0]
            self.completions_processed += int(dep.size)
            self._monitor.record_responses(dep - arr, svc, dep)
        arrival_cuts = (np.searchsorted(self._times[lo:hi], marks) + lo).tolist() + [hi]
        completion_cuts = np.searchsorted(dep, marks).tolist() + [dep.size]
        rejected_cuts = self._rejected_before(arrival_cuts)
        a0, c0, r0 = lo, 0, 0
        ends = marks + [t_end]
        for end, a1, c1, r1 in zip(ends, arrival_cuts, completion_cuts, rejected_cuts):
            self._post_span(
                end,
                strict or end < t_end,
                c1 - c0,
                a1 - a0 - (r1 - r0),
                r1 - r0,
            )
            a0, c0, r0 = a1, c1, r1

    def _post_span(
        self,
        t_end: float,
        strict: bool,
        completions: int,
        accepted: int,
        rejected: int,
    ) -> None:
        """Post one span's counts, destroys and summary in deterministic order."""
        if accepted or rejected:
            self.arrivals_processed += accepted + rejected
            if self._count_arrivals:
                self._monitor.record_arrivals(accepted + rejected)
            if accepted:
                self._monitor.record_acceptances(accepted)
            if rejected:
                self._monitor.record_rejections(rejected)
        if self._draining:
            # A draining station empties at its last departure.
            draining = np.array(self._draining, dtype=np.intp)
            last = self._soa.recent[draining, -1]
            emptied = last < t_end if strict else last <= t_end
            for t_done, idx in sorted(
                zip(last[emptied].tolist(), draining[emptied].tolist())
            ):
                self._draining.remove(idx)
                self._destroy(idx, t_done, "drained")
                self._metrics.record_fleet_size(t_done, self.live_count)
        if accepted or rejected or completions:
            if self._tracer is not None:
                self._tracer.emit(
                    "batch.span",
                    t_end,
                    arrivals=accepted + rejected,
                    completions=completions,
                    rejected=rejected,
                    stations=len(self._active),
                    width=t_end - self._last_span_t,
                )
            if self._m_spans is not None:
                self._m_spans.inc()
                self._m_flushed.inc(accepted + rejected + completions)
            self.spans += 1
            self._last_span_t = t_end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VectorFleet active={len(self._active)} "
            f"booting={len(self._booting)} draining={len(self._draining)} "
            f"buffered={self.buffered}>"
        )
