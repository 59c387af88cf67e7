"""Structure-of-arrays batch kernel for the vectorized DES data plane.

The scalar engine dispatches one Python event per arrival and per
completion — ~2.8 M events/s on the BENCH_PR1 host, which is what kept
the full-scale (scale ≥ 1 M) cells of ``campaigns/paper.toml`` on the
fluid twin.  This module is the array core of the ``des-vec`` backend:
per-instance state lives in flat numpy arrays (a *structure of
arrays*) and whole round-robin blocks of arrivals are admitted with a
handful of vector operations per dispatch round.

The kernel knows nothing about VMs, monitors, or control planes — it is
plain queueing arithmetic.  The lifecycle/bookkeeping half of the
vectorized data plane lives in :class:`repro.cloud.vecfleet.VectorFleet`,
which calls into this module between control-plane epochs; the scalar
engine remains the reference implementation that
``tests/test_batch_engine.py`` compares against bit for bit.

How :class:`SoAQueues` stays exact (see ``docs/performance.md``):

* **Dispatch-time departures** — a FIFO request departs at
  ``max(arrival, previous departure) + service`` however long it
  queues, so its departure is fixed when it is dispatched.  One round
  of a round-robin block reaches distinct stations, so the round's
  departures are one vector step across stations.
* **Verify and cut** — a station is full on an arrival exactly when
  its departure ``capacity`` places back is later than the arrival.
  :meth:`SoAQueues.assign` computes a whole block, finds the first
  arrival that meets a full station and commits only the prefix before
  it; the caller re-plans the rest.
* **Pool split** — completion is not a simulation step: admitted
  requests wait in one pool and each :meth:`SoAQueues.drain` splits it
  once at the flush boundary.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SoAQueues"]

#: Pooled or drained requests: (stations, departure_times,
#: arrival_times, service_times), one element per request.
Entries = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class SoAQueues:
    """Dispatch-time departure state for a set of capacity-bounded stations.

    Each station is one application instance: a single FIFO server
    holding at most ``capacity`` requests.  A request's departure is
    fixed the moment it is dispatched, so the state is

    * ``recent[i]`` — the last ``capacity`` departure times of station
      ``i``, oldest first (``-inf`` where fewer were ever dispatched).
      Departures of one FIFO station never decrease, so its occupancy
      at time ``t`` is the number of entries later than ``t`` and it is
      full exactly when ``recent[i, 0] > t``;
    * the *pool* — one ``(station, departure, arrival, service)`` entry
      per admitted request not yet reported by :meth:`drain`, in four
      preallocated columns that grow by doubling, so a span of many
      small blocks costs no per-block arrays.

    Slots are allocated monotonically (:meth:`alloc`) and never reused,
    so the slot index doubles as the instance id, identical to the
    scalar fleet's ``_next_instance_id`` numbering.
    """

    __slots__ = ("capacity", "recent", "allocated", "_cols", "_size")

    def __init__(self, capacity: int, initial_slots: int = 64) -> None:
        if capacity < 1:
            raise ConfigurationError(f"queue capacity k must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.recent = np.full((max(int(initial_slots), 1), self.capacity), -np.inf)
        self.allocated = 0
        self._cols: Entries = (
            np.empty(64, dtype=np.intp), np.empty(64), np.empty(64), np.empty(64)
        )
        self._size = 0

    def alloc(self) -> int:
        """Allocate a fresh idle slot; returns its index."""
        idx = self.allocated
        if idx >= self.recent.shape[0]:
            grown = np.full_like(self.recent, -np.inf)
            self.recent = np.concatenate((self.recent, grown))
        self.allocated = idx + 1
        return idx

    def pool(self) -> Entries:
        """Every admitted request not yet drained, as one entry tuple.

        The arrays are views of the pool's columns, valid until the
        next :meth:`assign`, :meth:`drain` or :meth:`evict`.
        """
        n = self._size
        return tuple(col[:n] for col in self._cols)

    def _keep(self, entries: Entries) -> None:
        """Make ``entries`` (arrays no view of the columns) the whole pool."""
        n = entries[0].size
        for col, part in zip(self._cols, entries):
            col[:n] = part
        self._size = n

    def assign(
        self,
        stations: np.ndarray,
        arrivals: np.ndarray,
        services: np.ndarray,
        width: int,
    ) -> int:
        """Admit the longest prefix of a round-robin block; returns its length.

        Request ``i`` goes to ``stations[i]``, a cyclic repetition of
        ``width`` distinct stations, so the block is a sequence of
        dispatch rounds.  Each round fixes its departures with one
        vector Lindley step across stations,
        ``dep = max(arrival, previous departure) + service`` — the
        scalar instance's arithmetic, operation for operation.  The
        block is then cut at the first request whose station is full on
        arrival, i.e. whose departure ``capacity`` places back is later
        than the arrival: the scalar balancer would skip that station.
        Only the prefix before the cut is committed to the pool and to
        ``recent``.
        """
        k = self.capacity
        n = len(arrivals)
        width = min(width, n)
        head = stations[:width]
        # Flat history, ``width`` lanes per round: the k rounds of
        # ``recent`` then the block's departures, so ``hist[i]`` is
        # request i's departure k places back on its own station.
        hist = np.empty((k + -(-n // width)) * width)
        hist[: k * width] = self.recent[head].T.ravel()
        prev = hist[(k - 1) * width : k * width]
        for lo in range(0, n, width):
            a = arrivals[lo : lo + width]
            row = hist[k * width + lo : k * width + lo + a.size]
            np.maximum(a, prev[: a.size], out=row)
            row += services[lo : lo + a.size]
            prev = row
        full = hist[:n] > arrivals
        cut = int(full.argmax())
        if not full[cut]:
            cut = n
        if cut:
            dep = hist[k * width : k * width + cut]
            size = self._size
            end = size + cut
            if end > self._cols[0].size:
                grown = max(end, 2 * self._cols[0].size)
                self._cols = tuple(
                    np.concatenate((col[:size], np.empty(grown - size, dtype=col.dtype)))
                    for col in self._cols
                )
            for col, part in zip(self._cols, (stations, dep, arrivals, services)):
                col[size:end] = part[:cut]
            self._size = end
            rounds, extra = divmod(cut, width)
            lanes = hist.reshape(-1, width)
            if extra:
                self.recent[head[:extra]] = lanes[rounds + 1 : rounds + 1 + k, :extra].T
            self.recent[head[extra:]] = lanes[rounds : rounds + k, extra:].T
        return cut

    def drain(self, t: float, strict: bool = False) -> List[Entries]:
        """Split off every pooled request departing by ``t``.

        ``strict`` excludes departures at exactly ``t`` — used at
        control-plane epochs, where the scalar engine fires same-instant
        completions *after* the high-priority control event.  Returns a
        list holding the one ``(stations, departures, arrivals,
        services)`` tuple of completions in departure order, or an
        empty list.  The pool keeps arrival order among equal
        departures (chunks are appended in dispatch order and the sort
        is stable), so ties resolve by arrival time.
        """
        pool = self.pool()
        order = np.argsort(pool[1], kind="stable")
        pool = tuple(col[order] for col in pool)
        cut = int(np.searchsorted(pool[1], t, side="left" if strict else "right"))
        self._keep(tuple(col[cut:] for col in pool))
        return [tuple(col[:cut] for col in pool)] if cut else []

    def evict(self, idx: int) -> int:
        """Drop station ``idx``'s pooled requests; returns how many."""
        pool = self.pool()
        keep = pool[0] != idx
        lost = int(keep.size - np.count_nonzero(keep))
        if lost:
            self._keep(tuple(col[keep] for col in pool))
        return lost
