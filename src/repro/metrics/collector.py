"""Online metric accumulation for simulation runs.

The collector accumulates everything the paper reports (§V-A "output
metrics") in O(1) memory per request:

* average response time ``T_r`` of accepted requests and its standard
  deviation (Chan's mean/M2 merge over fixed chunks of completions —
  :mod:`repro.metrics.moments` — so the result does not depend on how
  a backend batches its completions);
* number of requests whose response time violated QoS (``T_r > T_s``);
* percentage of rejected requests;
* minimum / maximum number of virtualized application instances alive
  at any single time;
* VM hours (finalized from the data center ledger);
* resource-utilization rate = Σ busy time / Σ VM seconds.

Optionally it samples time series (arrival counts, fleet size) used to
regenerate Figures 3, 4 and the instance-count trajectories.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from .moments import CUT, CutMoments

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Accumulates per-run output metrics.

    Parameters
    ----------
    qos_response_time:
        The negotiated ``T_s``; responses above it count as violations.
    track_fleet_series:
        When true, every fleet-size change is recorded as a
        ``(time, instances)`` step — needed for the instance-trajectory
        figures but off by default in the hot benchmarks.
    """

    def __init__(
        self,
        qos_response_time: float = math.inf,
        track_fleet_series: bool = False,
    ) -> None:
        self.qos_response_time = float(qos_response_time)
        # -- requests -------------------------------------------------
        self.accepted = 0  # admitted by admission control
        self.completed = 0  # finished service (response recorded)
        self.rejected = 0
        self.violations = 0
        # -- failure injection ------------------------------------------
        self.failures = 0  # instance crashes observed
        self.lost_requests = 0  # admitted requests that died in a crash
        # Response-time moments and busy time, merged at fixed cuts of
        # the completion sequence.  The scalar path appends to the two
        # lists and hands them on every ``CUT`` completions; when it
        # hands them on does not move a cut.
        self._moments = CutMoments()
        self._responses: List[float] = []
        self._services: List[float] = []
        self._cut_at = CUT
        # -- fleet ------------------------------------------------------
        self.min_instances: Optional[int] = None
        self.max_instances: Optional[int] = None
        self._track_series = bool(track_fleet_series)
        self.fleet_series: List[Tuple[float, int]] = []
        # -- finalized by the runner -------------------------------------
        self.vm_hours = 0.0
        self.horizon = 0.0

    # ------------------------------------------------------------------
    # hot-path recording
    # ------------------------------------------------------------------
    def record_acceptance(self) -> None:
        """Record one request admitted by admission control."""
        self.accepted += 1

    def record_response(self, response_time: float, service_time: float) -> None:
        """Record one completed request (two list appends until a cut)."""
        self.completed += 1
        if response_time > self.qos_response_time:
            self.violations += 1
        self._responses.append(response_time)
        self._services.append(service_time)
        if self.completed >= self._cut_at:
            self._hand_over()

    def _hand_over(self) -> None:
        """Move the scalar buffers into the cut accumulator."""
        if self._responses:
            self._moments.buffer.extend(
                np.array(self._responses), np.array(self._services)
            )
            self._responses.clear()
            self._services.clear()
        self._cut_at = self.completed + CUT

    def record_rejection(self) -> None:
        """Record one request rejected by admission control."""
        self.rejected += 1

    # ------------------------------------------------------------------
    # bulk recording (vectorized data plane)
    # ------------------------------------------------------------------
    def record_acceptances(self, count: int) -> None:
        """Record ``count`` admitted requests at once."""
        self.accepted += int(count)

    def record_rejections(self, count: int) -> None:
        """Record ``count`` rejected requests at once."""
        self.rejected += int(count)

    def record_responses(
        self, response_times: np.ndarray, service_times: np.ndarray
    ) -> None:
        """Record a batch of completions, in completion order.

        Counts and violations are exact.  Mean, M2 and busy time are
        merged only at every ``CUT``-th completion counted over the
        whole run (:class:`~repro.metrics.moments.CutMoments`), so the
        statistics are bit-identical to feeding the same completions
        through :meth:`record_response` one by one, and to any other
        split into batches.
        """
        responses = np.asarray(response_times, dtype=np.float64)
        n = responses.size
        if n == 0:
            return
        self.violations += int(np.count_nonzero(responses > self.qos_response_time))
        self._hand_over()
        self._moments.buffer.extend(
            responses, np.asarray(service_times, dtype=np.float64)
        )
        self.completed += n

    def record_loss(self, count: int) -> None:
        """Record an instance crash that killed ``count`` admitted requests."""
        self.failures += 1
        self.lost_requests += count

    def record_fleet_size(self, now: float, instances: int) -> None:
        """Record a change in the number of live application instances."""
        if self.min_instances is None or instances < self.min_instances:
            self.min_instances = instances
        if self.max_instances is None or instances > self.max_instances:
            self.max_instances = instances
        if self._track_series:
            self.fleet_series.append((now, instances))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Accepted + rejected arrivals seen so far."""
        return self.accepted + self.rejected

    @property
    def in_flight(self) -> int:
        """Admitted requests not yet completed (excluding crash losses)."""
        return self.accepted - self.completed - self.lost_requests

    @property
    def rejection_rate(self) -> float:
        """Fraction of arrivals rejected (0 when no traffic)."""
        total = self.total_requests
        return self.rejected / total if total else 0.0

    def _totals(self):
        self._hand_over()
        return self._moments.totals()

    @property
    def mean_response_time(self) -> float:
        """Average ``T_r`` over completed requests (0 when none)."""
        return self._totals()[1] if self.completed else 0.0

    @property
    def response_time_std(self) -> float:
        """Sample standard deviation of ``T_r`` (0 with < 2 samples)."""
        if self.completed < 2:
            return 0.0
        return math.sqrt(self._totals()[2] / (self.completed - 1))

    @property
    def busy_seconds(self) -> float:
        """Σ service time of completed requests."""
        return self._totals()[3]

    @property
    def utilization(self) -> float:
        """Busy time over provisioned VM time (the paper's definition)."""
        if self.vm_hours <= 0.0:
            return 0.0
        return self.busy_seconds / (self.vm_hours * 3600.0)

    @property
    def violation_rate(self) -> float:
        """Fraction of completed requests exceeding ``T_s``."""
        return self.violations / self.completed if self.completed else 0.0

    # ------------------------------------------------------------------
    def finalize(self, now: float, vm_hours: float) -> None:
        """Close the books at the end of a run (merges the last chunk)."""
        self._hand_over()
        self._moments.buffer.flush()
        self.horizon = now
        self.vm_hours = vm_hours

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsCollector acc={self.accepted} rej={self.rejected} "
            f"Tr={self.mean_response_time:.4g}s rejrate={self.rejection_rate:.3%}>"
        )
