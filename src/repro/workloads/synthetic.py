"""Synthetic workloads for tests, examples, and validation.

Three arrival processes complement the paper's two production models:

* :class:`PoissonWorkload` — constant-rate Poisson arrivals with
  exponential service; this is the regime where the simulator must
  match the M/M/1/K closed forms exactly, so it anchors the
  DES-vs-theory validation tests.
* :class:`PiecewiseRateWorkload` — an arbitrary step function of
  arrival rates, used to script reproducible load spikes (the
  "highly dynamic workload" stressor of §I).
* :class:`MMPPWorkload` — a 2-state Markov-modulated Poisson process,
  a standard bursty-traffic model for the robustness benchmarks.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

from ..errors import WorkloadError
from ..sim.rng import RandomStreams
from .base import ServiceTimeSampler, Workload
from .distributions import poisson_process

__all__ = ["PoissonWorkload", "PiecewiseRateWorkload", "MMPPWorkload"]

ArrayLike = Union[float, np.ndarray]


class _ExponentialServiceSampler(ServiceTimeSampler):
    """Service sampler drawing exponential times (for M/M validation)."""

    def draw_many(self, n: int) -> np.ndarray:
        return self._rng.exponential(self.base, size=int(n))

    @property
    def mean(self) -> float:
        return self.base


class PoissonWorkload(Workload):
    """Homogeneous Poisson arrivals, optional exponential service.

    Parameters
    ----------
    rate:
        Arrival rate λ (requests/s).
    base_service_time:
        Mean service time 1/μ.
    exponential_service:
        When true (default), service is exponential — together with the
        Poisson arrivals this makes each instance a true M/M/1/k queue.
    window:
        Generation window length.
    """

    name = "poisson"

    def __init__(
        self,
        rate: float,
        base_service_time: float = 1.0,
        exponential_service: bool = True,
        window: float = 60.0,
    ) -> None:
        if rate < 0.0 or not math.isfinite(rate):
            raise WorkloadError(f"rate must be finite and >= 0, got {rate!r}")
        self.rate = float(rate)
        self.base_service_time = float(base_service_time)
        self.service_jitter = 0.0
        self.exponential_service = bool(exponential_service)
        self.window = float(window)

    def mean_rate(self, t: ArrayLike) -> ArrayLike:
        t_arr = np.asarray(t, dtype=np.float64)
        rate = np.full_like(t_arr, self.rate)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(rate)
        return rate

    def sample_window(self, rng: np.random.Generator, t0: float) -> np.ndarray:
        return poisson_process(rng, self.rate, t0, t0 + self.window)

    def service_sampler(self, rng: np.random.Generator) -> ServiceTimeSampler:
        if self.exponential_service:
            return _ExponentialServiceSampler(rng, self.base_service_time, 0.0)
        return super().service_sampler(rng)


class PiecewiseRateWorkload(Workload):
    """Poisson arrivals whose rate is a step function of time.

    Parameters
    ----------
    steps:
        Sequence of ``(start_time, rate)`` pairs, sorted by start time;
        the first start must be 0.  The rate holds until the next step.
    """

    name = "piecewise"

    def __init__(
        self,
        steps: Sequence[Tuple[float, float]],
        base_service_time: float = 1.0,
        service_jitter: float = 0.10,
        window: float = 60.0,
    ) -> None:
        if not steps:
            raise WorkloadError("piecewise workload needs at least one step")
        starts = [s for s, _ in steps]
        if starts[0] != 0.0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise WorkloadError(
                f"steps must start at 0 and be strictly increasing, got {starts}"
            )
        if any(r < 0.0 for _, r in steps):
            raise WorkloadError("rates must be >= 0")
        self._starts = np.array(starts)
        self._rates = np.array([r for _, r in steps])
        self.base_service_time = float(base_service_time)
        self.service_jitter = float(service_jitter)
        self.window = float(window)

    def mean_rate(self, t: ArrayLike) -> ArrayLike:
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.clip(np.searchsorted(self._starts, t_arr, side="right") - 1, 0, None)
        rate = self._rates[idx]
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(rate)
        return rate

    def sample_window(self, rng: np.random.Generator, t0: float) -> np.ndarray:
        # A window may straddle step boundaries; sample each constant
        # sub-interval independently (superposition of Poisson pieces).
        t1 = t0 + self.window
        cuts = self._starts[(self._starts > t0) & (self._starts < t1)]
        bounds = np.concatenate([[t0], cuts, [t1]])
        pieces = [
            poisson_process(rng, float(self.mean_rate(a)), float(a), float(b))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        return np.concatenate(pieces) if pieces else np.empty(0)


class MMPPWorkload(Workload):
    """2-state Markov-modulated Poisson process (bursty traffic).

    The modulating chain alternates between a *low* and a *high* state
    with exponential sojourns; arrivals are Poisson at the state's
    rate.  The chain trajectory is generated once, lazily, from a
    dedicated seed (``phase_seed``), so:

    * windows are consistent — a 3-hour burst really spans 180
      consecutive one-minute windows;
    * :meth:`mean_rate` returns the *conditional* rate of the realized
      phase at ``t`` — which is exactly what an oracle predictor should
      see, and what the fluid engine integrates.

    The long-run average rate is available via
    :attr:`stationary_mean_rate`.
    """

    name = "mmpp"

    def __init__(
        self,
        low_rate: float,
        high_rate: float,
        mean_low_sojourn: float,
        mean_high_sojourn: float,
        base_service_time: float = 1.0,
        service_jitter: float = 0.10,
        window: float = 60.0,
        phase_seed: int = 0,
    ) -> None:
        for label, v in (
            ("low_rate", low_rate),
            ("high_rate", high_rate),
            ("mean_low_sojourn", mean_low_sojourn),
            ("mean_high_sojourn", mean_high_sojourn),
        ):
            if v <= 0.0 and label.endswith("sojourn"):
                raise WorkloadError(f"{label} must be > 0, got {v!r}")
            if v < 0.0:
                raise WorkloadError(f"{label} must be >= 0, got {v!r}")
        self.low_rate = float(low_rate)
        self.high_rate = float(high_rate)
        self.mean_low = float(mean_low_sojourn)
        self.mean_high = float(mean_high_sojourn)
        self.base_service_time = float(base_service_time)
        self.service_jitter = float(service_jitter)
        self.window = float(window)
        self.phase_seed = int(phase_seed)
        # Lazily-extended phase trajectory: switch times and the state
        # that *begins* at each switch (True = high).  The trajectory is
        # a property of the workload (phase_seed), not the replication,
        # so it draws its own registered stream rather than the
        # context's factory.
        self._phase_rng = RandomStreams(self.phase_seed).get("workload.mmpp.phase")
        start_high = bool(self._phase_rng.random() < self.stationary_high_fraction)
        self._switch_times = [0.0]
        self._states = [start_high]

    @property
    def stationary_high_fraction(self) -> float:
        """Long-run fraction of time in the high state."""
        return self.mean_high / (self.mean_high + self.mean_low)

    @property
    def stationary_mean_rate(self) -> float:
        """Long-run average arrival rate (requests/s)."""
        p = self.stationary_high_fraction
        return p * self.high_rate + (1.0 - p) * self.low_rate

    def _extend_phases(self, until: float) -> None:
        while self._switch_times[-1] <= until:
            high = self._states[-1]
            sojourn = float(
                self._phase_rng.exponential(self.mean_high if high else self.mean_low)
            )
            self._switch_times.append(self._switch_times[-1] + max(sojourn, 1e-9))
            self._states.append(not high)

    def _state_at(self, t: float) -> bool:
        self._extend_phases(t)
        idx = int(np.searchsorted(self._switch_times, t, side="right") - 1)
        return self._states[max(idx, 0)]

    def mean_rate(self, t: ArrayLike) -> ArrayLike:
        """Conditional rate of the realized phase at ``t``."""
        t_arr = np.asarray(t, dtype=np.float64)
        upper = float(t_arr.max()) if t_arr.size else 0.0
        self._extend_phases(upper)
        times = np.asarray(self._switch_times)
        states = np.asarray(self._states, dtype=bool)
        idx = np.clip(np.searchsorted(times, t_arr, side="right") - 1, 0, None)
        rate = np.where(states[idx], self.high_rate, self.low_rate)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(rate)
        return rate.astype(np.float64)

    def sample_window(self, rng: np.random.Generator, t0: float) -> np.ndarray:
        t1 = t0 + self.window
        self._extend_phases(t1)
        times = np.asarray(self._switch_times)
        cuts = times[(times > t0) & (times < t1)]
        bounds = np.concatenate([[t0], cuts, [t1]])
        pieces = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            rate = self.high_rate if self._state_at(float(a)) else self.low_rate
            pieces.append(poisson_process(rng, rate, float(a), float(b)))
        return np.concatenate(pieces) if pieces else np.empty(0)
