"""Workload abstractions.

A *workload* ``G_s`` (paper §III-B) is a stream of independent requests
``{r_1 … r_h}`` arriving at times ``{t_1 … t_h}``, each needing one
service at an application instance.  A :class:`Workload` provides:

* the **model rate curve** ``mean_rate(t)`` — the expected instantaneous
  arrival rate used by Figures 3/4, the fluid engine, and (through the
  analyzer) by model-informed predictors;
* a **window sampler** ``sample_window(rng, t0)`` returning the actual
  arrival timestamps in ``[t0, t0 + window)`` — the DES broker walks
  the horizon window by window so millions of arrivals never have to be
  materialized at once;
* the **service-time law** via :meth:`service_sampler`.

Time-rescaling (``scaled``) implements the substitution documented in
DESIGN.md §4: dividing arrival rates by ``S`` while multiplying service
times (and the response-time QoS) by ``S`` preserves every per-instance
offered load, the fleet trajectory, utilization and VM-hours, while
cutting the event count by ``S``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Union

import numpy as np

from ..errors import WorkloadError

__all__ = ["Workload", "ServiceTimeSampler", "ScaledWorkload"]

ArrayLike = Union[float, np.ndarray]


class ServiceTimeSampler:
    """Block-buffered sampler of per-request service times.

    The paper gives each request a service time of
    ``base · (1 + U(0, jitter))`` with ``jitter = 0.10``.  Drawing one
    uniform variate per request through numpy's scalar API costs ~1 µs;
    pre-sampling blocks of 4096 amortizes that to ~20 ns, which matters
    because this sits on the DES hot path.  Each block is kept as a list
    of plain floats, so a draw is a list index with no numpy scalar to
    convert.

    Parameters
    ----------
    rng:
        Dedicated random stream.
    base:
        Service time of the request on an idle server (``T_r`` in §V-B).
    jitter:
        Upper bound of the uniform relative inflation (paper: 0.10).
    block:
        Pre-sampling block size.
    """

    __slots__ = ("_rng", "base", "jitter", "_block", "_buf", "_idx")

    def __init__(
        self,
        rng: np.random.Generator,
        base: float,
        jitter: float = 0.10,
        block: int = 4096,
    ) -> None:
        if base <= 0.0 or not math.isfinite(base):
            raise WorkloadError(f"base service time must be finite and > 0, got {base!r}")
        if jitter < 0.0:
            raise WorkloadError(f"service jitter must be >= 0, got {jitter!r}")
        self._rng = rng
        self.base = float(base)
        self.jitter = float(jitter)
        self._block = int(block)
        self._buf: List[float] = []
        self._idx = 0

    @property
    def mean(self) -> float:
        """Expected service time, base · (1 + jitter/2)."""
        return self.base * (1.0 + self.jitter / 2.0)

    def draw(self) -> float:
        """One service-time sample."""
        idx = self._idx
        if idx >= len(self._buf):
            self._buf = self.draw_many(self._block).tolist()
            idx = 0
        self._idx = idx + 1
        return self._buf[idx]

    def draw_many(self, n: int) -> np.ndarray:
        """``n`` samples at once; :meth:`draw` refills its block with it."""
        return self.base * (1.0 + self._rng.uniform(0.0, self.jitter, size=int(n)))


class Workload(ABC):
    """Abstract arrival-process + service-law model."""

    #: Short identifier used in stream names and reports.
    name: str = "workload"

    #: Length (seconds) of one generation window.
    window: float = 60.0

    #: Service time of one request on an idle server (``T_r``).
    base_service_time: float = 1.0

    #: Relative uniform jitter added to each service time.
    service_jitter: float = 0.10

    @abstractmethod
    def mean_rate(self, t: ArrayLike) -> ArrayLike:
        """Expected arrival rate (requests/s) at simulation time ``t``.

        Vectorized: accepts scalars or numpy arrays.
        """

    @abstractmethod
    def sample_window(self, rng: np.random.Generator, t0: float) -> np.ndarray:
        """Sorted arrival times in ``[t0, t0 + window)``."""

    def sample_window_thinned(
        self, rng: np.random.Generator, t0: float, keep_prob: float
    ) -> np.ndarray:
        """Arrival times of the window, Bernoulli-thinned to ``keep_prob``.

        Thinning any point process with i.i.d. ``keep_prob`` coin flips
        divides its rate while preserving the rate *shape* inside the
        window — this is how :class:`ScaledWorkload` scales rates down.
        The generic implementation samples at full rate and discards;
        concrete workloads override it to generate only the kept
        fraction (the web workload at 1200 req/s would otherwise
        allocate and sort 2000× more timestamps than needed).
        """
        arrivals = self.sample_window(rng, t0)
        if arrivals.size == 0 or keep_prob >= 1.0:
            return arrivals
        return arrivals[rng.random(arrivals.size) < keep_prob]

    # ------------------------------------------------------------------
    def service_sampler(self, rng: np.random.Generator) -> ServiceTimeSampler:
        """Build the service-time sampler for this workload."""
        return ServiceTimeSampler(rng, self.base_service_time, self.service_jitter)

    @property
    def mean_service_time(self) -> float:
        """Expected per-request service time including jitter."""
        return self.base_service_time * (1.0 + self.service_jitter / 2.0)

    def expected_requests(self, t0: float, t1: float, resolution: float = 60.0) -> float:
        """Numerically integrate :meth:`mean_rate` over ``[t0, t1]``.

        Used by tests and by the experiment reports ("500.12 million
        requests in the one-week simulation").
        """
        if t1 < t0:
            raise WorkloadError(f"bad integration range [{t0}, {t1}]")
        n = max(2, int((t1 - t0) / resolution) + 1)
        grid = np.linspace(t0, t1, n)
        # numpy 2 renamed trapz → trapezoid; support both.
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.mean_rate(grid), grid))

    def scaled(self, factor: float) -> "ScaledWorkload":
        """Return the rate/service rescaled workload (see module docs)."""
        return ScaledWorkload(self, factor)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} Tr={self.base_service_time}s>"


class ScaledWorkload(Workload):
    """Behaviour-preserving rate↓ / service-time↑ rescaling.

    Wraps an inner workload: arrival rates are divided by ``factor``
    (by stretching the inner arrival process' clock) and service times
    multiplied by it.  Offered load per instance, blocking, fleet
    trajectory, utilization and VM-hours are invariant; response times
    scale by exactly ``factor`` and are normalized back in the reports.

    Note that the *calendar* of the scenario does not stretch: a week
    is still 604 800 s.  Only the density of arrivals inside it drops.
    """

    def __init__(self, inner: Workload, factor: float) -> None:
        if factor <= 0.0 or not math.isfinite(factor):
            raise WorkloadError(f"scale factor must be finite and > 0, got {factor!r}")
        self.inner = inner
        self.factor = float(factor)
        self.name = f"{inner.name}@1/{factor:g}"
        self.window = inner.window
        self.base_service_time = inner.base_service_time * self.factor
        self.service_jitter = inner.service_jitter

    def mean_rate(self, t: ArrayLike) -> ArrayLike:
        return self.inner.mean_rate(t) / self.factor

    def sample_window(self, rng: np.random.Generator, t0: float) -> np.ndarray:
        # Bernoulli thinning of any point process divides its rate by
        # the factor while preserving the rate *shape* within the
        # window; concrete workloads implement it without materializing
        # the full-rate stream.
        return self.inner.sample_window_thinned(rng, t0, 1.0 / self.factor)
