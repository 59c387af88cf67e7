"""Monitoring service — the simulator's Amazon-CloudWatch stand-in.

The load predictor & performance modeler "obtains current service times
for each application instance ... via regular monitoring tools or by
Cloud monitoring services such as Amazon CloudWatch" (paper §IV-B).
:class:`Monitor` is that service:

* it is the sink for request completions (forwarding them to the run's
  :class:`~repro.metrics.collector.MetricsCollector`); admission
  control records acceptances and rejections on that collector
  directly (:attr:`Monitor.metrics`), one call per request instead of
  two,
* it keeps an exponentially-weighted estimate of the mean request
  service time ``T_m`` — the monitored quantity Algorithm 1 consumes,
* it optionally samples the observed arrival rate on a fixed cadence,
  which is the input history for the *reactive* predictors
  (:mod:`repro.prediction`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from ..metrics.moments import CutBuffer
from ..sim.engine import Engine
from ..sim.events import PRIORITY_LOW

__all__ = ["Monitor"]


class Monitor:
    """Runtime observability for one application deployment.

    Parameters
    ----------
    engine:
        Simulation engine (used only when rate sampling is enabled).
    metrics:
        The run's metric accumulator.
    default_service_time:
        ``T_m`` reported before any completion has been observed — the
        provisioner must make its first decision with no history, so it
        starts from the negotiated/estimated request execution time.
    ewma_alpha:
        Smoothing weight of the service-time estimate.  The default 0.05
        averages over roughly the last 40 completions.
    rate_sample_interval:
        When set, the monitor counts arrivals per interval and stores a
        bounded history of ``(time, rate)`` pairs for reactive
        predictors.
    history_length:
        Maximum retained rate samples.
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, each
        completion emits ``request.completed`` and each rate sample
        emits ``monitor.sample`` (carrying the current ``T_m``
        estimate); ``None`` keeps the hot path unchanged.
    registry:
        Optional :class:`repro.obs.metrics.MetricsRegistry`.  When set,
        every recorded response also feeds the ``qos.response_time``
        histogram (one buffered list append per completion on the
        scalar path, one searchsorted per flush on the bulk path);
        ``None`` keeps the hot path unchanged.
    """

    def __init__(
        self,
        engine: Engine,
        metrics: MetricsCollector,
        default_service_time: float,
        ewma_alpha: float = 0.05,
        rate_sample_interval: Optional[float] = None,
        history_length: int = 4096,
        tracer: Optional[object] = None,
        registry: Optional[object] = None,
    ) -> None:
        if default_service_time <= 0.0:
            raise ConfigurationError(
                f"default service time must be > 0, got {default_service_time}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self._engine = engine
        self._metrics = metrics
        self._tm = float(default_service_time)
        self._alpha = float(ewma_alpha)
        self._seen_completion = False
        # Bulk-path service times, folded into T_m at fixed cuts.
        self._tm_buffer = CutBuffer(self._fold_tm)
        self._tracer = tracer
        self._resp_hist = (
            registry.histogram("qos.response_time") if registry is not None else None
        )
        # -- arrival-rate sampling ------------------------------------
        self._rate_interval = rate_sample_interval
        self._arrivals_in_window = 0
        self.rate_history: Deque[Tuple[float, float]] = deque(maxlen=history_length)
        if rate_sample_interval is not None:
            if rate_sample_interval <= 0.0:
                raise ConfigurationError(
                    f"rate sample interval must be > 0, got {rate_sample_interval}"
                )
            engine.schedule(rate_sample_interval, self._sample_rate, PRIORITY_LOW)

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metric accumulator this monitor forwards to."""
        return self._metrics

    # ------------------------------------------------------------------
    # hot-path sinks
    # ------------------------------------------------------------------
    def record_response(self, response_time: float, service_time: float) -> None:
        """Observe one completed request (called by instances)."""
        self._metrics.record_response(response_time, service_time)
        if self._resp_hist is not None:
            self._resp_hist.observe(response_time)
        if self._seen_completion:
            self._tm += self._alpha * (service_time - self._tm)
        else:
            self._tm = service_time
            self._seen_completion = True
        if self._tracer is not None:
            self._tracer.emit(
                "request.completed",
                self._engine.now,
                response_time=response_time,
                service_time=service_time,
            )

    def record_rejection(self) -> None:
        """Observe one rejected request."""
        self._metrics.record_rejection()

    def record_arrival(self) -> None:
        """Observe one arrival (only counted when sampling is enabled)."""
        self._arrivals_in_window += 1

    # ------------------------------------------------------------------
    # bulk sinks (vectorized data plane)
    # ------------------------------------------------------------------
    def record_responses(
        self,
        response_times: np.ndarray,
        service_times: np.ndarray,
        completion_times: Optional[np.ndarray] = None,
    ) -> None:
        """Observe a batch of completions in departure order.

        The collector and the response-time histogram merge their
        statistics at fixed cuts of the completion sequence, so they
        are bit-identical to ``record_response`` in a loop and to any
        other split into batches.  ``T_m`` is folded in closed form,
        ``tm' = (1-α)^n·tm + α·Σᵢ (1-α)^(n-1-i)·sᵢ``, at every
        ``CUT``-th bulk completion and at :meth:`fold_service_time`
        (the vectorized fleet calls it once per engine event), so it
        is bit-identical for any split that keeps those points.  When
        every sample equals the current estimate (the jitterless
        scenarios), each sequential step would add exactly ``α·0``, so
        the fold is skipped outright — keeping ``T_m`` bit-identical
        to the scalar path there.  The scalar and bulk paths are not
        mixed within one run.

        ``completion_times`` (departure timestamps) is only consulted
        when tracing, to stamp the per-request events.
        """
        services = np.asarray(service_times, dtype=np.float64)
        n = services.size
        if n == 0:
            return
        self._metrics.record_responses(response_times, services)
        if self._resp_hist is not None:
            self._resp_hist.observe_many(response_times)
        self._tm_buffer.extend(services)
        if self._tracer is not None:
            responses = np.asarray(response_times, dtype=np.float64)
            if completion_times is None:
                completion_times = np.full(n, self._engine.now)
            for t, resp, svc in zip(
                completion_times.tolist(), responses.tolist(), services.tolist()
            ):
                self._tracer.emit(
                    "request.completed", t, response_time=resp, service_time=svc
                )

    def fold_service_time(self) -> None:
        """Fold the bulk service times buffered since the last cut into ``T_m``."""
        self._tm_buffer.flush()

    def _fold_tm(self, services: np.ndarray, _paired: Optional[np.ndarray]) -> None:
        if not self._seen_completion:
            self._tm = float(services[0])
            self._seen_completion = True
            services = services[1:]
        if services.size and not (
            float(services.min()) == self._tm and float(services.max()) == self._tm
        ):
            alpha = self._alpha
            weights = (1.0 - alpha) ** np.arange(
                services.size - 1, -1, -1, dtype=np.float64
            )
            self._tm = float(
                (1.0 - alpha) ** services.size * self._tm
                + alpha * float(np.dot(weights, services))
            )

    def record_acceptances(self, count: int) -> None:
        """Observe ``count`` admitted requests at once."""
        self._metrics.record_acceptances(count)

    def record_rejections(self, count: int) -> None:
        """Observe ``count`` rejected requests at once."""
        self._metrics.record_rejections(count)

    def record_arrivals(self, count: int) -> None:
        """Observe ``count`` arrivals at once (rate-sampling counter)."""
        self._arrivals_in_window += int(count)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def mean_service_time(self) -> float:
        """Current monitored estimate of ``T_m`` (seconds).

        On the bulk path: as of the last cut or :meth:`fold_service_time`.
        """
        return self._tm

    @property
    def rate_sample_interval(self) -> Optional[float]:
        """Arrival-rate sampling cadence, or ``None`` when disabled."""
        return self._rate_interval

    def observed_rate(self) -> Optional[float]:
        """Most recent sampled arrival rate, or ``None``."""
        if not self.rate_history:
            return None
        return self.rate_history[-1][1]

    # ------------------------------------------------------------------
    def _sample_rate(self) -> None:
        assert self._rate_interval is not None
        rate = self._arrivals_in_window / self._rate_interval
        self.rate_history.append((self._engine.now, rate))
        self._arrivals_in_window = 0
        if self._tracer is not None:
            self._tracer.emit(
                "monitor.sample",
                self._engine.now,
                rate=rate,
                service_time_estimate=self._tm,
            )
        self._engine.schedule(self._rate_interval, self._sample_rate, PRIORITY_LOW)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Monitor Tm={self._tm:.6g}s samples={len(self.rate_history)}>"
