"""Admission control — the SaaS-layer request gate.

From the paper (§IV): "its SaaS layer contains an admission control
mechanism based on the number of requests on each application instance:
if all virtualized application instances have k requests in their
queues, new requests are rejected, because they are likely to violate
``Ts``.  Accepted requests are forwarded to the provider's PaaS layer."

Because ``k = ⌊Ts/Tr⌋`` (Eq. 1), an accepted request waits behind at
most ``k − 1`` others and therefore completes within ``Ts`` in
expectation — "requests are either rejected or served in a time
acceptable by clients".

:class:`AdmissionControl` is the front door of the whole deployment:
every arrival passes through :meth:`submit`, which dispatches through
the fleet's balancer or records a rejection.
"""

from __future__ import annotations

from typing import Optional

from .fleet import ApplicationFleet
from .monitor import Monitor

__all__ = ["AdmissionControl"]


class AdmissionControl:
    """Queue-length-based admission gate.

    Parameters
    ----------
    fleet:
        The application fleet requests are dispatched into.
    monitor:
        Monitoring sink.  Arrivals go to it (for rate sampling);
        acceptances and rejections are recorded on its
        :attr:`~repro.cloud.monitor.Monitor.metrics` collector.
    count_arrivals:
        When true, every arrival is also reported to the monitor's
        rate sampler (needed by reactive predictors; costs one method
        call per request, so benchmarks that use model-informed
        predictors leave it off).
    tracer:
        Optional :class:`repro.obs.bus.TraceBus`.  When set, every
        submission emits ``request.admitted`` / ``request.rejected``
        and every accept↔reject transition emits ``admission.state`` —
        the paper's "all instances hold k" condition becoming
        observable as discrete gate flips.  When ``None`` (default)
        the hot path is exactly the untraced code.
    """

    __slots__ = (
        "_fleet",
        "_monitor",
        "_count_arrivals",
        "_tracer",
        "_accepting",
        "_record_acceptance",
        "_record_rejection",
    )

    def __init__(
        self,
        fleet: ApplicationFleet,
        monitor: Monitor,
        count_arrivals: bool = False,
        tracer: Optional["object"] = None,
    ) -> None:
        self._fleet = fleet
        self._monitor = monitor
        self._count_arrivals = bool(count_arrivals)
        self._tracer = tracer
        self._accepting: Optional[bool] = None
        # Counts go straight to the run's collector: one call per
        # request instead of a hop through the monitor.
        self._record_acceptance = monitor.metrics.record_acceptance
        self._record_rejection = monitor.metrics.record_rejection

    def submit(self, arrival_time: float) -> bool:
        """Admit (and dispatch) or reject one request.

        Returns ``True`` when the request was accepted.
        """
        if self._count_arrivals:
            self._monitor.record_arrival()
        accepted = self._fleet.dispatch(arrival_time)
        tracer = self._tracer
        if tracer is not None:
            if accepted is not self._accepting:
                self._accepting = accepted
                tracer.emit("admission.state", arrival_time, accepting=accepted)
            tracer.emit(
                "request.admitted" if accepted else "request.rejected", arrival_time
            )
        if accepted:
            self._record_acceptance()
            return True
        self._record_rejection()
        return False
