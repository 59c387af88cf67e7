"""Span recorder for the traced benchmark run.

The recorder measures each layer *from outside*: it replaces public
methods of the ``repro`` classes listed in :data:`TARGETS` with thin
timing wrappers for the duration of a ``with SpanRecorder():`` block
and puts the originals back on exit.  Nothing under ``src/`` knows it
is being measured.

Every wrapped call is one span.  A span's *self time* is its duration
minus the durations of the wrapped spans nested inside it, so the self
times of all spans add up to the time covered by the outermost spans;
whatever the traced body spends outside every span is reported as
``unattributed_s``.  A call that re-enters the span it is already in
(``ScaledWorkload.sample_window`` delegating to the inner workload, a
scaled predictor delegating to its inner predictor) is folded into the
outer span instead of being counted twice.

The recorder keeps one nesting stack, so it assumes the wrapped calls
run on one thread.  The benchmark drives every workload from the main
thread with ``workers=1``; the campaign lease heartbeat is the only
other thread, and the one store method it calls (``renew``) is left
unwrapped for that reason.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "SpanStats", "TARGETS", "percentile_us"]


class SpanStats:
    """Accumulated calls, self time and (optionally) per-call durations."""

    __slots__ = ("calls", "self_s", "samples", "extra")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples: Optional[List[float]] = [] if keep_samples else None
        #: Counters the span's observer adds (requests assigned, ...).
        self.extra: Dict[str, float] = {}


def _count_arg(index: int, key: str):
    """Observer adding ``len(args[index])`` to ``extra[key]``."""

    def observe(stats: SpanStats, args: tuple, result) -> None:
        stats.extra[key] = stats.extra.get(key, 0) + len(args[index])

    return observe


def _count_result(key: str):
    """Observer adding ``len(result)`` to ``extra[key]``."""

    def observe(stats: SpanStats, args: tuple, result) -> None:
        stats.extra[key] = stats.extra.get(key, 0) + len(result)

    return observe


def _count_true(key: str):
    """Observer counting truthy results in ``extra[key]``."""

    def observe(stats: SpanStats, args: tuple, result) -> None:
        if result:
            stats.extra[key] = stats.extra.get(key, 0) + 1

    return observe


def _count_drained(stats: SpanStats, args: tuple, result) -> None:
    # SoAQueues.drain returns waves of (done, dep, arr, svc) arrays.
    stats.extra["completions"] = stats.extra.get("completions", 0) + sum(
        len(wave[0]) for wave in result
    )


@dataclass(frozen=True)
class Target:
    """One method to wrap: ``module.owner.method`` recorded as ``span``.

    With ``subclasses`` set, every subclass of ``owner`` that defines
    ``method`` itself is wrapped too, under the same span name.
    """

    module: str
    owner: str
    method: str
    span: str
    subclasses: bool = False
    samples: bool = False
    observe: Optional[Callable[[SpanStats, tuple, object], None]] = None


#: The layer boundaries, named after the repo's modules.
TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.batch", "SoAQueues", "assign", "sim.batch.assign",
           observe=_count_arg(1, "requests")),
    Target("repro.sim.batch", "SoAQueues", "drain", "sim.batch.drain",
           observe=_count_drained),
    Target("repro.cloud.vecfleet", "VectorFleet", "advance", "cloud.vecfleet.advance",
           samples=True),
    Target("repro.cloud.vecfleet", "VectorFleet", "load", "cloud.vecfleet.load"),
    Target("repro.cloud.vecfleet", "VectorFleet", "kill", "cloud.vecfleet.kill"),
    Target("repro.cloud.vecfleet", "VectorFleet", "scale_to", "cloud.vecfleet.scale_to"),
    Target("repro.cloud.monitor", "Monitor", "record_responses",
           "cloud.monitor.record_responses"),
    Target("repro.workloads.base", "Workload", "sample_window", "workloads.sample_window",
           subclasses=True, observe=_count_result("arrivals")),
    Target("repro.workloads.base", "ServiceTimeSampler", "draw_many",
           "workloads.draw_many"),
    Target("repro.sim.engine", "Engine", "step", "sim.engine.step"),
    Target("repro.sim.engine", "Engine", "run", "sim.engine.run"),
    Target("repro.cloud.admission", "AdmissionControl", "submit",
           "cloud.admission.submit", observe=_count_true("accepted")),
    Target("repro.cloud.fleet", "ApplicationFleet", "dispatch", "cloud.fleet.dispatch"),
    Target("repro.core.controlplane", "ControlPlane", "step", "core.controlplane.step"),
    Target("repro.core.controlplane", "ControlPlane", "on_estimate",
           "core.controlplane.on_estimate"),
    Target("repro.core.modeler", "PerformanceModeler", "decide", "core.modeler.decide",
           samples=True),
    Target("repro.queueing.network", "ProvisioningNetwork", "evaluate",
           "queueing.evaluate"),
    Target("repro.prediction.base", "ArrivalRatePredictor", "predict",
           "prediction.predict", subclasses=True),
    Target("repro.economy.ledger", "ProfitLedger", "sample", "economy.ledger.sample"),
    # The m* search calls the profit-rate kernel directly; the public
    # ``profit_rate`` goes through it too, so this counts both.
    Target("repro.economy.policies", "ProfitModeler", "_profit_value",
           "economy.profit_rate"),
    Target("repro.obs.metrics", "RunTelemetry", "sample", "obs.metrics.sample"),
    Target("repro.obs.metrics", "Histogram", "observe_many", "obs.metrics.observe_many"),
    Target("repro.sim.fluid", "FluidSimulator", "run_adaptive", "sim.fluid.run_adaptive"),
    Target("repro.sim.fluid", "FluidSimulator", "run_static", "sim.fluid.run_static"),
    Target("repro.campaigns.store", "ResultStore", "put", "campaigns.store.put"),
    Target("repro.campaigns.store", "ResultStore", "claim", "campaigns.store.claim"),
    Target("repro.campaigns.store", "ResultStore", "release", "campaigns.store.claim"),
)

#: Modules whose subclasses must be imported before the subclass walk.
_SUBCLASS_MODULES = (
    "repro.workloads",
    "repro.prediction",
    "repro.core.policies",
)


def _all_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class SpanRecorder:
    """Context manager that wraps :data:`TARGETS` and records spans.

    Stats accumulate across every ``with`` block of one recorder.

    ``probes`` maps ``module.owner.method`` to a callback receiving
    ``(result, seconds)`` for calls that are timed but are *not* spans
    (the backend ``run`` methods: their wall time and ``RunMetrics``
    feed ``backends.*`` and ``campaigns.overhead_s`` without swallowing
    the time the layers leave unattributed).
    """

    def __init__(
        self,
        probes: Optional[Dict[Tuple[str, str, str], Callable[[object, float], None]]] = None,
    ) -> None:
        self.probes = dict(probes or {})
        self.stats: Dict[str, SpanStats] = {}
        #: Seconds of foreign work (the host-speed sampler) taken out.
        self.excluded_s = 0.0
        #: One ``[stats, child seconds, excluded seconds]`` frame per open span.
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "SpanRecorder":
        import importlib

        for name in _SUBCLASS_MODULES:
            importlib.import_module(name)
        try:
            for t in TARGETS:
                owner = getattr(importlib.import_module(t.module), t.owner)
                stats = self.stats.get(t.span)
                if stats is None:
                    stats = self.stats[t.span] = SpanStats(t.samples)
                classes = _all_subclasses(owner) if t.subclasses else [owner]
                for cls in classes:
                    fn = vars(cls).get(t.method)
                    if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                        self._patch(cls, t.method, self._span(fn, stats, t.observe))
            for (module, owner_name, method), callback in self.probes.items():
                cls = getattr(importlib.import_module(module), owner_name)
                self._patch(cls, method, self._probe(vars(cls)[method], callback))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, cls: type, name: str, wrapper) -> None:
        self._patched.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def _restore(self) -> None:
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------------
    def _span(self, fn, stats: SpanStats, observe):
        stack = self._stack
        clock = time.perf_counter
        samples = stats.samples

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is stats:
                return fn(*args, **kwargs)
            frame = [stats, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if samples is not None:
                    samples.append(dur - frame[2])
            if observe is not None:
                observe(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _probe(self, fn, callback):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            excluded = self.excluded_s
            t0 = clock()
            result = fn(*args, **kwargs)
            callback(result, clock() - t0 - (self.excluded_s - excluded))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of foreign work, done inside the open spans, out of them.

        The time counts as a child of the innermost span (so it leaves
        that span's self time) and is removed from every open span's
        per-call duration sample.
        """
        self.excluded_s += seconds
        stack = self._stack
        if stack:
            stack[-1][1] += seconds
            for frame in stack:
                frame[2] += seconds

    def span(self, name: str) -> SpanStats:
        """Stats of one span name (a zeroed record if never declared)."""
        return self.stats.get(name) or SpanStats(False)

    def attributed_s(self) -> float:
        """Summed self time of every span."""
        return sum(s.self_s for s in self.stats.values())


def percentile_us(samples: Optional[List[float]], q: float) -> float:
    """The ``q``-quantile of ``samples`` in microseconds, or 0.0.

    Reported only when at least ten samples lie beyond the quantile
    (``n * (1 - q) >= 10``); with fewer the tail is not measured and
    the value reads 0.0.
    """
    if not samples or len(samples) * (1.0 - q) < 10:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] * 1e6
