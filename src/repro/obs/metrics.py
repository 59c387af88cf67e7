"""Typed metrics registry — counters, gauges, mergeable histograms.

The trace bus (:mod:`repro.obs.bus`) transports *events*; this module
aggregates them into *metrics*: monotone :class:`Counter` totals,
last-value :class:`Gauge` readings, and a deterministic fixed-boundary
log-bucket :class:`Histogram` whose percentile queries return exact
bucket bounds.  The design rules mirror the bus:

* **zero cost when disabled** — components hold an optional
  :class:`MetricsRegistry` and guard each observation with one identity
  check, so a run without metrics executes exactly the seed code path;
* **no wall clocks, no randomness** — every value is a function of the
  simulation, never of the host (the :mod:`repro.lint` determinism rule
  applies to this module like any other);
* **picklable config** — :class:`MetricsConfig` is the frozen recipe
  the experiment runner threads through process pools, exactly like
  :class:`~repro.obs.bus.TraceConfig`;
* **lossless merge** — per-worker registries from
  ``run_replications(workers=N)`` combine with
  :meth:`MetricsRegistry.merge`: counters and histogram bucket counts
  add exactly; the histogram moments use Chan's parallel mean/M2
  combination, the one implementation in :mod:`repro.metrics.moments`
  that :class:`~repro.metrics.collector.MetricsCollector` uses too.

:class:`RunTelemetry` is the per-run session object the backends build
from a :class:`MetricsConfig`: it samples periodic ``metrics.snapshot``
events (SLA violation fraction and burn rate against the scenario's QoS
target, admission/rejection rates, fleet size, decision-cache hit
ratio, response-time histogram state) on the engine's clock, and
finalizes the registry into the ``telemetry`` field of
:class:`~repro.backends.base.RunMetrics`.

Snapshots carry only integers and exactly-derived ratios — never an
order-dependent float accumulation — which is why the snapshot series
is bit-identical between the scalar ``des`` and batched ``des-vec``
backends on jitterless scenarios (``tests/test_metrics_xbackend.py``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..metrics.moments import CutMoments, chan_merge

__all__ = [
    "METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsConfig",
    "RunTelemetry",
    "log_bucket_bounds",
    "response_time_bounds",
    "merge_telemetry",
]


#: Every metric the library may record: name → (kind, help).  The lint
#: trace-schema rule cross-checks ``registry.counter("...")``-style call
#: sites against this table in both directions (unregistered names and
#: registered-but-never-created entries are findings), so the table and
#: the instrumentation cannot drift apart silently.
METRIC_NAMES: Dict[str, Tuple[str, str]] = {
    "requests.arrived": ("counter", "arrivals offered to admission control"),
    "requests.accepted": ("counter", "requests admitted by admission control"),
    "requests.rejected": ("counter", "requests rejected at admission"),
    "requests.completed": ("counter", "requests that finished service"),
    "qos.violations": ("counter", "completed requests with response time > Ts"),
    "qos.response_time": ("histogram", "response time of completed requests (scenario seconds)"),
    "control.decisions": ("counter", "Algorithm-1 decisions actuated"),
    "control.cache_hits": ("counter", "decision-cache hits of the run's modeler"),
    "control.cache_misses": ("counter", "decision-cache misses of the run's modeler"),
    "fleet.size": ("gauge", "serving instances after the latest actuation"),
    "fleet.target": ("gauge", "fleet size requested by the latest decision"),
    "batch.spans": ("counter", "non-empty vectorized spans (each ends at a window start or epoch)"),
    "batch.flushed_requests": ("counter", "arrivals + completions absorbed by vectorized span flushes"),
    "economy.revenue": ("gauge", "income earned by completed requests (pricing units)"),
    "economy.cost": ("gauge", "blended on-demand + spot capacity bill (pricing units)"),
    "economy.penalty": ("gauge", "SLA fines over violating accounting intervals (pricing units)"),
    "economy.profit": ("gauge", "revenue - cost - penalty of the run (pricing units)"),
    "economy.spot_vm_hours": ("gauge", "VM-hours billed at the discounted spot rate"),
    "economy.revocations": ("counter", "spot instances reclaimed by the revocation injector"),
}


def log_bucket_bounds(
    lo: float, hi: float, per_decade: int = 8
) -> Tuple[float, ...]:
    """Deterministic logarithmic bucket boundaries covering ``[lo, hi]``.

    Bounds are ``lo · 10^(i/per_decade)`` for ``i = 0, 1, …`` until the
    first bound ≥ ``hi`` — a pure function of the arguments, so every
    process (and every backend) derives bitwise-identical boundaries.
    """
    if lo <= 0.0 or hi <= lo:
        raise ConfigurationError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if per_decade < 1:
        raise ConfigurationError(f"per_decade must be >= 1, got {per_decade}")
    bounds: List[float] = []
    i = 0
    while True:
        b = lo * 10.0 ** (i / per_decade)
        bounds.append(b)
        if b >= hi:
            return tuple(bounds)
        i += 1


def response_time_bounds(qos_response_time: float) -> Tuple[float, ...]:
    """Response-time buckets centered on the scenario's ``T_s``.

    Three decades below the QoS target to two above (8 buckets per
    decade) brackets everything from idle service times to deep
    saturation with ~33 % relative bucket resolution around ``T_s``.
    """
    return log_bucket_bounds(
        qos_response_time / 1000.0, qos_response_time * 100.0, per_decade=8
    )


class Counter:
    """Monotone total.  Merge = exact integer/float addition."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the total (used to sync from an existing collector)."""
        self.value = value

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}

    def load(self, data: dict) -> None:
        self.value = data["value"]


class Gauge:
    """Last observed value.  Merge keeps the maximum (documented choice:
    cross-replication gauges answer "how big did it get")."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value > self.value:
            self.value = other.value

    def to_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value}

    def load(self, data: dict) -> None:
        self.value = data["value"]


class Histogram:
    """Fixed-boundary histogram with Chan-mergeable moments.

    Bucket ``i`` covers ``[bounds[i-1], bounds[i])`` (bucket 0 is
    everything below ``bounds[0]``); one final overflow bucket catches
    values ≥ ``bounds[-1]``, so ``len(counts) == len(bounds) + 1``.
    Observation uses ``np.searchsorted(side="right")`` — scalar
    observations are buffered in a plain list and bulk-ingested through
    the same kernel as :meth:`observe_many`, so scalar and vectorized
    feeds bucket identically *and* the scalar hot path is a single
    ``list.append`` (the deferred work is amortized over the whole
    buffer at the next read).

    Besides the bucket counts the histogram keeps count/mean/M2 moments
    (:class:`~repro.metrics.moments.CutMoments`), merged at fixed cuts
    of the observation sequence, so they do not depend on how the
    observations were batched or when the histogram was read.
    :meth:`merge` joins two histograms with Chan's parallel update,
    making per-worker histograms combine losslessly (counts are exact;
    moments are exact up to float associativity).
    """

    __slots__ = ("name", "bounds", "_counts", "_moments", "_pending")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        b = tuple(float(x) for x in bounds)
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing and non-empty, got {b!r}"
            )
        self.name = name
        self.bounds = b
        self._counts = [0] * (len(b) + 1)
        self._moments = CutMoments()
        self._pending: List[float] = []

    # -- observation ----------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation (hot path: a single list append)."""
        self._pending.append(value)

    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch (vectorized bucketing, moments at the cuts)."""
        self._flush()
        self._ingest(np.asarray(values, dtype=np.float64))

    def _flush(self) -> None:
        """Fold buffered scalar observations into the accumulators."""
        if self._pending:
            pending, self._pending = self._pending, []
            self._ingest(np.asarray(pending, dtype=np.float64))

    def _ingest(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        idx = np.searchsorted(self.bounds, arr, side="right")
        binned = np.bincount(idx, minlength=len(self._counts))
        counts = self._counts
        for i, c in enumerate(binned.tolist()):
            if c:
                counts[i] += c
        self._moments.buffer.extend(arr)

    def _totals(self) -> Tuple[int, float, float]:
        self._flush()
        return self._moments.totals()[:3]

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        """Total observations (exact even with a pending buffer)."""
        m = self._moments
        return m.count + m.buffer.pending + len(self._pending)

    @property
    def counts(self) -> List[int]:
        """Per-bucket counts (flushes the pending buffer first)."""
        self._flush()
        return list(self._counts)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations."""
        return self._totals()[1]

    @property
    def sum(self) -> float:
        """Σ observations (mean × count — consistent with the moments)."""
        count, mean, _ = self._totals()
        return mean * count

    @property
    def variance(self) -> float:
        """Sample variance (0 with fewer than 2 observations)."""
        count, _, m2 = self._totals()
        return m2 / (count - 1) if count > 1 else 0.0

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (last = total)."""
        self._flush()
        out: List[int] = []
        acc = 0
        for c in self._counts:
            acc += c
            out.append(acc)
        return out

    def percentile_bound(self, q: float) -> float:
        """Exclusive upper bound of the bucket holding the q-quantile.

        With ``r = ⌈q·n⌉`` (the rank of the empirical q-quantile, 1-based),
        returns ``bounds[i]`` for the first bucket whose cumulative count
        reaches ``r`` — an *exact* bracket: the r-th smallest observation
        ``v`` satisfies ``lower ≤ v < percentile_bound(q)`` where
        ``lower`` is the previous bound.  Returns 0.0 when empty and
        ``inf`` when the quantile falls in the overflow bucket.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1], got {q!r}")
        self._flush()
        count = self.count
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(q * count))
        acc = 0
        for i, c in enumerate(self._counts):
            acc += c
            if acc >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - counts always sum to count

    # -- merge / persistence -------------------------------------------
    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ConfigurationError(
                f"cannot merge histograms with different bounds ({self.name})"
            )
        for i, c in enumerate(other.counts):
            self._counts[i] += c
        self._moments.load(*chan_merge(*self._totals(), *other._totals()))

    def to_dict(self) -> dict:
        count, mean, m2 = self._totals()
        return {
            "kind": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "count": count,
            "mean": mean,
            "m2": m2,
        }

    def load(self, data: dict) -> None:
        if tuple(data["bounds"]) != self.bounds:
            self.bounds = tuple(data["bounds"])
        self._counts = list(data["counts"])
        self._moments.load(data["count"], data["mean"], data["m2"])
        self._pending = []


class MetricsRegistry:
    """Name → metric map, validated against :data:`METRIC_NAMES`.

    Creation is get-or-create: components look their instruments up by
    name, and the first caller (typically the backend, which knows the
    scenario's QoS target) fixes histogram boundaries.  Unknown names
    or kind mismatches raise — the runtime twin of the lint rule.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _declare(self, name: str, kind: str):
        spec = METRIC_NAMES.get(name)
        if spec is None:
            raise ConfigurationError(
                f"unregistered metric name {name!r}; add it to "
                "repro.obs.metrics.METRIC_NAMES"
            )
        if spec[0] != kind:
            raise ConfigurationError(
                f"metric {name!r} is registered as a {spec[0]}, not a {kind}"
            )
        existing = self._metrics.get(name)
        if existing is not None and existing.kind != kind:  # pragma: no cover
            raise ConfigurationError(f"metric {name!r} already exists as {existing.kind}")
        return existing

    def counter(self, name: str) -> Counter:
        existing = self._declare(name, "counter")
        if existing is None:
            existing = self._metrics[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._declare(name, "gauge")
        if existing is None:
            existing = self._metrics[name] = Gauge(name)
        return existing

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        existing = self._declare(name, "histogram")
        if existing is None:
            if bounds is None:
                bounds = log_bucket_bounds(1e-3, 1e4)
            existing = self._metrics[name] = Histogram(name, bounds)
        return existing

    def get(self, name: str):
        """The live metric, or ``None`` if nothing created it yet."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges max,
        histograms Chan-merge).  Metrics absent here are deep-copied in
        via their dict form."""
        for name in other:
            theirs = other.get(name)
            mine = self._metrics.get(name)
            if mine is None:
                if theirs.kind == "histogram":
                    mine = self.histogram(name, bounds=theirs.bounds)
                elif theirs.kind == "gauge":
                    mine = self.gauge(name)
                else:
                    mine = self.counter(name)
            mine.merge(theirs)

    def to_dict(self) -> Dict[str, dict]:
        return {name: self.get(name).to_dict() for name in self}

    @classmethod
    def from_dict(cls, data: Dict[str, dict]) -> "MetricsRegistry":
        reg = cls()
        for name, payload in data.items():
            kind = payload.get("kind")
            if kind == "counter":
                reg.counter(name).load(payload)
            elif kind == "gauge":
                reg.gauge(name).load(payload)
            elif kind == "histogram":
                reg.histogram(name, bounds=payload["bounds"]).load(payload)
            else:
                raise ConfigurationError(f"unknown metric kind {kind!r} for {name!r}")
        return reg


def merge_telemetry(telemetries: Sequence[dict]) -> Dict[str, dict]:
    """Merge the registry dumps of several runs' ``telemetry`` fields.

    Accepts the ``RunMetrics.telemetry`` dicts of a replication set
    (empty ones — metrics-off runs — are skipped) and returns one
    combined registry dump: the lossless cross-worker merge promised by
    the parallel runner.
    """
    merged = MetricsRegistry()
    for t in telemetries:
        if t and t.get("registry"):
            merged.merge(MetricsRegistry.from_dict(t["registry"]))
    return merged.to_dict()


def _filename_component(label: str) -> str:
    return re.sub(r"[/\\\s]+", "_", label.strip()) or "unnamed"


@dataclass(frozen=True)
class MetricsConfig:
    """Picklable recipe for one run's telemetry (mirror of TraceConfig).

    Parameters
    ----------
    interval:
        Snapshot cadence in simulation seconds.  ``None`` samples once
        per monitor epoch (the scenario's ``update_interval``).
    path:
        Optional JSONL destination for the snapshot stream.  Same
        placeholder/directory semantics as
        :class:`~repro.obs.bus.TraceConfig.path`; each run writes
        ``<scenario>-<policy>-s<seed>.jsonl``.
    slo_quantile:
        The SLA objective the burn rate is measured against: the
        fraction of completed requests that must meet ``T_s``
        (error budget = ``1 - slo_quantile``).  The paper's QoS
        contract has no explicit percentile, so the conventional
        95th-percentile objective is the default.
    history:
        Keep the snapshot series in memory (returned inside
        ``RunMetrics.telemetry``); disable for very long runs streamed
        to ``path`` — the backends then stream each snapshot straight
        to the JSONL file as it is taken, so nothing accumulates in
        memory and nothing is lost.
    """

    interval: Optional[float] = None
    path: Optional[str] = None
    slo_quantile: float = 0.95
    history: bool = True

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0.0:
            raise ConfigurationError(
                f"snapshot interval must be > 0, got {self.interval!r}"
            )
        if not 0.0 < self.slo_quantile < 1.0:
            raise ConfigurationError(
                f"slo_quantile must be in (0, 1), got {self.slo_quantile!r}"
            )

    def resolve_path(self, scenario: str, policy: str, seed: int) -> Path:
        """Concrete JSONL path for one (scenario, policy, seed)."""
        scenario = _filename_component(scenario)
        policy = _filename_component(policy)
        raw = str(self.path)
        if "{" in raw:
            return Path(raw.format(scenario=scenario, policy=policy, seed=seed))
        p = Path(raw)
        if raw.endswith(("/", "\\")) or p.is_dir():
            return p / f"{scenario}-{policy}-s{seed}.jsonl"
        return p

    def build(self, qos_response_time: float) -> MetricsRegistry:
        """A fresh registry with QoS-centered response-time buckets."""
        registry = MetricsRegistry()
        registry.histogram(
            "qos.response_time", bounds=response_time_bounds(qos_response_time)
        )
        return registry


class RunTelemetry:
    """Per-run snapshot sampler + registry finalizer.

    Built by a backend once per run when a :class:`MetricsConfig` is
    supplied.  On the DES backends :meth:`install` schedules a periodic
    low-priority engine event that calls :meth:`sample`; the fluid
    backend computes the same series from its integration grid via
    :meth:`sample_grid`.  Either way :meth:`finalize` syncs the final
    counter totals into the registry and returns the ``telemetry`` dict
    attached to :class:`~repro.backends.base.RunMetrics`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        config: MetricsConfig,
        qos_response_time: float,
        interval: float,
        collector=None,
        fleet_size_fn: Optional[Callable[[], int]] = None,
        cache_fn: Optional[Callable[[], Tuple[int, int]]] = None,
        tracer: Optional[object] = None,
    ) -> None:
        if interval <= 0.0:
            raise ConfigurationError(f"snapshot interval must be > 0, got {interval!r}")
        self.registry = registry
        self.config = config
        self.qos_response_time = float(qos_response_time)
        self.interval = float(interval)
        self.collector = collector
        self.fleet_size_fn = fleet_size_fn
        self.cache_fn = cache_fn
        self.tracer = tracer
        self.snapshots: List[dict] = []
        # Incremental JSONL stream (history-off mode); see open_stream.
        self._stream = None
        self._stream_tmp: Optional[Path] = None
        self._stream_target: Optional[Path] = None
        # Previous-window counters for the burn-rate delta.
        self._prev_completed = 0
        self._prev_violations = 0

    # -- engine-driven sampling (des / des-vec) ------------------------
    def install(self, engine) -> None:
        """Schedule the periodic snapshot tick on the engine."""
        from ..sim.events import PRIORITY_LOW

        def _tick() -> None:
            self.sample(engine.now)
            engine.schedule(self.interval, _tick, PRIORITY_LOW)

        engine.schedule(self.interval, _tick, PRIORITY_LOW)

    def sample(self, now: float) -> dict:
        """Take one snapshot of the run's QoS state at time ``now``.

        Every field is an integer or a ratio of integers, so the
        snapshot is a deterministic, backend-independent function of
        the counters — no order-dependent float sums.
        """
        m = self.collector
        completed = m.completed if m is not None else 0
        accepted = m.accepted if m is not None else 0
        rejected = m.rejected if m is not None else 0
        violations = m.violations if m is not None else 0
        return self._emit_snapshot(
            now, completed, accepted, rejected, violations,
            fleet=self.fleet_size_fn() if self.fleet_size_fn is not None else 0,
        )

    def _emit_snapshot(
        self,
        now: float,
        completed,
        accepted,
        rejected,
        violations,
        fleet: int,
        window_completed=None,
        window_violations=None,
    ) -> dict:
        if window_completed is None:
            window_completed = completed - self._prev_completed
            window_violations = violations - self._prev_violations
            self._prev_completed = completed
            self._prev_violations = violations
        budget = 1.0 - self.config.slo_quantile
        hist = self.registry.get("qos.response_time")
        if self.cache_fn is not None:
            hits, misses = self.cache_fn()
        else:
            hits, misses = 0, 0
        total = accepted + rejected
        snapshot = {
            "t": now,
            "type": "metrics.snapshot",
            "interval": self.interval,
            "qos_target": self.qos_response_time,
            "total": total,
            "accepted": accepted,
            "rejected": rejected,
            "completed": completed,
            "violations": violations,
            "fleet": int(fleet),
            "rejection_rate": rejected / total if total else 0.0,
            "violation_fraction": violations / completed if completed else 0.0,
            "window_completed": window_completed,
            "window_violations": window_violations,
            "burn_rate": (
                (window_violations / window_completed) / budget
                if window_completed
                else 0.0
            ),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_ratio": hits / (hits + misses) if (hits + misses) else 0.0,
            "p50": hist.percentile_bound(0.50) if hist is not None else 0.0,
            "p95": hist.percentile_bound(0.95) if hist is not None else 0.0,
            "p99": hist.percentile_bound(0.99) if hist is not None else 0.0,
            "bounds": list(hist.bounds) if hist is not None else [],
            "buckets": hist.cumulative_counts() if hist is not None else [],
        }
        if self.config.history:
            self.snapshots.append(snapshot)
        if self._stream is not None:
            self._stream.write(json.dumps(snapshot, separators=(",", ":")) + "\n")
        if self.tracer is not None:
            fields = {k: v for k, v in snapshot.items() if k not in ("t", "type")}
            self.tracer.emit("metrics.snapshot", now, **fields)
        return snapshot

    # -- grid-driven sampling (fluid backend) --------------------------
    def sample_grid(
        self,
        times: np.ndarray,
        dt: float,
        lam: np.ndarray,
        blocking: np.ndarray,
        m_grid: np.ndarray,
        horizon: float,
    ) -> None:
        """Compute the snapshot series from a fluid integration grid.

        Counts are *expected* flows (floats): cumulative offered /
        rejected arrivals up to each snapshot time, with ``completed ==
        accepted`` (flows always drain) and zero violations (the fluid
        model has no per-request response distribution — histogram
        buckets stay empty, percentile bounds report 0).
        """
        if times.size == 0:
            return
        snap_times = np.arange(self.interval, horizon + 1e-9, self.interval)
        cum_offered = np.concatenate(([0.0], np.cumsum(lam))) * dt
        cum_rejected = np.concatenate(([0.0], np.cumsum(lam * blocking))) * dt
        idx = np.searchsorted(times, snap_times, side="left")
        fleet_idx = np.clip(idx - 1, 0, m_grid.size - 1)
        for k, t_snap in enumerate(snap_times.tolist()):
            i = int(idx[k])
            offered = float(cum_offered[i])
            rejected = float(cum_rejected[i])
            accepted = offered - rejected
            self._emit_snapshot(
                t_snap,
                completed=accepted,
                accepted=accepted,
                rejected=rejected,
                violations=0,
                fleet=int(m_grid[int(fleet_idx[k])]),
                window_completed=0,
                window_violations=0,
            )

    # -- finalization ---------------------------------------------------
    def finalize(
        self,
        total,
        accepted,
        rejected,
        completed,
        violations,
        fleet: int,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> dict:
        """Sync final totals into the registry and dump the telemetry.

        The request counters are *synced* from the run's collector
        rather than incremented per request — the hot path pays only
        for the histogram observation, and the totals still merge
        correctly across replications (each run contributes its own
        final counts).
        """
        reg = self.registry
        reg.counter("requests.arrived").set_total(total)
        reg.counter("requests.accepted").set_total(accepted)
        reg.counter("requests.rejected").set_total(rejected)
        reg.counter("requests.completed").set_total(completed)
        reg.counter("qos.violations").set_total(violations)
        reg.counter("control.cache_hits").set_total(cache_hits)
        reg.counter("control.cache_misses").set_total(cache_misses)
        reg.gauge("fleet.size").set(int(fleet))
        return {
            "version": 1,
            "interval": self.interval,
            "slo_quantile": self.config.slo_quantile,
            "qos_target": self.qos_response_time,
            "registry": reg.to_dict(),
            "snapshots": list(self.snapshots),
        }

    # -- persistence ----------------------------------------------------
    def open_stream(self, path: Path) -> Path:
        """Stream every subsequent snapshot straight to ``path``.

        Backends call this before the run when the config has a
        ``path`` but ``history`` is disabled: each snapshot is appended
        to a ``.tmp`` sibling the moment it is taken (nothing
        accumulates in memory), and :meth:`close_stream` atomically
        renames it into place.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._stream_target = path
        self._stream_tmp = path.with_suffix(path.suffix + ".tmp")
        self._stream = self._stream_tmp.open("w", encoding="utf-8")
        return path

    def close_stream(self) -> Optional[Path]:
        """Flush and publish a stream opened by :meth:`open_stream`.

        Idempotent; returns the published path, or ``None`` when no
        stream is open.  Publishes whatever was streamed so far, so an
        interrupted run still keeps its partial series.
        """
        if self._stream is None:
            return None
        self._stream.close()
        self._stream = None
        self._stream_tmp.replace(self._stream_target)
        self._stream_tmp = None
        return self._stream_target

    def write_jsonl(self, path: Path) -> Path:
        """Write the snapshot series as one JSONL file (trace-schema
        valid: each line is a ``metrics.snapshot`` event).

        In streaming mode (``open_stream`` active) the series is
        already on disk — this just closes and publishes the stream.
        """
        if self._stream is not None:
            return self.close_stream()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for snap in self.snapshots:
                fh.write(json.dumps(snap, separators=(",", ":")) + "\n")
        tmp.replace(path)
        return path
