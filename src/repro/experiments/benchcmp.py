"""Benchmark regression gates — one registry, diffed against a committed baseline.

``repro bench --compare BENCH_PR17.json`` re-measures the named *gates*
of :data:`BENCH_GATES` — code paths a backend really runs: the scalar
event chain, the end-to-end des / des-vec web day, and three on/off
overhead ratios — and fails loudly (non-zero exit in the CLI) when any
gate exceeds its bound.  A gate has one of two bounds:

* a *ceiling* — the three overhead ratios (metrics on/off, lease
  scheduler on/off, profit m* vs Algorithm 1) are dimensionless and
  carry an absolute bound; they fail above it whatever the baseline;
* *baseline x tolerance* — every other gate reads its seconds from the
  baseline's uniform ``{"gates": {"<id>": {"seconds": ...}}}`` section
  (what :func:`baseline_document` emits) and fails above that times
  ``tolerance``.  A baseline gate absent from the document reports
  ``no-baseline`` and never fails the run.

Tolerances are deliberately generous (default 3.0x) — baselines travel
across hosts and shared CI hosts jitter, so the gate catches
order-of-magnitude regressions (an accidentally quadratic loop, a lost
vectorization), not 10% noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .bench import (
    _best_of,
    engine_throughput,
    metrics_overhead,
    profit_policy_overhead,
    shard_overhead,
)

__all__ = [
    "BENCH_GATES",
    "GateResult",
    "baseline_document",
    "compare_to_baseline",
    "format_comparison",
    "lookup_gate",
    "measure_gate",
]


@dataclass(frozen=True)
class Gate:
    """One named benchmark and its bound.

    A gate with a ``ceiling`` fails when its measurement exceeds that
    absolute value; any other gate fails past baseline x tolerance.
    ``slow`` gates (multi-second end-to-end runs) are skipped in quick
    mode.
    """

    measure: Callable[[], float]
    slow: bool = False
    ceiling: Optional[float] = None


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate comparison.

    ``bound`` is what ``new_seconds`` may not exceed: the gate's
    ``ceiling`` when it has one, else ``old_seconds * tolerance``, else
    ``None`` (no baseline — the gate cannot regress).
    """

    gate: str
    new_seconds: float
    old_seconds: Optional[float]
    tolerance: float
    ceiling: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        if self.old_seconds is None or self.old_seconds <= 0:
            return None
        return self.new_seconds / self.old_seconds

    @property
    def bound(self) -> Optional[float]:
        if self.ceiling is not None:
            return self.ceiling
        if self.old_seconds is None or self.old_seconds <= 0:
            return None
        return self.old_seconds * self.tolerance

    @property
    def regressed(self) -> bool:
        bound = self.bound
        return bound is not None and self.new_seconds > bound


def _engine_seconds(events: int) -> float:
    return engine_throughput(events=events)["best_seconds"]


def _web_day_seconds(backend: str, scale: float, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock of one adaptive web day."""
    from ..core.policies import AdaptivePolicy
    from .runner import run_policy
    from .scenario import web_scenario

    scenario = web_scenario(scale=scale, horizon=24 * 3600.0)
    return _best_of(
        lambda: run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend),
        repeats,
    )


def _overhead_ratio(bench: Callable[..., Dict[str, Any]], **params: Any) -> float:
    return bench(**params)["overhead_ratio"]


#: The comparable gates, in report order.  Values are seconds except
#: the three ``ceiling`` gates, which are on/off wall-clock ratios —
#: dimensionless, lower is better, bounded absolutely because a ratio
#: is already host-normalised.  The ceilings leave shared CI runners
#: slack over the quiet-host budgets the bench functions report as
#: ``criterion`` (metrics <=1.10x, lease scheduler <=1.05x, profit
#: m* <=1.10x).
BENCH_GATES: Dict[str, Gate] = {
    "engine_event_throughput_50k": Gate(partial(_engine_seconds, 50_000)),
    "engine_event_throughput_500k": Gate(
        partial(_engine_seconds, 500_000), slow=True
    ),
    # ~0.08 s on the des-vec path, cheap enough for quick mode; ~70 %
    # of it (under cProfile) is VectorFleet.advance — window pull,
    # SoAQueues.assign, flush — and the rest the control plane.
    "des_vec_web_day_scale1000": Gate(
        partial(_web_day_seconds, "des-vec", 1000.0, repeats=3)
    ),
    "des_end_to_end_web_scale100": Gate(
        partial(_web_day_seconds, "des", 100.0), slow=True
    ),
    "des_vec_end_to_end_web_scale100": Gate(
        partial(_web_day_seconds, "des-vec", 100.0), slow=True
    ),
    "metrics_overhead_ratio": Gate(
        partial(
            _overhead_ratio,
            metrics_overhead,
            scale=1000.0,
            horizon=4 * 3600.0,
            repeats=3,
        ),
        ceiling=1.25,
    ),
    "shard_orchestration_overhead": Gate(
        partial(_overhead_ratio, shard_overhead, seeds="0-7", repeats=9),
        ceiling=1.25,
    ),
    "profit_policy_overhead": Gate(
        partial(_overhead_ratio, profit_policy_overhead, steps=120, repeats=3),
        ceiling=1.35,
    ),
}


def lookup_gate(doc: Mapping[str, Any], gate_id: str) -> Optional[float]:
    """The baseline ``gates.<gate_id>.seconds`` in ``doc``, or ``None``."""
    node: Any = doc
    for key in ("gates", gate_id, "seconds"):
        node = node.get(key) if isinstance(node, Mapping) else None
    return float(node) if isinstance(node, (int, float)) else None


def measure_gate(gate_id: str) -> float:
    """Freshly measure one gate (seconds, or a ratio — lower is better)."""
    return BENCH_GATES[gate_id].measure()


def compare_to_baseline(
    baseline: Mapping[str, Any],
    tolerance: float = 3.0,
    quick: bool = False,
    gates: Optional[Sequence[str]] = None,
) -> List[GateResult]:
    """Measure every applicable gate and diff it against ``baseline``.

    ``quick=True`` skips the ``slow`` (multi-second) gates; ``gates``
    restricts the run to an explicit subset.  A gate without a ceiling
    that is missing from the baseline document still measures and
    reports, but cannot regress.
    """
    selected = list(gates) if gates is not None else list(BENCH_GATES)
    results: List[GateResult] = []
    for gate_id in selected:
        gate = BENCH_GATES[gate_id]
        if quick and gate.slow:
            continue
        results.append(
            GateResult(
                gate=gate_id,
                new_seconds=gate.measure(),
                old_seconds=lookup_gate(baseline, gate_id),
                tolerance=float(tolerance),
                ceiling=gate.ceiling,
            )
        )
    return results


def baseline_document(results: Sequence[GateResult]) -> Dict[str, Any]:
    """The uniform ``{"gates": ...}`` section for a new BENCH_*.json."""
    return {
        "gates": {
            r.gate: {"seconds": r.new_seconds} for r in results
        }
    }


def format_comparison(results: Sequence[GateResult]) -> str:
    """Plain-text gate table plus a one-line verdict."""
    from ..metrics.report import format_table

    def num(value: Optional[float], fmt: str) -> str:
        return "-" if value is None else format(value, fmt)

    rows: List[List[object]] = []
    for r in results:
        if r.bound is None:
            verdict = "no-baseline"
        else:
            verdict = "REGRESSED" if r.regressed else "ok"
        bound = num(r.bound, ".6f")
        if r.ceiling is not None:
            bound += " (ceiling)"
        rows.append([
            r.gate,
            num(r.old_seconds, ".6f"),
            f"{r.new_seconds:.6f}",
            "-" if r.ratio is None else f"{r.ratio:.2f}x",
            bound,
            verdict,
        ])
    table = format_table(
        ["gate", "baseline", "measured", "ratio", "bound", "verdict"],
        rows,
        title="benchmark comparison",
    )
    if not results:
        return table + "\nno gates selected"
    bad = [r.gate for r in results if r.regressed]
    if bad:
        return table + f"\nREGRESSION (measured above bound): {', '.join(bad)}"
    return table + (
        f"\nall gates within bounds (ceiling, or baseline x "
        f"{results[0].tolerance:.2f} tolerance)"
    )
