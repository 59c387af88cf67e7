#!/usr/bin/env python3
"""The repo benchmark: one workload at one seed, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload web-week-vec --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer profile instead.  Either way the outputs of every
repetition are checked (conservation laws, fluid-twin agreement,
store manifest, run-to-run and traced-vs-untraced equality) outside
the timed region, a human-readable table goes to stdout, and the last
line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are host-normalised: every timed region is sampled with a fixed
calibration kernel and scaled to the kernel's speed on the reference
host (see ``perfbench/README.md``, which also describes the
workloads and the metric map).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("web-week-vec", "web-day-des", "shed-squeeze-vec", "fluid-grid")

#: End-to-end metrics (``--trace 0``), name → unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ns_per_request": "ns",
    "ms_per_cell": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name → unit.  Span metrics are
#: averaged over the traced repetitions of one run.
PER_LAYER = {
    "sim.batch.assign.calls": "count",
    "sim.batch.assign.self_s": "s",
    "sim.batch.drain.calls": "count",
    "sim.batch.drain.self_s": "s",
    "sim.batch.requests_per_assign": "ratio",
    "sim.batch.completions_per_drain": "ratio",
    "cloud.vecfleet.advance.calls": "count",
    "cloud.vecfleet.advance.self_s": "s",
    "cloud.vecfleet.advance.p50_us": "us",
    "cloud.vecfleet.advance.p99_us": "us",
    "cloud.vecfleet.load.self_s": "s",
    "cloud.vecfleet.kill.calls": "count",
    "cloud.vecfleet.scale_to.calls": "count",
    "cloud.vecfleet.scale_to.self_s": "s",
    "cloud.monitor.record_responses.calls": "count",
    "cloud.monitor.record_responses.self_s": "s",
    "workloads.sample_window.calls": "count",
    "workloads.sample_window.self_s": "s",
    "workloads.draw_many.self_s": "s",
    "workloads.arrivals": "count",
    "sim.engine.events": "count",
    "sim.engine.step.self_s": "s",
    "sim.engine.run.self_s": "s",
    "sim.engine.compactions": "count",
    "cloud.admission.submit.calls": "count",
    "cloud.admission.submit.self_s": "s",
    "cloud.admission.accept_ratio": "ratio",
    "cloud.fleet.dispatch.calls": "count",
    "cloud.fleet.dispatch.self_s": "s",
    "core.controlplane.step.calls": "count",
    "core.controlplane.step.self_s": "s",
    "core.controlplane.on_estimate.calls": "count",
    "core.controlplane.on_estimate.self_s": "s",
    "core.modeler.decide.calls": "count",
    "core.modeler.decide.self_s": "s",
    "core.modeler.decide.p50_us": "us",
    "core.modeler.decide.p99_us": "us",
    "core.modeler.cache_hit_ratio": "ratio",
    "queueing.evaluate.calls": "count",
    "queueing.evals_per_decision": "ratio",
    "prediction.predict.calls": "count",
    "prediction.predict.self_s": "s",
    "economy.ledger.sample.calls": "count",
    "economy.ledger.sample.self_s": "s",
    "economy.profit_rate.calls": "count",
    "economy.revocations": "count",
    "obs.metrics.sample.calls": "count",
    "obs.metrics.sample.self_s": "s",
    "obs.metrics.observe_many.self_s": "s",
    "sim.fluid.run_adaptive.self_s": "s",
    "sim.fluid.run_static.self_s": "s",
    "campaigns.store.put.calls": "count",
    "campaigns.store.put.self_s": "s",
    "campaigns.store.claim.self_s": "s",
    "campaigns.overhead_s": "s",
    "backends.build_s": "s",
    "backends.finalize_s": "s",
    "unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.calib_s": "s",
}

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPEATS = 7

#: Seconds one speed sample takes on the reference host (an idle
#: 2.1 GHz Intel Xeon, 2 vCPUs).  Normalised time = net time × this /
#: the median speed sample taken around and during the timed region.
REF_SAMPLE_S = 0.0033

#: Seconds between speed samples inside a timed region.
SAMPLE_INTERVAL_S = 0.1

#: Backend ``run`` methods timed (not as spans) in the traced run.
BACKEND_RUNS = (
    ("repro.backends.des", "DESBackend", "run"),
    ("repro.backends.des_vec", "DESVecBackend", "run"),
    ("repro.backends.fluid", "FluidBackend", "run"),
)


def _import_program():
    """Put the checkout's ``src/`` on the path; fail cleanly without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cases
    import spans

    return cases, spans


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
class _Event:
    __slots__ = ("t", "fn")

    def __init__(self, t, fn) -> None:
        self.t = t
        self.fn = fn


_SMALL_ARRAY = np.arange(64.0)
_LARGE_ARRAY = np.random.default_rng(0).random(20_000)


def speed_sample() -> float:
    """One run of the fixed calibration kernel (~3.3 ms), in seconds.

    Four parts standing for the program's hot paths: pure-Python
    integer arithmetic, heap/dict/small-object churn (the scalar
    engine), numpy calls on small arrays (the batched data plane, where
    per-call overhead dominates) and numpy passes over a 160 KB array
    (window generation, span flushes).  Each part alone tracked some
    workload worse than the sum did; no other mix tried tracked all
    four workloads better.
    """
    small, large = _SMALL_ARRAY, _LARGE_ARRAY
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003
    heap, table = [], {}
    for i in range(1_000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, _Event(i, None)))
        table[i & 255] = (i, i + 1)
        if len(heap) > 64:
            heapq.heappop(heap)
    total = 0.0
    for i in range(150):
        total += float(np.searchsorted(small, i % 64)) + small[small > (i % 64)].size
    for _ in range(3):
        total += float(np.cumsum(np.sort(large))[-1]) + large[large > 0.5].size
    return time.perf_counter() - t0


class Timing:
    """Result of one :meth:`SpeedMeter.timed` region."""

    seconds = 0.0  #: wall time minus the time spent sampling
    factor = 1.0  #: REF_SAMPLE_S / median speed sample of the region

    @property
    def normalised(self) -> float:
        return self.seconds * self.factor


class SpeedMeter:
    """Measures how fast the host runs a fixed kernel, around and during timing.

    On a shared host the CPU speed a process gets drifts by tens of
    percent within seconds, so calibrating once per run is not enough.
    Every timed region takes three speed samples before and three
    after, plus one every ``SAMPLE_INTERVAL_S`` inside it from a
    ``SIGALRM`` handler; the time the handler spends is taken out of
    the region's wall time, and ``on_sample`` (the span recorder's
    ``exclude``) keeps it out of span self times too.  The region is
    scaled by ``REF_SAMPLE_S`` over the median of its samples.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.on_sample = None
        self._region: list = []
        self._spent = 0.0

    def take(self, n: int) -> list:
        """``n`` speed samples, also kept for ``host.calib_s``."""
        got = [speed_sample() for _ in range(n)]
        self.samples.extend(got)
        return got

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._region.extend(self.take(1))
        dur = time.perf_counter() - t0
        self._spent += dur
        if self.on_sample is not None:
            self.on_sample(dur)

    @contextmanager
    def timed(self):
        """Time the ``with`` body; the yielded :class:`Timing` fills in on exit."""
        timing = Timing()
        self._region = self.take(3)
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._region.extend(self.take(3))
        timing.seconds = raw - self._spent
        timing.factor = REF_SAMPLE_S / statistics.median(self._region)

    def calib_s(self) -> float:
        """``host.calib_s``: the run's median speed sample."""
        return statistics.median(self.samples)


def time_setup(workload: str, seed: int, repeats: int, host: SpeedMeter) -> float:
    """Median normalised time from process start to the first timed call.

    Each sample starts a fresh interpreter that imports the program,
    expands the workload's spec and builds its scenarios and policies,
    then prints ``ready`` — the point where a timed run would begin.
    The parent only waits meanwhile, so the sample is normalised by
    speed samples taken before the child starts and after it has
    exited (samples taken while it tears down read the host as slow).
    """
    normalised = []
    for _ in range(repeats):
        samples = host.take(3)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=str(ROOT),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples += host.take(3)
        normalised.append(elapsed * REF_SAMPLE_S / statistics.median(samples))
    return statistics.median(normalised)


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
@dataclass
class Measurements:
    """Everything one run collects."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    #: (Timing, results) per untraced repetition.
    plain: list = field(default_factory=list)
    #: (Timing, raw backend.run seconds) per traced repetition.
    traced: list = field(default_factory=list)
    #: RunMetrics of every backend run inside the traced repetitions.
    traced_runs: list = field(default_factory=list)
    #: Peak resident memory (MB) once the first repetition has run.
    peak_rss_mb: float = 0.0

    def tally(self, cells: int, failures: dict) -> None:
        """One repetition of ``cells`` cell runs; ``failures`` maps cell → reasons."""
        self.attempted += cells
        self.failed += len(failures)
        for label, errors in failures.items():
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(errors)}")


def run_rep(case, host, recorder=None):
    """One timed repetition: ``(Timing, results or None, failures)``."""
    gc.collect()
    store = case.new_store() if case.campaign else None
    policies = None if case.campaign else case.policies()
    try:
        with recorder or nullcontext():
            host.on_sample = recorder.exclude if recorder is not None else None
            try:
                with host.timed() as timing:
                    if case.campaign:
                        outcome = case.run_grid(store)
                    else:
                        results = case.run_cells(policies)
            finally:
                host.on_sample = None
        failures = {}
        if case.campaign:
            results, errors = case.grid_results(store, outcome)
            if errors:
                failures[case.name] = errors
    except Exception as exc:  # noqa: BLE001 - a raising run counts as failed
        return None, None, {c.label(): [repr(exc)] for c in case.cells}
    finally:
        if store is not None:
            case.drop_store(store)
    return timing, results, failures


def check_rep(case, cases, results, reference) -> dict:
    """Conservation per DES run, and equality with the reference repetition."""
    failures = {}
    if len(results) != len(case.cells):
        return {case.name: [f"{len(results)} results for {len(case.cells)} cells"]}
    for i, run in enumerate(results):
        cell = case.cells[i]
        errors = []
        if cell.backend != "fluid":
            errors += cases.check_run(run, case.scenarios[i].capacity)
        if reference is not None and not cases.same_result(run, reference[i]):
            errors.append("result differs from the first untraced repetition")
        if errors:
            failures[cell.label()] = errors
    return failures


def check_twins(case, cases, results) -> dict:
    """Every DES cell against its fluid twin (once per run)."""
    failures = {}
    for i, run in enumerate(results):
        cell = case.cells[i]
        if cell.backend != "fluid":
            errors = cases.check_twin(run, cases.fluid_twin(case, i))
            if errors:
                failures[cell.label()] = errors
    return failures


def measure(case, cases, spans, seconds: float, trace: bool, host: SpeedMeter):
    """Run repetitions for about ``seconds``; returns ``(Measurements, recorder)``.

    At least one repetition (one untraced plus one traced with
    ``trace``) always runs; another starts only if it is expected to
    end within the budget.
    """
    m = Measurements()
    reference = None
    # (RunMetrics, backend.run seconds) of the current traced repetition.
    captured = []
    recorder = spans.SpanRecorder(
        probes={key: lambda r, s: captured.append((r, s)) for key in BACKEND_RUNS}
    ) if trace else None
    started = time.perf_counter()

    def one(rec):
        nonlocal reference
        timing, results, failures = run_rep(case, host, rec)
        if results is not None:
            failures.update(check_rep(case, cases, results, reference))
            if reference is None and rec is None and not failures:
                reference = results
                failures.update(check_twins(case, cases, results))
        m.tally(len(case.cells), failures)
        return timing, results

    while True:
        t_rep = time.perf_counter()
        timing, results = one(None)
        if results is not None:
            m.plain.append((timing, results))
        if not m.peak_rss_mb:
            # Read once: later repetitions only add allocator slack, so
            # the high-water mark would grow with the repetition count.
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            captured.clear()
            timing, results = one(recorder)
            if results is not None:
                m.traced.append((timing, sum(s for _, s in captured)))
                m.traced_runs.extend(r for r, _ in captured)
        spent = time.perf_counter() - started
        if spent + (time.perf_counter() - t_rep) > seconds:
            break
    return m, recorder


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(case, m: Measurements, setup_s: float) -> dict:
    run_s = statistics.median(t.normalised for t, _ in m.plain)
    arrivals = sum(float(r.total_requests) for r in m.plain[0][1])
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "ns_per_request": run_s / arrivals * 1e9,
        "ms_per_cell": run_s / len(case.cells) * 1e3,
        "peak_rss_mb": m.peak_rss_mb,
    }


def per_layer(case, spans, recorder, m: Measurements, calib_s: float) -> dict:
    """Per-repetition layer metrics; times scaled by the traced runs' median factor."""
    n = len(m.traced)
    f = statistics.median(t.factor for t, _ in m.traced)

    def calls(span):
        return recorder.span(span).calls / n

    def self_s(span):
        return recorder.span(span).self_s / n * f

    def extra(span, key):
        return recorder.span(span).extra.get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(span, q):
        return spans.percentile_us(recorder.span(span).samples, q) * f

    def run_sum(getter):
        return sum(getter(r) for r in m.traced_runs) / n

    def phase(name):
        return run_sum(lambda r: r.profile.get("phase_seconds", {}).get(name, 0.0)) * f

    hits = run_sum(lambda r: r.cache_hits)
    misses = run_sum(lambda r: r.cache_misses)
    traced_raw = sum(t.seconds for t, _ in m.traced) / n
    backend_raw = sum(b for _, b in m.traced) / n
    untraced_s = statistics.median(t.normalised for t, _ in m.plain)
    traced_s = statistics.median(t.normalised for t, _ in m.traced)
    return {
        "sim.batch.assign.calls": calls("sim.batch.assign"),
        "sim.batch.assign.self_s": self_s("sim.batch.assign"),
        "sim.batch.drain.calls": calls("sim.batch.drain"),
        "sim.batch.drain.self_s": self_s("sim.batch.drain"),
        "sim.batch.requests_per_assign": ratio(
            extra("sim.batch.assign", "requests"), calls("sim.batch.assign")),
        "sim.batch.completions_per_drain": ratio(
            extra("sim.batch.drain", "completions"), calls("sim.batch.drain")),
        "cloud.vecfleet.advance.calls": calls("cloud.vecfleet.advance"),
        "cloud.vecfleet.advance.self_s": self_s("cloud.vecfleet.advance"),
        "cloud.vecfleet.advance.p50_us": pct("cloud.vecfleet.advance", 0.50),
        "cloud.vecfleet.advance.p99_us": pct("cloud.vecfleet.advance", 0.99),
        "cloud.vecfleet.load.self_s": self_s("cloud.vecfleet.load"),
        "cloud.vecfleet.kill.calls": calls("cloud.vecfleet.kill"),
        "cloud.vecfleet.scale_to.calls": calls("cloud.vecfleet.scale_to"),
        "cloud.vecfleet.scale_to.self_s": self_s("cloud.vecfleet.scale_to"),
        "cloud.monitor.record_responses.calls": calls("cloud.monitor.record_responses"),
        "cloud.monitor.record_responses.self_s": self_s("cloud.monitor.record_responses"),
        "workloads.sample_window.calls": calls("workloads.sample_window"),
        "workloads.sample_window.self_s": self_s("workloads.sample_window"),
        "workloads.draw_many.self_s": self_s("workloads.draw_many"),
        "workloads.arrivals": extra("workloads.sample_window", "arrivals"),
        "sim.engine.events": run_sum(lambda r: r.profile.get("counters", {}).get("events", 0)),
        "sim.engine.step.self_s": self_s("sim.engine.step"),
        "sim.engine.run.self_s": self_s("sim.engine.run"),
        "sim.engine.compactions": run_sum(lambda r: r.compactions),
        "cloud.admission.submit.calls": calls("cloud.admission.submit"),
        "cloud.admission.submit.self_s": self_s("cloud.admission.submit"),
        "cloud.admission.accept_ratio": ratio(
            extra("cloud.admission.submit", "accepted"), calls("cloud.admission.submit")),
        "cloud.fleet.dispatch.calls": calls("cloud.fleet.dispatch"),
        "cloud.fleet.dispatch.self_s": self_s("cloud.fleet.dispatch"),
        "core.controlplane.step.calls": calls("core.controlplane.step"),
        "core.controlplane.step.self_s": self_s("core.controlplane.step"),
        "core.controlplane.on_estimate.calls": calls("core.controlplane.on_estimate"),
        "core.controlplane.on_estimate.self_s": self_s("core.controlplane.on_estimate"),
        "core.modeler.decide.calls": calls("core.modeler.decide"),
        "core.modeler.decide.self_s": self_s("core.modeler.decide"),
        "core.modeler.decide.p50_us": pct("core.modeler.decide", 0.50),
        "core.modeler.decide.p99_us": pct("core.modeler.decide", 0.99),
        "core.modeler.cache_hit_ratio": ratio(hits, hits + misses),
        "queueing.evaluate.calls": calls("queueing.evaluate"),
        "queueing.evals_per_decision": ratio(
            calls("queueing.evaluate"), calls("core.modeler.decide")),
        "prediction.predict.calls": calls("prediction.predict"),
        "prediction.predict.self_s": self_s("prediction.predict"),
        "economy.ledger.sample.calls": calls("economy.ledger.sample"),
        "economy.ledger.sample.self_s": self_s("economy.ledger.sample"),
        "economy.profit_rate.calls": calls("economy.profit_rate"),
        "economy.revocations": run_sum(lambda r: r.revocations),
        "obs.metrics.sample.calls": calls("obs.metrics.sample"),
        "obs.metrics.sample.self_s": self_s("obs.metrics.sample"),
        "obs.metrics.observe_many.self_s": self_s("obs.metrics.observe_many"),
        "sim.fluid.run_adaptive.self_s": self_s("sim.fluid.run_adaptive"),
        "sim.fluid.run_static.self_s": self_s("sim.fluid.run_static"),
        "campaigns.store.put.calls": calls("campaigns.store.put"),
        "campaigns.store.put.self_s": self_s("campaigns.store.put"),
        "campaigns.store.claim.self_s": self_s("campaigns.store.claim"),
        "campaigns.overhead_s": (traced_raw - backend_raw) * f if case.campaign else 0.0,
        "backends.build_s": phase("build"),
        "backends.finalize_s": phase("finalize"),
        "unattributed_s": (traced_raw - recorder.attributed_s() / n) * f,
        "trace.overhead_ratio": traced_s / untraced_s,
        "host.calib_s": calib_s,
    }


def emit(result: dict, names: dict, notes: dict) -> None:
    """Human-readable table, then the JSON result as the last line."""
    print(" ".join(f"{k} {v}" for k, v in notes["header"].items()))
    for name, unit in names.items():
        print(f"  {name:<40} {result['metrics'][name]['value']:>16.6g} {unit}")
    for name, (value, unit) in notes["extra"].items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for reason in notes["reasons"]:
        print(f"  FAILED {reason}")
    print(json.dumps(result, sort_keys=True))


def run_benchmark(case, cases, spans, seed: int, seconds: float, trace: bool,
                  setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one set-up case and print its result; returns the result."""
    host = SpeedMeter()
    setup_s = None if trace else time_setup(case.name, seed, setup_repeats, host)
    m, recorder = measure(case, cases, spans, seconds, trace, host)
    names = PER_LAYER if trace else END_TO_END
    measured = bool(m.plain) and (bool(m.traced) or not trace)
    if not measured:
        values = {name: 0.0 for name in names}
    elif trace:
        values = per_layer(case, spans, recorder, m, host.calib_s())
    else:
        values = end_to_end(case, m, setup_s)
    result = {
        "correct": measured and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names.items()},
    }
    extra = {
        "failed_frac": (m.failed / max(1, m.attempted), "ratio"),
        "wall_run_s": (
            statistics.median(t.seconds for t, _ in m.plain) if m.plain else 0.0, "s"),
        "host.calib_s": (host.calib_s(), "s"),
        "cells": (len(case.cells), "count"),
    }
    if m.plain:
        extra["arrivals"] = (sum(float(r.total_requests) for r in m.plain[0][1]), "count")
    notes = {
        "header": {
            "workload": case.name,
            "seed": seed,
            "trace": int(trace),
            "repetitions": len(m.plain) + len(m.traced),
        },
        "extra": {k: v for k, v in extra.items() if k not in names},
        "reasons": m.reasons,
    }
    emit(result, names, notes)
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cases, spans = _import_program()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=str(ROOT)))
    try:
        case = cases.build_case(args.workload, args.seed, work)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        # A failed check shows in "correct"/"failed", not in the exit
        # code: a printed result is a completed measurement.
        run_benchmark(case, cases, spans, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
