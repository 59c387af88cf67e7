#!/usr/bin/env python3
"""Self-test of the benchmark itself (a few seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload runs at a tiny size, traced and untraced;
that every metric ``BENCHMARK.json`` declares is printed with its unit
(and no other); that the traced run restores every wrapped method and
reproduces the untraced results; and that a deliberately corrupted
``RunMetrics`` trips the conservation check and counts as failed.
Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

FAILURES = []


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


_reported = [0]


def report(what: str) -> None:
    """Print ``ok`` for ``what`` unless a check failed since the last report."""
    print(("ok   " if len(FAILURES) == _reported[0] else "FAIL ") + what)
    _reported[0] = len(FAILURES)


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    return e2e, layer, names


def run_captured(case, cases, spans, trace: bool):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_benchmark(case, cases, spans, seed=0, seconds=0, trace=trace,
                                   setup_repeats=1)
    return result, out.getvalue()


def originals(spans):
    """Identity of every method the recorder may patch."""
    import importlib

    seen = {}
    for t in spans.TARGETS:
        owner = getattr(importlib.import_module(t.module), t.owner)
        for cls in spans._all_subclasses(owner) if t.subclasses else [owner]:
            if t.method in vars(cls):
                seen[(cls, t.method)] = vars(cls)[t.method]
    for module, owner, method in run.BACKEND_RUNS:
        cls = getattr(importlib.import_module(module), owner)
        seen[(cls, method)] = vars(cls)[method]
    return seen


def main() -> int:
    cases, spans = run._import_program()
    e2e, layer, workloads = declared()
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.PER_LAYER")
    check(tuple(workloads) == run.WORKLOAD_NAMES, "BENCHMARK.json workloads differ")
    before = originals(spans)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=str(run.ROOT)))
    try:
        for name in run.WORKLOAD_NAMES:
            case = cases.build_case(name, 0, work, tiny=True)
            for trace, names in ((False, e2e), (True, layer)):
                result, text = run_captured(case, cases, spans, trace)
                tag = f"{name} trace={int(trace)}"
                last = json.loads(text.strip().splitlines()[-1])
                check(last == json.loads(json.dumps(result)), f"{tag}: last line is not the result")
                check(set(last) == {"correct", "attempted", "failed", "metrics"},
                      f"{tag}: result keys {sorted(last)}")
                check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                      f"{tag}: correct={last['correct']} failed={last['failed']}")
                check(set(last["metrics"]) == set(names), f"{tag}: metric names differ")
                for metric, unit in names.items():
                    got = last["metrics"].get(metric, {})
                    check(got.get("unit") == unit, f"{tag}: {metric} unit {got.get('unit')!r}")
                    check(isinstance(got.get("value"), float), f"{tag}: {metric} not a number")
                    check(any(line.split()[:1] == [metric] and line.split()[-1] == unit
                              for line in text.splitlines()),
                          f"{tag}: {metric} not printed with its unit")
                check("failed_frac" in text, f"{tag}: failed_frac not printed")
                if not trace:
                    for metric in ("setup_s", "run_s", "ns_per_request", "ms_per_cell",
                                   "peak_rss_mb"):
                        check(last["metrics"][metric]["value"] > 0, f"{tag}: {metric} is 0")
            report(f"{name}: tiny run, traced and untraced")
        check(originals(spans) == before, "traced run left a method patched")
        report("wrapped methods restored")

        # A corrupted RunMetrics must trip the conservation check.
        case = cases.build_case("web-day-des", 0, work, tiny=True)
        honest = case.run_cells

        def corrupted(policies):
            runs = honest(policies)
            return [dataclasses.replace(runs[0], accepted=runs[0].accepted + 1)] + runs[1:]

        case.run_cells = corrupted
        result, text = run_captured(case, cases, spans, trace=False)
        check(not result["correct"], "corrupted run reported correct")
        check(result["failed"] >= 1, "corrupted run not counted in failed")
        frac = [line for line in text.splitlines() if line.split()[:1] == ["failed_frac"]]
        check(bool(frac) and float(frac[0].split()[1]) > 0, "failed_frac stayed 0")
        check(any(line.split()[:1] == ["FAILED"] and "arrivals" in line
                  for line in text.splitlines()), "conservation failure not reported")
        report("corrupted RunMetrics counted as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("OK" if not FAILURES else f"{len(FAILURES)} failure(s)"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
