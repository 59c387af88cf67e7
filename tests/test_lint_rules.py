"""Per-rule fire / no-fire fixtures for the repro.lint built-in rules.

Each rule gets at least one fixture that *must* fire (proving the rule
detects its target pattern) and counter-fixtures for the sanctioned
idioms it must leave alone.
"""

from __future__ import annotations

import pytest

from lint_support import by_rule, lint_tree, mini_fleet

from repro.lint.rules.parity import SCALAR_ONLY, VEC_ONLY
from repro.obs.metrics import METRIC_NAMES
from repro.obs.schema import EVENT_TYPES

# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_determinism_fires_on_clock_and_rng(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/junk.py": """
                import time
                import numpy as np

                def stamp():
                    return time.time()

                def draw():
                    return np.random.rand()

                def gen():
                    return np.random.default_rng()
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(result, "determinism")]
    assert len(messages) == 3
    assert any("time.time" in m for m in messages)
    assert any("np.random.rand" in m for m in messages)
    assert any("unseeded" in m for m in messages)


def test_determinism_fires_on_stdlib_random_and_from_imports(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/core/junk.py": """
                import random
                from time import perf_counter

                def roll():
                    return random.random(), perf_counter()
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(result, "determinism")]
    assert any("stdlib random" in m for m in messages)
    assert any("time.perf_counter" in m for m in messages)


def test_determinism_whitelist_and_seeded_construction_clean(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            # Whitelisted entropy root may touch everything.
            "repro/sim/rng.py": """
                import time
                import numpy as np

                def entropy():
                    return np.random.default_rng(), time.perf_counter()
            """,
            # Seeded construction and Generator annotations are legal
            # anywhere in the library.
            "repro/prediction/ok.py": """
                import numpy as np

                def make(seed: int) -> np.random.Generator:
                    return np.random.default_rng(seed)
            """,
        },
        rules=["determinism"],
    )
    assert result.findings == []


def test_determinism_vectorized_kernel_idioms(tmp_path):
    """Vectorized-numpy hot paths: legacy global draws fire, Generator
    arguments and pure array kernels stay clean.

    Guards the ``repro.sim.batch`` style — batched kernels must take
    their randomness as pre-drawn arrays or an explicit
    ``np.random.Generator``, never reach for the global numpy RNG.
    """
    fired = lint_tree(
        tmp_path,
        {
            "repro/sim/batchy.py": """
                import numpy as np

                def jittered_services(n, mean):
                    # banned: ambient global-state draw inside a kernel
                    return np.random.exponential(mean, size=n)

                def shuffled(order):
                    np.random.shuffle(order)
                    return order
            """
        },
        rules=["determinism"],
    )
    messages = [f.message for f in by_rule(fired, "determinism")]
    assert len(messages) == 2
    assert any("np.random.exponential" in m for m in messages)
    assert any("np.random.shuffle" in m for m in messages)

    clean = lint_tree(
        tmp_path / "ok",
        {
            "repro/sim/batchy.py": """
                import numpy as np

                def jittered_services(rng: np.random.Generator, n, mean):
                    # sanctioned: caller-provided seeded Generator
                    return rng.exponential(mean, size=n)

                def departures(arrivals, services):
                    # pure array kernel: no randomness at all
                    totals = np.cumsum(services)
                    floors = arrivals - np.concatenate(([0.0], totals[:-1]))
                    return totals + np.maximum.accumulate(floors)
            """
        },
        rules=["determinism"],
    )
    assert by_rule(clean, "determinism") == []


def test_determinism_ignores_non_repro_modules(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            # No package chain: resolves to the bare stem 'script'.
            "script.py": """
                import time

                def stamp():
                    return time.time()
            """
        },
        rules=["determinism"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


def test_layering_fires_on_engine_import_from_analytics(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/bad.py": "from repro.cloud import vm\n",
            "repro/core/bad.py": "import repro.backends\n",
        },
        rules=["layering"],
    )
    messages = [f.message for f in by_rule(result, "layering")]
    assert len(messages) == 2
    assert any("repro.queueing.bad imports repro.cloud" in m for m in messages)
    assert any("engine-free" in m for m in messages)
    assert any("repro.core.bad imports repro.backends" in m for m in messages)


def test_layering_fires_on_restricted_imports(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/bad.py": "from repro.sim.fluid import FluidSimulator\n",
            "repro/metrics/bad.py": "import repro.campaigns\n",
            # The scheduler split must not open a hole: the campaign
            # engine's submodules are just as restricted as the package.
            "repro/experiments/bad.py": (
                "from repro.campaigns.scheduler import run_campaign\n"
            ),
            "repro/workloads/bad.py": "import repro.lint\n",
        },
        rules=["layering"],
    )
    messages = [f.message for f in by_rule(result, "layering")]
    assert len(messages) == 4
    assert any("may import repro.sim.fluid" in m for m in messages)
    assert any("may import repro.campaigns" in m for m in messages)
    assert any("repro.experiments.bad imports repro.campaigns.scheduler" in m for m in messages)
    assert any("may import repro.lint" in m for m in messages)


def test_layering_exemptions_stay_clean(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            # Engine-free shared vocabulary is explicitly allowed.
            "repro/prediction/ok.py": (
                "from repro.sim.calendar import seconds_per_day\n"
            ),
            # The owner package may import the restricted engine.
            "repro/backends/ok.py": (
                "from repro.sim.fluid import FluidSimulator\n"
            ),
            # The campaign package may import its own submodules — the
            # scheduler/executor/store split is internal layering.
            "repro/campaigns/scheduler.py": (
                "from repro.campaigns.store import ResultStore\n"
                "from repro.campaigns import executor\n"
            ),
            # Function-local imports are deliberate late bindings.
            "repro/queueing/ok.py": """
                def late():
                    from repro.cloud import vm
                    return vm
            """,
        },
        rules=["layering"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# trace-schema (cross-checked against the LIVE registry)
# ---------------------------------------------------------------------------

# Two genuinely registered events, read from the live schema so these
# fixtures can never drift out of date.
_REGISTERED = sorted(EVENT_TYPES)[:2]

#: a stub registry module: its presence in the scan enables the
#: never-emitted direction; the real EVENT_TYPES is still imported live.
_SCHEMA_STUB = "EVENT_TYPES = {}\n"


def test_trace_schema_fires_on_unregistered_event(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/emitter.py": """
                def go(bus):
                    bus.emit("totally.unregistered.event", 0.0)
            """
        },
        rules=["trace-schema"],
    )
    findings = by_rule(result, "trace-schema")
    assert len(findings) == 1
    assert "unregistered trace event 'totally.unregistered.event'" in (
        findings[0].message
    )


def test_trace_schema_fires_on_dynamic_event_name(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/emitter.py": """
                def go(bus, pick):
                    name = pick()
                    bus.emit(name, 0.0)
            """
        },
        rules=["trace-schema"],
    )
    findings = by_rule(result, "trace-schema")
    assert len(findings) == 1
    assert "dynamic event name" in findings[0].message


def test_trace_schema_accepts_literals_conditionals_and_wrappers(tmp_path):
    a, b = _REGISTERED
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/emitter.py": f"""
                class Fleet:
                    def _fwd(self, event_type, t):
                        self.bus.emit(event_type, t)

                    def go(self, ok):
                        self.bus.emit({a!r} if ok else {b!r}, 0.0)
                        self._fwd({a!r}, 1.0)
            """
        },
        rules=["trace-schema"],
    )
    assert result.findings == []


def test_trace_schema_fires_on_dynamic_wrapper_call_site(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/emitter.py": """
                class Fleet:
                    def _fwd(self, event_type, t):
                        self.bus.emit(event_type, t)

                    def go(self, pick):
                        name = pick()
                        self._fwd(name, 0.0)
            """
        },
        rules=["trace-schema"],
    )
    findings = by_rule(result, "trace-schema")
    assert len(findings) == 1
    assert "wrapper _fwd()" in findings[0].message


def test_trace_schema_reports_never_emitted_from_live_registry(tmp_path):
    emitted, other = _REGISTERED
    result = lint_tree(
        tmp_path,
        {
            "repro/obs/schema.py": _SCHEMA_STUB,
            "repro/cloud/emitter.py": f"""
                def go(bus):
                    bus.emit({emitted!r}, 0.0)
            """,
        },
        rules=["trace-schema"],
    )
    dead = by_rule(result, "trace-schema")
    # Everything in the live registry except the one emitted event is
    # flagged as never-emitted, anchored at the scanned schema module.
    flagged = {m.split("'")[1] for m in (f.message for f in dead)}
    assert flagged == set(EVENT_TYPES) - {emitted}
    assert other in flagged
    assert all(f.path.endswith("repro/obs/schema.py") for f in dead)


def test_trace_schema_never_emitted_needs_schema_in_scan(tmp_path):
    emitted = _REGISTERED[0]
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/emitter.py": f"""
                def go(bus):
                    bus.emit({emitted!r}, 0.0)
            """
        },
        rules=["trace-schema"],
    )
    # Without repro.obs.schema among the scanned files the registry is
    # out of scope — no dead-schema noise when linting a subtree.
    assert result.findings == []


# ---------------------------------------------------------------------------
# trace-schema: metric-name cross-check (against the LIVE METRIC_NAMES)
# ---------------------------------------------------------------------------

# Two genuinely declared metric names, read live so these fixtures can
# never drift out of date.
_DECLARED_METRICS = sorted(METRIC_NAMES)[:2]

#: a stub metrics module: its presence in the scan enables the
#: never-created direction; the real METRIC_NAMES is still imported live.
_METRICS_STUB = "METRIC_NAMES = {}\n"


def test_trace_schema_fires_on_undeclared_metric(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/instrumented.py": """
                def wire(registry):
                    return registry.counter("totally.undeclared.metric")
            """
        },
        rules=["trace-schema"],
    )
    findings = by_rule(result, "trace-schema")
    assert len(findings) == 1
    assert "undeclared metric 'totally.undeclared.metric'" in findings[0].message


def test_trace_schema_accepts_declared_metrics_and_dynamic_callees(tmp_path):
    a, b = _DECLARED_METRICS
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/instrumented.py": f"""
                import numpy as np
                from collections import Counter

                def wire(registry, data, seq):
                    c = registry.counter({a!r})
                    g = registry.counter({b!r})
                    # dynamic first arguments are unrelated callees,
                    # not metric creation sites:
                    np.histogram(data, 10)
                    Counter(seq)
                    return c, g
            """
        },
        rules=["trace-schema"],
    )
    assert result.findings == []


def test_trace_schema_reports_never_created_metric(tmp_path):
    created, other = _DECLARED_METRICS
    result = lint_tree(
        tmp_path,
        {
            "repro/obs/metrics.py": _METRICS_STUB,
            "repro/cloud/instrumented.py": f"""
                def wire(registry):
                    return registry.counter({created!r})
            """,
        },
        rules=["trace-schema"],
    )
    dead = by_rule(result, "trace-schema")
    flagged = {m.split("'")[1] for m in (f.message for f in dead)}
    assert flagged == set(METRIC_NAMES) - {created}
    assert other in flagged
    assert all(f.path.endswith("repro/obs/metrics.py") for f in dead)


def test_trace_schema_never_created_needs_metrics_in_scan(tmp_path):
    created = _DECLARED_METRICS[0]
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/instrumented.py": f"""
                def wire(registry):
                    return registry.counter({created!r})
            """
        },
        rules=["trace-schema"],
    )
    # Without repro.obs.metrics among the scanned files the declaration
    # table is out of scope — no dead-metric noise on subtree lints.
    assert result.findings == []


# ---------------------------------------------------------------------------
# pool-safety
# ---------------------------------------------------------------------------


def test_pool_safety_fires_on_lambda_and_nested_function(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/junk.py": """
                from concurrent.futures import ProcessPoolExecutor

                def run(items):
                    def work(x):
                        return x

                    with ProcessPoolExecutor() as pool:
                        pool.submit(lambda: 1)
                        return list(pool.map(work, items))
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 2
    assert any("a lambda passed to submit()" in m for m in messages)
    assert any("nested function 'work' passed to map()" in m for m in messages)


def test_pool_safety_fires_on_lambda_policy_factory(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/junk.py": """
                def go(scenario, run_replications):
                    return run_replications(scenario, lambda: 3, seeds=[1])
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 1
    assert "a lambda passed to run_replications()" in messages[0]


def test_pool_safety_fires_on_lambda_dataclass_default(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/junk.py": """
                from dataclasses import dataclass, field

                @dataclass
                class Spec:
                    factory: object = field(default=lambda: 1)
                    callback: object = lambda: 2
            """
        },
        rules=["pool-safety"],
    )
    messages = [f.message for f in by_rule(result, "pool-safety")]
    assert len(messages) == 2
    assert all("dataclass Spec" in m for m in messages)


def test_pool_safety_sanctioned_shapes_stay_clean(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/ok.py": """
                from concurrent.futures import ProcessPoolExecutor
                from dataclasses import dataclass, field

                def work(x):
                    return x

                @dataclass
                class Spec:
                    seeds: list = field(default_factory=list)

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        pool.submit(work, 1)
                        return list(pool.map(work, items))

                def transform(items):
                    # builtin map() is not a pool call
                    return list(map(lambda x: x + 1, items))
            """
        },
        rules=["pool-safety"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# float-compare
# ---------------------------------------------------------------------------


def test_float_compare_fires_on_inexact_equality(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/bad.py": """
                import math

                def check(x, a, b, y):
                    u = x == 0.3
                    v = a / b != y
                    w = math.sqrt(x) == y
                    return u, v, w
            """
        },
        rules=["float-compare"],
    )
    findings = by_rule(result, "float-compare")
    assert len(findings) == 3
    assert any("==" in f.message for f in findings)
    assert any("!=" in f.message for f in findings)


def test_float_compare_fires_in_fluid_engine_scope(tmp_path):
    result = lint_tree(
        tmp_path,
        {"repro/sim/fluid.py": "def f(x):\n    return x == 2.5\n"},
        rules=["float-compare"],
    )
    assert len(by_rule(result, "float-compare")) == 1


def test_float_compare_exempts_sound_idioms(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/queueing/ok.py": """
                def check(rho, n):
                    a = rho == 0.0          # zero sentinel
                    b = int(n) != n         # integrality check
                    c = n == 0              # no visibly-float side
                    return a, b, c
            """
        },
        rules=["float-compare"],
    )
    assert result.findings == []


def test_float_compare_scoped_to_analytical_modules(tmp_path):
    result = lint_tree(
        tmp_path,
        {"repro/cloud/other.py": "def f(x):\n    return x == 0.3\n"},
        rules=["float-compare"],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# backend-parity: allowlist entries must name a member of their own class
# ---------------------------------------------------------------------------


_STALE = "is allowlisted as {} but {} no longer defines it — stale allowlist entry"


@pytest.mark.parametrize(
    "dropped, expected",
    [
        ((), []),
        # Neither class defines 'balancer' / 'spans' any more: dead
        # allowlist entries, even though the other class lacks them too.
        (
            ("balancer", "spans"),
            [
                "'balancer' " + _STALE.format("scalar-only", "ApplicationFleet"),
                "'spans' " + _STALE.format("vec-only", "VectorFleet"),
            ],
        ),
    ],
    ids=["each-class-defines-its-allowlist", "entry-defined-by-neither"],
)
def test_parity_flags_allowlist_entry_its_class_no_longer_defines(
    tmp_path, dropped, expected
):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/fleet.py": mini_fleet(
                "ApplicationFleet", SCALAR_ONLY - set(dropped)
            ),
            "repro/cloud/vecfleet.py": mini_fleet(
                "VectorFleet", VEC_ONLY - set(dropped)
            ),
        },
        rules=["backend-parity"],
    )
    assert [f.message for f in by_rule(result, "backend-parity")] == expected
