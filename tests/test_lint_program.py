"""The whole-program engine: incremental cache, facts, and the three
cross-module rules (``rng-streams``, ``lease-protocol``,
``backend-parity``), each pinned with fire and no-fire fixture trees.

The cache tests pin the load-bearing invariant of the engine: finalize
rules consume *facts*, so a warm run that re-parses nothing still
reproduces every cross-module finding.
"""

from __future__ import annotations

import json
from pathlib import Path

from lint_support import by_rule, lint_tree, mini_fleet, write_tree

from repro.lint import run_lint
from repro.lint.rules.parity import SCALAR_ONLY, VEC_ONLY

# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------

#: Two findings (one per-module, one suppressed) to prove replay fidelity.
_CACHE_TREE = {
    "repro/cloud/a.py": """
        import time

        def stamp():
            return time.time()
    """,
    "repro/cloud/b.py": """
        import time

        def stamp():
            return time.time()  # reprolint: disable=determinism
    """,
}


def test_warm_run_replays_without_reparsing(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)
    assert r1.parsed == r1.files and r1.cached == 0
    assert [f.rule for f in r1.findings] == ["determinism"]
    assert r1.suppressed == 1

    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.parsed == 0 and r2.cached == r2.files
    assert r2.findings == r1.findings
    assert r2.suppressed == r1.suppressed


def test_content_change_reparses_only_that_file(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)

    (root / "repro/cloud/b.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.parsed == 1
    assert r2.cached == r1.files - 1
    # the suppression comment is gone, so b.py now reports too
    assert [f.rule for f in r2.findings] == ["determinism", "determinism"]
    assert r2.suppressed == 0


def test_rule_set_change_invalidates_whole_cache(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    run_lint([root], root=root, cache_path=cache)
    r2 = run_lint([root], root=root, cache_path=cache, rules=["determinism"])
    assert r2.cached == 0 and r2.parsed == r2.files


def test_engine_version_bump_invalidates_cache(tmp_path, monkeypatch):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    run_lint([root], root=root, cache_path=cache)
    monkeypatch.setattr("repro.lint.cache.ENGINE_VERSION", 999)
    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.cached == 0 and r2.parsed == r2.files


def test_corrupt_cache_is_treated_as_empty(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    cache.write_text("{ not json", encoding="utf-8")
    result = run_lint([root], root=root, cache_path=cache)
    assert result.cached == 0 and result.parsed == result.files
    # ... and the run repaired it into a valid document.
    assert json.loads(cache.read_text(encoding="utf-8"))["format"]


def test_no_cache_path_writes_nothing(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    run_lint([root], root=root)
    assert list(tmp_path.glob("*.json")) == []


def test_parse_error_replays_from_cache(tmp_path):
    root = write_tree(tmp_path / "tree", {"repro/cloud/bad.py": "def broken(:\n"})
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)
    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.parsed == 0
    assert [f.rule for f in r1.findings] == [f.rule for f in r2.findings]
    assert "parse-error" in [f.rule for f in r2.findings]


# ---------------------------------------------------------------------------
# rng-streams
# ---------------------------------------------------------------------------

#: A miniature registry module — the rule reads the *scanned*
#: STREAM_REGISTRY, so fixture trees carry their own.
_MINI_RNG = """
    class RandomStreams:
        def __init__(self, seed):
            self.seed = seed

        def get(self, name):
            return name

    STREAM_REGISTRY = {
        "arrivals": "per-replication arrival process",
        "service.*": "per-tier service streams",
    }
"""


def test_rng_streams_clean_tree_no_fire(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": _MINI_RNG,
            "repro/workloads/w.py": """
                STREAM = "arrivals"

                def a(streams):
                    return streams.get(STREAM)

                def b(streams, tier):
                    return streams.get(f"service.{tier}")
            """,
        },
        rules=["rng-streams"],
    )
    assert by_rule(result, "rng-streams") == []


def test_rng_streams_fires_on_violations(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": _MINI_RNG.replace(
                '"service.*": "per-tier service streams",',
                '"service.*": "per-tier service streams",\n'
                '    "unused.stream": "nobody draws this",',
            ),
            "repro/workloads/w.py": """
                import numpy as np

                def ok(streams, tier):
                    return streams.get("arrivals"), streams.get(f"service.{tier}")

                def bad(streams):
                    return streams.get("bogus")

                def dyn(streams, name):
                    return streams.get(name)

                def adhoc():
                    return np.random.default_rng(0)
            """,
        },
        rules=["rng-streams"],
    )
    messages = [f.message for f in by_rule(result, "rng-streams")]
    assert len(messages) == 4
    assert any("unregistered stream name 'bogus'" in m for m in messages)
    assert any("cannot be resolved statically" in m for m in messages)
    assert any("ad-hoc numpy generator construction" in m for m in messages)
    assert any(
        "registered stream 'unused.stream' is never drawn" in m for m in messages
    )


def test_rng_streams_flags_duplicate_registry_entries(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": """
                STREAM_REGISTRY = {
                    "arrivals": "first",
                    "arrivals": "second",
                }

                def use(streams):
                    return streams.get("arrivals")
            """,
        },
        rules=["rng-streams"],
    )
    messages = [f.message for f in by_rule(result, "rng-streams")]
    assert any("duplicate STREAM_REGISTRY entry 'arrivals'" in m for m in messages)


def test_rng_streams_chained_factory_call(tmp_path):
    # RandomStreams(0).get("x") types through the constructor chain.
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": _MINI_RNG,
            "repro/workloads/w.py": """
                from repro.sim.rng import RandomStreams

                def a(tier):
                    return RandomStreams(0).get("arrivals")

                def b(tier):
                    return RandomStreams(0).get(f"service.{tier}")
            """,
        },
        rules=["rng-streams"],
    )
    assert by_rule(result, "rng-streams") == []


# ---------------------------------------------------------------------------
# lease-protocol
# ---------------------------------------------------------------------------


def test_lease_protocol_fires_on_leaky_claim(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/leak.py": """
                def run(store):
                    cell = store.claim("cell")
                    if cell:
                        work(cell)
                        store.release(cell)
            """,
        },
        rules=["lease-protocol"],
    )
    messages = [f.message for f in by_rule(result, "lease-protocol")]
    assert any("not released on all paths" in m for m in messages)
    assert any("no heartbeat renew() is reachable" in m for m in messages)


def test_lease_protocol_finally_and_thread_heartbeat_no_fire(tmp_path):
    # The scheduler idiom: claim, register with a heartbeat whose daemon
    # thread renews, work under try/finally.  Renew reachability must
    # resolve through the Thread(target=self._run) reference edge.
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/hb.py": """
                import threading

                class Heartbeat:
                    def __init__(self, store):
                        self._store = store

                    def start(self):
                        threading.Thread(target=self._run).start()

                    def _run(self):
                        self._store.renew("k")

                def run(store):
                    cell = store.claim("cell")
                    hb = Heartbeat(store)
                    hb.start()
                    try:
                        work(cell)
                    finally:
                        store.release(cell)
            """,
        },
        rules=["lease-protocol"],
    )
    assert by_rule(result, "lease-protocol") == []


def test_lease_protocol_adapter_class_is_exempt(tmp_path):
    # A class that itself defines release_all is the protocol
    # implementation — its internal claim calls are not call sites.
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/adapter.py": """
                class Claims:
                    def __init__(self, store):
                        self._store = store

                    def claim_all(self, cells):
                        return [c for c in cells if self._store.claim(c)]

                    def release_all(self, cells):
                        for c in cells:
                            self._store.release(c)
            """,
        },
        rules=["lease-protocol"],
    )
    assert by_rule(result, "lease-protocol") == []


def test_lease_protocol_ignores_modules_outside_campaigns(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/elsewhere.py": """
                def run(store):
                    return store.claim("cell")
            """,
        },
        rules=["lease-protocol"],
    )
    assert by_rule(result, "lease-protocol") == []


# ---------------------------------------------------------------------------
# backend-parity
# ---------------------------------------------------------------------------

# Each miniature class defines every name allowlisted for its side
# (among them ``dispatch`` scalar-only and ``advance`` vec-only).
_MINI_APP = mini_fleet("ApplicationFleet", SCALAR_ONLY)
_MINI_VEC = mini_fleet("VectorFleet", VEC_ONLY)

_MINI_MON = """
    class Monitor:
        def observed_rate(self):
            return 0.0
"""


def test_parity_clean_tree_no_fire(tmp_path):
    # dispatch is allowlisted scalar-only, advance vec-only; the one
    # shared member is used through an either-backend receiver.
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/fleet.py": _MINI_APP,
            "repro/cloud/vecfleet.py": _MINI_VEC,
            "repro/cloud/monitor.py": _MINI_MON,
            "repro/policies/use.py": """
                def drive(fleet, monitor):
                    fleet.scale_to(3)
                    return monitor.observed_rate()
            """,
        },
        rules=["backend-parity"],
    )
    assert by_rule(result, "backend-parity") == []


def test_parity_census_fires_on_one_sided_member(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/fleet.py": _MINI_APP + """
        def special_move(self):
            return 1
""",
            "repro/cloud/vecfleet.py": _MINI_VEC,
        },
        rules=["backend-parity"],
    )
    messages = [f.message for f in by_rule(result, "backend-parity")]
    assert messages == [
        "public ApplicationFleet member 'special_move' has no "
        "VectorFleet counterpart"
    ]


def test_parity_flags_stale_allowlist_entry(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/fleet.py": _MINI_APP,
            # dispatch is allowlisted scalar-only but both define it.
            "repro/cloud/vecfleet.py": _MINI_VEC + """
        def dispatch(self, req):
            return req
""",
        },
        rules=["backend-parity"],
    )
    messages = [f.message for f in by_rule(result, "backend-parity")]
    assert messages == [
        "'dispatch' is allowlisted as scalar-only but VectorFleet "
        "defines it — stale allowlist entry"
    ]


def test_parity_attr_use_fires_on_unknown_member(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/cloud/fleet.py": _MINI_APP,
            "repro/cloud/vecfleet.py": _MINI_VEC,
            "repro/cloud/monitor.py": _MINI_MON,
            "repro/policies/use.py": """
                def drive(fleet, monitor):
                    fleet.launch_missiles()
                    return monitor.bogus
            """,
        },
        rules=["backend-parity"],
    )
    messages = [f.message for f in by_rule(result, "backend-parity")]
    assert len(messages) == 2
    assert any("unknown fleet attribute 'launch_missiles'" in m for m in messages)
    assert any("unknown Monitor attribute 'bogus'" in m for m in messages)


def test_parity_checks_are_gated_on_defining_classes(tmp_path):
    # Without the mini cloud modules in the scan, uses cannot be checked
    # — linting tests/ alone stays quiet.
    result = lint_tree(
        tmp_path,
        {
            "repro/policies/use.py": """
                def drive(fleet):
                    fleet.launch_missiles()
            """,
        },
        rules=["backend-parity"],
    )
    assert by_rule(result, "backend-parity") == []


# ---------------------------------------------------------------------------
# graph export
# ---------------------------------------------------------------------------


def test_render_dot_has_nodes_and_import_edges(tmp_path):
    from repro.lint import render_dot

    root = write_tree(
        tmp_path / "tree",
        {
            "repro/sim/a.py": "def f():\n    return 1\n",
            "repro/cloud/b.py": (
                "from repro.sim.a import f\n\ndef g():\n    return f()\n"
            ),
        },
    )
    result = run_lint([root], root=root)
    dot = render_dot(result.project.index)
    assert dot.startswith("digraph")
    assert '"repro.sim.a"' in dot and '"repro.cloud.b"' in dot
    assert '"repro.cloud.b" -> "repro.sim.a"' in dot


def test_whole_program_finding_survives_cache_replay(tmp_path):
    """The engine's core invariant: finalize rules consume facts, so a
    warm run that re-parses *nothing* still reproduces cross-module
    findings."""
    root = write_tree(
        tmp_path / "tree",
        {
            "repro/sim/rng.py": _MINI_RNG,
            "repro/workloads/w.py": """
                def bad(streams):
                    return streams.get("bogus")
            """,
        },
    )
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache, rules=["rng-streams"])
    r2 = run_lint([root], root=root, cache_path=cache, rules=["rng-streams"])
    assert r2.parsed == 0 and r2.cached == r2.files
    assert [f.message for f in r1.findings] == [f.message for f in r2.findings]
    assert any("'bogus'" in f.message for f in r2.findings)
