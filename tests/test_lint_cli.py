"""The ``repro lint`` CLI surface.

Pins the exit-code contract (0 clean / 1 findings / 2 internal error),
the JSON output mode, ``--fix-hints``, ``--rules`` subsetting, the
``--update-baseline`` add/expire cycle, the incremental-cache options
(``--no-cache``, the replay report line) and the ``--graph`` DOT export.
"""

from __future__ import annotations

import json
from pathlib import Path

from lint_support import write_tree

from repro.experiments.cli import main
from repro.lint import Finding

REPO = Path(__file__).resolve().parents[1]

_CLOCK = {
    "repro/cloud/junk.py": """
        import time

        def stamp():
            return time.time()
    """
}


def _clean_tree(tmp_path):
    return write_tree(tmp_path / "tree", {"repro/cloud/ok.py": "x = 1\n"})


def _dirty_tree(tmp_path):
    return write_tree(tmp_path / "tree", _CLOCK)


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_lint_exit_zero_on_clean_tree(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _clean_tree(tmp_path)
    assert main(["lint", str(root)]) == 0
    assert "reprolint: OK" in capsys.readouterr().out


def test_lint_exit_one_with_findings(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
    assert "wall-clock read time.time()" in out
    assert "fix:" not in out  # hints are opt-in


def test_lint_exit_two_on_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(tmp_path / "missing")]) == 2
    assert "path not found" in capsys.readouterr().err

    root = _clean_tree(tmp_path)
    assert main(["lint", str(root), "--rules", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err

    bad = tmp_path / "baseline.json"
    bad.write_text("not json", encoding="utf-8")
    assert main(["lint", str(root), "--baseline", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


def test_lint_fix_hints_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--fix-hints"]) == 1
    out = capsys.readouterr().out
    assert "fix: use repro.obs.profile" in out


def test_lint_rules_subset(tmp_path, capsys, monkeypatch):
    # A determinism violation is invisible to a layering-only run.
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--rules", "layering"]) == 0
    assert "reprolint: OK" in capsys.readouterr().out


def test_lint_json_format_roundtrips(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["tool"] == "reprolint"
    assert data["counts"] == {"determinism": 1}
    rebuilt = [Finding.from_dict(e) for e in data["findings"]]
    assert [f.rule for f in rebuilt] == ["determinism"]
    assert rebuilt[0].hint  # hints always present in JSON


# ---------------------------------------------------------------------------
# baseline lifecycle through the CLI
# ---------------------------------------------------------------------------


def test_lint_update_baseline_cycle(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    baseline = tmp_path / "baseline.json"

    # 1. grandfather the existing violation
    assert main(["lint", str(root), "--baseline", str(baseline), "--update-baseline"]) == 0
    assert "1 finding(s) recorded" in capsys.readouterr().out
    assert len(json.loads(baseline.read_text())["entries"]) == 1

    # 2. with the baseline in force the run goes green
    assert main(["lint", str(root), "--baseline", str(baseline)]) == 0
    assert "suppressed by the baseline" in capsys.readouterr().out

    # 3. fix the violation: the entry goes stale but does not fail CI
    (root / "repro/cloud/junk.py").write_text("x = 1\n", encoding="utf-8")
    assert main(["lint", str(root), "--baseline", str(baseline)]) == 0
    assert "stale baseline entr" in capsys.readouterr().out

    # 4. a second update expires the stale entry
    assert main(["lint", str(root), "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()
    assert json.loads(baseline.read_text())["entries"] == []


def test_lint_picks_up_default_baseline_from_cwd(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _dirty_tree(tmp_path)
    assert main(["lint", str(root), "--update-baseline"]) == 0
    capsys.readouterr()
    assert (tmp_path / ".reprolint.json").is_file()
    # no --baseline flag needed: the committed default is discovered
    assert main(["lint", str(root)]) == 0
    assert "suppressed by the baseline" in capsys.readouterr().out


def test_committed_repo_baseline_is_empty():
    data = json.loads((REPO / ".reprolint.json").read_text(encoding="utf-8"))
    assert data["entries"] == []


# ---------------------------------------------------------------------------
# whole-program options: --no-cache, --graph, cache reporting
# ---------------------------------------------------------------------------


def test_lint_reports_cache_replay_on_second_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _clean_tree(tmp_path)
    assert main(["lint", str(root)]) == 0
    capsys.readouterr()
    assert (tmp_path / ".reprolint-cache.json").is_file()
    assert main(["lint", str(root)]) == 0
    out = capsys.readouterr().out
    assert "replayed without re-parsing" in out


def test_lint_no_cache_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = _clean_tree(tmp_path)
    assert main(["lint", str(root), "--no-cache"]) == 0
    capsys.readouterr()
    assert not (tmp_path / ".reprolint-cache.json").exists()


def test_lint_graph_export_writes_dot(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = write_tree(
        tmp_path / "tree",
        {
            "repro/sim/a.py": "def f():\n    return 1\n",
            "repro/cloud/b.py": "from repro.sim.a import f\n\ndef g():\n    return f()\n",
        },
    )
    dot = tmp_path / "graph.dot"
    assert main(["lint", str(root), "--graph", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "graph: wrote" in out
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "repro.sim.a" in text and "repro.cloud.b" in text


def test_lint_parse_error_is_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    root = write_tree(tmp_path / "tree", {"repro/cloud/bad.py": "def broken(:\n"})
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "[parse-error]" in out
