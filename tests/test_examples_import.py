"""Every example script and benchmark module still imports.

Nothing else in the tier-1 suite imports ``examples/`` or
``benchmarks/``, so a library symbol removed without updating them
would leave a dangling import unnoticed.  Each module is loaded from its
file without running it: examples keep their work under
``if __name__ == "__main__"``, and benchmark modules only define
pytest functions.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(REPO.glob("examples/*.py")) + sorted(
    REPO.glob("benchmarks/bench_*.py")
)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_conftest(monkeypatch):
    # Benchmarks import helpers with ``from conftest import seeds``: that
    # name must resolve to the benchmark harness's conftest, not this
    # suite's.
    module = _load("conftest", REPO / "benchmarks" / "conftest.py")
    monkeypatch.setitem(sys.modules, "conftest", module)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda p: f"{p.parent.name}.{p.stem}"
)
def test_script_imports(path, bench_conftest):
    _load(f"_import_check_{path.parent.name}_{path.stem}", path)
