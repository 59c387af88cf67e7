"""Shared fixture-tree builder for the repro.lint test modules.

The lint rules key their applicability on *dotted module names* resolved
by walking ``__init__.py`` package chains, so fixtures are written as
miniature ``repro`` packages under a tmp directory — a file at
``<tmp>/repro/queueing/bad.py`` lints exactly like library code in
``repro.queueing.bad`` would.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint import Finding, LintResult, run_lint


def write_tree(root: Path, files: Dict[str, str]) -> Path:
    """Write ``{relative_path: source}`` under ``root``.

    Every directory between ``root`` and a file gets an ``__init__.py``
    so the dotted-module-name resolution sees a real package chain.
    Sources are dedented, so fixtures can be indented triple-quoted
    strings.
    """
    root = Path(root)
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            parent = parent.parent
    return root


def lint_tree(
    tmp_path: Path,
    files: Dict[str, str],
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Write the fixture tree and lint it with the given rules."""
    root = write_tree(tmp_path, files)
    return run_lint([root], rules=rules, root=root)


def by_rule(result: LintResult, rule: str) -> List[Finding]:
    """The findings of one rule, in report order."""
    return [f for f in result.findings if f.rule == rule]


def mini_fleet(cls: str, members: Sequence[str]) -> str:
    """Source of a miniature fleet class for ``backend-parity`` fixtures.

    Defines the shared ``scale_to`` plus one stub method per name in
    ``members`` (a fixture passes its side's live allowlist, which the
    rule requires the class to define).  Indented like the other
    fixture strings, so callers can append more ``def`` blocks.
    """
    stubs = "".join(
        f"\n        def {name}(self, *args):\n            return None\n"
        for name in sorted(members)
    )
    return f"""
    class {cls}:
        def scale_to(self, n):
            return n
{stubs}"""
