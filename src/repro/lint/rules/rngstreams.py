"""Rule ``rng-streams`` — every library RNG draw has registered provenance.

Bit-identical replications (the paper's evaluation discipline, ROADMAP
item 1) require that every random number in a run traces to a *named,
seeded stream*: ``RandomStreams.get(name)`` keyed off the replication
seed.  The stream names themselves are the provenance ledger —
:data:`repro.sim.rng.STREAM_REGISTRY` declares each name and its
purpose, and this rule cross-checks library code against that table in
both directions (the same census pattern as ``trace-schema``):

* drawing an **unregistered** stream name is a finding — an
  undocumented randomness source;
* a **registered** name that no ``repro.*`` module ever draws is dead
  registry — flagged at its entry (only when the scan covers
  ``repro.sim.rng`` itself, so linting ``tests/`` alone stays quiet);
* **duplicate** registry keys are findings (a dict literal silently
  keeps the last one);
* a draw whose name cannot be resolved statically defeats the census —
  flagged, with three sanctioned shapes that *are* resolved: literal
  strings (incl. two-literal conditionals), module-level string
  constants (``streams.get(REVOCATION_STREAM)``), and f-strings whose
  literal prefix matches a registered ``prefix.*`` family;
* constructing a generator *outside* the stream discipline —
  ``numpy.random.default_rng(...)`` anywhere but ``repro.sim.rng``
  itself — is a finding even when seeded: a seeded ad-hoc generator is
  reproducible but invisible to the provenance census (the
  ``determinism`` rule separately bans the unseeded form).

Receivers are typed by the engine's dataflow lattice
(:mod:`repro.lint.program`): ``streams = RandomStreams(seed)``,
``RandomStreams(0).get(...)`` chains, ``streams.spawn(i)`` results,
parameters named/annotated ``streams`` — all resolve to stream
factories.  ``RandomStreams.spawn`` itself is sanctioned (it derives
per-replication factories, not anonymous generators).

The registry is read from the *scanned* ``repro.sim.rng`` module's
``STREAM_REGISTRY`` dict literal when the scan covers it (which is
what lets fixture trees carry their own registry), falling back to the
live import otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..findings import Finding
from ..registry import Rule, register

__all__ = ["RngStreamsRule"]

_RNG_MODULE = "repro.sim.rng"

_REGISTER_HINT = (
    "register the stream name (with its purpose) in "
    "repro.sim.rng.STREAM_REGISTRY"
)
_LITERAL_HINT = (
    "pass the stream name as a string literal, a module-level string "
    "constant, or an f-string whose prefix matches a registered "
    "'prefix.*' family, so the provenance census can see it"
)
_DEAD_HINT = (
    "draw the stream somewhere, or delete its registry entry if the "
    "randomness source was removed"
)
_ADHOC_HINT = (
    "derive the generator from the replication's RandomStreams "
    "factory (streams.get(<registered name>)) so it shares the seeded "
    "provenance ledger"
)


def _scoped(module: str) -> bool:
    return (module == "repro" or module.startswith("repro.")) and not (
        module.startswith("repro.lint")
    )


def _load_registry(project) -> Tuple[Dict[str, int], Optional[str], List[List[object]]]:
    """(name → line, registry module rel or None, duplicate entries)."""
    for facts in project.facts.values():
        if facts is None or facts.get("module") != _RNG_MODULE:
            continue
        registry = facts.get("registry")
        if registry is not None:
            return dict(registry["streams"]), facts["rel"], list(registry["duplicates"])
        break
    try:
        from ...sim.rng import STREAM_REGISTRY
    except Exception:  # pragma: no cover - numpy-less environments
        return {}, None, []
    return {name: 0 for name in STREAM_REGISTRY}, None, []


def _family_prefixes(registry: Dict[str, int]) -> List[str]:
    return [name[:-1] for name in registry if name.endswith(".*")]


@register
class RngStreamsRule(Rule):
    name = "rng-streams"
    description = (
        "every RandomStreams draw in library code uses a stream name "
        "registered in repro.sim.rng.STREAM_REGISTRY (and every "
        "registered stream is drawn); ad-hoc numpy generators are "
        "banned outside the stream factory"
    )

    def finalize(self, project) -> Iterator[Finding]:
        registry, registry_rel, duplicates = _load_registry(project)
        families = _family_prefixes(registry)
        used: Set[str] = set()

        def covered(name: str) -> Optional[str]:
            """The registry entry covering ``name``, or None."""
            if name in registry:
                return name
            for prefix in families:
                if name.startswith(prefix):
                    return prefix + "*"
            return None

        if registry_rel is not None:
            for name, line in duplicates:
                yield Finding(
                    path=registry_rel,
                    line=int(line),
                    col=0,
                    rule=self.name,
                    message=(
                        f"duplicate STREAM_REGISTRY entry {name!r} "
                        "(a dict literal silently keeps the last)"
                    ),
                    hint="remove or rename the duplicate entry",
                )

        for rel in sorted(project.facts):
            facts = project.facts[rel]
            if facts is None or not _scoped(facts["module"]):
                continue
            rng = facts.get("rng", {})
            for site in rng.get("get", []):
                yield from self._check_draw(
                    facts, site, project, covered, families, used
                )
            if facts["module"] == _RNG_MODULE:
                continue
            for site in rng.get("default_rng", []):
                yield Finding(
                    path=rel,
                    line=site["line"],
                    col=site["col"],
                    rule=self.name,
                    message=(
                        "ad-hoc numpy generator construction in "
                        f"{facts['module']} bypasses the named stream "
                        "registry"
                    ),
                    hint=_ADHOC_HINT,
                )

        # Dead-registry direction — only when the scan covered the
        # registry module itself (with an extracted table, so line
        # numbers exist to anchor the findings).
        if registry_rel is None:
            return
        for name in registry:
            key = name[:-1] + "*" if name.endswith(".*") else name
            if key in used:
                continue
            yield Finding(
                path=registry_rel,
                line=registry[name],
                col=0,
                rule=self.name,
                message=(
                    f"registered stream {name!r} is never drawn by any "
                    "library module"
                ),
                hint=_DEAD_HINT,
            )

    def _check_draw(
        self, facts, site, project, covered, families: List[str], used: Set[str]
    ) -> Iterator[Finding]:
        rel = facts["rel"]
        arg0 = site.get("arg0")
        if arg0 is None:
            return
        if "lit" in arg0:
            for name in arg0["lit"]:
                entry = covered(name)
                if entry is not None:
                    used.add(entry)
                else:
                    yield Finding(
                        path=rel,
                        line=site["line"],
                        col=site["col"],
                        rule=self.name,
                        message=(
                            f"draw of unregistered stream name {name!r}"
                        ),
                        hint=_REGISTER_HINT,
                    )
            return
        if "name" in arg0:
            value = project.index.resolve_constant(facts["module"], arg0["name"])
            if value is not None:
                entry = covered(value)
                if entry is not None:
                    used.add(entry)
                else:
                    yield Finding(
                        path=rel,
                        line=site["line"],
                        col=site["col"],
                        rule=self.name,
                        message=(
                            f"draw of unregistered stream name {value!r} "
                            f"(via constant {arg0['name']})"
                        ),
                        hint=_REGISTER_HINT,
                    )
                return
        if "fstr" in arg0:
            prefix = arg0["fstr"]
            match = next((p for p in sorted(families) if prefix.startswith(p)), None)
            if match is not None:
                used.add(match + "*")
                return
            yield Finding(
                path=rel,
                line=site["line"],
                col=site["col"],
                rule=self.name,
                message=(
                    "dynamically composed stream name matches no "
                    "registered 'prefix.*' family"
                    + (f" (literal prefix {prefix!r})" if prefix else "")
                ),
                hint=_LITERAL_HINT,
            )
            return
        yield Finding(
            path=rel,
            line=site["line"],
            col=site["col"],
            rule=self.name,
            message=(
                f"stream name in {facts['module']} cannot be resolved "
                "statically, defeating the provenance census"
            ),
            hint=_LITERAL_HINT,
        )
