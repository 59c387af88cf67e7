"""Result persistence — JSON round-tripping of experiment outputs.

Long parameter sweeps (the Figure-5 week at low scale factors takes
minutes) should never have to be re-run to re-tabulate: the unified
:class:`~repro.backends.base.RunMetrics` record serializes to plain
JSON with a format header, so saved result sets survive library
upgrades with an explicit version check instead of a silent misparse.

Format history
--------------
* **version 2** (current) — one ``kind: "metrics"`` entry per result,
  the JSON form of :class:`RunMetrics` (backend tag included).
* **version 1** — the pre-backend ``"run"``/``"fluid"`` result kinds;
  no longer read (loading one raises :class:`ConfigurationError`).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Sequence, Union

from ..backends.base import RunMetrics
from ..errors import ConfigurationError

__all__ = ["result_to_dict", "result_from_dict", "save_results", "load_results"]

#: Format identifier written into every results file.
_FORMAT = "repro-results"
_VERSION = 2


def result_to_dict(result: RunMetrics) -> dict:
    """Serialize one result to a JSON-safe dict (with a ``kind`` tag)."""
    if not isinstance(result, RunMetrics):
        raise ConfigurationError(
            f"cannot serialize {type(result).__name__}; expected RunMetrics"
        )
    payload = dataclasses.asdict(result)
    # Tuples (fleet/control series) become lists in JSON; normalized on
    # load.
    return {"kind": "metrics", "data": payload}


def result_from_dict(blob: dict, version: int = _VERSION) -> RunMetrics:
    """Inverse of :func:`result_to_dict` (current format version only)."""
    kind = blob.get("kind")
    if version != _VERSION or kind != "metrics":
        raise ConfigurationError(
            f"unknown result kind {kind!r} for format version {version}"
        )
    data = dict(blob["data"])
    for key in ("fleet_series", "control_series"):
        if key in data:
            data[key] = tuple(tuple(point) for point in data[key])
    return RunMetrics(**data)


def save_results(path: Union[str, Path], results: Sequence[RunMetrics]) -> None:
    """Write a result set to ``path`` as versioned JSON."""
    path = Path(path)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "results": [result_to_dict(r) for r in results],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_results(path: Union[str, Path]) -> List[RunMetrics]:
    """Load a result set written by :func:`save_results`.

    Reads the current format (version 2) only.

    Raises
    ------
    ConfigurationError
        If the file is not a repro results file or has an unsupported
        format version.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("format") != _FORMAT:
        raise ConfigurationError(f"{path}: not a repro results file")
    version = doc.get("version")
    if version != _VERSION:
        raise ConfigurationError(
            f"{path}: unsupported results version {version!r} "
            f"(this build reads version {_VERSION})"
        )
    return [result_from_dict(blob, version=version) for blob in doc["results"]]
