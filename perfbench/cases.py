"""The benchmark's workloads and the correctness checks on their outputs.

Each workload is a campaign spec in the dict form ``repro campaign
run`` loads from TOML, built from the benchmark seed alone.  A
:class:`Case` holds what set-up produces — the validated spec, its
expanded cells, and each cell's scenario and policy factory — and
runs one repetition of the workload body through the same public
entry points the CLI uses: ``run_policy`` per cell for the DES
workloads, ``run_campaign`` on a fresh store for ``fluid-grid``.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.backends.base import RunMetrics
from repro.campaigns import CampaignSpec, Cell, ResultStore, run_campaign
from repro.experiments.runner import run_policy
from repro.obs.metrics import MetricsConfig

__all__ = [
    "WORKLOADS", "Case", "build_case", "check_run", "check_twin", "fluid_twin", "same_result",
]

#: Thin-margin pricing: ``web-squeeze`` in ``campaigns/economy.toml``.
SQUEEZE = {
    "revenue_per_request": 0.02,
    "cost_per_core_hour": 0.3,
    "spot_cost_factor": 0.3,
    "sla_penalty": 0.05,
    "spot_mtbf": 7200.0,
}

#: Fluid-twin tolerances documented in ``tests/test_backend_xcheck.py``.
TWIN_VM_HOURS_REL = 0.05
TWIN_UTILIZATION_ABS = 0.05
TWIN_REJECTION_ABS = 0.02

DAY = 86_400.0


def _web_week_vec(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    return [{
        "scenario": "web",
        "scale": 2000.0 if tiny else 200.0,
        "horizon": 6 * 3600.0 if tiny else "week",
        "policies": ["adaptive"],
        "backends": ["des-vec"],
        "seeds": str(seed),
    }]


def _web_day_des(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    return [{
        "scenario": "web",
        "scale": 2000.0 if tiny else 200.0,
        "horizon": 6 * 3600.0 if tiny else "day",
        "policies": ["adaptive"],
        "backends": ["des"],
        "seeds": str(seed),
    }]


def _shed_squeeze_vec(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    return [{
        "scenario": "web",
        "name": "web-squeeze",
        "scale": 2000.0,
        "horizon": 6 * 3600.0 if tiny else 2 * DAY,
        "pricing": dict(SQUEEZE),
        "policies": ["profit", "spot-30"],
        "backends": ["des-vec"],
        "seeds": str(seed),
    }]


def _fluid_grid(seed: int, tiny: bool) -> List[Dict[str, Any]]:
    seeds = str(seed) if tiny else f"{6 * seed}-{6 * seed + 5}"
    horizon = "day" if tiny else "week"
    return [
        {
            "scenario": "web",
            "name": "web-squeeze",
            "horizon": horizon,
            "pricing": dict(SQUEEZE),
            "policies": ["adaptive", "profit", "spot-30", "static-100"],
            "backends": ["fluid"],
            "seeds": seeds,
        },
        {
            "scenario": "scientific",
            "horizon": horizon,
            "policies": ["adaptive", "static-30"],
            "backends": ["fluid"],
            "seeds": seeds,
        },
    ]


#: name → (scenario blocks from (seed, tiny), uses run_campaign,
#: runs with MetricsConfig() telemetry on).
WORKLOADS = {
    "web-week-vec": (_web_week_vec, False, False),
    "web-day-des": (_web_day_des, False, False),
    "shed-squeeze-vec": (_shed_squeeze_vec, False, True),
    "fluid-grid": (_fluid_grid, True, False),
}


@dataclass
class Case:
    """One workload at one seed, set up and ready to run."""

    name: str
    spec: CampaignSpec
    cells: List[Cell]
    campaign: bool
    metrics: Optional[MetricsConfig]
    work_root: Path
    scenarios: List[Any] = field(default_factory=list)
    factories: List[Any] = field(default_factory=list)

    def policies(self) -> List[Any]:
        """Fresh policies for one repetition (built outside the timed region)."""
        return [factory() for factory in self.factories]

    def run_cells(self, policies: List[Any]) -> List[RunMetrics]:
        """The timed body of a per-cell workload."""
        return [
            run_policy(
                scenario, policy, seed=cell.seed, backend=cell.backend,
                metrics=self.metrics,
            )
            for cell, scenario, policy in zip(self.cells, self.scenarios, policies)
        ]

    def new_store(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.work_root))

    def run_grid(self, store: Path):
        """The timed body of ``fluid-grid``: a cold campaign run."""
        return run_campaign(self.spec, store=str(store), workers=1)

    def grid_results(self, store: Path, outcome) -> Tuple[List[RunMetrics], List[str]]:
        """Stored results of a grid run plus any check failures."""
        errors: List[str] = []
        counts = outcome.counts()
        if counts.get("executed", 0) != len(self.cells):
            errors.append(f"expected {len(self.cells)} executed cells, got {counts}")
        rs = ResultStore(store)
        manifest = rs.manifest()
        results: List[RunMetrics] = []
        for cell in self.cells:
            entry = manifest.get(cell.key())
            if entry is None or entry.get("status") != "cached":
                errors.append(f"{cell.label()}: not listed as stored in the manifest")
            run = rs.get(cell)
            if run is None:
                errors.append(f"{cell.label()}: no stored result")
            else:
                results.append(run)
        return results, errors

    @staticmethod
    def drop_store(store: Path) -> None:
        shutil.rmtree(store, ignore_errors=True)


def build_case(name: str, seed: int, work_root: Path, tiny: bool = False) -> Case:
    """Set up one workload: spec expansion plus scenario/policy construction."""
    blocks, campaign, telemetry = WORKLOADS[name]
    spec = CampaignSpec.from_dict(
        {
            "campaign": {"name": name},
            "execution": {"workers": 1},
            "scenarios": blocks(seed, tiny),
        }
    )
    cells = spec.expanded()
    case = Case(
        name=name,
        spec=spec,
        cells=cells,
        campaign=campaign,
        metrics=MetricsConfig() if telemetry else None,
        work_root=work_root,
    )
    for cell in cells:
        case.scenarios.append(cell.build_scenario())
        case.factories.append(cell.policy_factory())
    return case


# ----------------------------------------------------------------------
# correctness checks (outside the timed region)
# ----------------------------------------------------------------------
def check_run(run: RunMetrics, capacity: int) -> List[str]:
    """Conservation laws every DES run must satisfy."""
    errors = []
    if run.total_requests != run.accepted + run.rejected:
        errors.append(
            f"arrivals {run.total_requests} != accepted {run.accepted} "
            f"+ rejected {run.rejected}"
        )
    in_flight = run.accepted - run.completed - run.lost_requests
    if not 0 <= in_flight <= capacity * run.max_instances:
        errors.append(
            f"in flight at the horizon {in_flight} outside "
            f"[0, k*max_instances = {capacity * run.max_instances}]"
        )
    return errors


def check_twin(run: RunMetrics, twin: RunMetrics) -> List[str]:
    """A DES run against its fluid twin, within the documented tolerances."""
    errors = []
    if abs(twin.vm_hours - run.vm_hours) > TWIN_VM_HOURS_REL * abs(run.vm_hours):
        errors.append(f"vm_hours {run.vm_hours:.2f} vs fluid {twin.vm_hours:.2f}")
    if abs(twin.utilization - run.utilization) > TWIN_UTILIZATION_ABS:
        errors.append(f"utilization {run.utilization:.4f} vs fluid {twin.utilization:.4f}")
    if abs(twin.rejection_rate - run.rejection_rate) > TWIN_REJECTION_ABS:
        errors.append(
            f"rejection {run.rejection_rate:.4f} vs fluid {twin.rejection_rate:.4f}"
        )
    return errors


def fluid_twin(case: Case, index: int) -> RunMetrics:
    cell = case.cells[index]
    return run_policy(
        case.scenarios[index], case.factories[index](), seed=cell.seed, backend="fluid"
    )


def same_result(a: RunMetrics, b: RunMetrics) -> bool:
    """Equal on every deterministic field (wall time, profile, telemetry aside)."""
    return replace(a, wall_seconds=0.0) == replace(b, wall_seconds=0.0)
