"""Campaign cell runner — claimed cells in, stored results out.

This module is the *mechanics* half of the campaign engine; the
control loop (reconciliation, sharding, lease claiming) lives in
:mod:`repro.campaigns.scheduler`.  The runner keeps the semantics the
monolithic executor always had:

* **grouping** — pending cells sharing ``(scenario, policy, backend)``
  run as one :func:`~repro.experiments.runner.run_replications` call,
  so a campaign inherits the process-pool parallelism (and its
  bit-identical-to-sequential guarantee) for free;
* **retry-on-worker-failure** — a group that dies in the pool is
  retried sequentially in-process up to ``spec.retries`` times before
  its cells are recorded as ``failed`` (the campaign continues with
  the other groups either way);
* **fluid prescreen** — optionally, each DES cell's *fluid twin*
  (identical configuration, ``backend="fluid"``) is evaluated first;
  twins are ordinary cells, so they cache (and claim) like everything
  else, and a DES cell whose analytical rejection rate already exceeds
  the spec's threshold is skipped as ``screened`` instead of simulated;
* **observability** — every cell transition emits a
  ``campaign.cell.*`` event on the trace bus (schema-validated like
  all events; ``t`` is wall-clock seconds since campaign start).

Results land in the store *as each group finishes* via durable atomic
writes, which is the whole resume story: kill the process at any
point, run the same command again, and only the missing cells execute.
Each cell's lease is released the moment its artifact (or failure
record) lands, so cooperating workers see progress at cell - not
campaign - granularity.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

from ..experiments.runner import run_replications
from ..obs.bus import TraceBus
from ..obs.log import get_logger, kv
from ..obs.metrics import MetricsConfig
from .spec import CampaignSpec, Cell
from .store import ResultStore

_log = get_logger(__name__)

__all__ = ["prescreen_cells", "run_group"]


def prescreen_cells(
    spec: CampaignSpec,
    store: ResultStore,
    pending: Sequence[Cell],
    bus: Optional[TraceBus],
    elapsed: Callable[[], float],
    finish: Callable,
    say: Callable[[str], None],
    claims,
) -> Tuple[List[Cell], int, List[Cell]]:
    """Drop DES cells whose fluid twin already violates the threshold.

    Returns ``(survivors, screened_count, deferred)`` — deferred cells
    have their twin claimed by another worker right now; the scheduler
    retries them next round (by then the twin is usually cached).
    """
    survivors: List[Cell] = []
    deferred: List[Cell] = []
    screened = 0
    for cell in pending:
        # Both DES flavours (scalar "des" and vectorized "des-vec") get
        # the analytical prescreen; fluid cells ARE the twins.
        if not cell.backend.startswith("des"):
            survivors.append(cell)
            continue
        twin = dataclasses.replace(cell, backend="fluid")
        metrics = store.get(twin)
        if metrics is None:
            held, contended = claims.claim_all([twin])
            if contended:
                deferred.append(cell)
                continue
            try:
                # Re-check under the lease: a peer may have landed the
                # twin between our cache miss and the claim.
                metrics = store.get(twin)
                if metrics is None:
                    metrics = run_replications(
                        twin.build_scenario(),
                        twin.policy_factory(),
                        seeds=(twin.seed,),
                        workers=1,
                        backend="fluid",
                    )[0]
                    store.put(twin, metrics)
            except Exception as exc:  # noqa: BLE001 - prescreen is advisory
                _log.warning(
                    "fluid prescreen failed; running the DES cell anyway: %s",
                    kv(cell=cell.label(), error=repr(exc)),
                )
                survivors.append(cell)
                continue
            finally:
                claims.release_all(held)
        if metrics.rejection_rate > spec.prescreen_max_rejection:
            store.mark_screened(cell, rejection_rate=metrics.rejection_rate)
            finish(cell, "screened")
            screened += 1
            say(
                f"screened {cell.label()}: fluid rejection "
                f"{metrics.rejection_rate:.1%} > {spec.prescreen_max_rejection:.1%}"
            )
            if bus is not None:
                bus.emit(
                    "campaign.cell.screened",
                    elapsed(),
                    key=cell.key(),
                    rejection_rate=float(metrics.rejection_rate),
                )
        else:
            survivors.append(cell)
    return survivors, screened, deferred


def run_group(
    spec: CampaignSpec,
    store: ResultStore,
    head: Cell,
    batch: Sequence[Cell],
    pool_workers: int,
    bus: Optional[TraceBus],
    elapsed: Callable[[], float],
    finish: Callable,
    say: Callable[[str], None],
    metrics: Optional[MetricsConfig] = None,
    claims=None,
) -> None:
    """One (scenario, policy, backend) group through the pool, with retry.

    ``batch`` must already be claimed by the caller; each cell's lease
    is released as soon as its result (or failure record) is stored.
    """
    seeds = [c.seed for c in batch]
    by_seed = {c.seed: c for c in batch}
    if bus is not None:
        for cell in batch:
            bus.emit(
                "campaign.cell.start",
                elapsed(),
                key=cell.key(),
                scenario=cell.scenario_label(),
                policy=cell.policy_label,
                backend=cell.backend,
                seed=cell.seed,
            )
    scenario = head.build_scenario()
    factory = head.policy_factory()
    group_label = f"{head.scenario_label()}/{head.policy_label}/{head.backend}"
    last_error: Optional[BaseException] = None
    for attempt in range(spec.retries + 1):
        # First attempt uses the pool; retries run sequentially so one
        # crashed/OOM-killed worker cannot sink the group twice.
        attempt_workers = pool_workers if attempt == 0 else 1
        try:
            t_start = elapsed()
            results = run_replications(
                scenario,
                factory,
                seeds=seeds,
                workers=attempt_workers,
                backend=head.backend,
                metrics=metrics,
            )
            for run in results:
                cell = by_seed[run.seed]
                store.put(cell, run)
                finish(cell, "executed")
                if claims is not None:
                    claims.release_all([cell])
                if bus is not None:
                    bus.emit(
                        "campaign.cell.done",
                        elapsed(),
                        key=cell.key(),
                        wall_seconds=float(run.wall_seconds),
                    )
            say(
                f"ran {group_label} seeds {seeds} "
                f"({elapsed() - t_start:.2f}s)"
            )
            return
        except Exception as exc:  # noqa: BLE001 - worker failures must not sink the campaign
            last_error = exc
            _log.warning(
                "cell group failed: %s",
                kv(
                    group=group_label,
                    seeds=len(seeds),
                    attempt=attempt + 1,
                    retries=spec.retries,
                    error=repr(exc),
                ),
            )
    error = repr(last_error)
    for cell in batch:
        store.mark_failed(cell, error)
        finish(cell, "failed", error=error)
        if claims is not None:
            claims.release_all([cell])
        if bus is not None:
            bus.emit("campaign.cell.failed", elapsed(), key=cell.key(), error=error)
    say(f"FAILED {group_label} after {spec.retries + 1} attempt(s): {error}")
