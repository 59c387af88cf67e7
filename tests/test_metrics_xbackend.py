"""Backend and campaign integration tests of the metrics layer.

The headline guarantee: on jitterless scenarios the ``metrics.snapshot``
series is **bit-identical** between the scalar ``des`` and vectorized
``des-vec`` backends — snapshots carry only integers and integer-ratio
floats, so any divergence in bucketing, counter sync, or tick placement
shows up as a hard failure here, not as drift.  Around that sit the
fluid backend's grid-sampled series, the metrics-off zero-cost path,
the parallel-merge contract, the campaign watch surface, the
interrupt-path flush guarantee, and the benchmark-comparison gates.
"""

from __future__ import annotations

import json

import pytest

from repro.core import AdaptivePolicy
from repro.experiments import run_policy, web_scenario
from repro.experiments.benchcmp import (
    GateResult,
    baseline_document,
    compare_to_baseline,
    format_comparison,
    lookup_gate,
)
from repro.experiments.scenario import scientific_scenario
from repro.obs.bus import JsonlSink, RingBufferSink, TraceBus
from repro.obs.exporters import load_snapshots
from repro.obs.metrics import MetricsConfig
from repro.obs.render import render_timeline
from repro.workloads import WebWorkload

METRICS = MetricsConfig()


@pytest.fixture(scope="module")
def web_jitterless():
    scale = 5000.0
    base = web_scenario(scale=scale, horizon=6 * 3600.0, track_fleet_series=True)
    return base.with_updates(workload=WebWorkload(service_jitter=0.0).scaled(scale))


@pytest.fixture(scope="module")
def sci_scenario():
    return scientific_scenario(scale=50.0, horizon=12 * 3600.0)


def _series(scenario, backend):
    r = run_policy(scenario, AdaptivePolicy(), seed=0, backend=backend, metrics=METRICS)
    assert r.telemetry, f"{backend} returned no telemetry"
    return r.telemetry["snapshots"]


# ---------------------------------------------------------------------------
# cross-backend bit-identity
# ---------------------------------------------------------------------------


def test_snapshot_series_bit_identical_des_vs_desvec_web(web_jitterless):
    des = _series(web_jitterless, "des")
    vec = _series(web_jitterless, "des-vec")
    assert des, "no snapshots sampled"
    assert json.dumps(des, sort_keys=True) == json.dumps(vec, sort_keys=True)


def test_snapshot_series_bit_identical_des_vs_desvec_scientific(sci_scenario):
    des = _series(sci_scenario, "des")
    vec = _series(sci_scenario, "des-vec")
    assert des, "no snapshots sampled"
    assert json.dumps(des, sort_keys=True) == json.dumps(vec, sort_keys=True)


def test_snapshot_cadence_follows_update_interval(web_jitterless):
    series = _series(web_jitterless, "des")
    times = [s["t"] for s in series]
    dt = web_jitterless.update_interval
    assert times == [dt * (i + 1) for i in range(len(times))]


# ---------------------------------------------------------------------------
# fluid backend + streams
# ---------------------------------------------------------------------------


def test_fluid_snapshot_stream_is_schema_valid(tmp_path, web_jitterless):
    cfg = MetricsConfig(path=str(tmp_path) + "/")
    r = run_policy(
        web_jitterless, AdaptivePolicy(), seed=0, backend="fluid", metrics=cfg
    )
    stream = cfg.resolve_path(web_jitterless.name, "Adaptive", 0)
    snapshots = load_snapshots(stream)  # validates every line
    assert len(snapshots) == len(r.telemetry["snapshots"])
    last = snapshots[-1]
    # fluid flows always drain and carry no per-request distribution
    assert last["completed"] == last["accepted"]
    assert last["violations"] == 0
    assert last["p95"] == 0.0


def test_history_off_stream_matches_in_memory_series(tmp_path, web_jitterless):
    """history=False + path streams every snapshot to disk (regression:
    the combination used to produce an empty JSONL file)."""
    on = run_policy(
        web_jitterless, AdaptivePolicy(), seed=0, backend="des", metrics=METRICS
    )
    cfg = MetricsConfig(history=False, path=str(tmp_path) + "/")
    off = run_policy(
        web_jitterless, AdaptivePolicy(), seed=0, backend="des", metrics=cfg
    )
    assert off.telemetry["snapshots"] == []
    streamed = load_snapshots(cfg.resolve_path(web_jitterless.name, "Adaptive", 0))
    assert streamed == on.telemetry["snapshots"]


def test_metrics_off_is_the_seed_code_path(web_jitterless):
    off = run_policy(web_jitterless, AdaptivePolicy(), seed=0, backend="des")
    on = run_policy(
        web_jitterless, AdaptivePolicy(), seed=0, backend="des", metrics=METRICS
    )
    assert off.telemetry == {}
    assert on.telemetry
    # instrumentation must not perturb the simulation outcome
    for field in (
        "total_requests",
        "accepted",
        "rejected",
        "completed",
        "qos_violations",
        "mean_response_time",
        "response_time_std",
        "max_instances",
        "vm_hours",
        "fleet_series",
        "control_series",
    ):
        assert getattr(off, field) == getattr(on, field), field


def test_parallel_and_sequential_telemetry_merge_identically():
    from repro.experiments.parallel import PolicySpec
    from repro.experiments.runner import run_replications
    from repro.obs.metrics import merge_telemetry

    scenario = web_scenario(scale=5000.0, horizon=2 * 3600.0)
    cfg = MetricsConfig(interval=1800.0)
    seq = run_replications(
        scenario, PolicySpec(AdaptivePolicy), seeds=(0, 1), workers=1, metrics=cfg
    )
    par = run_replications(
        scenario, PolicySpec(AdaptivePolicy), seeds=(0, 1), workers=2, metrics=cfg
    )
    m_seq = merge_telemetry([r.telemetry for r in seq])
    m_par = merge_telemetry([r.telemetry for r in par])
    assert json.dumps(m_seq, sort_keys=True) == json.dumps(m_par, sort_keys=True)
    assert m_seq["requests.arrived"]["value"] == sum(r.total_requests for r in seq)
    assert m_seq["qos.response_time"]["count"] == sum(r.completed for r in seq)


# ---------------------------------------------------------------------------
# batch.span timeline (des-vec data plane)
# ---------------------------------------------------------------------------


def test_desvec_batch_spans_render_in_timeline(web_jitterless):
    bus = TraceBus(RingBufferSink())
    run_policy(
        web_jitterless, AdaptivePolicy(), seed=0, backend="des-vec", trace=bus
    )
    spans = bus.sink.of_type("batch.span")
    assert spans, "vectorized run emitted no batch.span events"
    first = spans[0]
    assert first["stations"] > 0
    assert first["width"] >= 0.0
    line = render_timeline([first])[0]
    assert "batch.span" in line
    assert "station(s)" in line
    assert "Δ" in line
    flushed = first["arrivals"] + first["completions"]
    assert f"flushed {flushed}" in line
    assert f"{first['arrivals']} arrivals" in line


# ---------------------------------------------------------------------------
# campaign telemetry + watch
# ---------------------------------------------------------------------------


def _spec(store_root):
    from repro.campaigns import CampaignSpec

    return CampaignSpec.from_dict(
        {
            "campaign": {"name": "watch-test"},
            "store": {"path": str(store_root)},
            "scenarios": [
                {
                    "scenario": "web",
                    "scale": 5000.0,
                    "horizon": 2 * 3600.0,
                    "policies": ["adaptive"],
                    "backends": ["des"],
                    "seeds": "0-1",
                }
            ],
        }
    )


def test_campaign_metrics_and_watch(tmp_path):
    from repro.campaigns import (
        ResultStore,
        run_campaign,
        snapshot_progress,
        watch,
        watch_table,
    )

    spec = _spec(tmp_path / "store")
    store = ResultStore(spec.store_path(None))
    cells = spec.expanded()

    before = snapshot_progress(store, cells[0], horizon=2 * 3600.0)
    assert before.status == "pending" and before.fraction == 0.0

    run_campaign(spec, store=store, workers=1, metrics=MetricsConfig())
    streams = sorted((store.root / "telemetry").glob("*.jsonl"))
    assert len(streams) == len(cells)
    for stream in streams:
        assert load_snapshots(stream)  # schema-valid series on disk

    after = snapshot_progress(store, cells[0], horizon=2 * 3600.0)
    assert after.status == "cached" and after.fraction == 1.0
    assert after.wall_seconds is not None

    table = watch_table(spec, store)
    assert f"{len(cells)}/{len(cells)} cell(s) finished" in table

    lines = []
    assert watch(spec, store=store, follow=True, out=lines.append) == 1
    assert lines and "finished" in lines[0]


def test_watch_reads_live_stream_with_torn_tail(tmp_path):
    from repro.campaigns import ResultStore, snapshot_progress

    spec = _spec(tmp_path / "store")
    store = ResultStore(spec.store_path(None))
    cell = spec.expanded()[0]
    cfg = MetricsConfig(path=str(store.root / "telemetry") + "/")
    stream = cfg.resolve_path(cell.scenario_label(), cell.policy_label, cell.seed)
    stream.parent.mkdir(parents=True, exist_ok=True)
    snap = {"t": 3600.0, "type": "metrics.snapshot", "fleet": 9}
    stream.write_text(json.dumps(snap) + "\n" + '{"t": 54',  # torn live write
                      encoding="utf-8")

    p = snapshot_progress(store, cell, horizon=2 * 3600.0)
    assert p.status == "running"
    assert p.fraction == pytest.approx(0.5)
    assert p.snapshot["fleet"] == 9


def test_campaign_interrupt_flushes_borrowed_bus(tmp_path, monkeypatch):
    """Satellite guarantee: a KeyboardInterrupt mid-campaign leaves every
    already-emitted trace event durable on disk, and a borrowed bus open."""
    import repro.campaigns.executor as executor
    from repro.campaigns.scheduler import run_campaign

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(executor, "run_replications", boom)
    spec = _spec(tmp_path / "store")
    path = tmp_path / "campaign.jsonl"
    bus = TraceBus(JsonlSink(path))
    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec, workers=1, trace=bus)
    # cell.start events were flushed by the finally path, not lost in
    # the sink's buffer
    lines = [json.loads(l) for l in path.read_text().strip().splitlines()]
    assert any(e["type"] == "campaign.cell.start" for e in lines)
    # borrowed bus is still usable by the caller
    bus.emit("campaign.cell.failed", 0.0, key="k", error="interrupted")
    bus.close()


# ---------------------------------------------------------------------------
# bench --compare gates
# ---------------------------------------------------------------------------


def test_lookup_gate_reads_both_baseline_shapes():
    legacy = {"scalar": {"engine_event_throughput_50k": {"min": 0.015}}}
    assert lookup_gate(legacy, "engine_event_throughput_50k") == 0.015
    uniform = {"gates": {"engine_event_throughput_50k": {"seconds": 0.02}}}
    assert lookup_gate(uniform, "engine_event_throughput_50k") == 0.02
    assert lookup_gate({}, "engine_event_throughput_50k") is None
    # PR8 lease-scheduler gate rides the uniform shape only.
    pr8 = {"gates": {"shard_orchestration_overhead": {"seconds": 1.02}}}
    assert lookup_gate(pr8, "shard_orchestration_overhead") == 1.02


def test_gate_result_regression_logic():
    ok = GateResult("g", new_seconds=1.0, old_seconds=0.9, tolerance=2.0)
    assert not ok.regressed and ok.ratio == pytest.approx(1.0 / 0.9)
    bad = GateResult("g", new_seconds=3.0, old_seconds=1.0, tolerance=2.0)
    assert bad.regressed
    missing = GateResult("g", new_seconds=1.0, old_seconds=None, tolerance=2.0)
    assert missing.ratio is None and not missing.regressed
    report = format_comparison([ok, bad, missing])
    assert "REGRESSED" in report and "no-baseline" in report


def test_compare_to_baseline_measures_and_diffs():
    baseline = {"gates": {"engine_event_throughput_50k": {"seconds": 1e9}}}
    results = compare_to_baseline(
        baseline, tolerance=2.0, gates=["engine_event_throughput_50k"]
    )
    assert len(results) == 1
    assert results[0].new_seconds > 0
    assert not results[0].regressed  # anything beats a 1e9 s baseline
    doc = baseline_document(results)
    assert doc["gates"]["engine_event_throughput_50k"]["seconds"] == (
        results[0].new_seconds
    )
