"""Golden outputs of the scalar ``des`` reference engine.

Every other DES test compares ``des`` against ``des-vec`` or against a
tolerance, so a change that moved both engines together, or moved
``des`` within a tolerance, would pass them.  This module pins the
scalar engine's own output instead: every :class:`RunMetrics` field
except ``wall_seconds`` and ``profile`` of a handful of small runs,
compared exactly.  Floats are stored as their ``repr`` (which
round-trips bit for bit); the long fields (``fleet_series``,
``control_series``, ``telemetry``) are pinned by length and a SHA-256
of their canonical JSON.  One traced run pins the SHA-256 of its whole
event stream, per-request events included.

A performance change to the scalar hot path must leave every value
here untouched.  A deliberate change of semantics regenerates them and
says why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cloud.loadbalancer import LeastConnectionsBalancer
from repro.core import AdaptivePolicy, QoSTarget, StaticPolicy
from repro.economy import PricingModel, SpotPolicy
from repro.experiments import run_policy, scientific_scenario, web_scenario
from repro.obs.bus import TraceBus, TraceSink
from repro.obs.metrics import MetricsConfig
from repro.workloads import WebWorkload

SCALE = 5000.0
DAY = 24 * 3600.0

#: ``web-squeeze`` from ``campaigns/economy.toml``.
_SQUEEZE = PricingModel(
    revenue_per_request=0.02,
    cost_per_core_hour=0.3,
    spot_cost_factor=0.3,
    sla_penalty=0.05,
    spot_mtbf=7200.0,
)

#: Pinned by digest, not by value.
_LONG_FIELDS = ("fleet_series", "control_series", "telemetry")
#: Not a deterministic function of the run.
_SKIPPED_FIELDS = ("wall_seconds", "profile")


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _jitterless_web_k3():
    return web_scenario(
        scale=SCALE,
        horizon=DAY,
        track_fleet_series=True,
        workload=WebWorkload(service_jitter=0.0).scaled(SCALE),
        # Eq. 1: k = floor(Ts / Tr) = 3 with Tr = 0.1 s scaled.
        qos=QoSTarget(
            max_response_time=3.5 * 0.1 * SCALE,
            max_rejection_rate=0.0,
            min_utilization=0.80,
        ),
    )


def _run_web_adaptive():
    sc = web_scenario(scale=SCALE, horizon=DAY, track_fleet_series=True)
    return run_policy(sc, AdaptivePolicy(), seed=0)


def _run_static3_saturated_k3():
    sc = _jitterless_web_k3()
    assert sc.capacity == 3
    return run_policy(sc, StaticPolicy(3), seed=1)


def _run_spot30_squeeze_telemetry():
    sc = web_scenario(
        scale=SCALE,
        horizon=DAY,
        track_fleet_series=True,
        pricing=_SQUEEZE,
        boot_delay=60.0,
    )
    return run_policy(sc, SpotPolicy(0.3), seed=0, metrics=MetricsConfig())


def _run_scientific_adaptive():
    sc = scientific_scenario(track_fleet_series=True)
    return run_policy(sc, AdaptivePolicy(), seed=0)


def _run_least_connections_static3():
    sc = web_scenario(scale=SCALE, horizon=DAY / 2, track_fleet_series=True)
    return run_policy(sc, StaticPolicy(3), seed=0, balancer=LeastConnectionsBalancer())


_CASES = {
    "web-adaptive": _run_web_adaptive,
    "static3-saturated-k3": _run_static3_saturated_k3,
    "spot30-squeeze-boot60-telemetry": _run_spot30_squeeze_telemetry,
    "scientific-adaptive": _run_scientific_adaptive,
    "least-connections-static3": _run_least_connections_static3,
}


def _observed(result) -> dict:
    """The pinned view of one run: scalars as-is, long fields digested."""
    out = {}
    for field in dataclasses.fields(result):
        name = field.name
        if name in _SKIPPED_FIELDS:
            continue
        value = getattr(result, name)
        if name in _LONG_FIELDS:
            out[name] = (len(value), _digest(value))
        else:
            out[name] = value
    return out


class _HashSink(TraceSink):
    """Folds every event into a running SHA-256 instead of storing it."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.written = 0

    def write(self, event: dict) -> None:
        self._hash.update(json.dumps(event, sort_keys=True).encode())
        self._hash.update(b"\n")
        self.written += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _traced_stream():
    """Event count and digest of a traced web run, every event type on."""
    sc = web_scenario(
        scale=SCALE,
        horizon=DAY / 2,
        boot_delay=60.0,
        count_arrivals=True,
        rate_sample_interval=300.0,
    )
    sink = _HashSink()
    result = run_policy(sc, AdaptivePolicy(), seed=0, trace=TraceBus(sink))
    return result.total_requests, sink.written, sink.hexdigest()


#: Generated from the scalar engine before its hot-path rewrite; the
#: response-time mean and std and the utilization (busy time) were
#: regenerated when those statistics moved to fixed completion cuts
#: (``repro.metrics.moments``), as was the telemetry digest of the one
#: telemetry case, whose histogram moments moved the same way.
GOLDEN = {
    'least-connections-static3': {
        'scenario': 'web@1/5000',
        'policy': 'Static-3',
        'seed': 0,
        'total_requests': 7073,
        'accepted': 251,
        'completed': 245,
        'rejected': 6822,
        'rejection_rate': 0.9645129365191574,
        'mean_response_time': 0.2077163896163428,
        'response_time_std': 0.012044230357902874,
        'qos_violations': 0,
        'min_instances': 3,
        'max_instances': 3,
        'vm_hours': 36.0,
        'core_hours': 36.0,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.9941207315844006,
        'events': 8038,
        'fleet_series': (1, '880577ccb441a7d78496490f51cfe28c00e0b835fb6879661b8eda5f7fb39eb2'),
        'control_series': (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
        'backend': 'des',
        'cache_hits': 0,
        'cache_misses': 0,
        'compactions': 0,
        'revenue': 0.0,
        'cost': 0.0,
        'penalty': 0.0,
        'profit': 0.0,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (0, '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'),
    },
    'scientific-adaptive': {
        'scenario': 'scientific',
        'policy': 'Adaptive',
        'seed': 0,
        'total_requests': 8348,
        'accepted': 8325,
        'completed': 8318,
        'rejected': 23,
        'rejection_rate': 0.0027551509343555344,
        'mean_response_time': 321.7505198912857,
        'response_time_std': 37.45457728664927,
        'qos_violations': 0,
        'min_instances': 14,
        'max_instances': 82,
        'vm_hours': 952.088674159887,
        'core_hours': 952.088674159887,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.7644025359797512,
        'events': 16812,
        'fleet_series': (71, '6bb9937fa45604b238bd2db4aa8e2c4dba0664b467cba099e6144a235732d1f9'),
        'control_series': (98, '7bbb4d0926e5de7437bf11f6607fc99157e055a7b3f6dc41e725f8eb1ddd2149'),
        'backend': 'des',
        'cache_hits': 78,
        'cache_misses': 20,
        'compactions': 0,
        'revenue': 0.0,
        'cost': 0.0,
        'penalty': 0.0,
        'profit': 0.0,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (0, '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'),
    },
    'spot30-squeeze-boot60-telemetry': {
        'scenario': 'web@1/5000',
        'policy': 'Spot-30',
        'seed': 0,
        'total_requests': 14128,
        'accepted': 14122,
        'completed': 14062,
        'rejected': 6,
        'rejection_rate': 0.0004246885617214043,
        'mean_response_time': 0.10498293181421159,
        'response_time_std': 0.002876931265732015,
        'qos_violations': 0,
        'min_instances': 67,
        'max_instances': 131,
        'vm_hours': 2513.367036998768,
        'core_hours': 2513.367036998768,
        'failures': 10,
        'lost_requests': 7,
        'utilization': 0.8157881248537936,
        'events': 30074,
        'fleet_series': (177, '6d48562c076947ce90f631896beecc65471271d35282d5177700c0a93560f950'),
        'control_series': (102, '21d87d6e5bde7a70a2989f823a0d68aad934f567722fe5d2bf514640dd4bda09'),
        'backend': 'des',
        'cache_hits': 1,
        'cache_misses': 101,
        'compactions': 0,
        'revenue': 281.24,
        'cost': 595.667987768708,
        'penalty': 0.0,
        'profit': -314.427987768708,
        'spot_vm_hours': 754.0101110996304,
        'revocations': 10,
        'telemetry': (6, '937d6bc4b5e96036a27c7c6a2afbfa3453f50faae1dcdf150c73afe1d4f565e6'),
    },
    'static3-saturated-k3': {
        'scenario': 'web@1/5000',
        'policy': 'Static-3',
        'seed': 1,
        'total_requests': 14128,
        'accepted': 525,
        'completed': 516,
        'rejected': 13603,
        'rejection_rate': 0.9628397508493771,
        'mean_response_time': 0.29661389060884835,
        'response_time_std': 0.01710576541861498,
        'qos_violations': 0,
        'min_instances': 3,
        'max_instances': 3,
        'vm_hours': 72.0,
        'core_hours': 72.0,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.9953703703703703,
        'events': 16084,
        'fleet_series': (1, '880577ccb441a7d78496490f51cfe28c00e0b835fb6879661b8eda5f7fb39eb2'),
        'control_series': (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
        'backend': 'des',
        'cache_hits': 0,
        'cache_misses': 0,
        'compactions': 0,
        'revenue': 0.0,
        'cost': 0.0,
        'penalty': 0.0,
        'profit': 0.0,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (0, '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'),
    },
    'web-adaptive': {
        'scenario': 'web@1/5000',
        'policy': 'Adaptive',
        'seed': 0,
        'total_requests': 14128,
        'accepted': 14128,
        'completed': 14075,
        'rejected': 0,
        'rejection_rate': 0.0,
        'mean_response_time': 0.10498129111508929,
        'response_time_std': 0.0028769791517834283,
        'qos_violations': 0,
        'min_instances': 67,
        'max_instances': 126,
        'vm_hours': 2513.25,
        'core_hours': 2513.25,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.8165675654834275,
        'events': 29745,
        'fleet_series': (23, '57ea7adc15b457293f6ad43715df2fde166b6807e0dad172d20f283fca50b5bb'),
        'control_series': (102, 'bfd399a853bf76cf2c45de8db50b9ee6970bd6f66e0d938cc5d9a16735556732'),
        'backend': 'des',
        'cache_hits': 4,
        'cache_misses': 98,
        'compactions': 0,
        'revenue': 0.0,
        'cost': 0.0,
        'penalty': 0.0,
        'profit': 0.0,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (0, '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'),
    },
}

#: (arrivals, events, SHA-256) of :func:`_traced_stream`.
TRACED_GOLDEN = (7073, 15185, '9ef898bf22cae7ca01461187965c93901758ea80aa829ed4be129f2f9e67d8b5')


@pytest.mark.parametrize("case", sorted(_CASES))
def test_des_reference_output_is_pinned(case):
    result = _CASES[case]()
    assert result.backend == "des"
    assert result.total_requests <= 20_000
    got = _observed(result)
    expected = GOLDEN[case]
    assert sorted(got) == sorted(expected)
    for name, value in expected.items():
        assert got[name] == value, name


def test_des_reference_saturated_case_really_saturates():
    assert GOLDEN["static3-saturated-k3"]["rejection_rate"] > 0.5


def test_des_reference_trace_stream_is_pinned():
    assert _traced_stream() == TRACED_GOLDEN
