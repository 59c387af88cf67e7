"""Golden outputs of the vectorized ``des-vec`` engine.

The cross-backend tests pin ``des`` ≡ ``des-vec`` on jitterless runs
only.  Under service jitter, with boot delays, revocations or
telemetry, des-vec's output is its own (it draws service times per
window, and its engine events decide where the monitor folds ``T_m``),
so a change to the data plane could move it unseen.
This module pins des-vec's own output: every :class:`RunMetrics` field
except ``wall_seconds`` and ``profile`` of a handful of small runs,
compared exactly, the long fields by length and SHA-256 (as in
``test_des_reference_golden.py``).  One traced run pins the SHA-256 of
its sorted canonical-JSON event lines (the event multiset) and the
ordered list of its ``batch.span`` summaries.

A performance change to the batched data plane must leave every value
here untouched.  A deliberate change of semantics regenerates them and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from test_des_reference_golden import _SQUEEZE, _digest, _observed

from repro.core import AdaptivePolicy, QoSTarget, StaticPolicy
from repro.economy import ProfitPolicy, SpotPolicy
from repro.experiments import run_policy, scientific_scenario, web_scenario
from repro.obs.bus import TraceBus, TraceSink
from repro.obs.metrics import MetricsConfig
from repro.workloads import WebWorkload

SCALE = 2000.0
DAY = 24 * 3600.0


def _run(scenario, policy, seed=0, **kwargs):
    return run_policy(scenario, policy, seed=seed, backend="des-vec", **kwargs)


def _run_web_adaptive():
    sc = web_scenario(scale=SCALE, horizon=DAY, track_fleet_series=True)
    return _run(sc, AdaptivePolicy())


def _squeeze():
    return web_scenario(
        scale=SCALE, horizon=DAY, track_fleet_series=True, pricing=_SQUEEZE
    )


def _run_squeeze_profit_telemetry():
    return _run(_squeeze(), ProfitPolicy(), metrics=MetricsConfig())


def _run_squeeze_spot30_telemetry():
    return _run(_squeeze(), SpotPolicy(0.3), metrics=MetricsConfig())


def _run_web_boot120():
    sc = web_scenario(
        scale=SCALE, horizon=DAY, track_fleet_series=True, boot_delay=120.0
    )
    return _run(sc, AdaptivePolicy())


def _run_static3_saturated_k3():
    sc = web_scenario(
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
    assert sc.capacity == 3
    return _run(sc, StaticPolicy(3), seed=1)


def _run_scientific_adaptive():
    sc = scientific_scenario(scale=50.0, horizon=DAY / 2, track_fleet_series=True)
    return _run(sc, AdaptivePolicy())


_CASES = {
    "web-adaptive": _run_web_adaptive,
    "squeeze-profit-telemetry": _run_squeeze_profit_telemetry,
    "squeeze-spot30-telemetry": _run_squeeze_spot30_telemetry,
    "web-boot120": _run_web_boot120,
    "static3-saturated-k3": _run_static3_saturated_k3,
    "scientific-adaptive": _run_scientific_adaptive,
}


class _LineSink(TraceSink):
    """Keeps every event as one canonical-JSON line."""

    def __init__(self) -> None:
        self.lines = []
        self.spans = []

    def write(self, event: dict) -> None:
        self.lines.append(json.dumps(event, sort_keys=True, separators=(",", ":")))
        if event["type"] == "batch.span":
            self.spans.append(event)


def _traced_stream():
    """Event multiset digest and ordered span summaries of a traced run."""
    sc = web_scenario(
        scale=SCALE,
        horizon=DAY / 4,
        boot_delay=60.0,
        count_arrivals=True,
        rate_sample_interval=300.0,
    )
    sink = _LineSink()
    result = _run(sc, AdaptivePolicy(), trace=TraceBus(sink))
    multiset = hashlib.sha256("\n".join(sorted(sink.lines)).encode()).hexdigest()
    return (
        result.total_requests,
        len(sink.lines),
        multiset,
        (len(sink.spans), _digest(sink.spans)),
    )


#: Generated from des-vec before arrival windows moved inside the data
#: plane (when window generation was still an engine event).  The
#: response-time mean and std, the utilization (busy time) and the
#: telemetry digests (histogram moments) were regenerated when those
#: statistics moved to fixed completion cuts (``repro.metrics.moments``),
#: as was the traced multiset digest: jittered ``T_m`` folds at those
#: cuts and at engine events, which moves it, and the predictions
#: made from it, by ulps.
GOLDEN = {
    'scientific-adaptive': {
        'scenario': 'scientific@1/50',
        'policy': 'Adaptive',
        'seed': 0,
        'total_requests': 61,
        'accepted': 61,
        'completed': 8,
        'rejected': 0,
        'rejection_rate': 0.0,
        'mean_response_time': 315.80430423202085,
        'response_time_std': 8.705657913658218,
        'qos_violations': 0,
        'min_instances': 14,
        'max_instances': 82,
        'vm_hours': 441.3833333333333,
        'core_hours': 441.3833333333333,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.07949862282269653,
        'events': 142,
        'fleet_series': (3, 'f2f6df8853c8216c6508dbe92536e7a42f0828bb5d7add0e4a2291c1d97e0e75'),
        'control_series': (49, '1df8d02a07f4fdfc49c4ff12555ddffae4aa4a4ca5e71246deb31e102c0db795'),
        'backend': 'des-vec',
        'cache_hits': 42,
        'cache_misses': 7,
        'compactions': 0,
        'revenue': 0.0,
        'cost': 0.0,
        'penalty': 0.0,
        'profit': 0.0,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (0, '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'),
    },
    'squeeze-profit-telemetry': {
        'scenario': 'web@1/2000',
        'policy': 'Profit',
        'seed': 0,
        'total_requests': 35289,
        'accepted': 414,
        'completed': 412,
        'rejected': 34875,
        'rejection_rate': 0.988268298903341,
        'mean_response_time': 0.20792881300549565,
        'response_time_std': 0.006572907214444695,
        'qos_violations': 0,
        'min_instances': 1,
        'max_instances': 1,
        'vm_hours': 24.0,
        'core_hours': 24.0,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.9986578747752858,
        'events': 37435,
        'fleet_series': (1, '51f8b2b0847a69f1cd747d97e0cc8982dd60ab88c5c24ebd0d126dd8a694209f'),
        'control_series': (102, 'ce1ba3bf190470d21053cc6a9d5bfbc7f010c4a2295d385ae04c235adab1f85f'),
        'backend': 'des-vec',
        'cache_hits': 22,
        'cache_misses': 80,
        'compactions': 0,
        'revenue': 8.24,
        'cost': 7.199999999999999,
        'penalty': 0.0,
        'profit': 1.040000000000001,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (6, '5c2f66703fd278f1ed318d16f44f4ea34487bd6f74e057718c37b57ba372c459'),
    },
    'squeeze-spot30-telemetry': {
        'scenario': 'web@1/2000',
        'policy': 'Spot-30',
        'seed': 0,
        'total_requests': 35289,
        'accepted': 35289,
        'completed': 35233,
        'rejected': 0,
        'rejection_rate': 0.0,
        'mean_response_time': 0.10498623723794616,
        'response_time_std': 0.002893494419884421,
        'qos_violations': 0,
        'min_instances': 64,
        'max_instances': 132,
        'vm_hours': 2523.383703665435,
        'core_hours': 2523.383703665435,
        'failures': 10,
        'lost_requests': 8,
        'utilization': 0.8143783046442903,
        'events': 72266,
        'fleet_series': (36, '8b26c9a36a25d5cc932a286ca885c2844ad58d352e00ec68a5d313e61f858c4e'),
        'control_series': (102, '5eda6dd015918b3e6c0735c7155c74616841e5fbd7aa54e7e32bf135cbc3349a'),
        'backend': 'des-vec',
        'cache_hits': 5,
        'cache_misses': 97,
        'compactions': 0,
        'revenue': 704.66,
        'cost': 598.0419377687081,
        'penalty': 0.0,
        'profit': 106.6180622312919,
        'spot_vm_hours': 757.0151110996304,
        'revocations': 10,
        'telemetry': (6, 'cad7b29cb5f3a64e3a1474f96609784d641ceb7a9c06601711ae906842e47718'),
    },
    'static3-saturated-k3': {
        'scenario': 'web@1/2000',
        'policy': 'Static-3',
        'seed': 1,
        'total_requests': 35376,
        'accepted': 1302,
        'completed': 1293,
        'rejected': 34074,
        'rejection_rate': 0.9631953867028494,
        'mean_response_time': 0.29753375461851034,
        'response_time_std': 0.0108874033576054,
        'qos_violations': 0,
        'min_instances': 3,
        'max_instances': 3,
        'vm_hours': 72.0,
        'core_hours': 72.0,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.9976851851851852,
        'events': 38109,
        'fleet_series': (1, '880577ccb441a7d78496490f51cfe28c00e0b835fb6879661b8eda5f7fb39eb2'),
        'control_series': (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
        'backend': 'des-vec',
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
        'scenario': 'web@1/2000',
        'policy': 'Adaptive',
        'seed': 0,
        'total_requests': 35289,
        'accepted': 35289,
        'completed': 35241,
        'rejected': 0,
        'rejection_rate': 0.0,
        'mean_response_time': 0.10498627768016923,
        'response_time_std': 0.002893573901145156,
        'qos_violations': 0,
        'min_instances': 65,
        'max_instances': 125,
        'vm_hours': 2511.65,
        'core_hours': 2511.65,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.8183689366943031,
        'events': 72072,
        'fleet_series': (23, '84f94ec2c4508b1d6f892f982054c3f5c6095af37793cd9d7b157507b1bcfbf5'),
        'control_series': (102, '3515c81001a6e90d4e6a9802fed758df07210443ac8e78545da347308a33d41a'),
        'backend': 'des-vec',
        'cache_hits': 10,
        'cache_misses': 92,
        'compactions': 0,
        'revenue': 0.0,
        'cost': 0.0,
        'penalty': 0.0,
        'profit': 0.0,
        'spot_vm_hours': 0.0,
        'revocations': 0,
        'telemetry': (0, '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'),
    },
    'web-boot120': {
        'scenario': 'web@1/2000',
        'policy': 'Adaptive',
        'seed': 0,
        'total_requests': 35289,
        'accepted': 35257,
        'completed': 35209,
        'rejected': 32,
        'rejection_rate': 0.0009067981523987645,
        'mean_response_time': 0.1049855757794444,
        'response_time_std': 0.0028938551296412546,
        'qos_violations': 0,
        'min_instances': 65,
        'max_instances': 125,
        'vm_hours': 2511.65,
        'core_hours': 2511.65,
        'failures': 0,
        'lost_requests': 0,
        'utilization': 0.8176203641294804,
        'events': 72165,
        'fleet_series': (148, '9b659f861a910dcd58c682eba3b52eb9ae4c888f7178837e62199a2b8d380dd3'),
        'control_series': (102, '3515c81001a6e90d4e6a9802fed758df07210443ac8e78545da347308a33d41a'),
        'backend': 'des-vec',
        'cache_hits': 10,
        'cache_misses': 92,
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

#: (arrivals, events, SHA-256 of the sorted event lines,
#: (span count, SHA-256 of the ordered ``batch.span`` events)).
TRACED_GOLDEN = (
    7381,
    15638,
    '7e389dfa60ec19440ddd9c3662bdec41206ccbe4e20701623a4a6679744a2cc8',
    (360, '7a162e631d742dbf5ff82fb9401eaf23a2163c0365d0772660b9306bbaf83619'),
)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_des_vec_reference_output_is_pinned(case):
    result = _CASES[case]()
    assert result.backend == "des-vec"
    got = _observed(result)
    expected = GOLDEN[case]
    assert sorted(got) == sorted(expected)
    for name, value in expected.items():
        assert got[name] == value, name


def test_des_vec_reference_cases_cover_saturation_and_economy():
    assert GOLDEN["static3-saturated-k3"]["rejection_rate"] > 0.5
    assert GOLDEN["squeeze-spot30-telemetry"]["revocations"] > 0
    assert GOLDEN["squeeze-profit-telemetry"]["telemetry"][0] > 0


def test_des_vec_reference_trace_stream_is_pinned():
    assert _traced_stream() == TRACED_GOLDEN
