"""Response statistics do not depend on how completions are batched.

The scalar ``des`` backend posts one completion at a time, ``des-vec``
one array per flush; both must produce bit-identical statistics from
the same completion sequence.  The collector and the response-time
histogram merge mean, M2 and busy time only at fixed cuts of the
sequence (:mod:`repro.metrics.moments`), and the monitor folds the bulk
``T_m`` estimate at those cuts and at engine events, so any split of
the sequence — and any read in between — must give the same bits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.monitor import Monitor
from repro.metrics import MetricsCollector
from repro.metrics.moments import CUT
from repro.obs.metrics import Histogram, response_time_bounds
from repro.sim.engine import Engine

_QOS = 2.0
_BOUNDS = response_time_bounds(_QOS)


def _completions(seed: int, n: int):
    rng = np.random.default_rng(seed)
    services = rng.exponential(0.7, size=n) * rng.choice([1e-3, 1.0, 1e3], size=n)
    responses = services + rng.exponential(1.3, size=n)
    return responses, services


def _pieces(n: int, cuts):
    bounds = sorted({0, n, *(c for c in cuts if 0 < c < n)})
    return list(zip(bounds, bounds[1:]))


def _feed(responses, services, pieces, scalar, read):
    collector = MetricsCollector(qos_response_time=_QOS)
    hist = Histogram("qos.response_time", _BOUNDS)
    for k, (i, j) in enumerate(pieces):
        if scalar[k % len(scalar)]:
            for r, s in zip(responses[i:j].tolist(), services[i:j].tolist()):
                collector.record_response(r, s)
                hist.observe(r)
        else:
            collector.record_responses(responses[i:j], services[i:j])
            hist.observe_many(responses[i:j])
        if read[k % len(read)]:
            # A mid-run read must not move a cut.
            collector.mean_response_time, collector.busy_seconds, hist.mean
    return collector, hist


def _observed(collector, hist):
    count, mean, m2 = hist._totals()
    return (
        collector.completed,
        collector.violations,
        collector.mean_response_time,
        collector.response_time_std,
        collector.busy_seconds,
        collector._moments.totals(),
        hist.count,
        hist.counts,
        (count, mean, m2),
        hist.variance,
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=3 * CUT + 17),
    cuts=st.lists(st.integers(min_value=1, max_value=3 * CUT + 16), max_size=12),
    scalar=st.lists(st.booleans(), min_size=1, max_size=6),
    read=st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_statistics_are_bit_identical_for_any_split(seed, n, cuts, scalar, read):
    responses, services = _completions(seed, n)
    whole = _feed(responses, services, [(0, n)], [False], [False])
    split = _feed(responses, services, _pieces(n, cuts), scalar, read)
    assert _observed(*split) == _observed(*whole)


def test_statistics_match_numpy_across_cuts():
    responses, services = _completions(7, 2 * CUT + 5)
    collector, hist = _feed(responses, services, [(0, responses.size)], [True], [False])
    assert np.isclose(collector.mean_response_time, responses.mean(), rtol=1e-12)
    assert np.isclose(collector.response_time_std, responses.std(ddof=1), rtol=1e-12)
    assert np.isclose(collector.busy_seconds, services.sum(), rtol=1e-12)
    assert np.isclose(hist.variance, responses.var(ddof=1), rtol=1e-12)


def _tm_at_events(responses, services, events, splits):
    """``T_m`` after each engine event of a bulk feed cut at ``splits``."""
    monitor = Monitor(Engine(), MetricsCollector(), default_service_time=1.0)
    n = services.size
    seen = []
    for i, j in _pieces(n, [*events, *splits]):
        monitor.record_responses(responses[i:j], services[i:j])
        if j in events or j == n:
            monitor.fold_service_time()
            seen.append(monitor.mean_service_time())
    return seen


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=3 * CUT + 17),
    events=st.lists(st.integers(min_value=1, max_value=3 * CUT + 16), max_size=6),
    splits=st.lists(st.integers(min_value=1, max_value=3 * CUT + 16), max_size=12),
)
def test_bulk_tm_is_bit_identical_for_splits_that_keep_the_events(
    seed, n, events, splits
):
    responses, services = _completions(seed, n)
    events = {e for e in events if 0 < e < n}
    reference = _tm_at_events(responses, services, events, [])
    assert _tm_at_events(responses, services, events, splits) == reference


def test_bulk_tm_skips_the_fold_on_constant_service():
    services = np.full(CUT + 3, 0.25)
    seen = _tm_at_events(services + 1.0, services, {5, CUT + 1}, [17, 900])
    assert seen == [0.25, 0.25, 0.25]
