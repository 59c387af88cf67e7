"""Stateful property test — fleet lifecycle invariants under any schedule.

A hypothesis rule machine drives the data plane through arbitrary
interleavings of scaling, request submission, time advancement, and
instance crashes, and checks the conservation laws that every other
test relies on implicitly:

* fleet census == data-center census;
* per-instance occupancy never exceeds the admission capacity ``k``,
  and the occupancy counter matches the requests the instance holds;
* request conservation: accepted = completed + in-flight + crash-lost;
* the busy-time ledger never exceeds provisioned VM time.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.cloud import InstanceState

from helpers import make_env


class FleetMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.env = make_env(capacity=2, service_time=1.0, num_hosts=8, seed=0)

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(n=st.integers(min_value=0, max_value=20))
    def scale(self, n):
        self.env.fleet.scale_to(n)

    @rule(count=st.integers(min_value=1, max_value=8))
    def submit(self, count):
        for _ in range(count):
            self.env.admission.submit(self.env.engine.now)

    @rule(steps=st.integers(min_value=1, max_value=16))
    def advance(self, steps):
        for _ in range(steps):
            if not self.env.engine.step():
                break

    @rule(pick=st.integers(min_value=0, max_value=63))
    def crash(self, pick):
        live = self.env.fleet.live_instances
        if live:
            self.env.fleet.kill(live[pick % len(live)])

    @rule()
    def drain_one(self, ):
        if self.env.fleet.serving_count > 0:
            self.env.fleet.scale_to(self.env.fleet.serving_count - 1)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def census_matches_datacenter(self):
        assert self.env.fleet.live_count == self.env.datacenter.live_vms

    @invariant()
    def occupancy_bounded(self):
        for inst in self.env.fleet.live_instances:
            assert 0 <= inst.occupancy <= inst.capacity
            assert inst.state is not InstanceState.DESTROYED
            # The occupancy counter never drifts from the requests the
            # instance really holds: the waiting queue plus the one
            # whose completion is pending.
            assert inst.occupancy == len(inst._queue) + (inst._pending is not None)
            assert inst.is_idle == (inst.occupancy == 0)
            assert inst.is_full == (inst.occupancy == inst.capacity)

    @invariant()
    def request_conservation(self):
        m = self.env.metrics
        in_system = sum(i.occupancy for i in self.env.fleet.live_instances)
        assert m.in_flight == in_system
        assert m.accepted == m.completed + m.in_flight + m.lost_requests

    @invariant()
    def busy_time_within_provisioned_time(self):
        now = self.env.engine.now
        assert self.env.metrics.busy_seconds <= self.env.datacenter.vm_seconds(now) + 1e-6

    @invariant()
    def census_never_negative(self):
        f = self.env.fleet
        assert f.active_count >= 0
        assert f.serving_count >= f.active_count
        assert f.live_count >= f.serving_count


TestFleetStateful = FleetMachine.TestCase
TestFleetStateful.settings = settings(max_examples=40, stateful_step_count=60, deadline=None)
