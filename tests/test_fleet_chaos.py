"""Fleet-scale chaos tests (repro.serving.fleet + repro.serving.faults).

The single-engine chaos mechanics live in test_faults.py; this file covers
the fleet-specific robustness layer: health-aware routing around dead
replicas, cross-model failover of requeued requests, per-tenant retry
budgets with deadline-aware honest drops, brownout admission control, and
per-chip-group link degradation.  A seeded Hypothesis harness replays
scenarios drawn from tests/scenarios.py through both FleetEngine and
ContinuousEngine and asserts the structural invariants — the books
balance, nothing is stranded, chip-seconds are ordered busy <= active <=
provisioned, retry budgets bound per-tenant spend, and every replay is
deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    DECODE_SHED,
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    FaultSchedule,
    Watchdog,
    check_report,
    chip_death,
    group_link_degradation,
    link_degradation,
    restart,
)

from scenarios import (
    CHAOS,
    CONTINUOUS,
    FLEET,
    Replay,
    fleet_engine,
    make_model,
    scenarios,
)
from scenarios import request as any_request

#: Every request here is an alpha request from acme unless it says otherwise.
request = partial(any_request, model="alpha", tenant="acme")


@pytest.fixture(scope="module")
def cache(testbed):
    # Every engine in this file (including each Hypothesis example) shares
    # one warm plan cache, so chaos replays cost no recompilation.
    return testbed.cache


@pytest.fixture(scope="module")
def unit(cache, small_chip, fast_constraints) -> float:
    return fleet_engine(cache, small_chip, fast_constraints).iteration_latency("alpha")


def assert_books_balance(report, workload) -> None:
    """Every request ends as exactly one record (served or honestly shed),
    chip-seconds are ordered and tenant slices sum to the fleet totals."""
    assert check_report(report, workload) == []


# --------------------------------------------------------------------------- #
# Watchdog edge cases on the fleet engine
# --------------------------------------------------------------------------- #
class TestFleetWatchdogEdges:
    def test_death_failover_and_tenant_slices(
        self, cache, small_chip, fast_constraints, unit
    ):
        workload = [
            request(0, 0.0, tokens=24, tenant="acme"),
            request(1, 0.0, model="beta", tokens=2, tenant="globex"),
        ]
        schedule = FaultSchedule.kill_and_restart(0, at=3 * unit, downtime=6 * unit)
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload, faults=schedule, watchdog=Watchdog(detection_delay=unit)
        )
        assert_books_balance(report, workload)
        stats = report.faults
        assert stats.chip_deaths == 1
        assert stats.restarts == 1
        assert stats.requeued + stats.retry_drops >= 1
        # Satellite: per-request fault accounting slices exactly per tenant.
        slices = report.per_tenant()
        assert sum(s.faults.requeued for s in slices.values()) == stats.requeued
        assert sum(s.faults.lost_tokens for s in slices.values()) == stats.lost_tokens
        # Fleet-level mechanism counters are zeroed in slices, not divided.
        assert all(s.faults.chip_deaths == 0 for s in slices.values())

    def test_death_at_detection_boundary(self, cache, small_chip, fast_constraints, unit):
        """detection_delay=0: the watchdog fires at the death instant and the
        requeue happens in the same virtual moment, after the death settles."""
        workload = [request(0, 0.0, tokens=20)]
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.kill_and_restart(0, at=2.5 * unit, downtime=4 * unit),
            watchdog=Watchdog(detection_delay=0.0),
        )
        assert_books_balance(report, workload)
        assert report.faults.chip_deaths == 1
        assert report.faults.requeued == 1
        record = report.completed[0]
        assert record.ok and record.requeues == 1

    def test_second_death_during_restart_is_idempotent(
        self, cache, small_chip, fast_constraints, unit
    ):
        """A chip reported dead again while its restart warms up is a no-op:
        the chip is still in the dead set, so the fleet counts one death and
        the chip comes online at the originally scheduled time."""
        workload = [request(0, 0.0, tokens=24)]
        schedule = FaultSchedule.of(
            [
                chip_death(2 * unit, 0),
                restart(6 * unit, 0, warmup_delay=3 * unit),
                # Fires mid-warmup (between restart and chip-online).
                chip_death(7 * unit, 0),
            ]
        )
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload, faults=schedule, watchdog=Watchdog(detection_delay=unit)
        )
        assert_books_balance(report, workload)
        assert report.faults.chip_deaths == 1
        assert report.faults.restarts == 1
        assert report.completed[0].ok

    def test_fault_after_last_arrival_changes_nothing_served(
        self, cache, small_chip, fast_constraints
    ):
        workload = [request(i, 0.0, tokens=2) for i in range(4)]
        clean = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload
        )
        late = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.of([chip_death(1e3, 0)]),
            watchdog=Watchdog(detection_delay=1.0),
        )
        # The kill lands long after the fleet drained: it is counted, but no
        # request is touched and every served record matches the clean run.
        assert late.faults.chip_deaths == 1
        assert late.faults.requeued == 0 and late.faults.retry_drops == 0
        assert repr(late.completed) == repr(clean.completed)

    def test_all_replicas_dead_sheds_instead_of_stranding(
        self, cache, small_chip, fast_constraints, unit
    ):
        workload = [
            request(i, 0.0, tokens=12, model="alpha" if i % 2 == 0 else "beta")
            for i in range(6)
        ]
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.of(
                [chip_death(1.5 * unit, 0), chip_death(1.5 * unit, 1)]
            ),
            watchdog=Watchdog(detection_delay=unit),
        )
        # No survivor, no restart: everything unfinished is shed honestly —
        # a record per request, none stranded in a dead replica's queue.
        assert_books_balance(report, workload)
        assert report.faults.chip_deaths == 2
        assert report.faults.failovers == 0
        assert report.shed > 0
        for record in report.completed:
            assert record.ok or record.status == DECODE_SHED


# --------------------------------------------------------------------------- #
# Fleet-scale degraded-mode policies
# --------------------------------------------------------------------------- #
class TestDegradedModePolicies:
    def test_retry_budget_zero_drops_honestly(
        self, cache, small_chip, fast_constraints, unit
    ):
        workload = [request(0, 0.0, tokens=24)]
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.kill_and_restart(0, at=3 * unit, downtime=6 * unit),
            watchdog=Watchdog(detection_delay=unit, retry_budget=0),
        )
        assert_books_balance(report, workload)
        assert report.faults.retry_drops == 1
        assert report.faults.requeued == 0
        record = report.completed[0]
        assert record.status == DECODE_SHED
        # The record keeps only requeues that bought another attempt.
        assert record.requeues == 0

    def test_requeue_past_deadline_drops_regardless_of_budget(
        self, cache, small_chip, fast_constraints, unit
    ):
        # Feasible at arrival (24 tokens in ~25 units fits 40), but a late
        # kill forces a full re-prefill that cannot finish by the deadline.
        workload = [request(0, 0.0, tokens=24, deadline=40 * unit)]
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.kill_and_restart(0, at=20 * unit, downtime=60 * unit),
            watchdog=Watchdog(detection_delay=unit, retry_budget=10),
        )
        assert_books_balance(report, workload)
        assert report.faults.retry_drops == 1
        assert report.completed[0].status == DECODE_SHED

    def test_brownout_sheds_best_effort_at_arrival(
        self, cache, small_chip, fast_constraints, unit
    ):
        # Half the best-effort stream arrives while chip 0 is down and the
        # surviving capacity (1/2) sits below the watermark.
        workload = [request(0, 0.0, tokens=4)] + [
            request(
                10 + i,
                (4 + i) * unit,
                tokens=2,
                slo_class=SLO_BEST_EFFORT if i % 2 == 0 else SLO_INTERACTIVE,
            )
            for i in range(6)
        ]
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.kill_and_restart(0, at=3 * unit, downtime=30 * unit),
            watchdog=Watchdog(detection_delay=unit, brownout_watermark=0.75),
        )
        assert_books_balance(report, workload)
        assert report.faults.brownout_sheds > 0
        # Brownout never sheds interactive work at arrival: every record
        # shed without ever being admitted is best-effort.
        for record in report.completed:
            if record.status == DECODE_SHED and record.requeues == 0:
                assert record.request.slo_class == SLO_BEST_EFFORT

    def test_cross_model_failover_migrates_to_other_binding(
        self, cache, small_chip, fast_constraints, unit
    ):
        """A dead replica's requeued request may land on a replica of a
        different binding: the idle beta replica takes the displaced alpha
        request (full re-prefill) instead of waiting out the downtime."""
        workload = [
            # Binds replica 0 to beta, drains quickly, leaves it idle.
            request(0, 0.0, model="beta", tokens=2, tenant="globex"),
            # In flight on replica 1 when the kill lands.
            request(1, 0.0, tokens=24, tenant="acme"),
        ]
        report = fleet_engine(cache, small_chip, fast_constraints, num_chips=2).run(
            workload,
            faults=FaultSchedule.kill_and_restart(1, at=6 * unit, downtime=40 * unit),
            watchdog=Watchdog(detection_delay=unit),
        )
        assert_books_balance(report, workload)
        assert report.faults.requeued == 1
        assert report.migrations == 1
        record = next(r for r in report.completed if r.request.request_id == 1)
        assert record.ok
        assert record.migrations == 1
        # The migration shows up in the owning tenant's slice alone.
        assert report.tenant_slice("acme").migrations == 1
        assert report.tenant_slice("globex").migrations == 0

    def test_group_link_degradation_scopes_to_chip_set(
        self, cache, small_chip, fast_constraints
    ):
        """A degradation window keyed to one chip group taxes only replicas
        backed by those chips — so the health-aware router steers traffic to
        the clean group at no makespan cost, while an unscoped (fleet-wide)
        window leaves nowhere to hide."""
        workload = [request(i, 0.0, tokens=6) for i in range(3)]

        def run(schedule=None):
            engine = fleet_engine(
                cache,
                small_chip,
                fast_constraints,
                deployments=[make_model("alpha", max_batch_size=2)],
                num_chips=2,
            )
            engine.warm()
            return engine.run(
                workload, faults=schedule, watchdog=Watchdog() if schedule else None
            )

        clean = run()
        served_on = {r.replica for r in clean.ok_requests}
        assert served_on  # the workload lands on at least one replica
        target = min(served_on)
        other = 1 - target
        rerouted = run(
            FaultSchedule.of([group_link_degradation(0.0, 1e9, 8.0, [target])])
        )
        untouched = run(
            FaultSchedule.of([group_link_degradation(0.0, 1e9, 8.0, [other])])
        )
        fleet_wide = run(FaultSchedule.of([link_degradation(0.0, 1e9, 8.0)]))
        # Degrading the serving group moves every request onto the clean
        # group's replica at full speed.
        assert {r.replica for r in rerouted.ok_requests} == {other}
        assert rerouted.makespan == clean.makespan
        # Degrading the idle group changes nothing at all.
        assert {r.replica for r in untouched.ok_requests} == {target}
        assert untouched.makespan == clean.makespan
        # An unscoped window is fleet-wide: no clean group exists, so the
        # degradation tax lands in full.
        assert fleet_wide.makespan > clean.makespan


# --------------------------------------------------------------------------- #
# Randomized chaos harness (seeded, deterministic per example)
# --------------------------------------------------------------------------- #
def check_chaos_invariants(replay: Replay):
    """Structural invariants of one engine under one fault schedule: the
    books balance, nothing is stranded, chip-seconds are ordered busy <=
    active <= provisioned, fault counts agree with the schedule, and the
    replay is deterministic.  Returns the first run's report."""
    report = replay.run()
    # Books balance, nothing is stranded, busy <= active <= provisioned and
    # the tenant slices sum to the totals.
    assert_books_balance(report, replay.workload)
    # Fault books agree with the schedule: a kill of an already-dead chip is
    # idempotent, so counted deaths never exceed the scheduled kill events
    # (a restarted chip can legitimately die a second time).
    assert report.faults.chip_deaths <= len(replay.faults.deaths)
    assert report.faults.requeued >= 0 and report.faults.lost_tokens >= 0
    # Deterministic replay: the same schedule over the same workload gives a
    # bit-identical report (repr-compare — shed records carry NaN fields).
    again = replay.run()
    assert repr(report.completed) == repr(again.completed)
    assert replace(report.faults, restart_compile_seconds=0.0) == replace(
        again.faults, restart_compile_seconds=0.0
    )
    assert report.migrations == again.migrations
    assert report.makespan == again.makespan
    assert report.busy_chip_seconds == again.busy_chip_seconds
    assert report.active_chip_seconds == again.active_chip_seconds
    return report


@settings(max_examples=12, deadline=None)
@given(
    scenario=scenarios(
        engines=(FLEET,),
        chips=(2, 2),
        models=(2,),
        traffic=(CHAOS,),
        tenants=(True,),
        faults=(True,),
        watchdog=(True,),
    )
)
def test_chaos_invariants_hold_for_any_schedule(scenario, testbed):
    """The fleet under arbitrary fault schedules: the shared invariants, plus
    per-tenant requeues respecting the retry budget."""
    report = check_chaos_invariants(Replay(scenario, testbed))
    # Retry budgets bound per-tenant spend: a record's requeue count only
    # grows when the tenant's budget paid for the retry.
    budget = scenario.watchdog.retry_budget
    if budget is not None:
        for tenant_slice in report.per_tenant().values():
            spent = sum(rec.requeues for rec in tenant_slice.completed)
            assert spent <= budget


@pytest.mark.parametrize("num_stages", [1, 2])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_continuous_chaos_invariants_hold_for_any_schedule(num_stages, data, testbed):
    """The same harness over ContinuousEngine on a single-model workload.

    Two stages put replica 0 on chips 0-1 with chip 2 spare, so deaths fail
    over a whole pipeline group and link windows re-price the degraded
    pipeline; one stage gives two single-chip replicas."""
    num_chips = 2 if num_stages == 1 else 3
    scenario = data.draw(
        scenarios(
            engines=(CONTINUOUS,),
            chips=(num_chips, num_chips),
            stages=(num_stages,),
            traffic=(CHAOS,),
            faults=(True,),
            watchdog=(True,),
        )
    )
    check_chaos_invariants(Replay(scenario, testbed))
