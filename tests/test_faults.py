"""Tests for fault injection and graceful degradation (repro.serving.faults)."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    COMPILE,
    DECODE_SHED,
    HIT_MEMORY,
    SLO_BEST_EFFORT,
    FaultEvent,
    FaultSchedule,
    FaultStats,
    Watchdog,
    check_report,
    chip_death,
    group_link_degradation,
    link_degradation,
    restart,
)
from repro.serving.faults import FAULT_CHIP_DEATH, FAULT_LINK_DEGRADATION

from scenarios import make_engine, make_model, request, tiny_builder

tiny_decode_builder = tiny_builder("tiny-decode")


# --------------------------------------------------------------------------- #
# Schedule construction and validation
# --------------------------------------------------------------------------- #
class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(time=0.0, kind="meteor-strike")
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(time=-1.0, kind=FAULT_CHIP_DEATH, chip=0)
        with pytest.raises(ValueError, match="chip index"):
            chip_death(1.0, -1)
        with pytest.raises(ValueError, match="factor"):
            link_degradation(0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="window"):
            link_degradation(2.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="warmup"):
            restart(1.0, 0, warmup_delay=-0.1)

    def test_event_validation_rejects_nan_and_infinite_values(self):
        nan = math.nan
        with pytest.raises(ValueError, match=">= 0"):
            chip_death(nan, 0)
        with pytest.raises(ValueError, match=">= 0"):
            link_degradation(nan, 1.0, 2.0)
        with pytest.raises(ValueError, match="window"):
            link_degradation(0.0, nan, 2.0)
        for factor in (nan, math.inf):
            with pytest.raises(ValueError, match="factor"):
                link_degradation(0.0, 1.0, factor)
        with pytest.raises(ValueError, match="factor"):
            group_link_degradation(0.0, 1.0, nan, [0])
        with pytest.raises(ValueError, match="warmup"):
            restart(1.0, 0, warmup_delay=nan)
        # An open-ended window stays legal.
        schedule = FaultSchedule.of([link_degradation(1.0, math.inf, 2.0)])
        assert schedule.link_factor(1e9) == 2.0
        assert schedule.link_factor(0.5) == 1.0

    def test_schedule_sorts_and_iterates(self):
        schedule = FaultSchedule.of(
            [restart(5.0, 0), chip_death(1.0, 0), chip_death(1.0, 1)]
        )
        assert len(schedule) == 3
        assert [(ev.time, ev.kind, ev.chip) for ev in schedule] == [
            (1.0, FAULT_CHIP_DEATH, 0),
            (1.0, FAULT_CHIP_DEATH, 1),
            (5.0, "restart", 0),
        ]
        assert schedule.first_death_time == 1.0
        assert len(schedule.deaths) == 2

    def test_kill_and_restart(self):
        schedule = FaultSchedule.kill_and_restart(2, at=1.0, downtime=3.0)
        assert [(ev.time, ev.kind) for ev in schedule] == [
            (1.0, FAULT_CHIP_DEATH),
            (4.0, "restart"),
        ]
        with pytest.raises(ValueError, match="downtime"):
            FaultSchedule.kill_and_restart(0, at=1.0, downtime=0.0)

    def test_for_fleet_rejects_out_of_range_chips(self):
        schedule = FaultSchedule.of([chip_death(1.0, 3)])
        assert schedule.for_fleet(4) is schedule
        with pytest.raises(ValueError, match="chips \\[3\\]"):
            schedule.for_fleet(2)

    def test_merged(self):
        merged = FaultSchedule.of([chip_death(2.0, 0)]).merged(
            [link_degradation(1.0, 3.0, 2.0)]
        )
        assert [ev.kind for ev in merged] == [
            FAULT_LINK_DEGRADATION,
            FAULT_CHIP_DEATH,
        ]

    def test_link_factor_is_max_of_overlapping_windows(self):
        schedule = FaultSchedule.of(
            [
                link_degradation(1.0, 5.0, 2.0),
                link_degradation(3.0, 4.0, 6.0),
            ]
        )
        assert schedule.link_factor(0.5) == 1.0
        assert schedule.link_factor(1.0) == 2.0  # window start inclusive
        assert schedule.link_factor(3.5) == 6.0  # worst overlap wins, no stacking
        assert schedule.link_factor(4.5) == 2.0
        assert schedule.link_factor(5.0) == 1.0  # window end exclusive
        assert schedule.first_death_time == math.inf

    def test_group_death_kills_the_whole_group_at_once(self):
        schedule = FaultSchedule.group_death([2, 0, 2], at=1.0, downtime=3.0)
        assert [(ev.time, ev.kind, ev.chip) for ev in schedule] == [
            (1.0, FAULT_CHIP_DEATH, 0),
            (1.0, FAULT_CHIP_DEATH, 2),
            (4.0, "restart", 0),
            (4.0, "restart", 2),
        ]
        # Without a downtime the group stays dead: no restarts scheduled.
        assert len(FaultSchedule.group_death([0, 1], at=1.0)) == 2
        with pytest.raises(ValueError, match="non-empty"):
            FaultSchedule.group_death([], at=1.0)
        with pytest.raises(ValueError, match="downtime"):
            FaultSchedule.group_death([0], at=1.0, downtime=0.0)

    def test_class_outage_is_group_death_over_the_class(self):
        outage = FaultSchedule.class_outage([2, 3], at=5.0, downtime=2.0)
        group = FaultSchedule.group_death([2, 3], at=5.0, downtime=2.0)
        assert outage == group

    def test_group_link_degradation_scopes_by_chip_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            group_link_degradation(0.0, 1.0, 2.0, [])
        schedule = FaultSchedule.of(
            [
                group_link_degradation(1.0, 5.0, 4.0, [0, 1]),
                link_degradation(2.0, 3.0, 2.0),
            ]
        )
        # Inside the scoped window: only the named chips pay the 4x factor.
        assert schedule.link_factor(1.5, chips=[0]) == 4.0
        assert schedule.link_factor(1.5, chips=[2]) == 1.0
        # A fleet-wide window applies to every chip set; the worst
        # applicable window wins, no stacking.
        assert schedule.link_factor(2.5, chips=[2]) == 2.0
        assert schedule.link_factor(2.5, chips=[1]) == 4.0
        # The chip-blind query (pre-fleet behaviour) sees every window.
        assert schedule.link_factor(1.5) == 4.0

    def test_watchdog_validation(self):
        with pytest.raises(ValueError, match="detection_delay"):
            Watchdog(detection_delay=-1.0)
        with pytest.raises(ValueError, match="degraded_shed_queue"):
            Watchdog(degraded_shed_queue=0)

    def test_fault_stats_summary(self):
        stats = FaultStats()
        assert not stats.any
        stats.chip_deaths = 1
        stats.requeued = 2
        stats.lost_tokens = 7
        assert stats.any
        assert "1 chip death(s)" in stats.summary()
        assert "7 tokens lost" in stats.summary()


# --------------------------------------------------------------------------- #
# link_factor against a reference scan of the events
# --------------------------------------------------------------------------- #
def reference_link_factor(events, now: float, chips=None) -> float:
    """The link factor by a scan of every event: the worst window active at
    ``now`` that is fleet-wide or overlaps ``chips`` (every window when
    ``chips`` is None), 1.0 when none is."""
    scope = None if chips is None else set(chips)
    return max(
        (
            ev.factor
            for ev in events
            if ev.kind == FAULT_LINK_DEGRADATION
            and ev.time <= now < ev.until
            and (scope is None or not ev.chips or scope.intersection(ev.chips))
        ),
        default=1.0,
    )


#: Windows on a coarse grid, so that edges coincide and windows overlap.
link_windows = st.lists(
    st.tuples(
        st.integers(0, 8),
        st.one_of(st.integers(1, 6), st.none()),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, 6.0]),
        st.sets(st.integers(0, 3), max_size=3),
    ).map(
        lambda drawn: FaultEvent(
            time=float(drawn[0]),
            kind=FAULT_LINK_DEGRADATION,
            factor=drawn[2],
            until=math.inf if drawn[1] is None else float(drawn[0] + drawn[1]),
            chips=tuple(drawn[3]),
        )
    ),
    max_size=6,
)


def query_times(events) -> list[float]:
    """Every window edge, the midpoints between consecutive edges, and a
    time before the first and after the last."""
    edges = sorted({ev.time for ev in events} | {ev.until for ev in events} - {math.inf})
    if not edges:
        return [0.0, 1.0]
    between = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
    return [-1.0, *edges, *between, edges[-1] + 1.0, math.inf]


@settings(max_examples=150, deadline=None)
@given(windows=link_windows, chips=st.sets(st.integers(0, 3)), deaths=st.booleans())
def test_link_factor_matches_a_scan_of_the_events(windows, chips, deaths):
    """``link_factor`` equals the reference scan at every window edge and
    between edges, with no chip set, an empty one, one drawn at random, one
    overlapping each scoped window and one disjoint from all of them; and
    ``next_link_edge`` never skips an edge."""
    events = list(windows)
    if deaths:
        events += [chip_death(2.0, 1), restart(4.0, 1)]
    schedule = FaultSchedule.of(events)
    scopes = [None, (), tuple(chips), (9,)]
    scopes += [ev.chips[:1] for ev in windows if ev.chips]
    edges = sorted({ev.time for ev in windows} | {ev.until for ev in windows})
    for now in query_times(windows):
        for scope in scopes:
            assert schedule.link_factor(now, scope) == reference_link_factor(
                schedule.events, now, scope
            ), (now, scope)
        assert schedule.next_link_edge(now) == min(
            (edge for edge in edges if edge > now), default=math.inf
        ), now
    # Walking the edges one at a time visits every finite edge, in order.
    walked, now = [], -1.0
    while (now := schedule.next_link_edge(now)) != math.inf:
        walked.append(now)
    assert walked == [edge for edge in edges if edge != math.inf]


# --------------------------------------------------------------------------- #
# Scoped plan-cache eviction (cold restart)
# --------------------------------------------------------------------------- #
class TestEvictScope:
    def test_evict_scope_drops_scope_and_nested_stages(
        self, cache, small_chip, fast_constraints
    ):
        graph = tiny_decode_builder(1)
        for scope in ("replica0-gen1", "replica0-gen1:stage1of2", "replica1-gen1"):
            lookup = cache.get_or_compile(graph, small_chip, fast_constraints, scope=scope)
            assert lookup.outcome == COMPILE
        dropped = cache.evict_scope("replica0-gen1")
        assert dropped == 2  # the scope itself plus its nested stage scope
        # The evicted scopes recompile; the sibling replica's scope is intact.
        assert (
            cache.get_or_compile(
                graph, small_chip, fast_constraints, scope="replica0-gen1"
            ).outcome
            == COMPILE
        )
        assert (
            cache.get_or_compile(
                graph, small_chip, fast_constraints, scope="replica1-gen1"
            ).outcome
            == HIT_MEMORY
        )

    def test_evict_scope_needs_a_prefix_and_tolerates_misses(self, cache):
        with pytest.raises(ValueError, match="non-empty"):
            cache.evict_scope("")
        assert cache.evict_scope("never-used") == 0


# --------------------------------------------------------------------------- #
# Engine integration: chaos replay
# --------------------------------------------------------------------------- #
class TestEngineFaults:
    def test_fault_free_run_is_unchanged_by_empty_schedule(
        self, cache, small_chip, fast_constraints
    ):
        workload = [request(i, 0.0, tokens=3) for i in range(6)]
        clean = make_engine(cache, small_chip, fast_constraints).run(workload)
        empty = make_engine(cache, small_chip, fast_constraints).run(
            workload, faults=FaultSchedule(), watchdog=Watchdog()
        )
        assert clean.completed == empty.completed
        assert clean.makespan == empty.makespan
        assert not empty.faults.any

    def test_death_requeues_in_flight_and_restart_recovers(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        schedule = FaultSchedule.kill_and_restart(
            0, at=2.5 * unit, downtime=10.0 * unit
        )
        report = make_engine(cache, small_chip, fast_constraints).run(
            [request(0, 0.0, tokens=20)], faults=schedule
        )
        stats = report.faults
        assert stats.chip_deaths == 1
        assert stats.restarts == 1
        assert stats.failovers == 1  # re-placed once the chip came back
        assert stats.requeued == 1
        assert stats.lost_tokens > 0  # decode progress died with the chip
        assert stats.lost_iterations == 1  # the aborted in-flight iteration
        record = report.completed[0]
        assert record.ok
        assert record.requeues == 1
        assert record.tokens_generated == 20  # served in full after requeue
        # The request could only finish after the downtime elapsed.
        assert record.completion_time > schedule.events[-1].time
        assert report.summary().count("faults:") == 1

    def test_permanent_death_still_balances_the_books(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        workload = [request(i, 0.0, tokens=10) for i in range(5)]
        report = make_engine(cache, small_chip, fast_constraints).run(
            workload, faults=FaultSchedule.of([chip_death(2.5 * unit, 0)])
        )
        # The whole fleet died with no spare and no restart: everything not
        # finished is shed, and completed + shed still covers every request.
        assert check_report(report, workload) == []
        assert report.faults.failovers == 0
        stranded = [r for r in report.completed if r.status == DECODE_SHED]
        assert stranded
        for record in stranded:
            assert record.replica == -1
        # The in-flight request was requeued before being stranded: its shed
        # record keeps both the requeue count and its original admission.
        requeued = [r for r in stranded if r.requeues > 0]
        assert requeued
        assert all(not math.isnan(r.admitted_time) for r in requeued)

    def preempted_then_killed(self, cache, small_chip, fast_constraints, *faults):
        """One chip, batch 2: best-effort request 0 runs alone for one
        iteration, then shares the batch with best-effort request 1 from
        ``start``; interactive request 2 arrives mid-iteration and preempts
        request 1 at the next boundary (after request 1's prefill emitted a
        token).  ``faults`` are ``(kind, at)`` pairs, ``at`` in batch-2
        iterations after ``start``."""
        engine = make_engine(cache, small_chip, fast_constraints, max_batch_size=2)
        start, unit = engine.iteration_latency(1), engine.iteration_latency(2)
        workload = [
            request(0, 0.0, tokens=20, slo_class=SLO_BEST_EFFORT),
            request(1, 0.0, tokens=20, slo_class=SLO_BEST_EFFORT),
            request(2, start + 0.5 * unit, tokens=2),
        ]
        schedule = FaultSchedule.of(
            [
                (chip_death if kind == "death" else restart)(start + at * unit, 0)
                for kind, at in faults
            ]
        )
        report = make_engine(cache, small_chip, fast_constraints, max_batch_size=2).run(
            workload, faults=schedule
        )
        assert check_report(report, workload) == []
        assert report.preemptions == 1
        return report, {r.request.request_id: r for r in report.completed}

    def test_resumed_preemption_survives_a_requeue(
        self, cache, small_chip, fast_constraints
    ):
        """Request 1 resumes after request 2 retires and then dies in flight:
        its record still counts the preemption it suffered."""
        report, records = self.preempted_then_killed(
            cache, small_chip, fast_constraints, ("death", 5.5), ("restart", 8.0)
        )
        assert records[1].ok
        assert records[1].preemptions == 1
        assert records[1].requeues == 1

    def test_preempted_entry_on_a_dead_replica_requeues_once(
        self, cache, small_chip, fast_constraints
    ):
        """The chip dies while request 1 sits preempted: detection charges one
        requeue and its token; resuming on the re-placed replica is not a
        second requeue, nor a migration."""
        report, records = self.preempted_then_killed(
            cache, small_chip, fast_constraints, ("death", 1.5), ("restart", 3.0)
        )
        assert records[1].ok
        assert (records[1].requeues, records[1].migrations) == (1, 0)
        assert records[1].lost_tokens == 1
        assert report.migrations == 0

    def test_preempted_entry_shed_at_end_keeps_its_accounting(
        self, cache, small_chip, fast_constraints
    ):
        """The chip dies for good while request 1 sits preempted: the
        end-of-run sweep sheds it with its preemption, requeue, lost token
        and first admission intact."""
        report, records = self.preempted_then_killed(
            cache, small_chip, fast_constraints, ("death", 1.5)
        )
        shed = records[1]
        assert shed.status == DECODE_SHED
        assert (shed.preemptions, shed.requeues, shed.lost_tokens) == (1, 1, 1)
        # Admitted at the first iteration boundary, behind request 0.
        engine = make_engine(cache, small_chip, fast_constraints, max_batch_size=2)
        assert shed.admitted_time == engine.iteration_latency(1)

    def test_chaos_runs_are_deterministic(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints, num_chips=2)
        unit = engine.iteration_latency(1)
        workload = [
            request(i, i * 0.3 * unit, tokens=6,
                    slo_class=SLO_BEST_EFFORT if i % 2 else "interactive")
            for i in range(14)
        ]
        schedule = FaultSchedule.kill_and_restart(0, at=3 * unit, downtime=8 * unit)
        watchdog = Watchdog(detection_delay=unit, degraded_shed_queue=2)

        def run():
            return make_engine(
                cache, small_chip, fast_constraints, num_chips=2, min_replicas=2
            ).run(workload, faults=schedule, watchdog=watchdog)

        first, second = run(), run()
        # repr-compare: shed records carry NaN admission sentinels, and
        # NaN != NaN would fail a plain == on otherwise-identical tuples.
        assert repr(first.completed) == repr(second.completed)
        assert first.makespan == second.makespan
        # Every fault counter is virtual-deterministic; restart_compile_seconds
        # is the one wall-clock field (the second run hits the scope the first
        # run's cold restart already compiled into the shared cache).
        assert replace(first.faults, restart_compile_seconds=0.0) == replace(
            second.faults, restart_compile_seconds=0.0
        )
        assert first.migrations == second.migrations

    def test_degraded_mode_sheds_best_effort_newest_first(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(
            cache, small_chip, fast_constraints,
            model=make_model(max_batch_size=1), num_chips=2, min_replicas=2,
        )
        unit = engine.iteration_latency(1)
        workload = [
            request(i, 0.0, tokens=12, slo_class=SLO_BEST_EFFORT) for i in range(6)
        ]
        report = make_engine(
            cache, small_chip, fast_constraints,
            model=make_model(max_batch_size=1), num_chips=2, min_replicas=2,
        ).run(
            workload,
            faults=FaultSchedule.of([chip_death(1.5 * unit, 0)]),
            watchdog=Watchdog(degraded_shed_queue=1),
        )
        stats = report.faults
        assert stats.chip_deaths == 1
        assert stats.degraded_sheds > 0
        assert report.shed >= stats.degraded_sheds
        # Newest-first: the surviving backlog serves older arrivals; every
        # degraded-mode shed is a best-effort request (never interactive).
        shed_ids = {
            r.request.request_id
            for r in report.completed
            if r.status == DECODE_SHED and r.requeues == 0
        }
        served_ids = {r.request.request_id for r in report.ok_requests}
        if shed_ids and served_ids:
            assert min(shed_ids) > min(served_ids)
        assert check_report(report, workload) == []

    def test_link_degradation_slows_sharded_but_not_flat(
        self, cache, small_chip, fast_constraints
    ):
        window = FaultSchedule.of([link_degradation(0.0, 1e9, 8.0)])
        workload = [request(i, 0.0, tokens=5) for i in range(4)]
        # Flat replicas have no inter-chip links: virtual time is untouched.
        flat_clean = make_engine(cache, small_chip, fast_constraints).run(workload)
        flat_degraded = make_engine(cache, small_chip, fast_constraints).run(
            workload, faults=window
        )
        assert flat_degraded.makespan == flat_clean.makespan
        # A pipeline-sharded replica pays the slowed stage-boundary transfer.
        sharded_model = make_model(max_batch_size=2, num_stages=2)
        sharded_clean = make_engine(
            cache, small_chip, fast_constraints, model=sharded_model, num_chips=2
        ).run(workload)
        sharded_degraded = make_engine(
            cache, small_chip, fast_constraints, model=sharded_model, num_chips=2
        ).run(workload, faults=window)
        assert sharded_degraded.makespan > sharded_clean.makespan
        # Degradation reprices iterations; it neither kills chips nor sheds.
        assert sharded_degraded.faults.chip_deaths == 0
        assert sharded_degraded.total_completed == 4

    def test_cold_restart_recompiles_and_warm_restart_does_not(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        unit = engine.iteration_latency(1)
        workload = [request(0, 0.0, tokens=25)]

        def run(cold_cache):
            eng = make_engine(cache, small_chip, fast_constraints)
            eng.warm()
            before = cache.stats.snapshot()
            report = eng.run(
                workload,
                faults=FaultSchedule.kill_and_restart(
                    0, at=2.5 * unit, downtime=5 * unit, cold_cache=cold_cache
                ),
            )
            return report, cache.stats.since(before).misses

        cold_report, cold_misses = run(cold_cache=True)
        warm_report, warm_misses = run(cold_cache=False)
        # The cold revival re-fetches every bucket under the replica's fresh
        # cache namespace: real compiles, wall-clock only.
        assert cold_misses > 0
        assert cold_report.faults.restart_compile_seconds > 0
        assert warm_misses == 0
        assert warm_report.faults.restart_compile_seconds == 0
        # Virtual time never sees the difference: both runs replay the same
        # schedule to the same makespan.
        assert cold_report.makespan == warm_report.makespan

    def test_schedule_is_validated_against_the_fleet(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints)
        with pytest.raises(ValueError, match="fleet has only 1"):
            engine.run([request(0, 0.0)], faults=FaultSchedule.of([chip_death(1.0, 5)]))
