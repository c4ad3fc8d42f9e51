"""The replica lifecycle (repro.serving.continuous ``ReplicaState``).

Every replica is in exactly one state — unprovisioned, booting, idle,
active or dead — and ``_DecodeRun.transition`` is the only place it changes.
These tests pin the transition table, check that the per-state counts the
chip-second books and the scaler read stay equal to a recount of the
replicas, that the books accrue at transitions only, and cover what the
single state buys: a provisioning scaler and chaos faults compose in one
``FleetEngine.run``.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Tracer
from repro.serving import (
    ContinuousEngine,
    CostAwareRouter,
    HEALTH_DEAD,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HEALTH_RESTARTING,
    FaultSchedule,
    ReactiveScaler,
    StaticEngine,
    Watchdog,
    check_report,
    chip_death,
    link_degradation,
    restart,
)
from repro.serving.continuous import (
    _TRANSITIONS,
    ACTIVE,
    BOOTING,
    DEAD,
    IDLE,
    UNPROVISIONED,
    ReplicaState,
    _ContinuousRun,
    _DecodeRun,
    _StaticRun,
)
from repro.serving.fleet import _FleetRun

from scenarios import (
    CHAOS,
    FLEET,
    FORECAST,
    REACTIVE,
    Replay,
    ScriptedScaler,
    chaos_watchdog,
    chaos_workload,
    check_scenario,
    fleet_engine,
    make_engine,
    make_model,
    request,
    scenarios,
    traced,
)

NUM_CHIPS = 3


@pytest.fixture(scope="module")
def cache(testbed):
    return testbed.cache


def fleet(cache, small_chip, fast_constraints, num_chips: int = NUM_CHIPS):
    return fleet_engine(
        cache, small_chip, fast_constraints, num_chips=num_chips, router=CostAwareRouter()
    )


@pytest.fixture(scope="module")
def unit(cache, small_chip, fast_constraints) -> float:
    probe = fleet(cache, small_chip, fast_constraints)
    probe.warm()
    return probe.iteration_latency("alpha")


def recount(run: _DecodeRun) -> list[int]:
    counts = [0] * len(ReplicaState)
    for replica in run.replicas:
        counts[replica.state] += 1
    return counts


def instants(tracer: Tracer, name: str) -> list[tuple[float, dict]]:
    return [
        (event.ts, dict(event.args))
        for event in tracer.virtual_events()
        if event.kind == "instant" and event.name == name
    ]


# --------------------------------------------------------------------------- #
# The transition table
# --------------------------------------------------------------------------- #
#: Legal moves from the initial IDLE state that reach each state.
PATHS = {
    IDLE: (),
    ACTIVE: (ACTIVE,),
    UNPROVISIONED: (UNPROVISIONED,),
    BOOTING: (UNPROVISIONED, BOOTING),
    DEAD: (DEAD,),
}


@pytest.mark.parametrize("source", list(ReplicaState), ids=lambda s: s.name)
@pytest.mark.parametrize("target", list(ReplicaState), ids=lambda s: s.name)
def test_transition_table(source, target, cache, small_chip, fast_constraints):
    """Every listed move updates the counts; every other one (staying put
    included) raises and changes nothing."""
    engine = fleet(cache, small_chip, fast_constraints)
    run = _FleetRun(engine, [], FaultSchedule(), Watchdog(), None)
    replica = run.replicas[0]
    for step in PATHS[source]:
        run.transition(replica, step, 0.0)
    assert replica.state is source
    before = list(run.counts)
    if target in _TRANSITIONS[source]:
        run.transition(replica, target, 0.0)
        assert replica.state is target
    else:
        with pytest.raises(RuntimeError, match="illegal lifecycle transition"):
            run.transition(replica, target, 0.0)
        assert replica.state is source
        assert run.counts == before
    assert run.counts == recount(run)
    assert run.num_charged == run.counts[ACTIVE]


@pytest.mark.parametrize(
    "state, linked, warming, health",
    [
        (UNPROVISIONED, True, False, (HEALTH_RESTARTING, 1.0)),
        (BOOTING, True, False, (HEALTH_RESTARTING, 1.0)),
        (IDLE, False, False, (HEALTH_HEALTHY, 1.0)),
        (IDLE, True, False, (HEALTH_DEGRADED, 3.0)),
        (ACTIVE, True, False, (HEALTH_DEGRADED, 3.0)),
        (DEAD, True, False, (HEALTH_DEAD, 1.0)),
        (DEAD, True, True, (HEALTH_RESTARTING, 1.0)),
    ],
)
def test_one_health_function_reads_the_state(
    state, linked, warming, health, cache, small_chip, fast_constraints
):
    """The router's health view of each state: unprovisioned and booting
    replicas read restarting, live ones their link state, dead ones dead
    (restarting while a restarted chip warms)."""
    window = [link_degradation(0.0, 10.0, 3.0)] if linked else [chip_death(20.0, 0)]
    engine = fleet(cache, small_chip, fast_constraints)
    run = _FleetRun(engine, [], FaultSchedule.of(window), Watchdog(), None)
    replica = run.replicas[0]
    for step in PATHS[state]:
        run.transition(replica, step, 0.0)
    if warming:
        run.chips.warming.add(0)
    assert run.describe(replica, 1.0) == health


# --------------------------------------------------------------------------- #
# Per-state counts against a recount, at every traced sample
# --------------------------------------------------------------------------- #
@pytest.fixture()
def checked_samples(monkeypatch):
    """Wrap every run's ``sample`` so that each one first checks the
    per-state counts (and the charged count) against a recount, plus the
    invariants the state implies; returns the number of checked samples."""
    checked = []

    def wrap(cls):
        original = cls.sample

        def sample(self, now):
            counts = recount(self)
            assert self.counts == counts, (now, self.counts, counts)
            assert self.num_charged == sum(counts[state] for state in self.charged)
            for replica in self.replicas:
                assert not replica.busy or replica.state is ACTIVE
                assert not replica.running or replica.state in (ACTIVE, DEAD)
                assert bool(replica.chips) == (replica.state is not DEAD)
            checked.append(now)
            original(self, now)

        monkeypatch.setattr(cls, "sample", sample)

    wrap(_FleetRun)
    wrap(_ContinuousRun)
    return checked


def test_counts_match_states_in_a_chaos_run(
    checked_samples, cache, small_chip, fast_constraints, unit
):
    workload = chaos_workload(unit, ("alpha", "beta"))
    schedule = FaultSchedule.of(
        [
            chip_death(1.0 * unit, 0),
            restart(2.5 * unit, 0, cold_cache=True, warmup_delay=0.5 * unit),
            chip_death(4.0 * unit, 2),
        ]
    )
    report, _ = traced(
        lambda: fleet(cache, small_chip, fast_constraints).run(
            workload, faults=schedule, watchdog=chaos_watchdog(unit, None)
        )
    )
    assert check_report(report, workload) == []
    assert report.faults.chip_deaths == 2 and report.faults.failovers >= 1
    assert checked_samples


def test_counts_match_states_in_a_scaler_run(
    checked_samples, cache, small_chip, fast_constraints, unit
):
    workload = chaos_workload(unit, ("alpha", "beta"))
    scaler = ReactiveScaler(interval=unit, provision_delay=2 * unit, scale_up_queue=2)
    report, _ = traced(
        lambda: fleet(cache, small_chip, fast_constraints).run(workload, scaler=scaler)
    )
    assert check_report(report, workload) == []
    assert report.provision_ups > 0
    assert checked_samples


def test_counts_match_states_in_a_continuous_autoscaling_run(
    checked_samples, cache, small_chip, fast_constraints, unit
):
    engine = ContinuousEngine(
        make_model("alpha", max_batch_size=2),
        chip=small_chip,
        constraints=fast_constraints,
        plan_cache=cache,
        num_chips=NUM_CHIPS,
        scale_up_queue=1,
    )
    workload = chaos_workload(unit, ("alpha",))
    schedule = FaultSchedule.of(
        [chip_death(2.0 * unit, 1), restart(3.0 * unit, 1, warmup_delay=unit)]
    )
    report, _ = traced(
        lambda: engine.run(workload, faults=schedule, watchdog=chaos_watchdog(unit, None))
    )
    assert check_report(report, workload) == []
    assert report.scale_ups > 0 and report.scale_downs > 0
    assert checked_samples


# --------------------------------------------------------------------------- #
# Scaler plus faults: one deterministic test per composition rule
# --------------------------------------------------------------------------- #
def burst(count: int = 6) -> list:
    return [request(i, 0.0, model="alpha", tokens=8, tenant="acme") for i in range(count)]


def test_death_cancels_a_boot_in_flight(cache, small_chip, fast_constraints, unit):
    """The first tick boots replica 1; its chip dies mid-boot.  The ready
    event drops as stale, and the death is a chip death, not a
    provision-down."""
    scaler = ScriptedScaler(2, interval=unit, provision_delay=4 * unit)
    schedule = FaultSchedule.of([chip_death(2.0 * unit, 1)])
    workload = burst()
    report, tracer = traced(
        lambda: fleet(cache, small_chip, fast_constraints).run(
            workload, scaler=scaler, faults=schedule
        )
    )
    assert check_report(report, workload) == []
    provisions = instants(tracer, "provision")
    assert provisions[0] == (unit, {"replica": 1, "ready": unit + scaler.provision_delay})
    ready = [args["replica"] for _, args in instants(tracer, "provision-ready")]
    assert 1 not in ready
    assert report.faults.chip_deaths == 1
    assert report.provision_downs == 0
    assert not instants(tracer, "boot-cancelled")


def test_dead_time_is_not_charged(cache, small_chip, fast_constraints, unit):
    """Two provisioned replicas, one of which dies for good: provisioned
    chip-seconds charge it only up to its death."""
    scaler = ScriptedScaler(2, interval=unit, min_replicas=2)
    death = 2.0 * unit
    workload = burst()
    engine = fleet(cache, small_chip, fast_constraints, num_chips=2)
    report = engine.run(workload, scaler=scaler, faults=FaultSchedule.of([chip_death(death, 1)]))
    assert check_report(report, workload) == []
    assert report.provision_ups == report.provision_downs == 0
    assert report.provisioned_chip_seconds == pytest.approx(report.active_span + death)


def test_next_tick_boots_a_replacement(cache, small_chip, fast_constraints, unit):
    """A death lowers the observed capacity, so the next tick boots the
    unprovisioned replica; the dead one is never booted."""
    scaler = ScriptedScaler(2, interval=unit, provision_delay=1.5 * unit, min_replicas=2)
    death = 1.5 * unit
    workload = burst()
    report, tracer = traced(
        lambda: fleet(cache, small_chip, fast_constraints).run(
            workload, scaler=scaler, faults=FaultSchedule.of([chip_death(death, 1)])
        )
    )
    assert check_report(report, workload) == []
    after = [obs for obs in scaler.seen if obs.now > death]
    assert (after[0].provisioned, after[0].booting) == (1, 0)
    ready = after[0].now + scaler.provision_delay
    assert instants(tracer, "provision") == [(after[0].now, {"replica": 2, "ready": ready})]
    assert (after[1].provisioned, after[1].booting) == (1, 1)


def test_failover_returns_unprovisioned_under_a_scaler(
    cache, small_chip, fast_constraints, unit, monkeypatch
):
    """A re-placed replica comes back unprovisioned under a scaler (the
    scaler owns paid capacity) and idle without one."""
    placed = []
    original = _FleetRun.placed

    def record(self, replica, now):
        original(self, replica, now)
        placed.append(replica.state)

    monkeypatch.setattr(_FleetRun, "placed", record)
    schedule = FaultSchedule.of(
        [chip_death(1.0 * unit, 0), restart(2.0 * unit, 0, warmup_delay=0.5 * unit)]
    )
    workload = burst(2)
    for scaler, state in ((ScriptedScaler(1, interval=unit), UNPROVISIONED), (None, IDLE)):
        placed.clear()
        engine = fleet(cache, small_chip, fast_constraints, num_chips=2)
        report = engine.run(workload, scaler=scaler, faults=schedule)
        assert check_report(report, workload) == []
        assert report.faults.failovers == 1
        assert placed == [state]


def test_a_fleet_dead_for_good_ends_the_run(cache, small_chip, fast_constraints, unit):
    """With every replica dead and no event left to revive one, the scaler
    stops ticking, so the run ends and sheds the parked requests instead of
    ticking forever."""
    scaler = ScriptedScaler(2, interval=unit)
    engine = fleet(cache, small_chip, fast_constraints, num_chips=2)
    workload = [request(i, (3 + i) * unit, model="alpha", tenant="acme") for i in range(3)]
    schedule = FaultSchedule.of([chip_death(unit, 0), chip_death(unit, 1)])
    report = engine.run(workload, scaler=scaler, faults=schedule)
    assert check_report(report, workload) == []
    assert report.shed == len(workload)
    assert len(scaler.seen) == 2


def test_a_dead_fleet_ticks_until_the_last_arrival(cache, small_chip, fast_constraints, unit):
    """The whole fleet dies for good while arrivals are still pending: the
    scaler keeps ticking while any arrival is to come, and its first tick
    after the last arrival is its last."""
    scaler = ScriptedScaler(2, interval=unit)
    engine = fleet(cache, small_chip, fast_constraints, num_chips=2)
    workload = [request(i, (3 + 1.3 * i) * unit, model="alpha", tenant="acme") for i in range(4)]
    schedule = FaultSchedule.of([chip_death(unit, 0), chip_death(unit, 1)])
    report = engine.run(workload, scaler=scaler, faults=schedule)
    assert check_report(report, workload) == []
    assert report.shed == len(workload)
    ticks = [obs.now for obs in scaler.seen]
    assert ticks == pytest.approx([4 * unit, 5 * unit, 6 * unit, 7 * unit])
    assert ticks[-2] < workload[-1].arrival_time < ticks[-1]
    assert [obs.provisioned for obs in scaler.seen] == [0] * 4


def test_a_dead_fleet_ticks_while_a_restart_is_pending(
    cache, small_chip, fast_constraints, unit
):
    """Every replica is dead and every request has arrived, but a restart is
    still pending: the scaler keeps ticking, re-provisions the revived
    replica, and the parked requests are served."""
    scaler = ScriptedScaler(2, interval=unit)
    engine = fleet(cache, small_chip, fast_constraints, num_chips=2)
    workload = [request(i, (3 + 0.1 * i) * unit, model="alpha", tenant="acme") for i in range(3)]
    schedule = FaultSchedule.of(
        [
            chip_death(unit, 0),
            chip_death(unit, 1),
            restart(5.5 * unit, 0, cold_cache=False, warmup_delay=0.5 * unit),
        ]
    )
    report = engine.run(workload, scaler=scaler, faults=schedule)
    assert check_report(report, workload) == []
    assert report.shed == 0
    assert report.faults.failovers == 1
    # The tick at the chip's return observes the fleet before re-provisioning.
    dead_ticks = [obs.now for obs in scaler.seen if obs.provisioned == 0]
    assert dead_ticks == pytest.approx([4 * unit, 5 * unit, 6 * unit])
    assert min(record.admitted_time for record in report.completed) >= 6 * unit


# --------------------------------------------------------------------------- #
# Scaler plus faults: the composition property
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scaler", [REACTIVE, FORECAST])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scaler_and_faults_compose(scaler, data, testbed):
    """A reactive or a forecast scaler under any fault plan and watchdog:
    the books balance, serial and ``jobs=2`` runs are bit-identical, and a
    replay gives the same virtual trace."""
    scenario = data.draw(
        scenarios(
            engines=(FLEET,),
            chips=(NUM_CHIPS, NUM_CHIPS),
            models=(2,),
            traffic=(CHAOS,),
            tenants=(True,),
            faults=(True,),
            watchdog=(True,),
            scalers=(scaler,),
        )
    )
    assert scenario.scaler.kind == scaler
    check_scenario(scenario, testbed)


# --------------------------------------------------------------------------- #
# The chip-second books accrue at transitions, and once at the end
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(scenario=scenarios())
def test_books_accrue_once_per_transition_and_once_at_the_end(scenario, testbed):
    """The counts the books multiply change only at a transition, so the
    books accrue there and once when the window closes, never per event:
    whatever the engine, traffic, faults and scaler, ``integrate`` runs
    exactly one more time than ``transition``."""
    calls = Counter()

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    with mock.patch.object(
        _DecodeRun, "transition", counted("transition", _DecodeRun.transition)
    ), mock.patch.object(
        _DecodeRun, "integrate", counted("integrate", _DecodeRun.integrate)
    ), mock.patch.object(
        _StaticRun, "integrate", counted("integrate", _StaticRun.integrate)
    ):
        Replay(scenario, testbed).run()
    assert calls["integrate"] == calls["transition"] + 1


#: Faults for an empty trace, at binary-exact instants so the books are exact.
EMPTY_FAULTS = [
    chip_death(1.0, 0),
    restart(2.0, 0, cold_cache=False, warmup_delay=0.5),
    link_degradation(0.5, 3.0, 2.0),
    chip_death(4.0, 1),
]


@pytest.mark.parametrize(
    "engine, faults, scaler, books",
    [
        ("static", False, False, (0.0, 0.0, 0.0, 1, 1)),
        ("continuous", False, False, (0.0, 0.0, 0.0, 1, 1)),
        ("continuous", True, False, (4.25, 2.75, 2.75, 1, 1)),
        ("fleet", False, False, (0.0, 0.0, 0.0, 0, 0)),
        ("fleet", True, False, (4.25, 0.0, 0.0, 0, 0)),
        ("fleet", False, True, (0.0, 0.0, 0.0, 0, 1)),
        ("fleet", True, True, (4.25, 0.0, 1.0, 0, 1)),
    ],
)
def test_empty_trace_books(
    engine, faults, scaler, books, cache, small_chip, fast_constraints
):
    """An empty trace opens the window at 0.  Without faults it closes
    there; faults run the events that close it later, and accrue what the
    replicas they move hold.  (``active_span``, active and provisioned
    chip-seconds, and the two peaks.)"""
    options = {}
    if faults:
        options["faults"] = FaultSchedule.of(EMPTY_FAULTS)
        options["watchdog"] = Watchdog(detection_delay=0.25)
    if scaler:
        options["scaler"] = ScriptedScaler(2, interval=1.0, provision_delay=0.5)
    if engine == "static":
        runner = StaticEngine(
            make_model(), chip=small_chip, constraints=fast_constraints, plan_cache=cache
        )
    elif engine == "continuous":
        runner = make_engine(cache, small_chip, fast_constraints, num_chips=NUM_CHIPS)
    else:
        runner = fleet_engine(cache, small_chip, fast_constraints)
    report = runner.run([], **options)
    assert check_report(report, []) == []
    assert report.completed == () and report.iterations == 0
    assert (
        report.active_span,
        report.active_chip_seconds,
        report.provisioned_chip_seconds,
        report.peak_active_chips,
        report.peak_provisioned_chips,
    ) == books
