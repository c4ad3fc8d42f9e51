"""Tests for the multi-model, multi-tenant fleet engine (repro.serving.fleet)."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings

from repro.serving import (
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HEALTH_RESTARTING,
    SLO_BEST_EFFORT,
    CostAwareRouter,
    DecodeModel,
    FaultSchedule,
    FleetEngine,
    ReactiveScaler,
    ReplicaView,
    Router,
    StaticPartitionRouter,
    TenantSpec,
    Watchdog,
    check_report,
    chip_death,
    decode_workload,
    group_link_degradation,
    link_degradation,
    merge_decode_workloads,
    restart,
)
from repro.serving.fleet import _FleetRun
from repro.utils.fingerprint import stable_hash

from scenarios import CONTINUOUS, FAT_CHIP, FLEET, POISSON, Replay, scenarios, tiny_builder
from scenarios import make_model as any_model
from scenarios import request as any_request


def make_model(name: str = "alpha", *, width: int = 64, max_batch_size: int = 2) -> DecodeModel:
    return any_model(name, width=width, max_batch_size=max_batch_size)


@pytest.fixture()
def fat_chip():
    """A second hardware class: fewer, beefier cores than the test chip."""
    return FAT_CHIP


def make_engine(cache, small_chip, fast_constraints, **kwargs) -> FleetEngine:
    deployments = kwargs.pop("deployments", None) or [make_model()]
    return FleetEngine(
        deployments,
        chip=small_chip,
        constraints=fast_constraints,
        plan_cache=cache,
        **kwargs,
    )


#: Requests here are for alpha unless they say otherwise.
request = partial(any_request, model="alpha")


# --------------------------------------------------------------------------- #
# Construction and validation
# --------------------------------------------------------------------------- #
class TestFleetValidation:
    def test_needs_deployments(self, cache, small_chip, fast_constraints):
        with pytest.raises(ValueError, match="at least one deployment"):
            FleetEngine(
                [], chip=small_chip, constraints=fast_constraints, plan_cache=cache
            )

    def test_duplicate_deployment_names(self, cache, small_chip, fast_constraints):
        with pytest.raises(ValueError, match="duplicate deployment names"):
            make_engine(
                cache,
                small_chip,
                fast_constraints,
                deployments=[make_model("a"), make_model("a")],
            )

    def test_mixed_num_stages_rejected(self, cache, small_chip, fast_constraints):
        flat = make_model("flat")
        sharded = DecodeModel(
            name="sharded",
            decode_builder=tiny_builder("sharded", 64),
            max_batch_size=2,
            num_stages=2,
        )
        with pytest.raises(ValueError, match="share one num_stages"):
            make_engine(
                cache, small_chip, fast_constraints, deployments=[flat, sharded]
            )

    def test_chip_classes_require_single_stage(
        self, cache, small_chip, fast_constraints, fat_chip
    ):
        sharded = DecodeModel(
            name="sharded",
            decode_builder=tiny_builder("sharded", 64),
            max_batch_size=2,
            num_stages=2,
        )
        with pytest.raises(ValueError, match="num_stages == 1"):
            make_engine(
                cache,
                small_chip,
                fast_constraints,
                deployments=[sharded],
                num_chips=4,
                chip_classes={3: fat_chip},
            )

    def test_duplicate_tenants_rejected(self, cache, small_chip, fast_constraints):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            make_engine(
                cache,
                small_chip,
                fast_constraints,
                tenants=[TenantSpec("t"), TenantSpec("t")],
            )

    def test_unknown_model_in_workload(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints)
        with pytest.raises(ValueError, match="unserved models"):
            engine.run([request(0, 0.0, model="mystery")])

    def test_duplicate_request_ids_rejected(self, cache, small_chip, fast_constraints):
        engine = make_engine(cache, small_chip, fast_constraints)
        with pytest.raises(ValueError, match="merge_decode_workloads"):
            engine.run([request(7, 0.0), request(7, 1.0)])


# --------------------------------------------------------------------------- #
# Serving behaviour
# --------------------------------------------------------------------------- #
class TestFleetServing:
    def test_two_models_share_one_pool(self, cache, small_chip, fast_constraints):
        alpha, beta = make_model("alpha"), make_model("beta", width=96)
        engine = make_engine(
            cache,
            small_chip,
            fast_constraints,
            deployments=[alpha, beta],
            num_chips=2,
            tenants=[TenantSpec("acme"), TenantSpec("globex")],
        )
        workload = merge_decode_workloads(
            decode_workload("alpha", num_requests=12, rate=2000.0, seed=1, tenant="acme"),
            decode_workload("beta", num_requests=8, rate=1500.0, seed=2, tenant="globex"),
        )
        report = engine.run(workload)
        assert report.policy == "fleet-cost-aware"
        assert report.model == "alpha+beta"
        # The books balance and per-tenant slices partition the totals.
        assert check_report(report, workload) == []
        served_models = {record.request.model for record in report.ok_requests}
        assert served_models == {"alpha", "beta"}
        assert set(report.per_tenant()) == {"acme", "globex"}

    def test_tenant_slice_zeroes_shared_fleet_counters(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints, num_chips=2)
        report = engine.run(
            [request(i, 0.0, tenant="acme") for i in range(4)]
            + [request(10 + i, 0.0, tenant="globex") for i in range(4)]
        )
        acme = report.tenant_slice("acme")
        assert acme.total_completed == 4
        # Chips and iterations are shared; a slice must not claim them.
        assert acme.iterations == 0
        assert acme.busy_chip_seconds == 0.0
        assert acme.scale_ups == 0

    def test_rebind_when_traffic_shifts(self, cache, small_chip, fast_constraints):
        """A drained replica re-binds to the model that needs it; the first
        bind of an unbound replica is free."""
        alpha, beta = make_model("alpha"), make_model("beta", width=96)
        engine = make_engine(
            cache, small_chip, fast_constraints, deployments=[alpha, beta], num_chips=1
        )
        engine.warm()
        unit = engine.iteration_latency("alpha")
        report = engine.run(
            [
                request(0, 0.0, model="alpha", tokens=2),
                # Arrives long after alpha drained: the single replica is
                # idle and re-binds to beta.
                request(1, 100 * unit, model="beta", tokens=2),
            ]
        )
        assert report.total_completed == 2
        assert report.rebinds == 1

    def test_request_parks_until_replica_drains(
        self, cache, small_chip, fast_constraints
    ):
        """With one replica busy on another model, a request with no legal
        candidate parks, then routes when the replica frees up."""
        alpha, beta = make_model("alpha"), make_model("beta", width=96)
        engine = make_engine(
            cache, small_chip, fast_constraints, deployments=[alpha, beta], num_chips=1
        )
        engine.warm()
        unit = engine.iteration_latency("alpha")
        report = engine.run(
            [
                request(0, 0.0, model="alpha", tokens=12),
                # Arrives mid-decode of the alpha request: parked, served
                # after alpha drains and the replica re-binds.
                request(1, 2 * unit, model="beta", tokens=2),
            ]
        )
        assert report.total_completed == 2
        assert report.rebinds == 1
        beta_record = next(r for r in report.completed if r.request.model == "beta")
        alpha_record = next(r for r in report.completed if r.request.model == "alpha")
        assert beta_record.admitted_time >= alpha_record.completion_time

    def test_interactive_preempts_best_effort_across_tenants(
        self, cache, small_chip, fast_constraints
    ):
        """SLO class, not tenant, is the scheduling currency: another
        tenant's interactive request evicts a resident best-effort one."""
        engine = make_engine(cache, small_chip, fast_constraints, num_chips=1)
        engine.warm()
        unit = engine.iteration_latency("alpha")
        report = engine.run(
            [
                request(
                    0, 0.0, tokens=20, slo_class=SLO_BEST_EFFORT, tenant="batchers"
                ),
                request(
                    1, 0.0, tokens=20, slo_class=SLO_BEST_EFFORT, tenant="batchers"
                ),
                request(2, 2 * unit, tokens=2, tenant="live"),
            ]
        )
        assert report.total_completed == 3
        assert report.preemptions >= 1
        preempted = [r for r in report.completed if r.preemptions > 0]
        assert all(r.request.tenant == "batchers" for r in preempted)

    def test_heterogeneous_classes_price_differently(
        self, cache, small_chip, fast_constraints, fat_chip
    ):
        engine = make_engine(
            cache,
            small_chip,
            fast_constraints,
            num_chips=2,
            chip_classes={1: fat_chip},
        )
        engine.warm()
        default = engine.iteration_latency("alpha")
        fat = engine.iteration_latency("alpha", chip_class=fat_chip)
        assert default > 0 and fat > 0
        assert default != fat

    def test_warm_is_idempotent_and_run_never_recompiles(
        self, cache, small_chip, fast_constraints
    ):
        engine = make_engine(cache, small_chip, fast_constraints, num_chips=2)
        engine.warm()
        compiled = engine.warm_compile_seconds
        engine.warm()
        assert engine.warm_compile_seconds == compiled
        report = engine.run(
            decode_workload("alpha", num_requests=10, rate=2000.0, seed=3)
        )
        assert report.cache.misses == 0

    def test_spec_hashing_does_not_scale_with_traffic(
        self, cache, small_chip, fast_constraints, fat_chip, monkeypatch
    ):
        """Content hashes are per spec, never per event: after ``warm()`` a
        run hashes the same number of specs whatever its length."""
        deployments = [
            make_model("alpha"),
            make_model("beta", width=96),
            make_model("gamma", width=32),
        ]
        tenants = [TenantSpec("chat"), TenantSpec("search"), TenantSpec("vision")]
        calls = []

        def counting_hash(obj, **kwargs):
            calls.append(obj)
            return stable_hash(obj, **kwargs)

        def hashes_during_run(requests_per_tenant: int) -> int:
            engine = make_engine(
                cache,
                small_chip,
                fast_constraints,
                deployments=deployments,
                num_chips=4,
                chip_classes={2: fat_chip, 3: fat_chip},
                tenants=tenants,
            )
            engine.warm()
            workload = merge_decode_workloads(
                *(
                    decode_workload(
                        model.name,
                        num_requests=requests_per_tenant,
                        rate=1500.0,
                        seed=seed,
                        tenant=tenant.name,
                    )
                    for seed, (model, tenant) in enumerate(zip(deployments, tenants))
                )
            )
            calls.clear()
            report = engine.run(workload)
            assert check_report(report, workload) == []
            assert report.iterations > 0
            return len(calls)

        monkeypatch.setattr("repro.hw.spec.stable_hash", counting_hash)
        monkeypatch.setattr("repro.core.constraints.stable_hash", counting_hash)
        assert hashes_during_run(10) == hashes_during_run(20)

    def test_static_partition_respects_ownership(
        self, cache, small_chip, fast_constraints
    ):
        alpha, beta = make_model("alpha"), make_model("beta", width=96)
        engine = make_engine(
            cache,
            small_chip,
            fast_constraints,
            deployments=[alpha, beta],
            num_chips=2,
            router=StaticPartitionRouter({"alpha": [0], "beta": [1]}),
        )
        report = engine.run(
            merge_decode_workloads(
                decode_workload("alpha", num_requests=8, rate=2000.0, seed=1),
                decode_workload("beta", num_requests=8, rate=2000.0, seed=2),
            )
        )
        assert report.rebinds == 0
        for record in report.ok_requests:
            assert record.replica == (0 if record.request.model == "alpha" else 1)

    def test_contract_violating_router_raises(
        self, cache, small_chip, fast_constraints
    ):
        class Broken(Router):
            name = "broken"

            def route(self, req, view):
                return 99

        engine = make_engine(cache, small_chip, fast_constraints, router=Broken())
        with pytest.raises(RuntimeError, match="returned replica 99"):
            engine.run([request(0, 0.0)])

    def test_deterministic_under_stream_permutation(
        self, cache, small_chip, fast_constraints
    ):
        """Identical placements and completion times whichever order the
        per-tenant streams are composed in, and across fresh engines."""
        alpha, beta = make_model("alpha"), make_model("beta", width=96)
        streams = [
            decode_workload(
                "alpha", num_requests=15, rate=2500.0, seed=1, tenant="acme",
                slo_seconds=0.05, interactive_fraction=0.6,
            ),
            decode_workload(
                "beta", num_requests=10, rate=1200.0, seed=2, tenant="globex",
                slo_seconds=0.08, interactive_fraction=0.4,
            ),
        ]
        forward = merge_decode_workloads(*streams)
        backward = merge_decode_workloads(*reversed(streams))
        assert forward == backward

        def run_fresh(workload):
            engine = make_engine(
                cache,
                small_chip,
                fast_constraints,
                deployments=[make_model("alpha"), make_model("beta", width=96)],
                num_chips=2,
                router=CostAwareRouter(),
            )
            report = engine.run(workload)
            return [
                (r.request.request_id, r.replica, r.tokens_generated, r.completion_time)
                for r in report.completed
            ]

        assert run_fresh(forward) == run_fresh(backward)


# --------------------------------------------------------------------------- #
# Differential oracle: the fleet's admission path against ContinuousEngine's
# --------------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    scenario=scenarios(
        engines=(CONTINUOUS,),
        chips=(1, 1),
        traffic=(POISSON,),
        faults=(False,),
        watchdog=(False,),
    )
)
def test_one_chip_fleet_matches_continuous(scenario, testbed):
    """On one chip, with no faults and one tenant, the fleet (default router)
    and ContinuousEngine run the same admission policy — EDF, preemption,
    resume, best-effort FIFO, shedding — so every record matches exactly."""
    expected = Replay(scenario, testbed).run()
    actual = Replay(replace(scenario, engine=FLEET), testbed).run()
    assert repr(actual.completed) == repr(expected.completed)
    assert (actual.iterations, actual.preemptions, actual.shed) == (
        expected.iterations,
        expected.preemptions,
        expected.shed,
    )


# --------------------------------------------------------------------------- #
# The incremental router view against a from-scratch rebuild
# --------------------------------------------------------------------------- #
def rebuilt_view(replicas, now: float, health) -> tuple[ReplicaView, ...]:
    """The router snapshot built afresh from the live replicas."""
    views = []
    for replica in replicas:
        state, factor = (HEALTH_HEALTHY, 1.0) if health is None else health(replica, now)
        views.append(
            ReplicaView(
                index=replica.index,
                model=replica.model,
                chip_class=replica.chip_class.name,
                queued=len(replica.queues),
                resident=len(replica.running),
                busy=replica.busy,
                health=state,
                link_factor=factor,
            )
        )
    return tuple(views)


@pytest.mark.parametrize(
    "scenario",
    [
        "fault-free",
        "chaos",
        "scaler",
        "scaler-chaos",
        "edge-arrival",
        "scoped-overlap",
        "class-failover",
    ],
)
def test_every_route_view_matches_a_rebuild(
    scenario, cache, small_chip, fast_constraints, fat_chip, monkeypatch
):
    """The view a route sees — reused replica views included — equals one
    rebuilt from scratch, in a fault-free run, a chaos run (a link window
    plus a chip death and restart), a scaler run and both together, a run
    whose link window opens and closes exactly on arrivals, one with two
    overlapping chip-scoped windows, and one whose failovers move replicas
    to the other chip class."""
    deployments = [make_model("alpha"), make_model("beta", width=96)]
    engine = make_engine(
        cache,
        small_chip,
        fast_constraints,
        deployments=deployments + [make_model("gamma", width=32)],
        num_chips=4,
        chip_classes={2: fat_chip, 3: fat_chip},
        tenants=[TenantSpec("chat"), TenantSpec("search")],
    )
    engine.warm()
    unit = engine.iteration_latency("alpha")
    workload = merge_decode_workloads(
        *(
            decode_workload(
                model.name,
                num_requests=16,
                rate=0.6 / unit,
                seed=seed,
                tenant=tenant,
                slo_seconds=40 * unit,
            )
            for seed, (model, tenant) in enumerate(zip(deployments, ("chat", "search")))
        )
    )
    # A late burst of a third model, after the fleet drained, re-binds
    # replicas bound to the first two.
    workload += [
        request(1000 + i, 200 * unit, model="gamma", tenant="chat") for i in range(8)
    ]
    run_kwargs = {}
    if "chaos" in scenario:
        run_kwargs["faults"] = FaultSchedule.of(
            [
                link_degradation(2 * unit, 12 * unit, 4.0),
                chip_death(6 * unit, 1),
                restart(10 * unit, 1, warmup_delay=4 * unit),
            ]
        )
        run_kwargs["watchdog"] = Watchdog(detection_delay=unit)
    if "scaler" in scenario:
        run_kwargs["scaler"] = ReactiveScaler(
            interval=3 * unit, provision_delay=2 * unit, scale_up_queue=2
        )
    edges = set()
    if scenario == "edge-arrival":
        edges = {workload[4].arrival_time, workload[12].arrival_time}
        run_kwargs["faults"] = FaultSchedule.of([link_degradation(*sorted(edges), 4.0)])
    if scenario == "scoped-overlap":
        # Chip i backs replica i: replica 1 sits under both windows.
        run_kwargs["faults"] = FaultSchedule.of(
            [
                group_link_degradation(2 * unit, 12 * unit, 3.0, [0, 1]),
                group_link_degradation(6 * unit, 20 * unit, 5.0, [1, 2]),
            ]
        )

    if scenario == "class-failover":
        # Replica 1 (test chip) fails over onto restarted chip 3 (fat chip),
        # then replica 3 onto restarted chip 1.
        run_kwargs["faults"] = FaultSchedule.of(
            [
                chip_death(6 * unit, 1),
                chip_death(6 * unit, 3),
                restart(10 * unit, 3, warmup_delay=2 * unit),
                restart(16 * unit, 1, warmup_delay=2 * unit),
            ]
        )
        run_kwargs["watchdog"] = Watchdog(detection_delay=unit)

    original = FleetEngine._view
    seen = {
        "routes": 0,
        "reused": 0,
        "health": set(),
        "factors": set(),
        "times": set(),
        "classes": set(),
    }

    def checked(self, now, replicas, memo, tenant="", health=None):
        previous = list(memo.views)
        snapshot = original(self, now, replicas, memo, tenant, health)
        assert snapshot.now == now
        assert snapshot.replicas == rebuilt_view(replicas, now, health)
        for model, deployment in self._deployments.items():
            assert snapshot.max_batch(model) == deployment.max_batch_size
            assert snapshot.ideal_iterations(model, 16, 4) == deployment.ideal_iterations(
                16, 4
            )
            for replica in replicas:
                assert snapshot.iteration_latency(model, replica.index) == self._cost(
                    model, replica.chip_class, deployment.max_batch_size
                ).latency
        seen["routes"] += 1
        seen["reused"] += sum(a is b for a, b in zip(previous, snapshot.replicas))
        seen["health"].update(view.health for view in snapshot.replicas)
        seen["factors"].update(view.link_factor for view in snapshot.replicas)
        seen["times"].add(now)
        seen["classes"].update((view.index, view.chip_class) for view in snapshot.replicas)
        return snapshot

    monkeypatch.setattr(FleetEngine, "_view", checked)
    report = engine.run(workload, **run_kwargs)
    assert check_report(report, workload) == []
    assert seen["routes"] >= len(workload)
    assert seen["reused"] > 0  # unchanged replicas really were reused
    assert report.rebinds > 0
    if "chaos" in scenario:
        assert report.faults.chip_deaths == 1
        assert {HEALTH_DEGRADED, HEALTH_RESTARTING} <= seen["health"]
    if "scaler" in scenario:
        assert HEALTH_RESTARTING in seen["health"]
        assert report.provision_ups > 0
    if scenario == "edge-arrival":
        assert edges <= seen["times"]  # routes ran exactly on both edges
        assert HEALTH_DEGRADED in seen["health"]
    if scenario == "scoped-overlap":
        assert {1.0, 3.0, 5.0} <= seen["factors"]
    if scenario == "class-failover":
        assert report.faults.failovers == 2
        assert {(1, "fat-chip"), (3, small_chip.name)} <= seen["classes"]


@pytest.mark.parametrize("scenario", ["fault-free", "chaos", "chaos-blind"])
def test_route_views_cost_only_what_changed(
    scenario, cache, small_chip, fast_constraints, fat_chip, monkeypatch
):
    """On a 32-replica fleet every route's view equals a from-scratch
    rebuild, and the replica views built since the previous route are no
    more than the replicas whose routing-visible state changed in between:
    a route costs what changed, not the fleet size.  The chaos runs add
    link windows whose edges fall between routes, degraded-mode shedding,
    and a failover onto the other chip class; their iterations' link factor
    (read from the health memo) must equal the schedule's, and each
    replica's first-touch key must track its chip class.  The health-blind
    router queues onto dead replicas, so failover re-places a replica with
    work waiting."""
    num_chips = 32
    deployments = [make_model("alpha"), make_model("beta", width=96), make_model("gamma")]
    kwargs = {}
    if scenario == "chaos-blind":
        kwargs["router"] = CostAwareRouter(health_aware=False)
    engine = make_engine(
        cache,
        small_chip,
        fast_constraints,
        deployments=deployments,
        num_chips=num_chips,
        chip_classes={chip: fat_chip for chip in range(8)},
        tenants=[TenantSpec("chat"), TenantSpec("search")],
        **kwargs,
    )
    engine.warm()
    unit = engine.iteration_latency("alpha")
    workload = merge_decode_workloads(
        *(
            decode_workload(
                model.name,
                num_requests=60,
                rate=6.0 / unit,
                seed=seed,
                tenant=("chat", "search")[seed % 2],
                slo_seconds=40 * unit,
            )
            for seed, model in enumerate(deployments)
        )
    )
    run_kwargs = {}
    if scenario != "fault-free":
        # Replica 1 (fat chip) fails over onto restarted chip 20 (test chip).
        run_kwargs["faults"] = FaultSchedule.of(
            [
                link_degradation(2.5 * unit, 12.5 * unit, 4.0),
                group_link_degradation(4.5 * unit, 9.5 * unit, 3.0, [3, 4, 20]),
                chip_death(5 * unit, 1),
                chip_death(5 * unit, 20),
                restart(7 * unit, 20, warmup_delay=unit),
            ]
        )
        run_kwargs["watchdog"] = Watchdog(detection_delay=unit, degraded_shed_queue=1)

    original = FleetEngine._view
    seen = {"routes": 0, "built": 0, "link_factors": 0}
    last_rebuild: list = [None] * num_chips

    def checked(self, now, replicas, memo, tenant="", health=None):
        previous = list(memo.views)
        snapshot = original(self, now, replicas, memo, tenant, health)
        rebuilt = rebuilt_view(replicas, now, health)
        assert snapshot.replicas == rebuilt
        built = sum(new is not old for new, old in zip(snapshot.replicas, previous))
        changed = sum(new != old for new, old in zip(rebuilt, last_rebuild))
        assert built <= changed
        assert memo.class_keys == [replica.chip_class.fingerprint() for replica in replicas]
        last_rebuild[:] = rebuilt
        seen["routes"] += 1
        seen["built"] += built
        return snapshot

    original_factor = _FleetRun.link_factor

    def checked_factor(self, replica, now):
        factor = original_factor(self, replica, now)
        assert factor == self.schedule.link_factor(now, replica.chips)
        seen["link_factors"] += factor > 1.0
        return factor

    monkeypatch.setattr(FleetEngine, "_view", checked)
    monkeypatch.setattr(_FleetRun, "link_factor", checked_factor)
    report = engine.run(workload, **run_kwargs)
    assert check_report(report, workload) == []
    assert seen["routes"] >= len(workload)
    # Most replicas hold still between two routes.
    assert seen["built"] < seen["routes"] * num_chips // 4
    if scenario != "fault-free":
        assert report.faults.chip_deaths == 2
        assert report.faults.failovers == 1
        assert report.faults.degraded_sheds > 0
        assert seen["link_factors"] > 0
