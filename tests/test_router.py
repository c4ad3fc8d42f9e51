"""Tests for fleet request routing (repro.serving.router).

Routers are pure functions of ``(request, view)``, so everything here runs
against hand-built :class:`FleetView` snapshots — no compilation, no engine.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    HEALTH_DEAD,
    HEALTH_DEGRADED,
    HEALTH_HEALTHY,
    HEALTH_RESTARTING,
    SLO_BEST_EFFORT,
    CostAwareRouter,
    DecodeRequest,
    FleetView,
    LeastLoadedRouter,
    ReplicaView,
    Router,
    StaticPartitionRouter,
)


def replica(
    index: int,
    model: str = "m",
    *,
    chip_class: str = "ipu",
    queued: int = 0,
    resident: int = 0,
    busy: bool = False,
    health: str = HEALTH_HEALTHY,
    link_factor: float = 1.0,
) -> ReplicaView:
    return ReplicaView(
        index=index,
        model=model,
        chip_class=chip_class,
        queued=queued,
        resident=resident,
        busy=busy,
        health=health,
        link_factor=link_factor,
    )


def view(
    *replicas: ReplicaView,
    latencies: dict[str, float] | None = None,
    now: float = 0.0,
    work: int = 10,
    max_batch: int = 4,
) -> FleetView:
    """A FleetView pricing every model at ``latencies[chip_class]`` seconds
    per iteration (default 1.0) with uniform work and batch size."""
    priced = latencies or {}
    ordered = tuple(replicas)
    return FleetView(
        now=now,
        replicas=ordered,
        iteration_latency=lambda model, index: priced.get(
            ordered[index].chip_class, 1.0
        ),
        ideal_iterations=lambda model, prompt, output: work,
        max_batch=lambda model: max_batch,
    )


def request(
    request_id: int = 0,
    model: str = "m",
    *,
    deadline: float | None = None,
    slo_class: str | None = None,
) -> DecodeRequest:
    return DecodeRequest(
        request_id=request_id,
        model=model,
        arrival_time=0.0,
        prompt_tokens=16,
        max_new_tokens=4,
        slo_class=slo_class or ("interactive" if deadline is not None else SLO_BEST_EFFORT),
        deadline=deadline,
    )


class TestReplicaView:
    def test_load_and_rebindable(self):
        assert replica(0, queued=2, resident=3).load == 5
        assert replica(0).rebindable
        assert not replica(0, busy=True).rebindable
        assert not replica(0, queued=1).rebindable
        assert not replica(0, resident=1).rebindable

    def test_view_filters(self):
        snapshot = view(replica(0, "a"), replica(1, "b"), replica(2, "a", busy=True))
        assert [r.index for r in snapshot.compatible("a")] == [0, 2]
        assert [r.index for r in snapshot.rebindable()] == [0, 1]


class TestViewContract:
    """Routers are pure functions of their views, so the views must stay
    immutable values whatever their representation."""

    def test_replica_view_fields_and_defaults(self):
        assert [f.name for f in dataclasses.fields(ReplicaView)] == [
            "index",
            "model",
            "chip_class",
            "queued",
            "resident",
            "busy",
            "health",
            "link_factor",
        ]
        bare = ReplicaView(index=3, model="m", chip_class="ipu", queued=1, resident=2, busy=True)
        assert (bare.health, bare.link_factor) == (HEALTH_HEALTHY, 1.0)
        defaults = {f.name: f.default for f in dataclasses.fields(ReplicaView)}
        assert (defaults["health"], defaults["link_factor"]) == (HEALTH_HEALTHY, 1.0)
        assert bare == ReplicaView(3, "m", "ipu", 1, 2, True, HEALTH_HEALTHY, 1.0)
        assert (bare.load, bare.alive, bare.rebindable) == (3, True, False)

    def test_fleet_view_fields(self):
        assert [f.name for f in dataclasses.fields(FleetView)] == [
            "now",
            "replicas",
            "iteration_latency",
            "ideal_iterations",
            "max_batch",
        ]

    def test_views_compare_and_hash_by_value(self):
        first, second = replica(0, queued=2), replica(0, queued=2)
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert first != replica(0, queued=3)
        assert replace(first, queued=3) == replica(0, queued=3)
        latency = lambda model, index: 1.0  # noqa: E731
        ideal = lambda model, prompt, output: 4  # noqa: E731
        batch = lambda model: 2  # noqa: E731
        snapshot = FleetView(
            now=1.0,
            replicas=(first,),
            iteration_latency=latency,
            ideal_iterations=ideal,
            max_batch=batch,
        )
        assert snapshot == FleetView(1.0, (second,), latency, ideal, batch)
        assert snapshot != replace(snapshot, now=2.0)

    @pytest.mark.parametrize("field", ["queued", "health", "index", "load", "other"])
    def test_replica_view_is_immutable(self, field):
        snapshot = replica(0)
        with pytest.raises(AttributeError):
            setattr(snapshot, field, 1)
        with pytest.raises(AttributeError):
            delattr(snapshot, field)
        assert snapshot == replica(0)

    @pytest.mark.parametrize("field", ["now", "replicas", "max_batch", "other"])
    def test_fleet_view_is_immutable(self, field):
        snapshot = view(replica(0))
        with pytest.raises(AttributeError):
            setattr(snapshot, field, None)
        assert snapshot.now == 0.0 and snapshot.replicas == (replica(0),)


class TestLeastLoadedRouter:
    def test_picks_least_loaded_bound_replica(self):
        snapshot = view(
            replica(0, "m", queued=3), replica(1, "m", queued=1), replica(2, "m", queued=2)
        )
        assert LeastLoadedRouter().route(request(), snapshot) == 1

    def test_ties_break_to_lowest_index(self):
        snapshot = view(replica(0, "m", queued=1), replica(1, "m", queued=1))
        assert LeastLoadedRouter().route(request(), snapshot) == 0

    def test_unbound_model_takes_first_idle(self):
        snapshot = view(replica(0, "other", busy=True), replica(1, "other"))
        assert LeastLoadedRouter().route(request(), snapshot) == 1

    def test_parks_when_no_candidate(self):
        snapshot = view(replica(0, "other", busy=True), replica(1, "other", queued=1))
        assert LeastLoadedRouter().route(request(), snapshot) is None

    def test_spills_to_idle_when_bound_replicas_are_full(self):
        busy_bound = replica(0, "m", resident=4)
        idle = replica(1, "other")
        assert LeastLoadedRouter().route(request(), view(busy_bound, idle, max_batch=4)) == 1
        # Below the spill threshold the bound replica keeps the request.
        light_bound = replica(0, "m", resident=3)
        assert LeastLoadedRouter().route(request(), view(light_bound, idle, max_batch=4)) == 0

    def test_spill_load_override_and_validation(self):
        bound = replica(0, "m", resident=2)
        idle = replica(1, "other")
        assert LeastLoadedRouter(spill_load=2).route(request(), view(bound, idle)) == 1
        with pytest.raises(ValueError):
            LeastLoadedRouter(spill_load=0)


class TestCostAwareRouter:
    def test_prefers_faster_hardware_class(self):
        snapshot = view(
            replica(0, "m", chip_class="gpu"),
            replica(1, "m", chip_class="ipu"),
            latencies={"gpu": 5.0, "ipu": 1.0},
        )
        assert CostAwareRouter().route(request(), snapshot) == 1

    def test_rebind_surcharge_keeps_light_backlog_on_bound_replica(self):
        # Bound backlog of one round (4 queued / max_batch 4) is cheaper than
        # paying the 4-iteration re-bind surcharge on the idle replica.
        bound = replica(0, "m", queued=4)
        idle = replica(1, "other")
        assert CostAwareRouter().route(request(), view(bound, idle)) == 0

    def test_heavy_backlog_annexes_idle_replica(self):
        bound = replica(0, "m", queued=24)
        idle = replica(1, "other")
        assert CostAwareRouter().route(request(), view(bound, idle)) == 1

    def test_deadline_holds_request_on_bound_replica_that_meets_it(self):
        # The idle replica projects cheaper than the backlogged bound one,
        # but the bound replica still meets the deadline — keep the re-bind
        # in reserve and stay bound.
        bound = replica(0, "m", queued=24)  # 6 rounds + 10 work = 16s
        idle = replica(1, "other")  # 10 work + 4 surcharge = 14s
        assert CostAwareRouter().route(request(deadline=20.0), view(bound, idle)) == 0
        # Best-effort traffic with the same shape takes the cheaper idle one.
        assert CostAwareRouter().route(request(), view(bound, idle)) == 1

    def test_deadline_unreachable_on_bound_replica_falls_through(self):
        bound = replica(0, "m", queued=24)  # projects 16s > deadline 15
        idle = replica(1, "other")  # projects 14s
        assert CostAwareRouter().route(request(deadline=15.0), view(bound, idle)) == 1

    def test_parks_when_no_candidate(self):
        snapshot = view(replica(0, "other", busy=True))
        assert CostAwareRouter().route(request(), snapshot) is None

    def test_rebind_cost_validation(self):
        with pytest.raises(ValueError):
            CostAwareRouter(rebind_cost_iterations=-1.0)


class TestRouterHealth:
    def test_alive_and_rebindable_by_health_state(self):
        assert replica(0, health=HEALTH_HEALTHY).alive
        assert replica(0, health=HEALTH_DEGRADED).alive
        assert not replica(0, health=HEALTH_RESTARTING).alive
        assert not replica(0, health=HEALTH_DEAD).alive
        # A dead chip cannot take a binding, however idle it looks.
        assert not replica(0, health=HEALTH_DEAD).rebindable
        assert not replica(0, health=HEALTH_RESTARTING).rebindable
        assert replica(0, health=HEALTH_DEGRADED).rebindable

    def test_routes_around_dead_bound_replica(self):
        # The dead replica is empty (cheapest projection on paper); the live
        # one carries backlog — health-aware routing still avoids the corpse.
        dead = replica(0, "m", health=HEALTH_DEAD)
        live = replica(1, "m", queued=8)
        assert CostAwareRouter().route(request(), view(dead, live)) == 1

    def test_restarting_replica_is_also_avoided(self):
        warming = replica(0, "m", health=HEALTH_RESTARTING)
        live = replica(1, "m", queued=8)
        assert CostAwareRouter().route(request(), view(warming, live)) == 1

    def test_parks_when_every_bound_replica_is_dead(self):
        snapshot = view(
            replica(0, "m", health=HEALTH_DEAD),
            replica(1, "other", busy=True),
        )
        assert CostAwareRouter().route(request(), snapshot) is None

    def test_link_factor_priced_into_projection(self):
        # Equal load: the degraded replica's iterations cost 8x, so the
        # healthy one wins despite the tie everywhere else.
        sick = replica(0, "m", health=HEALTH_DEGRADED, link_factor=8.0)
        healthy = replica(1, "m")
        assert CostAwareRouter().route(request(), view(sick, healthy)) == 1
        # A mildly degraded replica can still be the cheapest option: 1.2x
        # slower beats a healthy replica buried under six rounds of backlog.
        mild = replica(0, "m", health=HEALTH_DEGRADED, link_factor=1.2)
        buried = replica(1, "m", queued=24)
        assert CostAwareRouter().route(request(), view(mild, buried)) == 0

    def test_blind_router_ignores_health(self):
        # health_aware=False is the watchdog-only ablation: it keeps pricing
        # the dead replica at steady state and routes straight into it.
        dead = replica(0, "m", health=HEALTH_DEAD)
        live = replica(1, "m", queued=8)
        blind = CostAwareRouter(health_aware=False)
        assert blind.route(request(), view(dead, live)) == 0
        sick = replica(0, "m", health=HEALTH_DEGRADED, link_factor=8.0)
        healthy = replica(1, "m", queued=1)
        assert blind.route(request(), view(sick, healthy)) == 0

    def test_names_distinguish_the_ablation(self):
        assert CostAwareRouter().name == "cost-aware"
        assert CostAwareRouter(health_aware=False).name == "cost-aware-blind"


class TestStaticPartitionRouter:
    def test_routes_within_owned_partition_only(self):
        router = StaticPartitionRouter({"a": [0, 1], "b": [2]})
        snapshot = view(
            replica(0, "a", queued=5), replica(1, "a", queued=1), replica(2, "b")
        )
        assert router.route(request(model="a"), snapshot) == 1
        assert router.route(request(model="b"), snapshot) == 2

    def test_never_crosses_partition_even_when_idle(self):
        router = StaticPartitionRouter({"a": [0], "b": [1]})
        snapshot = view(replica(0, "a", queued=9), replica(1, "b"))
        assert router.route(request(model="a"), snapshot) == 0

    def test_unpartitioned_model_raises(self):
        router = StaticPartitionRouter({"a": [0]})
        with pytest.raises(ValueError, match="no partition"):
            router.route(request(model="zzz"), view(replica(0, "a")))

    def test_partition_naming_a_missing_replica_raises(self):
        router = StaticPartitionRouter({"a": [5], "b": [0]})
        with pytest.raises(ValueError, match=r"'a' owns replicas \[5\], which the fleet lacks"):
            router.route(request(model="a"), view(replica(0, "b")))
        partial_owner = StaticPartitionRouter({"a": [0, 3, 7]})
        with pytest.raises(ValueError, match=r"\[3, 7\]"):
            partial_owner.route(request(model="a"), view(replica(0, "a"), replica(1, "a")))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            StaticPartitionRouter({})
        with pytest.raises(ValueError):
            StaticPartitionRouter({"a": []})
        with pytest.raises(ValueError, match="disjoint"):
            StaticPartitionRouter({"a": [0], "b": [0]})


class TestPluggableRouter:
    def test_custom_router_subclasses_the_interface(self):
        """The router interface is the extension point a learned (e.g. BRAD
        forest) router would plug into: pure (request, view) -> index."""

        class PinEverything(Router):
            name = "pin"

            def route(self, req, snapshot):
                return snapshot.replicas[-1].index

        router = PinEverything()
        assert isinstance(router, Router)
        assert router.route(request(), view(replica(0, "m"), replica(1, "m"))) == 1


# --------------------------------------------------------------------------- #
# Differential oracle: the single-pass routers against the two-pass originals
# --------------------------------------------------------------------------- #
def reference_least_loaded(
    router: LeastLoadedRouter, req: DecodeRequest, snapshot: FleetView
) -> int | None:
    """``LeastLoadedRouter.route`` as first written: filtered lists, then min."""
    bound = snapshot.compatible(req.model)
    idle = [r for r in snapshot.rebindable() if r.model != req.model]
    if not bound:
        return idle[0].index if idle else None
    best = min(bound, key=lambda r: (r.load, r.index))
    spill = router.spill_load if router.spill_load is not None else snapshot.max_batch(req.model)
    if idle and best.load >= spill:
        return idle[0].index
    return best.index


def reference_cost_aware(
    router: CostAwareRouter, req: DecodeRequest, snapshot: FleetView
) -> int | None:
    """``CostAwareRouter.route`` as first written: every bound replica is
    priced again for the fall-through, with the pricing callbacks per
    candidate."""

    def projection(r: ReplicaView) -> float:
        latency = snapshot.iteration_latency(req.model, r.index)
        if router.health_aware and r.link_factor > 1.0:
            latency *= r.link_factor
        work = snapshot.ideal_iterations(req.model, req.prompt_tokens, req.max_new_tokens)
        rounds = math.ceil(r.load / snapshot.max_batch(req.model))
        projected = (rounds + work) * latency
        if r.model != req.model:
            projected += router.rebind_cost_iterations * latency
        return projected

    bound = snapshot.compatible(req.model)
    if router.health_aware:
        bound = [r for r in bound if r.alive]
    idle = [r for r in snapshot.rebindable() if r.model != req.model]
    candidates = bound + idle
    if not candidates:
        return None
    if req.deadline is not None and bound:
        in_time = [
            (projection(r), r.index)
            for r in bound
            if snapshot.now + projection(r) <= req.deadline
        ]
        if in_time:
            return min(in_time)[1]
    return min((projection(r), r.index) for r in candidates)[1]


HEALTH_STATES = (HEALTH_HEALTHY, HEALTH_DEGRADED, HEALTH_RESTARTING, HEALTH_DEAD)


@st.composite
def replica_views(draw, index: int) -> ReplicaView:
    health = draw(st.sampled_from(HEALTH_STATES))
    # Idle replicas (the re-bind candidates) are drawn on purpose: random
    # loads would almost never leave one fully empty.
    idle = draw(st.booleans())
    return replica(
        index,
        draw(st.sampled_from(("m", "other", ""))),
        chip_class=draw(st.sampled_from(("ipu", "gpu"))),
        queued=0 if idle else draw(st.integers(0, 9)),
        resident=0 if idle else draw(st.integers(0, 4)),
        busy=False if idle else draw(st.booleans()),
        health=health,
        link_factor=(
            draw(st.sampled_from((1.0, 1.5, 2.0, 8.0))) if health == HEALTH_DEGRADED else 1.0
        ),
    )


@st.composite
def fleet_views(draw) -> FleetView:
    """Small fleets with dead, restarting, degraded and unbound replicas,
    priced on a coarse grid so that score ties are common."""
    size = draw(st.integers(0, 6))
    return view(
        *(draw(replica_views(index)) for index in range(size)),
        latencies={"ipu": draw(st.sampled_from((0.5, 1.0))), "gpu": 1.0},
        now=draw(st.sampled_from((0.0, 2.0))),
        work=draw(st.integers(1, 8)),
        max_batch=draw(st.integers(1, 4)),
    )


def counted(snapshot: FleetView) -> tuple[FleetView, Counter]:
    """``snapshot`` with its latency callback counting calls per replica."""
    priced: Counter = Counter()

    def latency(model: str, index: int) -> float:
        priced[index] += 1
        return snapshot.iteration_latency(model, index)

    return replace(snapshot, iteration_latency=latency), priced


class TestRouterDifferential:
    @settings(max_examples=400, deadline=None)
    @given(
        snapshot=fleet_views(),
        deadline=st.sampled_from((None, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)),
        health_aware=st.booleans(),
        rebind=st.sampled_from((0.0, 2.5, 4.0)),
    )
    def test_cost_aware_matches_reference(self, snapshot, deadline, health_aware, rebind):
        router = CostAwareRouter(rebind_cost_iterations=rebind, health_aware=health_aware)
        req = request(deadline=deadline)
        tracked, priced = counted(snapshot)
        assert router.route(req, tracked) == reference_cost_aware(router, req, snapshot)
        # Each candidate is priced at most once per route.
        assert all(calls == 1 for calls in priced.values())

    @settings(max_examples=300, deadline=None)
    @given(snapshot=fleet_views(), spill=st.sampled_from((None, 1, 2, 4)))
    def test_least_loaded_matches_reference(self, snapshot, spill):
        router = LeastLoadedRouter(spill_load=spill)
        req = request()
        assert router.route(req, snapshot) == reference_least_loaded(router, req, snapshot)
