"""Tests for the multi-model, multi-tenant fleet engine (repro.serving.fleet)."""

from __future__ import annotations

import pytest

from repro.core import T10Compiler
from repro.hw.spec import ChipSpec, KiB
from repro.ir import OperatorGraph, elementwise, matmul
from repro.serving import (
    SLO_BEST_EFFORT,
    SLO_INTERACTIVE,
    CostAwareRouter,
    DecodeModel,
    DecodeRequest,
    FleetEngine,
    PlanCache,
    Router,
    StaticPartitionRouter,
    TenantSpec,
    decode_workload,
    merge_decode_workloads,
)
from repro.utils.fingerprint import stable_hash


def tiny_builder(name: str, width: int):
    def build(batch_size: int) -> OperatorGraph:
        graph = OperatorGraph(name=f"{name}-b{batch_size}")
        fc1 = graph.add(matmul("fc1", m=batch_size * 8, k=width, n=width))
        act = graph.add(
            elementwise("act", {"m": batch_size * 8, "n": width}, kind="relu"),
            inputs=[fc1],
        )
        graph.add(matmul("fc2", m=batch_size * 8, k=width, n=32), inputs=[act])
        return graph

    return build


def make_model(name: str = "alpha", *, width: int = 64, max_batch_size: int = 2) -> DecodeModel:
    return DecodeModel(
        name=name,
        decode_builder=tiny_builder(name, width),
        max_batch_size=max_batch_size,
        prefill_chunk=64,
    )


@pytest.fixture()
def cache(small_cost_model, fast_constraints):
    return PlanCache(
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=small_cost_model, constraints=constraints
        ),
    )


@pytest.fixture()
def fat_chip() -> ChipSpec:
    """A second hardware class: fewer, beefier cores than the test chip."""
    return ChipSpec(
        name="fat-chip",
        num_cores=32,
        sram_per_core=512 * KiB,
        core_flops=400e9,
        link_bandwidth=8e9,
        link_latency=0.2e-6,
        offchip_bandwidth=16e9,
    )


def make_engine(cache, small_chip, fast_constraints, **kwargs) -> FleetEngine:
    deployments = kwargs.pop("deployments", None) or [make_model()]
    return FleetEngine(
        deployments,
        chip=small_chip,
        constraints=fast_constraints,
        plan_cache=cache,
        **kwargs,
    )


def request(
    request_id: int,
    arrival: float,
    *,
    model: str = "alpha",
    tokens: int = 4,
    prompt: int = 16,
    slo_class: str = SLO_INTERACTIVE,
    deadline: float | None = None,
    tenant: str = "",
) -> DecodeRequest:
    return DecodeRequest(
        request_id=request_id,
        model=model,
        arrival_time=arrival,
        prompt_tokens=prompt,
        max_new_tokens=tokens,
        slo_class=slo_class,
        deadline=deadline,
        tenant=tenant,
    )


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

    def test_jobs_conflicts_with_supplied_cache(
        self, cache, small_chip, fast_constraints
    ):
        with pytest.raises(ValueError, match="jobs has no effect"):
            make_engine(cache, small_chip, fast_constraints, jobs=2)

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
        # The books balance and every request kept its routed placement.
        assert len(report.completed) == len(workload)
        assert report.total_completed + report.shed == len(workload)
        served_models = {record.request.model for record in report.ok_requests}
        assert served_models == {"alpha", "beta"}
        # Per-tenant slices partition the totals exactly.
        slices = report.per_tenant()
        assert set(slices) == {"acme", "globex"}
        assert sum(s.total_completed for s in slices.values()) == report.total_completed
        assert sum(s.shed for s in slices.values()) == report.shed
        assert sum(s.total_tokens for s in slices.values()) == report.total_tokens

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
            assert report.total_completed + report.shed == len(workload)
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
