"""Figure 30 (extension): multi-tenant fleet routing vs static partitioning.

The single-model serving experiments (fig25, fig27) give every model its own
dedicated fleet.  Real serving estates are multi-tenant: several models with
different hardware appetites share one pool of heterogeneous chips, and the
question is whether *routing* — placing each request on the best compatible
chip group, re-binding idle groups across models as traffic shifts — beats
the classic deployment style of carving the fleet into static per-model
partitions.

This experiment replays one deterministic three-tenant workload — a hot
``chat`` tenant driving autoregressive OPT decode, a moderate ``search``
tenant driving single-pass BERT encodes, and a light ``vision`` tenant
driving single-pass ViT inference — through the same
:class:`~repro.serving.fleet.FleetEngine` twice on an identical fleet (IPU
chips plus one fig22-style GPU class) and one shared plan cache:

* **partition** — :class:`~repro.serving.router.StaticPartitionRouter` pins
  each model to its own fixed replicas; the hot tenant can never use the
  idle capacity of the light ones, and
* **fleet** — :class:`~repro.serving.router.CostAwareRouter` shares the
  whole pool, annexing idle replicas (a re-bind is cheap because the
  compiled plans are shared in the plan cache by fingerprint).

The headline claim: the router strictly beats the partition on
**goodput-per-chip** — SLO-met requests per chip-second, measured over the
common serving window (the longer of the two schemes' event spans, so a
scheme cannot look faster by shedding work early) — while no tenant's SLO
attainment falls below its declared fairness floor: the win comes from
harvesting idle capacity, not from starving the small tenants.
Every run is pure virtual time, so the
``placements`` digest is bit-identical at any compile parallelism: the row
re-runs the routed scheme on a fresh ``jobs=2`` cache and reports the
comparison as ``jobs2_identical``.
"""

from __future__ import annotations

import hashlib
import math

from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
)
from repro.experiments.common import checked, print_table
from repro.hw.spec import A100_CHIP, IPU_MK2, ChipSpec
from repro.obs import Tracer, use_tracer
from repro.models import build_bert, build_vit, opt_decode_session
from repro.serving import (
    ContinuousReport,
    CostAwareRouter,
    DecodeModel,
    FleetEngine,
    PlanCache,
    StaticPartitionRouter,
    TenantSpec,
    decode_workload,
    merge_decode_workloads,
)

#: The two deployment schemes compared, in run order.
SCHEME_PARTITION = "partition"
SCHEME_FLEET = "fleet"


def placement_digest(report: ContinuousReport) -> str:
    """Deterministic fingerprint of every request's fate: replica placement,
    tokens generated and virtual completion time.  Two runs of the same
    workload agree on this digest iff they made identical scheduling
    decisions — the bit-identity the jobs sweep asserts."""
    payload = ";".join(
        f"{record.request.request_id}:{record.replica}:"
        f"{record.tokens_generated}:{record.completion_time!r}"
        for record in report.completed
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _deployments(
    *, num_layers: int | None, kv_len: int, seq_len: int
) -> list[DecodeModel]:
    """The three models the tenants drive.

    BERT and ViT are single-forward-pass models wrapped as one-iteration
    :class:`DecodeModel` deployments (prompt within one prefill chunk,
    one output token), which is what lets autoregressive and single-pass
    traffic share one engine, one pool and one report schema.
    """
    return [
        DecodeModel(
            name="opt-125m",
            decode_builder=opt_decode_session(
                "125m", num_layers=num_layers, kv_len=kv_len
            ),
            max_batch_size=8,
            prefill_chunk=64,
        ),
        DecodeModel(
            name="bert",
            decode_builder=lambda batch: build_bert(
                batch, seq_len=seq_len, num_layers=num_layers
            ),
            max_batch_size=4,
            prefill_chunk=64,
        ),
        DecodeModel(
            name="vit",
            decode_builder=lambda batch: build_vit(batch, num_layers=num_layers),
            max_batch_size=4,
            prefill_chunk=64,
        ),
    ]


def run(
    *,
    chip: ChipSpec = IPU_MK2,
    gpu_chip: ChipSpec = A100_CHIP,
    num_chips: int = 4,
    num_layers: int | None = 2,
    kv_len: int = 1024,
    seq_len: int = 64,
    num_requests: tuple[int, int, int] = (90, 40, 20),
    load_factors: tuple[float, float, float] = (11.0, 2.0, 1.0),
    slo_factor: float = 1.5,
    single_pass_slo_factor: float = 8.0,
    fairness_floors: tuple[float, float, float] = (0.35, 0.6, 0.6),
    constraints: SearchConstraints | None = None,
    quick: bool = False,
    jobs: int = 1,
    seed: int = 0,
) -> list[dict]:
    """One row per (scheme, tenant) plus a fleet-wide row per scheme.

    The fleet is ``num_chips`` chips with the last one recast as the fig22
    GPU class; the partition baseline pins opt to replicas 0..n-3, bert to
    n-2 and vit to the GPU.  ``load_factors`` express each tenant's offered
    load relative to its *partition share's* unbatched capacity, so the
    ``chat`` tenant is overloaded inside its partition while the fleet as a
    whole has headroom — exactly the imbalance routing can harvest and a
    static carve cannot.
    """
    if constraints is None:
        constraints = FAST_CONSTRAINTS if quick else DEFAULT_CONSTRAINTS
    if quick:
        num_layers = 1 if num_layers is None else min(num_layers, 1)
        kv_len = min(kv_len, 256)
        seq_len = min(seq_len, 32)
        num_requests = tuple(min(n, cap) for n, cap in zip(num_requests, (70, 30, 15)))
    if num_chips < 4:
        raise ValueError(f"fig30 needs at least 4 chips, got {num_chips}")
    deployments = _deployments(num_layers=num_layers, kv_len=kv_len, seq_len=seq_len)
    opt, bert, vit = deployments
    chip_classes = {num_chips - 1: gpu_chip}
    partition = {
        opt.name: list(range(num_chips - 2)),
        bert.name: [num_chips - 2],
        vit.name: [num_chips - 1],
    }
    tenants = [
        TenantSpec("chat", fairness_floor=fairness_floors[0]),
        TenantSpec("search", fairness_floor=fairness_floors[1]),
        TenantSpec("vision", fairness_floor=fairness_floors[2]),
    ]
    tenant_models = {"chat": opt, "search": bert, "vision": vit}

    def build_engine(router, cache) -> FleetEngine:
        return FleetEngine(
            deployments,
            tenants=tenants,
            chip=chip,
            num_chips=num_chips,
            chip_classes=chip_classes,
            router=router,
            constraints=constraints,
            plan_cache=cache,
        )

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    try:
        engines = {
            SCHEME_PARTITION: build_engine(StaticPartitionRouter(partition), cache),
            SCHEME_FLEET: build_engine(CostAwareRouter(), cache),
        }
        warm_misses: dict[str, int] = {}
        for scheme, engine in engines.items():
            before = cache.stats.snapshot()
            engine.warm()
            warm_misses[scheme] = cache.stats.since(before).misses

        # Offered load in model-relative units (the fig27 convention): each
        # tenant's rate is load_factor times its partition share's unbatched
        # capacity, deadlines are slo_factor times ideal service time.
        reference = engines[SCHEME_FLEET]
        streams = []
        for spec, tenant in zip(tenants, ("chat", "search", "vision")):
            model = tenant_models[tenant]
            index = list(tenant_models).index(tenant)
            unit = reference.iteration_latency(model.name, 1)
            mean_iterations = model.ideal_iterations(
                (16 + 64) // 2, (4 + 48) // 2 if model is opt else 1
            )
            share = len(partition[model.name])
            rate = load_factors[index] * share / (mean_iterations * unit)
            factor = slo_factor if model is opt else single_pass_slo_factor
            streams.append(
                decode_workload(
                    model.name,
                    num_requests=num_requests[index],
                    rate=rate,
                    seed=seed + index,
                    prompt_tokens=(16, 64),
                    output_tokens=(4, 48) if model is opt else (1, 1),
                    interactive_fraction=0.75 if model is opt else 1.0,
                    slo_seconds=lambda prompt, output, u=unit, f=factor, m=model: (
                        f * m.ideal_iterations(prompt, output) * u
                    ),
                    tenant=spec.name,
                )
            )
        workload = merge_decode_workloads(*streams)

        digests: dict[str, str] = {}
        reports: dict[str, ContinuousReport] = {}
        for scheme in (SCHEME_PARTITION, SCHEME_FLEET):
            reports[scheme] = checked(engines[scheme].run(workload), workload)
            digests[scheme] = placement_digest(reports[scheme])
        # Bit-identity across compile parallelism: a fresh engine on a cold
        # jobs=2 cache must reproduce every placement of the routed scheme.
        # The recheck is internal verification, not part of the figure, so
        # its events go to a throwaway tracer instead of the figure's lanes.
        recheck_cache = PlanCache(jobs=2)
        try:
            with use_tracer(Tracer()):
                recheck = build_engine(CostAwareRouter(), recheck_cache)
                recheck.warm()
                fleet_jobs2_identical = (
                    placement_digest(recheck.run(workload)) == digests[SCHEME_FLEET]
                )
        finally:
            recheck_cache.close()
        # Goodput-per-chip is normalised over the *common* serving window —
        # the longer of the two schemes' event spans — so a scheme cannot
        # inflate its rate by shedding late requests and ending early.
        window = max(report.active_span for report in reports.values())
        for scheme in (SCHEME_PARTITION, SCHEME_FLEET):
            report = reports[scheme]
            jobs2_identical = (
                fleet_jobs2_identical if scheme == SCHEME_FLEET else None
            )
            slices = report.per_tenant()
            scoped = [("all", report)] + [
                (tenant, slices[tenant]) for tenant in report.tenants
            ]
            for tenant, scope in scoped:
                attainment = scope.slo_attainment
                rows.append(
                    {
                        "scheme": scheme,
                        "tenant": tenant,
                        "model": (
                            tenant_models[tenant].name if tenant != "all" else "mixed"
                        ),
                        "chips": num_chips,
                        "gpu_chips": 1,
                        "requests": len(scope.completed),
                        "completed": scope.total_completed,
                        "shed": scope.shed,
                        "slo_met": scope.slo_met,
                        "tokens": scope.total_tokens,
                        "preempted": scope.preemptions,
                        "rebinds": report.rebinds if tenant == "all" else 0,
                        "goodput_rps": scope.goodput,
                        "goodput_per_chip": scope.slo_met / (window * num_chips),
                        "slo_attainment": (
                            -1.0 if math.isnan(attainment) else attainment
                        ),
                        "fairness_floor": (
                            next(t.fairness_floor for t in tenants if t.name == tenant)
                            if tenant != "all"
                            else 0.0
                        ),
                        "fairness": report.fairness if tenant == "all" else None,
                        "warm_compiles": warm_misses[scheme],
                        "recompiles": report.cache.misses,
                        "placements": digests[scheme] if tenant == "all" else "",
                        "jobs2_identical": (
                            jobs2_identical if tenant == "all" else None
                        ),
                    }
                )
    finally:
        cache.close()
    return rows


def main() -> None:
    """Print the multi-tenant routing-vs-partition comparison (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 30: multi-tenant fleet routing vs static partition",
    )


if __name__ == "__main__":
    main()
