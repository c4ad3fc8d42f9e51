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

from repro.experiments.common import checked, print_table
from repro.experiments.serving_common import (
    MIX_FLOORS,
    MIX_NUM_CHIPS,
    MIX_PARTITION,
    attainment,
    identical_at_jobs2,
    mix_engine,
    mix_models,
    mix_streams,
    placement_digest,
    tenant_scopes,
    warm,
)
from repro.hw.spec import A100_CHIP
from repro.serving import (
    ContinuousReport,
    CostAwareRouter,
    PlanCache,
    StaticPartitionRouter,
    merge_decode_workloads,
)

#: The two deployment schemes compared, in run order.
SCHEME_PARTITION = "partition"
SCHEME_FLEET = "fleet"

#: The fleet's last chip is recast as the fig22 GPU class.
CHIP_CLASSES = {MIX_NUM_CHIPS - 1: A100_CHIP}


def run(*, quick: bool = False, jobs: int = 1) -> list[dict]:
    """One row per (scheme, tenant) plus a fleet-wide row per scheme.

    The fleet is ``MIX_NUM_CHIPS`` chips with the last one recast as the
    fig22 GPU class; the partition baseline pins opt to replicas 0..n-3,
    bert to n-2 and vit to the GPU.  The tenants' load factors express
    each one's offered load relative to its *partition share's* unbatched
    capacity, so the ``chat`` tenant is overloaded inside its partition
    while the fleet as a whole has headroom — exactly the imbalance
    routing can harvest and a static carve cannot.
    """
    models = mix_models(quick)
    partition = {models[tenant].name: chips for tenant, chips in MIX_PARTITION.items()}

    def build_engine(router, cache):
        return mix_engine(
            models, router, cache, chip_classes=CHIP_CLASSES, quick=quick
        )

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    engines = {
        SCHEME_PARTITION: build_engine(StaticPartitionRouter(partition), cache),
        SCHEME_FLEET: build_engine(CostAwareRouter(), cache),
    }
    warm_misses = {scheme: warm(cache, engine).misses for scheme, engine in engines.items()}
    workload = merge_decode_workloads(
        *mix_streams(engines[SCHEME_FLEET], models, quick=quick)
    )

    digests: dict[str, str] = {}
    reports: dict[str, ContinuousReport] = {}
    for scheme in (SCHEME_PARTITION, SCHEME_FLEET):
        reports[scheme] = checked(engines[scheme].run(workload), workload)
        digests[scheme] = placement_digest(reports[scheme])
    # Bit-identity across compile parallelism: a fresh engine on a cold
    # jobs=2 cache must reproduce every placement of the routed scheme.
    fleet_jobs2_identical = identical_at_jobs2(
        lambda recheck_cache: build_engine(CostAwareRouter(), recheck_cache),
        lambda engine: engine.run(workload),
        digests[SCHEME_FLEET],
    )
    # Goodput-per-chip is normalised over the *common* serving window —
    # the longer of the two schemes' event spans — so a scheme cannot
    # inflate its rate by shedding late requests and ending early.
    window = max(report.active_span for report in reports.values())
    for scheme in (SCHEME_PARTITION, SCHEME_FLEET):
        report = reports[scheme]
        jobs2_identical = (
            fleet_jobs2_identical if scheme == SCHEME_FLEET else None
        )
        for tenant, scope in tenant_scopes(report):
            rows.append(
                {
                    "scheme": scheme,
                    "tenant": tenant,
                    "model": models[tenant].name if tenant != "all" else "mixed",
                    "chips": MIX_NUM_CHIPS,
                    "gpu_chips": 1,
                    "requests": len(scope.completed),
                    "completed": scope.total_completed,
                    "shed": scope.shed,
                    "slo_met": scope.slo_met,
                    "tokens": scope.total_tokens,
                    "preempted": scope.preemptions,
                    "rebinds": report.rebinds if tenant == "all" else 0,
                    "goodput_rps": scope.goodput,
                    "goodput_per_chip": scope.slo_met / (window * MIX_NUM_CHIPS),
                    "slo_attainment": attainment(scope),
                    "fairness_floor": MIX_FLOORS.get(tenant, 0.0),
                    "fairness": report.fairness if tenant == "all" else None,
                    "warm_compiles": warm_misses[scheme],
                    "recompiles": report.cache.misses,
                    "placements": digests[scheme] if tenant == "all" else "",
                    "jobs2_identical": (
                        jobs2_identical if tenant == "all" else None
                    ),
                }
            )
    return rows


def main() -> None:
    """Print the multi-tenant routing-vs-partition comparison (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 30: multi-tenant fleet routing vs static partition",
    )


if __name__ == "__main__":
    main()
