"""Figure 31 (extension): fleet-scale chaos — health-aware routing vs
watchdog-only failover.

Fig30 shows a cost-aware router beating static partitioning on a healthy
multi-tenant fleet; fig29 shows the single-model engine's goodput dip under
a chip death being bounded and transient.  This experiment combines them
and asks the fleet-scale question: when a whole *hardware class* dies under
the fig30 three-tenant mix, how much of the recovery can the router do, and
how much must wait for the watchdog?

The same three-tenant workload (hot autoregressive ``chat`` on OPT,
moderate single-pass ``search`` on BERT, light single-pass ``vision`` on
ViT over two IPU chips plus a two-chip fig22-style GPU class) is replayed
three times on an identical fleet and one shared plan cache:

* **baseline** — no faults: the healthy reference the dip is measured
  against.
* **watchdog** — the GPU class is killed mid-run (and restarts cold after a
  downtime) with a *health-blind* router
  (``CostAwareRouter(health_aware=False)``): recovery is watchdog-only —
  requests keep routing to the dead replicas and sit in limbo until
  failover or restart re-places them.
* **health-aware** — the identical fault schedule and watchdog, but the
  router reads per-replica health: it routes around the dead replicas the
  moment the view reports them, prices degraded links, and the requeued
  requests failover *across models* onto surviving IPU replicas.

Both chaos schemes run the same fleet-scale degraded-mode policy:
per-tenant retry budgets with deadline-aware honest drops, and brownout
admission control below a surviving-capacity watermark.

The headline claim: the health-aware scheme **strictly beats** the
watchdog-only scheme on goodput dip depth *and* recovery time, while every
tenant's SLO attainment stays at or above its declared fairness floor —
the router is not buying recovery speed by starving the small tenants.
Every run is pure virtual time, so the ``placements`` digest is
bit-identical at any compile parallelism (asserted via a fresh ``jobs=2``
re-run).
"""

from __future__ import annotations

import math

from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
)
from repro.experiments.common import checked, print_table
from repro.experiments.fig30_multitenant import _deployments, placement_digest
from repro.hw.spec import A100_CHIP, IPU_MK2, ChipSpec
from repro.obs import Tracer, use_tracer
from repro.serving import (
    ContinuousReport,
    CostAwareRouter,
    FaultSchedule,
    FleetEngine,
    PlanCache,
    TenantSpec,
    Watchdog,
    decode_workload,
    dip_and_recovery,
    merge_decode_workloads,
)

#: The three schemes compared, in run order.
SCHEME_BASELINE = "baseline"
SCHEME_WATCHDOG = "watchdog"
SCHEME_HEALTH = "health-aware"
SCHEMES = (SCHEME_BASELINE, SCHEME_WATCHDOG, SCHEME_HEALTH)


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
    kill_fraction: float = 0.45,
    downtime_fraction: float = 0.2,
    detection_units: float = 2.0,
    warmup_units: float = 2.0,
    degraded_shed_queue: int = 4,
    retry_budget: int = 4,
    brownout_watermark: float = 0.9,
    constraints: SearchConstraints | None = None,
    quick: bool = False,
    jobs: int = 1,
    seed: int = 0,
) -> list[dict]:
    """One row per (scheme, tenant) plus a fleet-wide row per scheme.

    The fault is a **hardware-class outage**: the fleet's GPU class (the
    last two chips, fig30's heterogeneous class) dies ``kill_fraction`` of
    the way through the *shortest* tenant stream — so every tenant is
    still arriving when it strikes — and restarts cold after
    ``downtime_fraction`` of the merged span, with the watchdog's
    detection delay and the restart warmup expressed in units of the
    batch-1 OPT decode iteration (a heartbeat interval).  Half the fleet
    dying drops surviving capacity below the brownout watermark, so both
    chaos schemes shed best-effort at arrival; with no spares, watchdog-only
    recovery must wait out the downtime, while the health-aware router
    fails the displaced traffic over to the surviving IPU replicas
    (cross-model failover, full re-prefill) and routes new arrivals around
    the dead class.  The dip is measured over the outage window only
    (``horizon``): past the restart both schemes drain the same backlog
    and the end-of-run decay carries no routing signal.
    """
    if constraints is None:
        constraints = FAST_CONSTRAINTS if quick else DEFAULT_CONSTRAINTS
    if quick:
        num_layers = 1 if num_layers is None else min(num_layers, 1)
        kv_len = min(kv_len, 256)
        seq_len = min(seq_len, 32)
        num_requests = tuple(min(n, cap) for n, cap in zip(num_requests, (70, 30, 15)))
    if num_chips < 4:
        raise ValueError(f"fig31 needs at least 4 chips, got {num_chips}")
    deployments = _deployments(num_layers=num_layers, kv_len=kv_len, seq_len=seq_len)
    opt, bert, vit = deployments
    gpu_class = [num_chips - 2, num_chips - 1]
    chip_classes = {index: gpu_chip for index in gpu_class}
    #: fig30's partition shares, reused only to express each tenant's
    #: offered load in the same units as fig30 (the mix is identical).
    shares = {opt.name: num_chips - 2, bert.name: 1, vit.name: 1}
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
            SCHEME_BASELINE: build_engine(CostAwareRouter(), cache),
            SCHEME_WATCHDOG: build_engine(CostAwareRouter(health_aware=False), cache),
            SCHEME_HEALTH: build_engine(CostAwareRouter(), cache),
        }
        warm_misses: dict[str, int] = {}
        for scheme, engine in engines.items():
            before = cache.stats.snapshot()
            engine.warm()
            warm_misses[scheme] = cache.stats.since(before).misses

        # The fig30 three-tenant mix, verbatim: offered load in
        # model-relative units, deadlines scaled by ideal service time.
        reference = engines[SCHEME_HEALTH]
        streams = []
        for index, spec in enumerate(tenants):
            model = tenant_models[spec.name]
            unit = reference.iteration_latency(model.name, 1)
            mean_iterations = model.ideal_iterations(
                (16 + 64) // 2, (4 + 48) // 2 if model is opt else 1
            )
            rate = load_factors[index] * shares[model.name] / (mean_iterations * unit)
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

        # Hardware-class outage: kill the GPU class mid-run, restart it cold
        # after a downtime.  The kill is timed off the *shortest* stream so
        # every tenant still has arrivals in flight when it strikes — timed
        # off the merged span it would land after the single-pass streams
        # have already drained and no routing decision would differ.
        opt_unit = reference.iteration_latency(opt.name, 1)
        span = max(request.arrival_time for request in workload)
        min_span = min(
            max(request.arrival_time for request in stream) for stream in streams
        )
        kill_at = kill_fraction * min_span
        downtime = downtime_fraction * span
        schedule = FaultSchedule.class_outage(
            gpu_class,
            at=kill_at,
            downtime=downtime,
            cold_cache=True,
            warmup_delay=warmup_units * opt_unit,
        )
        watchdog = Watchdog(
            detection_delay=detection_units * opt_unit,
            degraded_shed_queue=degraded_shed_queue,
            retry_budget=retry_budget,
            brownout_watermark=brownout_watermark,
        )
        plans = {
            SCHEME_BASELINE: (None, None),
            SCHEME_WATCHDOG: (schedule, watchdog),
            SCHEME_HEALTH: (schedule, watchdog),
        }

        digests: dict[str, str] = {}
        reports: dict[str, ContinuousReport] = {}
        for scheme in SCHEMES:
            faults, wd = plans[scheme]
            reports[scheme] = checked(
                engines[scheme].run(workload, faults=faults, watchdog=wd), workload
            )
            digests[scheme] = placement_digest(reports[scheme])
        # Bit-identity across compile parallelism: a fresh engine on a cold
        # jobs=2 cache must reproduce every placement of the chaos run.
        # The recheck is internal verification, not part of the figure, so
        # its events go to a throwaway tracer instead of the figure's lanes.
        recheck_cache = PlanCache(jobs=2)
        try:
            with use_tracer(Tracer()):
                recheck = build_engine(CostAwareRouter(), recheck_cache)
                recheck.warm()
                jobs2_identical = (
                    placement_digest(
                        recheck.run(workload, faults=schedule, watchdog=watchdog)
                    )
                    == digests[SCHEME_HEALTH]
                )
        finally:
            recheck_cache.close()

        # Dip/recovery over the outage window only: five windows across the
        # downtime, horizon one window past the restart.
        dip_window = downtime / 5.0
        for scheme in SCHEMES:
            report = reports[scheme]
            if plans[scheme][0] is not None:
                baseline_rate, dip_depth, recovery = dip_and_recovery(
                    report.completed,
                    fault_time=kill_at,
                    window=dip_window,
                    horizon=kill_at + downtime + dip_window,
                )
            else:
                baseline_rate, dip_depth, recovery = float("nan"), 0.0, 0.0

            def clean(value: float) -> float | None:
                return None if math.isnan(value) else value

            faults_stats = report.faults
            slices = report.per_tenant()
            floor_by_tenant = {spec.name: spec.fairness_floor for spec in tenants}
            violations = sum(
                1
                for tenant, scope in slices.items()
                if not math.isnan(scope.slo_attainment)
                and scope.slo_attainment < floor_by_tenant.get(tenant, 0.0)
            )
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
                        "requests": len(scope.completed),
                        "completed": scope.total_completed,
                        "shed": scope.shed,
                        "slo_met": scope.slo_met,
                        "tokens": scope.total_tokens,
                        "requeued": scope.faults.requeued,
                        "migrations": scope.migrations,
                        "lost_tokens": scope.faults.lost_tokens,
                        "chip_deaths": (
                            faults_stats.chip_deaths if tenant == "all" else 0
                        ),
                        "failovers": faults_stats.failovers if tenant == "all" else 0,
                        "retry_drops": (
                            faults_stats.retry_drops if tenant == "all" else 0
                        ),
                        "brownout_sheds": (
                            faults_stats.brownout_sheds if tenant == "all" else 0
                        ),
                        "degraded_sheds": (
                            faults_stats.degraded_sheds if tenant == "all" else 0
                        ),
                        "goodput_rps": scope.goodput,
                        "slo_attainment": (
                            -1.0 if math.isnan(attainment) else attainment
                        ),
                        "fairness_floor": floor_by_tenant.get(tenant, 0.0),
                        "floor_violations": violations if tenant == "all" else None,
                        "pre_fault_goodput_rps": (
                            clean(baseline_rate) if tenant == "all" else None
                        ),
                        "dip_depth": clean(dip_depth) if tenant == "all" else None,
                        "recovery_ms": (
                            (recovery * 1e3 if math.isfinite(recovery) else float("inf"))
                            if tenant == "all"
                            else None
                        ),
                        "warm_compiles": warm_misses[scheme],
                        "recompiles": report.cache.misses,
                        "restart_compile_s": (
                            faults_stats.restart_compile_seconds
                            if tenant == "all"
                            else 0.0
                        ),
                        "placements": digests[scheme] if tenant == "all" else "",
                        "jobs2_identical": (
                            jobs2_identical
                            if scheme == SCHEME_HEALTH and tenant == "all"
                            else None
                        ),
                    }
                )
    finally:
        cache.close()
    return rows


def main() -> None:
    """Print the fleet-chaos comparison (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 31: fleet chaos — health-aware routing vs watchdog-only",
    )


if __name__ == "__main__":
    main()
