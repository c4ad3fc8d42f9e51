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

from repro.experiments.common import checked, print_table
from repro.experiments.serving_common import (
    MIX_FLOORS,
    MIX_NUM_CHIPS,
    attainment,
    dip_columns,
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
    FaultSchedule,
    PlanCache,
    Watchdog,
    merge_decode_workloads,
)

#: The three schemes compared, in run order.
SCHEME_BASELINE = "baseline"
SCHEME_WATCHDOG = "watchdog"
SCHEME_HEALTH = "health-aware"
SCHEMES = (SCHEME_BASELINE, SCHEME_WATCHDOG, SCHEME_HEALTH)

#: The fleet's last two chips form the fig22 GPU class the outage kills.
GPU_CLASS = (MIX_NUM_CHIPS - 2, MIX_NUM_CHIPS - 1)
CHIP_CLASSES = {index: A100_CHIP for index in GPU_CLASS}

#: The kill lands this far through the shortest tenant stream; the class
#: stays down for this share of the merged span.
KILL_FRACTION = 0.45
DOWNTIME_FRACTION = 0.2

#: Watchdog detection delay and restart warmup, in batch-1 OPT decode
#: iterations (a heartbeat interval).
DETECTION_UNITS = 2.0
WARMUP_UNITS = 2.0

#: Degraded-mode policy of both chaos schemes: the queue depth above which
#: a degraded fleet sheds, per-tenant retry budgets, and the
#: surviving-capacity watermark below which brownout admission engages.
DEGRADED_SHED_QUEUE = 4
RETRY_BUDGET = 4
BROWNOUT_WATERMARK = 0.9


def run(*, quick: bool = False, jobs: int = 1) -> list[dict]:
    """One row per (scheme, tenant) plus a fleet-wide row per scheme.

    The fault is a **hardware-class outage**: the fleet's GPU class (the
    last two chips, fig30's heterogeneous class) dies ``KILL_FRACTION`` of
    the way through the *shortest* tenant stream — so every tenant is
    still arriving when it strikes — and restarts cold after
    ``DOWNTIME_FRACTION`` of the merged span.  Half the fleet dying drops
    surviving capacity below the brownout watermark, so both chaos schemes
    shed best-effort at arrival; with no spares, watchdog-only recovery
    must wait out the downtime, while the health-aware router fails the
    displaced traffic over to the surviving IPU replicas (cross-model
    failover, full re-prefill) and routes new arrivals around the dead
    class.  The dip is measured over the outage window only (``horizon``):
    past the restart both schemes drain the same backlog and the
    end-of-run decay carries no routing signal.
    """
    models = mix_models(quick)

    def build_engine(router, cache):
        return mix_engine(
            models, router, cache, chip_classes=CHIP_CLASSES, quick=quick
        )

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    engines = {
        SCHEME_BASELINE: build_engine(CostAwareRouter(), cache),
        SCHEME_WATCHDOG: build_engine(CostAwareRouter(health_aware=False), cache),
        SCHEME_HEALTH: build_engine(CostAwareRouter(), cache),
    }
    warm_misses = {scheme: warm(cache, engine).misses for scheme, engine in engines.items()}
    reference = engines[SCHEME_HEALTH]
    streams = mix_streams(reference, models, quick=quick)
    workload = merge_decode_workloads(*streams)

    # Hardware-class outage: kill the GPU class mid-run, restart it cold
    # after a downtime.  The kill is timed off the *shortest* stream so
    # every tenant still has arrivals in flight when it strikes — timed
    # off the merged span it would land after the single-pass streams
    # have already drained and no routing decision would differ.
    opt_unit = reference.iteration_latency(models["chat"].name, 1)
    span = max(request.arrival_time for request in workload)
    min_span = min(
        max(request.arrival_time for request in stream) for stream in streams
    )
    kill_at = KILL_FRACTION * min_span
    downtime = DOWNTIME_FRACTION * span
    schedule = FaultSchedule.class_outage(
        GPU_CLASS,
        at=kill_at,
        downtime=downtime,
        cold_cache=True,
        warmup_delay=WARMUP_UNITS * opt_unit,
    )
    watchdog = Watchdog(
        detection_delay=DETECTION_UNITS * opt_unit,
        degraded_shed_queue=DEGRADED_SHED_QUEUE,
        retry_budget=RETRY_BUDGET,
        brownout_watermark=BROWNOUT_WATERMARK,
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
    jobs2_identical = identical_at_jobs2(
        lambda recheck_cache: build_engine(CostAwareRouter(), recheck_cache),
        lambda engine: engine.run(workload, faults=schedule, watchdog=watchdog),
        digests[SCHEME_HEALTH],
    )

    # Dip/recovery over the outage window only: five windows across the
    # downtime, horizon one window past the restart.
    dip_window = downtime / 5.0
    for scheme in SCHEMES:
        report = reports[scheme]
        pre_fault, dip_depth, recovery_ms = dip_columns(
            report,
            fault_time=kill_at if plans[scheme][0] is not None else math.inf,
            window=dip_window,
            horizon=kill_at + downtime + dip_window,
        )
        faults_stats = report.faults
        scopes = tenant_scopes(report)
        violations = sum(
            1
            for tenant, scope in scopes[1:]
            if not math.isnan(scope.slo_attainment)
            and scope.slo_attainment < MIX_FLOORS.get(tenant, 0.0)
        )
        for tenant, scope in scopes:
            rows.append(
                {
                    "scheme": scheme,
                    "tenant": tenant,
                    "model": models[tenant].name if tenant != "all" else "mixed",
                    "chips": MIX_NUM_CHIPS,
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
                    "slo_attainment": attainment(scope),
                    "fairness_floor": MIX_FLOORS.get(tenant, 0.0),
                    "floor_violations": violations if tenant == "all" else None,
                    "pre_fault_goodput_rps": pre_fault if tenant == "all" else None,
                    "dip_depth": dip_depth if tenant == "all" else None,
                    "recovery_ms": recovery_ms if tenant == "all" else None,
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
    return rows


def main() -> None:
    """Print the fleet-chaos comparison (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 31: fleet chaos — health-aware routing vs watchdog-only",
    )


if __name__ == "__main__":
    main()
