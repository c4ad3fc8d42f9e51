"""Fleet-scale chaos: serving through a hardware-class outage.

Run with::

    python examples/fleet_chaos.py

Two tenants share a heterogeneous three-chip pool (two IPUs plus one
fig22-style GPU chip) through one :class:`FleetEngine`.  Mid-run the whole
IPU class — the chips every deadline actually prefers — dies at once (a
correlated :meth:`FaultSchedule.class_outage`, the
driver-rollout-gone-wrong shape) and restarts cold later, leaving only the
slow GPU replica alive.  The same workload and faults replay twice:

* **watchdog-only** routes with ``CostAwareRouter(health_aware=False)``:
  the router keeps queueing onto the dying replica and every recovery
  action waits for detection + failover, and
* **health-aware** (the default router) reads per-replica health from the
  fleet view: new arrivals route *around* the dead replica immediately,
  its requeued requests may migrate to another model's idle replica
  (charged their full re-prefill), per-tenant retry budgets stop requeue
  thrashing, and brownout admission sheds best-effort arrivals at the door
  while surviving capacity is below the watermark.

Both replays are pure virtual time, so each is exactly reproducible; the
goodput dip is measured by :func:`dip_and_recovery` scoped to the outage
window.  ``python -m repro.experiments fig31 --quick`` runs the full
three-tenant version of this comparison.
"""

from __future__ import annotations

from repro.core.constraints import FAST_CONSTRAINTS
from repro.hw.spec import A100_CHIP
from repro.models import build_bert, opt_decode_session
from repro.serving import (
    CostAwareRouter,
    DecodeModel,
    FaultSchedule,
    FleetEngine,
    PlanCache,
    TenantSpec,
    Watchdog,
    decode_workload,
    dip_and_recovery,
    merge_decode_workloads,
)


def main() -> None:
    opt = DecodeModel(
        name="opt-125m",
        decode_builder=opt_decode_session("125m", num_layers=1, kv_len=256),
        max_batch_size=8,
        prefill_chunk=64,
    )
    bert = DecodeModel(
        name="bert",
        decode_builder=lambda batch: build_bert(batch, seq_len=32, num_layers=1),
        max_batch_size=4,
        prefill_chunk=64,
    )
    tenants = [
        TenantSpec("chat", fairness_floor=0.4),
        TenantSpec("search", fairness_floor=0.5),
    ]
    cache = PlanCache()

    def make_engine(router: CostAwareRouter) -> FleetEngine:
        return FleetEngine(
            [opt, bert],
            tenants=tenants,
            num_chips=3,
            chip_classes={2: A100_CHIP},
            router=router,
            constraints=FAST_CONSTRAINTS,
            plan_cache=cache,
        )

    reference = make_engine(CostAwareRouter())
    unit_opt = reference.iteration_latency("opt-125m")
    unit_bert = reference.iteration_latency("bert")
    opt_iterations = opt.ideal_iterations(40, 26)
    bert_iterations = bert.ideal_iterations(40, 1)
    workload = merge_decode_workloads(
        decode_workload(
            "opt-125m",
            num_requests=50,
            rate=10.0 * 2 / (opt_iterations * unit_opt),
            seed=0,
            interactive_fraction=0.75,
            slo_seconds=lambda p, o: 1.5 * opt.ideal_iterations(p, o) * unit_opt,
            tenant="chat",
        ),
        decode_workload(
            "bert",
            num_requests=25,
            rate=1.0 / (bert_iterations * unit_bert),
            seed=1,
            output_tokens=(1, 1),
            slo_seconds=lambda p, o: 8.0 * bert.ideal_iterations(p, o) * unit_bert,
            tenant="search",
        ),
    )

    # Both IPU chips — the class every deadline actually prefers — die 40%
    # of the way through the arrivals and restart cold after 30% of the
    # serving window, leaving only the slow GPU replica alive.  The same
    # fault replays under both routers.
    span = max(request.arrival_time for request in workload)
    kill_at, downtime = 0.4 * span, 0.3 * span
    faults = FaultSchedule.class_outage(
        [0, 1], at=kill_at, downtime=downtime, cold_cache=True
    )
    watchdog = Watchdog(
        detection_delay=2 * unit_opt,
        degraded_shed_queue=4,
        retry_budget=3,
        brownout_watermark=0.9,
    )

    for scheme, router in [
        ("watchdog-only", CostAwareRouter(health_aware=False)),
        ("health-aware", CostAwareRouter()),
    ]:
        report = make_engine(router).run(workload, faults=faults, watchdog=watchdog)
        window = downtime / 5.0
        _, dip, recovery = dip_and_recovery(
            report.completed,
            fault_time=kill_at,
            window=window,
            horizon=kill_at + downtime + window,
        )
        stats = report.faults
        print(f"=== {scheme} ({report.policy}) ===")
        print(
            f"  fleet: {report.slo_met}/{len(report.completed)} within SLO, "
            f"{report.shed} shed, dip {dip:.0%}, recovery {recovery * 1e3:.2f} ms"
        )
        print(
            f"  chaos: {stats.chip_deaths} death(s), {stats.requeued} requeued, "
            f"{report.migrations} migrated, {stats.retry_drops} retry-dropped, "
            f"{stats.brownout_sheds} brownout-shed"
        )
        for tenant, scope in report.per_tenant().items():
            floor = next(t.fairness_floor for t in tenants if t.name == tenant)
            held = "held" if scope.slo_attainment >= floor else "VIOLATED"
            print(
                f"  {tenant:>8}: completed {scope.total_completed:3d}  "
                f"attainment {scope.slo_attainment:.0%} (floor {floor:.0%} {held})"
            )
        print()

    print(
        "The health-aware fleet serves more within SLO and recovers sooner "
        "from the same outage: arrivals route around the dead IPU replicas "
        "immediately, displaced requests migrate onto the surviving GPU "
        "replica (cross-model failover, charged their full re-prefill), and "
        "brownout admission spends the shrunken fleet on interactive "
        "traffic first — so every tenant's fairness floor holds."
    )


if __name__ == "__main__":
    main()
