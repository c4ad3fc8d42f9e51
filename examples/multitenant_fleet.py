"""Multi-model, multi-tenant serving on one shared chip pool.

Run with::

    python examples/multitenant_fleet.py

Two tenants drive two different models — a hot ``chat`` tenant on
autoregressive OPT decode and a lighter ``search`` tenant on single-pass
BERT encodes — through one :class:`FleetEngine` twice on the same
heterogeneous three-chip pool (two IPUs plus one fig22-style GPU class)
and one shared plan cache:

* **partition** pins each model to its own replicas
  (:class:`StaticPartitionRouter`), the classic deployment style: chat
  owns the IPUs, search is stuck on the GPU whether or not its deadlines
  are reachable there, and
* **fleet** shares the whole pool (:class:`CostAwareRouter`): each request
  is placed on the cheapest compatible replica priced by the same
  iteration-cost model the simulator runs on, and a drained replica
  *re-binds* to whichever model the traffic needs next.

The policy order per event is route -> admit -> preempt -> shed ->
autoscale; SLO class, not tenant, is the scheduling currency.  Everything
runs in virtual time, so both runs are exactly reproducible.
"""

from __future__ import annotations

from repro.core.constraints import FAST_CONSTRAINTS
from repro.hw.spec import A100_CHIP
from repro.models import build_bert, opt_decode_session
from repro.serving import (
    CostAwareRouter,
    DecodeModel,
    FleetEngine,
    PlanCache,
    StaticPartitionRouter,
    TenantSpec,
    decode_workload,
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
        # Single-pass models join the fleet as one-iteration deployments:
        # prompt within one prefill chunk, one output token.
        decode_builder=lambda batch: build_bert(batch, seq_len=32, num_layers=1),
        max_batch_size=4,
        prefill_chunk=64,
    )
    tenants = [
        TenantSpec("chat", fairness_floor=0.4),
        TenantSpec("search", fairness_floor=0.6),
    ]
    # One plan cache serves both schemes (and both tenants — plans are shared
    # by fingerprint, hits attributed per tenant), so the second engine warms
    # without a single compilation.
    cache = PlanCache()
    engines = {
        "partition": FleetEngine(
            [opt, bert],
            tenants=tenants,
            num_chips=3,
            chip_classes={2: A100_CHIP},
            router=StaticPartitionRouter({"opt-125m": [0, 1], "bert": [2]}),
            constraints=FAST_CONSTRAINTS,
            plan_cache=cache,
        ),
        "fleet": FleetEngine(
            [opt, bert],
            tenants=tenants,
            num_chips=3,
            chip_classes={2: A100_CHIP},
            router=CostAwareRouter(),
            constraints=FAST_CONSTRAINTS,
            plan_cache=cache,
        ),
    }

    # Offered load in model-relative units: the chat tenant is overloaded
    # inside its two-chip partition share while the pool as a whole has
    # headroom — the imbalance routing can harvest and a static carve cannot.
    reference = engines["fleet"]
    unit_opt = reference.iteration_latency("opt-125m")
    unit_bert = reference.iteration_latency("bert")
    opt_iterations = opt.ideal_iterations(40, 26)
    bert_iterations = bert.ideal_iterations(40, 1)
    workload = merge_decode_workloads(
        decode_workload(
            "opt-125m",
            num_requests=60,
            rate=14.0 * 2 / (opt_iterations * unit_opt),
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

    for scheme, engine in engines.items():
        report = engine.run(workload)
        print(f"=== {scheme} ({report.policy}) ===")
        print(
            f"  fleet: {report.slo_met}/{len(report.completed)} within SLO, "
            f"{report.shed} shed, {report.rebinds} rebinds, "
            f"fairness {report.fairness:.3f}"
        )
        for tenant, scope in report.per_tenant().items():
            print(
                f"  {tenant:>8}: completed {scope.total_completed:3d}  "
                f"shed {scope.shed:2d}  attainment {scope.slo_attainment:.0%}"
            )
        print()

    print(
        "The shared fleet wins because the router routes around the "
        "partition's forced placement: search requests that miss deadlines "
        "on the GPU class are served on the IPUs instead, and chat gives up "
        "only the slack above its fairness floor in exchange."
    )


if __name__ == "__main__":
    main()
