"""Figure 29 (extension): chaos replay — goodput under chip failure.

Fig27 establishes that continuous batching wins on a healthy fleet.  This
experiment asks the follow-up question a production deployment cares about:
what happens to goodput-under-SLO when a chip *dies mid-run*?  Because the
serving engines schedule entirely in virtual time, the chaos run is a
deterministic replay — the same workload plus the same
:class:`~repro.serving.faults.FaultSchedule` reproduces the same report
bit-for-bit at any compilation parallelism.

Three rows, all on the same model and the same arrival process:

* **flat/baseline** — a 2-chip fleet of single-chip replicas, no faults;
  the healthy reference the dip is measured against.
* **flat/chaos** — the same fleet, but chip 0 dies mid-run and restarts
  (cold plan cache) after a downtime.  The watchdog detects the death,
  requeues the in-flight requests (their KV state died with the chip, so
  they are charged full re-prefill), sheds excess best-effort backlog while
  degraded, and re-places the replica once the chip is back.
* **sharded/chaos** — a pipeline-sharded replica (2 stages) plus one spare
  chip; one *stage* chip dies, and the watchdog re-places the whole stage
  group onto the survivors + spare (pipeline-stage failover).  A link
  degradation window also brackets the death, pricing iterations with
  slowed stage-boundary transfers.

The headline claim: the SLO dip is **bounded and transient** — goodput dips
while requests are requeued and the backlog drains, then recovers once the
watchdog re-places the replica; lost decode progress is accounted token-for
-token in ``lost_tokens``, and every request is still accounted for
(``completed + shed == requests``).

All times are expressed in model-relative units (the batch-1 decode
iteration latency is the unit, exactly as in fig27), so the same schedule
shape stresses any model size.
"""

from __future__ import annotations

from repro.experiments.common import checked, print_table
from repro.experiments.serving_common import (
    CHIP,
    constraints_for,
    decode_rate,
    decode_stream,
    dip_columns,
    opt_deployment,
    warm,
)
from repro.serving import (
    ContinuousEngine,
    DecodeModel,
    FaultSchedule,
    PlanCache,
    Watchdog,
    link_degradation,
)

#: Offered load in multiples of the fleet's unbatched capacity, and
#: deadlines in multiples of each request's ideal service time.
LOAD_FACTOR = 8.0
SLO_FACTOR = 2.0

#: Share of requests that carry a deadline.
INTERACTIVE_FRACTION = 0.6

#: The kill lands this far through the arrival span, and the chip stays
#: down for this share of it.
KILL_FRACTION = 0.4
DOWNTIME_FRACTION = 0.2

#: Watchdog: detection delay in batch-1 decode iterations (a heartbeat
#: interval) and the queue depth above which a degraded fleet sheds.
DETECTION_UNITS = 2.0
DEGRADED_SHED_QUEUE = 2

#: Slow-down of the stage-boundary link around the sharded kill.
LINK_FACTOR = 2.5

#: Decoder layers (``None``: the whole stack), KV length and requests per
#: run: the full grid, then the quick grid.
NUM_LAYERS, QUICK_NUM_LAYERS = None, 1
KV_LEN, QUICK_KV_LEN = 1024, 256
NUM_REQUESTS, QUICK_NUM_REQUESTS = 120, 90


def _scenario_rows(
    *,
    scenario: str,
    engine: ContinuousEngine,
    workload,
    num_requests: int,
    schedule: FaultSchedule | None,
    watchdog: Watchdog | None,
    warm_compiles: int,
    dip_window: float,
) -> dict:
    report = checked(engine.run(workload, faults=schedule, watchdog=watchdog), workload)
    fault_time = schedule.first_death_time if schedule is not None else float("inf")
    pre_fault, dip_depth, recovery_ms = dip_columns(
        report, fault_time=fault_time, window=dip_window
    )
    faults = report.faults
    return {
        "scenario": scenario,
        "model": report.model,
        "chips": report.num_chips,
        "stages": report.num_stages,
        "requests": num_requests,
        "completed": report.total_completed,
        "shed": report.shed,
        "slo_met": report.slo_met,
        "tokens": report.total_tokens,
        "iterations": report.iterations,
        "preempted": report.preemptions,
        "migrations": report.migrations,
        "chip_deaths": faults.chip_deaths,
        "restarts": faults.restarts,
        "failovers": faults.failovers,
        "requeued": faults.requeued,
        "lost_tokens": faults.lost_tokens,
        "lost_iterations": faults.lost_iterations,
        "degraded_sheds": faults.degraded_sheds,
        "goodput_rps": report.goodput,
        "throughput_rps": report.throughput,
        "slo_attainment": report.slo_attainment,
        "pre_fault_goodput_rps": pre_fault,
        "dip_depth": dip_depth,
        "recovery_ms": recovery_ms,
        "warm_compiles": warm_compiles,
        "recompiles": report.cache.misses,
        "restart_compile_s": faults.restart_compile_seconds,
    }


def run(*, quick: bool = False, jobs: int = 1) -> list[dict]:
    """One row per chaos scenario on an identical arrival process.

    The kill lands ``KILL_FRACTION`` of the way through the arrival span
    and the chip stays down for ``DOWNTIME_FRACTION`` of it, so the fault
    always strikes a busy fleet and the restart always lands while
    requests are still arriving, regardless of model size.  All reported
    times are virtual except ``restart_compile_s`` (the wall-clock cost of
    re-warming a cold plan cache after a restart), which never enters
    virtual time — rows are bit-for-bit reproducible at any ``jobs`` width.
    """
    num_requests = QUICK_NUM_REQUESTS if quick else NUM_REQUESTS
    flat = opt_deployment(
        num_layers=QUICK_NUM_LAYERS if quick else NUM_LAYERS,
        kv_len=QUICK_KV_LEN if quick else KV_LEN,
    )
    sharded = DecodeModel(
        name=f"{flat.name}-2stage",
        decode_builder=flat.decode_builder,
        max_batch_size=flat.max_batch_size,
        prefill_chunk=flat.prefill_chunk,
        num_stages=2,
    )

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    def build(model: DecodeModel, num_chips: int, **kwargs) -> ContinuousEngine:
        return ContinuousEngine(
            model,
            chip=CHIP,
            num_chips=num_chips,
            constraints=constraints_for(quick),
            plan_cache=cache,
            **kwargs,
        )

    def make_workload(model: DecodeModel, unit: float, capacity: int):
        workload = decode_stream(
            model,
            unit,
            load=LOAD_FACTOR * capacity,
            slo_factor=SLO_FACTOR,
            num_requests=num_requests,
            interactive_fraction=INTERACTIVE_FRACTION,
        )
        span = num_requests / decode_rate(model, unit, LOAD_FACTOR * capacity)
        return workload, span

    def make_watchdog(unit: float) -> Watchdog:
        return Watchdog(
            detection_delay=DETECTION_UNITS * unit,
            degraded_shed_queue=DEGRADED_SHED_QUEUE,
        )

    # ---- flat fleet: 2 single-chip replicas, both always active ------ #
    flat_engines = {
        "flat/baseline": build(flat, 2, min_replicas=2),
        "flat/chaos": build(flat, 2, min_replicas=2),
    }
    warm_misses = {name: warm(cache, eng).misses for name, eng in flat_engines.items()}
    unit = flat_engines["flat/baseline"].iteration_latency(1)
    workload, span = make_workload(flat, unit, capacity=2)
    watchdog = make_watchdog(unit)
    flat_schedule = FaultSchedule.kill_and_restart(
        0, at=KILL_FRACTION * span, downtime=DOWNTIME_FRACTION * span
    )
    for name, schedule in (("flat/baseline", None), ("flat/chaos", flat_schedule)):
        rows.append(
            _scenario_rows(
                scenario=name,
                engine=flat_engines[name],
                workload=workload,
                num_requests=num_requests,
                schedule=schedule,
                watchdog=watchdog if schedule is not None else None,
                warm_compiles=warm_misses[name],
                dip_window=span / 10.0,
            )
        )

    # ---- sharded fleet: one 2-stage replica plus a spare chip -------- #
    engine = build(sharded, 3)
    warm_sharded = warm(cache, engine).misses
    unit = engine.iteration_latency(1)
    workload, span = make_workload(sharded, unit, capacity=1)
    kill_at = KILL_FRACTION * span
    schedule = FaultSchedule.kill_and_restart(
        1, at=kill_at, downtime=DOWNTIME_FRACTION * span
    ).merged(
        # A flapping link brackets the death: transfers between pipeline
        # stages run slower from just before the kill until well after
        # the failover, so recovery happens under degraded bandwidth.
        [
            link_degradation(
                kill_at - 0.05 * span, kill_at + 0.3 * span, LINK_FACTOR
            )
        ]
    )
    rows.append(
        _scenario_rows(
            scenario="sharded/chaos",
            engine=engine,
            workload=workload,
            num_requests=num_requests,
            schedule=schedule,
            watchdog=make_watchdog(unit),
            warm_compiles=warm_sharded,
            dip_window=span / 10.0,
        )
    )
    return rows


def main() -> None:
    """Print the chaos-replay grid (quick settings)."""
    print_table(
        run(quick=True),
        title="Figure 29: goodput under chip failure (deterministic chaos replay)",
    )


if __name__ == "__main__":
    main()
