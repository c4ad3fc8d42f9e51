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

import math

from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
)
from repro.experiments.common import checked, print_table
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.models import opt_decode_session
from repro.serving import (
    ContinuousEngine,
    DecodeModel,
    FaultSchedule,
    PlanCache,
    Watchdog,
    decode_workload,
    dip_and_recovery,
    link_degradation,
)


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
    fault_time = schedule.first_death_time if schedule is not None else math.inf
    if math.isfinite(fault_time):
        baseline, dip_depth, recovery = dip_and_recovery(
            report.completed, fault_time=fault_time, window=dip_window
        )
    else:
        baseline, dip_depth, recovery = float("nan"), 0.0, 0.0
    # NaN (nothing completed before the fault) becomes None so rows stay
    # comparable with plain ``==`` (the reproducibility tests rely on it).
    def clean(value: float) -> float | None:
        return None if math.isnan(value) else value

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
        "pre_fault_goodput_rps": clean(baseline),
        "dip_depth": clean(dip_depth),
        "recovery_ms": recovery * 1e3 if math.isfinite(recovery) else float("inf"),
        "warm_compiles": warm_compiles,
        "recompiles": report.cache.misses,
        "restart_compile_s": faults.restart_compile_seconds,
    }


def run(
    *,
    chip: ChipSpec = IPU_MK2,
    size: str = "125m",
    num_layers: int | None = None,
    kv_len: int = 1024,
    max_batch_size: int = 8,
    prefill_chunk: int = 64,
    num_requests: int = 120,
    load_factor: float = 8.0,
    slo_factor: float = 2.0,
    interactive_fraction: float = 0.6,
    kill_fraction: float = 0.4,
    downtime_fraction: float = 0.2,
    detection_units: float = 2.0,
    degraded_shed_queue: int = 2,
    link_factor: float = 2.5,
    constraints: SearchConstraints | None = None,
    quick: bool = False,
    jobs: int = 1,
    seed: int = 0,
) -> list[dict]:
    """One row per chaos scenario on an identical arrival process.

    The kill lands ``kill_fraction`` of the way through the arrival span and
    the chip stays down for ``downtime_fraction`` of it, so the fault always
    strikes a busy fleet and the restart always lands while requests are
    still arriving, regardless of model size; the watchdog's
    ``detection_units`` is in units of the batch-1 decode-iteration latency
    (a heartbeat interval).  All reported times are virtual except
    ``restart_compile_s`` (the wall-clock cost of re-warming a cold plan
    cache after a restart), which never enters virtual time — rows are
    bit-for-bit reproducible at any ``jobs`` width.
    """
    if constraints is None:
        constraints = FAST_CONSTRAINTS if quick else DEFAULT_CONSTRAINTS
    if quick:
        num_layers = 1 if num_layers is None else num_layers
        kv_len = min(kv_len, 256)
        num_requests = min(num_requests, 90)
    flat = DecodeModel(
        name=f"opt-{size}",
        decode_builder=opt_decode_session(size, num_layers=num_layers, kv_len=kv_len),
        max_batch_size=max_batch_size,
        prefill_chunk=prefill_chunk,
    )
    sharded = DecodeModel(
        name=f"opt-{size}-2stage",
        decode_builder=flat.decode_builder,
        max_batch_size=max_batch_size,
        prefill_chunk=prefill_chunk,
        num_stages=2,
    )
    ideal_iterations = flat.ideal_iterations
    prompt_tokens, output_tokens = (16, 128), (4, 48)

    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    try:
        def build(model: DecodeModel, num_chips: int, **kwargs) -> ContinuousEngine:
            return ContinuousEngine(
                model,
                chip=chip,
                num_chips=num_chips,
                constraints=constraints,
                plan_cache=cache,
                **kwargs,
            )

        def measure_warm(engine: ContinuousEngine) -> int:
            before = cache.stats.snapshot()
            engine.warm()
            return cache.stats.since(before).misses

        def make_workload(model: DecodeModel, unit: float, capacity: int):
            mean_iterations = ideal_iterations(
                (prompt_tokens[0] + prompt_tokens[1]) // 2,
                (output_tokens[0] + output_tokens[1]) // 2,
            )
            rate = load_factor * capacity / (mean_iterations * unit)
            workload = decode_workload(
                model.name,
                num_requests=num_requests,
                rate=rate,
                seed=seed,
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
                interactive_fraction=interactive_fraction,
                slo_seconds=lambda prompt, output: (
                    slo_factor * ideal_iterations(prompt, output) * unit
                ),
            )
            return workload, num_requests / rate

        # ---- flat fleet: 2 single-chip replicas, both always active ------ #
        flat_engines = {
            "flat/baseline": build(flat, 2, min_replicas=2),
            "flat/chaos": build(flat, 2, min_replicas=2),
        }
        warm = {name: measure_warm(eng) for name, eng in flat_engines.items()}
        unit = flat_engines["flat/baseline"].iteration_latency(1)
        workload, span = make_workload(flat, unit, capacity=2)
        watchdog = Watchdog(
            detection_delay=detection_units * unit,
            degraded_shed_queue=degraded_shed_queue,
        )
        flat_schedule = FaultSchedule.kill_and_restart(
            0, at=kill_fraction * span, downtime=downtime_fraction * span
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
                    warm_compiles=warm[name],
                    dip_window=span / 10.0,
                )
            )

        # ---- sharded fleet: one 2-stage replica plus a spare chip -------- #
        engine = build(sharded, 3)
        warm_sharded = measure_warm(engine)
        unit = engine.iteration_latency(1)
        workload, span = make_workload(sharded, unit, capacity=1)
        kill_at = kill_fraction * span
        schedule = FaultSchedule.kill_and_restart(
            1, at=kill_at, downtime=downtime_fraction * span
        ).merged(
            # A flapping link brackets the death: transfers between pipeline
            # stages run slower from just before the kill until well after
            # the failover, so recovery happens under degraded bandwidth.
            [
                link_degradation(
                    kill_at - 0.05 * span, kill_at + 0.3 * span, link_factor
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
                watchdog=Watchdog(
                    detection_delay=detection_units * unit,
                    degraded_shed_queue=degraded_shed_queue,
                ),
                warm_compiles=warm_sharded,
                dip_window=span / 10.0,
            )
        )
    finally:
        cache.close()
    return rows


def main() -> None:
    """Print the chaos-replay grid (quick settings)."""
    print_table(
        run(quick=True),
        title="Figure 29: goodput under chip failure (deterministic chaos replay)",
    )


if __name__ == "__main__":
    main()
