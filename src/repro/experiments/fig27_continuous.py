"""Figure 27 (extension): continuous vs static batching for LLM decode.

The fig25 serving experiment treats a model as a single forward pass per
request.  Autoregressive serving is different in kind: a request occupies a
batch slot for prefill plus one iteration per generated token, so the
batching policy decides whether short generations wait for long ones.  This
experiment replays one deterministic decode workload — mixed interactive
(deadline-carrying) and best-effort traffic with widely varying prompt
lengths and output budgets — through both engines of
:mod:`repro.serving.continuous` on the *same* fleet and the same per-bucket
compiled programs:

* **static** — FIFO batches that run until their longest member finishes
  (head-of-line blocking, deadline-blind), and
* **continuous** — iteration-level admission with EDF scheduling of
  interactive requests, preemption of best-effort traffic, load shedding of
  requests whose projected completion already misses their deadline, and
  queue-depth-driven replica autoscaling.

The headline claim mirrors the continuous-batching literature (Orca, vLLM):
at equal fleets, continuous batching achieves strictly higher
**goodput-under-SLO** — requests completed within their deadline per second
— because slots freed by retired requests are refilled immediately and
latency-sensitive work is never stuck behind a long best-effort generation.

Offered load and deadlines are expressed in model-relative units: the
batch-1 decode-iteration latency is the time unit, a request's *ideal
service time* is its iteration count at that unit, deadlines are
``slo_factor`` times ideal, and the arrival rate is ``load_factor`` times
the fleet's unbatched capacity (so both fleet sizes run saturated and the
batching policy is what differs).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.constraints import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
)
from repro.experiments.common import checked, print_table
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.models import opt_decode_session
from repro.serving import (
    POLICY_CONTINUOUS,
    POLICY_STATIC,
    ContinuousEngine,
    DecodeModel,
    PlanCache,
    StaticEngine,
    decode_workload,
)


def run(
    *,
    chip: ChipSpec = IPU_MK2,
    size: str = "125m",
    num_layers: int | None = None,
    kv_len: int = 1024,
    fleet_sizes: Sequence[int] = (1, 2),
    max_batch_size: int = 8,
    prefill_chunk: int = 64,
    num_requests: int = 150,
    load_factor: float = 10.0,
    slo_factor: float = 1.5,
    interactive_fraction: float = 0.75,
    prompt_tokens: tuple[int, int] = (16, 128),
    output_tokens: tuple[int, int] = (4, 48),
    constraints: SearchConstraints | None = None,
    quick: bool = False,
    jobs: int = 1,
    seed: int = 0,
) -> list[dict]:
    """One row per (fleet size, batching policy) on an identical workload.

    Both policies share one plan cache, so each batch bucket compiles
    exactly once across the whole sweep (``warm_compiles`` is non-zero only
    for the very first engine) and every decode iteration is a cache hit
    (``recompiles`` is always zero).  All reported times are virtual, which
    makes rows bit-for-bit reproducible at any ``jobs`` width.
    """
    if constraints is None:
        constraints = FAST_CONSTRAINTS if quick else DEFAULT_CONSTRAINTS
    if quick:
        num_layers = 1 if num_layers is None else num_layers
        kv_len = min(kv_len, 256)
        num_requests = min(num_requests, 120)
        fleet_sizes = tuple(fleet_sizes)[:2]
    model = DecodeModel(
        name=f"opt-{size}",
        decode_builder=opt_decode_session(size, num_layers=num_layers, kv_len=kv_len),
        max_batch_size=max_batch_size,
        prefill_chunk=prefill_chunk,
    )

    ideal_iterations = model.ideal_iterations
    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    try:
        for fleet in fleet_sizes:
            engines = {
                POLICY_STATIC: StaticEngine(
                    model, chip=chip, num_chips=fleet, constraints=constraints,
                    plan_cache=cache,
                ),
                POLICY_CONTINUOUS: ContinuousEngine(
                    model, chip=chip, num_chips=fleet, constraints=constraints,
                    plan_cache=cache,
                ),
            }
            warm_misses: dict[str, int] = {}
            for policy in (POLICY_STATIC, POLICY_CONTINUOUS):
                before = cache.stats.snapshot()
                engines[policy].warm()
                warm_misses[policy] = cache.stats.since(before).misses
            unit = engines[POLICY_CONTINUOUS].iteration_latency(1)
            mean_iterations = ideal_iterations(
                (prompt_tokens[0] + prompt_tokens[1]) // 2,
                (output_tokens[0] + output_tokens[1]) // 2,
            )
            # load_factor 1.0 saturates the fleet serving one request at a
            # time; batching raises capacity by up to max_batch_size, so
            # values around max_batch_size stress the scheduling policy.
            rate = load_factor * fleet / (mean_iterations * unit)
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
            for policy in (POLICY_STATIC, POLICY_CONTINUOUS):
                report = checked(engines[policy].run(workload), workload)
                ttft = report.ttft_percentiles
                tpot = report.tpot_percentiles
                tails = report.latency_percentiles
                rows.append(
                    {
                        "model": model.name,
                        "policy": policy,
                        "chips": fleet,
                        "load_x": load_factor,
                        "slo_x": slo_factor,
                        "requests": num_requests,
                        "completed": report.total_completed,
                        "shed": report.shed,
                        "preempted": report.preemptions,
                        "slo_met": report.slo_met,
                        "tokens": report.total_tokens,
                        "iterations": report.iterations,
                        "scale_ups": report.scale_ups,
                        "scale_downs": report.scale_downs,
                        "goodput_rps": report.goodput,
                        "throughput_rps": report.throughput,
                        "token_tps": report.token_throughput,
                        "ttft_p50_ms": ttft["p50"] * 1e3,
                        "ttft_p99_ms": ttft["p99"] * 1e3,
                        "tpot_p99_ms": tpot["p99"] * 1e3,
                        "latency_p99_ms": tails["p99"] * 1e3,
                        "slo_attainment": report.slo_attainment,
                        "utilization": report.utilization,
                        "mean_active_chips": report.mean_active_chips,
                        "peak_active_chips": report.peak_active_chips,
                        "warm_compiles": warm_misses[policy],
                        "recompiles": report.cache.misses,
                    }
                )
    finally:
        cache.close()
    return rows


def main() -> None:
    """Print the continuous-vs-static sweep (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 27: continuous vs static batching (goodput under SLO)",
    )


if __name__ == "__main__":
    main()
