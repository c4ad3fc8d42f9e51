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

from repro.experiments.common import checked, print_table
from repro.experiments.serving_common import (
    CHIP,
    constraints_for,
    decode_stream,
    opt_deployment,
    warm,
)
from repro.serving import (
    POLICY_CONTINUOUS,
    POLICY_STATIC,
    ContinuousEngine,
    PlanCache,
    StaticEngine,
)

#: Fleet sizes compared.
FLEET_SIZES: tuple[int, ...] = (1, 2)

#: Offered load in multiples of the fleet's unbatched capacity, and
#: deadlines in multiples of each request's ideal service time.
LOAD_FACTOR = 10.0
SLO_FACTOR = 1.5

#: Share of requests that carry a deadline.
INTERACTIVE_FRACTION = 0.75

#: Decoder layers (``None``: the whole stack), KV length and requests per
#: run: the full grid, then the quick grid.
NUM_LAYERS, QUICK_NUM_LAYERS = None, 1
KV_LEN, QUICK_KV_LEN = 1024, 256
NUM_REQUESTS, QUICK_NUM_REQUESTS = 150, 120


def run(*, quick: bool = False, jobs: int = 1) -> list[dict]:
    """One row per (fleet size, batching policy) on an identical workload.

    Both policies share one plan cache, so each batch bucket compiles
    exactly once across the whole sweep (``warm_compiles`` is non-zero only
    for the very first engine) and every decode iteration is a cache hit
    (``recompiles`` is always zero).  All reported times are virtual, which
    makes rows bit-for-bit reproducible at any ``jobs`` width.
    """
    num_requests = QUICK_NUM_REQUESTS if quick else NUM_REQUESTS
    model = opt_deployment(
        num_layers=QUICK_NUM_LAYERS if quick else NUM_LAYERS,
        kv_len=QUICK_KV_LEN if quick else KV_LEN,
    )
    cache = PlanCache(jobs=jobs)
    rows: list[dict] = []
    for fleet in FLEET_SIZES:
        engines = {
            POLICY_STATIC: StaticEngine(
                model, chip=CHIP, num_chips=fleet,
                constraints=constraints_for(quick), plan_cache=cache,
            ),
            POLICY_CONTINUOUS: ContinuousEngine(
                model, chip=CHIP, num_chips=fleet,
                constraints=constraints_for(quick), plan_cache=cache,
            ),
        }
        warm_misses = {
            policy: warm(cache, engines[policy]).misses
            for policy in (POLICY_STATIC, POLICY_CONTINUOUS)
        }
        unit = engines[POLICY_CONTINUOUS].iteration_latency(1)
        # LOAD_FACTOR 1.0 saturates the fleet serving one request at a
        # time; batching raises capacity by up to max_batch_size, so
        # values around max_batch_size stress the scheduling policy.
        workload = decode_stream(
            model,
            unit,
            load=LOAD_FACTOR * fleet,
            slo_factor=SLO_FACTOR,
            num_requests=num_requests,
            interactive_fraction=INTERACTIVE_FRACTION,
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
                    "load_x": LOAD_FACTOR,
                    "slo_x": SLO_FACTOR,
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
    return rows


def main() -> None:
    """Print the continuous-vs-static sweep (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 27: continuous vs static batching (goodput under SLO)",
    )


if __name__ == "__main__":
    main()
