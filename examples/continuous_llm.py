"""Continuous-batching LLM serving: SLO-aware scheduling vs static batches.

Run with::

    python examples/continuous_llm.py

Replays one deterministic autoregressive workload — a mix of
deadline-carrying interactive requests and preemptible best-effort traffic,
with widely varying prompt lengths and output budgets — through both decode
engines on the same two-chip fleet.  The continuous engine admits requests
at decode-iteration boundaries (earliest deadline first), preempts
best-effort work when interactive traffic queues, sheds requests whose
projected completion already misses their deadline, and autoscales the
active fleet with queue depth; the static engine is the classic baseline
whose batches run until their longest member finishes.
"""

from __future__ import annotations

from repro.core.constraints import FAST_CONSTRAINTS
from repro.models import opt_decode_session
from repro.serving import (
    ContinuousEngine,
    DecodeModel,
    PlanCache,
    StaticEngine,
    decode_workload,
)


def main() -> None:
    model = DecodeModel(
        name="opt-125m",
        decode_builder=opt_decode_session("125m", num_layers=1, kv_len=256),
        max_batch_size=8,
        prefill_chunk=64,
    )
    # Both engines share one plan cache: each batch bucket compiles once and
    # every decode iteration afterwards is a cache hit.
    cache = PlanCache()
    continuous = ContinuousEngine(
        model, num_chips=2, constraints=FAST_CONSTRAINTS, plan_cache=cache
    )
    static = StaticEngine(
        model, num_chips=2, constraints=FAST_CONSTRAINTS, plan_cache=cache
    )

    # Offered load and deadlines in model-relative units: the batch-1
    # decode-iteration latency is the time unit (see fig27_continuous).
    unit = continuous.iteration_latency(1)
    mean_iterations = model.ideal_iterations(72, 26)  # mean prompt, mean output
    workload = decode_workload(
        model.name,
        num_requests=150,
        rate=10.0 * 2 / (mean_iterations * unit),
        seed=0,
        interactive_fraction=0.75,
        slo_seconds=lambda prompt, output: (
            1.5 * model.ideal_iterations(prompt, output) * unit
        ),
    )

    for engine in (static, continuous):
        report = engine.run(workload)
        print(report.summary())
        ttft = report.ttft_percentiles
        print(
            f"  goodput {report.goodput:.0f} req/s under SLO "
            f"(attainment {report.slo_attainment:.0%}), "
            f"TTFT p99 {ttft['p99'] * 1e3:.3f} ms\n"
        )

    print(
        "Continuous batching wins on goodput because retired slots are refilled "
        "at the next decode iteration and interactive requests are never stuck "
        "behind a long best-effort generation."
    )


if __name__ == "__main__":
    main()
