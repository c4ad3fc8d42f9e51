"""Figure 25 (extension): serving throughput/latency on a multi-chip fleet.

This experiment goes beyond the paper's single-model, single-chip latency
measurements: it serves Poisson request streams for several registered
models on :class:`~repro.serving.StaticEngine`, sweeping **offered load ×
fleet size × batch window**, and reports throughput, tail latency, batching
and plan-cache behaviour.  Each request is one forward pass: a one-token
prompt and one output token, so every batch is a single iteration of the
model's bucketed program.  Two effects it demonstrates:

* the plan cache collapses steady-state compile cost to zero — each model's
  batch buckets compile once, on its first configuration, and no run
  compiles again, and
* a batch window trades latency for batch size.  The engine is
  work-conserving: a free replica facing less than a full batch waits for
  the window of its oldest queued request, so a wider window grows batches
  and lowers utilization, and below saturation it costs median latency.
  Throughput does not rise with the window: a saturated chip already runs
  full batches, and an unsaturated one serves what arrives.

Models differ in per-batch latency by orders of magnitude, so offered load
and batch window are expressed in *model-relative* units: the load factor
multiplies the model's single-chip batch-1 capacity (``1 / batch-1
latency``) and the window factor multiplies its batch-1 latency.  A load
factor above 1 therefore saturates a single chip for every model.
"""

from __future__ import annotations

import itertools

from repro.experiments.common import checked, layer_overrides, print_table
from repro.experiments.serving_common import CHIP, SEED, constraints_for
from repro.models.registry import get_entry
from repro.serving import DecodeModel, PlanCache, StaticEngine, decode_workload

#: The serving workload mix: one encoder, one CNN, one LLM decoder stack.
SERVING_MODELS: tuple[str, ...] = ("bert", "resnet", "llama2-7b")

#: Batch windows swept, in multiples of the model's batch-1 latency.
WINDOW_FACTORS: tuple[float, ...] = (0.0, 0.5, 2.0, 8.0)

#: Largest batch a model is served at.
MAX_BATCH_SIZE = 8

#: Fleet sizes, offered loads (multiples of one chip's batch-1 capacity)
#: and requests per configuration: the full grid, then the quick grid.
FLEET_SIZES, QUICK_FLEET_SIZES = (1, 2, 4), (1, 2)
LOAD_FACTORS = (0.8, 4.0)
NUM_REQUESTS, QUICK_NUM_REQUESTS = 200, 100


def deployment(model_name: str, *, quick: bool) -> DecodeModel:
    """A registry model served one forward pass per request."""
    builder = get_entry(model_name).builder
    overrides = layer_overrides(model_name, quick=quick)
    return DecodeModel(
        name=model_name,
        decode_builder=lambda batch: builder(batch, **overrides),
        max_batch_size=MAX_BATCH_SIZE,
    )


def run(*, quick: bool = False) -> list[dict]:
    """One row per (model, fleet size, batch window, offered load).

    A single plan cache is shared by every configuration, so each
    (model, batch bucket) compiles exactly once — the ``warm_compiles``
    column is non-zero only on a model's first configuration, and the
    ``recompiles`` column (misses during serving) is always zero.  All
    reported times are virtual, so rows are bit-for-bit reproducible at any
    compilation parallelism.
    """
    fleet_sizes = QUICK_FLEET_SIZES if quick else FLEET_SIZES
    num_requests = QUICK_NUM_REQUESTS if quick else NUM_REQUESTS
    cache = PlanCache()
    rows: list[dict] = []
    for model_name in SERVING_MODELS:
        model = deployment(model_name, quick=quick)
        before = cache.stats.snapshot()
        # Model-relative units: batch-1 latency sets the scale of both
        # the offered load and the batch window.  Measuring it compiles
        # the model's buckets, charged to its first configuration.
        unit = StaticEngine(
            model, chip=CHIP, constraints=constraints_for(quick), plan_cache=cache
        ).iteration_latency(1)
        for fleet, window_factor, load_factor in itertools.product(
            fleet_sizes, WINDOW_FACTORS, LOAD_FACTORS
        ):
            engine = StaticEngine(
                model,
                chip=CHIP,
                num_chips=fleet,
                constraints=constraints_for(quick),
                plan_cache=cache,
                batch_window=window_factor * unit,
            )
            engine.warm()
            warmed = cache.stats.since(before)
            before = cache.stats.snapshot()
            offered = load_factor / unit
            requests = decode_workload(
                model_name,
                num_requests=num_requests,
                rate=offered,
                seed=SEED,
                prompt_tokens=(1, 1),
                output_tokens=(1, 1),
                interactive_fraction=0.0,
            )
            report = checked(engine.run(requests), requests)
            tails = report.latency_percentiles
            rows.append(
                {
                    "model": model_name,
                    "chips": fleet,
                    "load_x": load_factor,
                    "window_x": window_factor,
                    "offered_rps": offered,
                    "window_ms": engine.batch_window * 1e3,
                    "completed": report.total_completed,
                    "throughput_rps": report.throughput,
                    "p50_ms": tails["p50"] * 1e3,
                    "p99_ms": tails["p99"] * 1e3,
                    "batches": report.iterations,
                    "mean_batch": report.total_completed / report.iterations,
                    "utilization": report.utilization,
                    "warm_compiles": warmed.misses,
                    "warm_compile_s": warmed.compile_seconds,
                    "recompiles": report.cache.misses,
                }
            )
    return rows


def main() -> None:
    """Print the serving sweep (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 25: serving throughput vs fleet size and batch window",
    )


if __name__ == "__main__":
    main()
