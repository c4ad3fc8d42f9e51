"""Figure 25 (extension): serving throughput/latency on a multi-chip fleet.

This experiment goes beyond the paper's single-model, single-chip latency
measurements: it serves Poisson request streams for several registered
models through the :mod:`repro.serving` subsystem, sweeping **offered load ×
fleet size × batch window**, and reports throughput, tail latency, queueing
and plan-cache behaviour.  Two effects it demonstrates:

* the plan cache collapses steady-state compile cost to zero — after the
  warmup of each configuration every batch is a cache hit, and
* dynamic batching raises throughput with the batch window until the chip
  saturates, at the price of added queueing latency.

Models differ in per-batch latency by orders of magnitude, so offered load
and batch window are expressed in *model-relative* units: the load factor
multiplies the model's single-chip batch-1 capacity (``1 / batch-1
latency``) and the window factor multiplies its batch-1 latency.  A load
factor above 1 therefore saturates a single chip for every model.
"""

from __future__ import annotations

from repro.experiments.common import layer_overrides, print_table
from repro.experiments.serving_common import CHIP, SEED, constraints_for, warm
from repro.serving import (
    PlanCache,
    ServedModel,
    ServingScheduler,
    poisson_workload,
)

#: The serving workload mix: one encoder, one CNN, one LLM decoder stack.
SERVING_MODELS: tuple[str, ...] = ("bert", "resnet", "llama2-7b")

#: Batch windows swept, in multiples of the model's batch-1 latency.
WINDOW_FACTORS: tuple[float, ...] = (0.5, 2.0, 8.0)

#: Largest batch a model is served at.
MAX_BATCH_SIZE = 8

#: Fleet sizes, offered loads (multiples of one chip's batch-1 capacity)
#: and requests per configuration: the full grid, then the quick grid.
#: The quick grid keeps only the saturating load: the batching effect on
#: throughput is invisible while the fleet is arrival-limited.
FLEET_SIZES, QUICK_FLEET_SIZES = (1, 2, 4), (1, 2)
LOAD_FACTORS, QUICK_LOAD_FACTORS = (0.8, 4.0), (4.0,)
NUM_REQUESTS, QUICK_NUM_REQUESTS = 200, 100


def run(*, quick: bool = False) -> list[dict]:
    """One row per (model, fleet size, batch window, offered load).

    A single plan cache is shared by every configuration, so each
    (model, batch bucket) compiles exactly once — the ``warm_compiles``
    column is non-zero only the first time a model appears, and the
    ``recompiles`` column (misses during serving) is always zero.
    """
    fleet_sizes = QUICK_FLEET_SIZES if quick else FLEET_SIZES
    load_factors = QUICK_LOAD_FACTORS if quick else LOAD_FACTORS
    num_requests = QUICK_NUM_REQUESTS if quick else NUM_REQUESTS
    cache = PlanCache()
    rows: list[dict] = []
    for model_name in SERVING_MODELS:
        served = ServedModel.from_registry(
            model_name,
            max_batch_size=MAX_BATCH_SIZE,
            **layer_overrides(model_name, quick=quick),
        )
        for fleet in fleet_sizes:
            for window_factor in WINDOW_FACTORS:
                for load_factor in load_factors:
                    scheduler = ServingScheduler(
                        [served],
                        chip=CHIP,
                        num_chips=fleet,
                        batch_window=1.0,  # placeholder, set below
                        constraints=constraints_for(quick),
                        plan_cache=cache,
                    )
                    warmed = warm(cache, scheduler)
                    # Model-relative units: batch-1 latency sets the scale of
                    # both the offered load and the batch window.
                    unit = scheduler.batch_latency(model_name, 1)
                    scheduler.batch_window = window_factor * unit
                    offered = load_factor / unit
                    requests = poisson_workload(
                        {model_name: offered}, num_requests=num_requests, seed=SEED
                    )
                    report = scheduler.serve(requests)
                    stats = report.per_model[model_name]
                    tails = report.overall_percentiles
                    rows.append(
                        {
                            "model": model_name,
                            "chips": fleet,
                            "load_x": load_factor,
                            "window_x": window_factor,
                            "offered_rps": offered,
                            "window_ms": scheduler.batch_window * 1e3,
                            "completed": stats.completed,
                            "throughput_rps": report.overall_throughput,
                            "p50_ms": tails["p50"] * 1e3,
                            "p99_ms": tails["p99"] * 1e3,
                            "mean_batch": stats.mean_batch_size,
                            "utilization": report.utilization,
                            "max_queue": report.max_queue_depth,
                            "warm_compiles": warmed.misses,
                            "warm_compile_s": warmed.compile_seconds,
                            "recompiles": report.recompilations,
                            "hit_rate": report.cache_hit_rate,
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
