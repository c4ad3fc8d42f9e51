"""Serving demo: two single-pass models on one fleet, cold then warm.

Run with::

    PYTHONPATH=src python examples/serve_demo.py

Deploys a truncated BERT encoder and a Llama2-7B decoder layer on a
two-chip IPU fleet as one-shot deployments: each request is one forward
pass, a one-token prompt with one output token.  The same mixed Poisson
workload is served twice, by two fleet engines sharing one plan cache.  The
first engine's warm-up compiles every batch bucket of both models; the
second finds them all in the cache and compiles nothing.  Neither run
compiles while serving, and both serve every request identically.
"""

from __future__ import annotations

from repro.core.constraints import FAST_CONSTRAINTS
from repro.experiments.common import print_table
from repro.hw.spec import IPU_MK2
from repro.models.registry import get_entry
from repro.serving import (
    DecodeModel,
    FleetEngine,
    PlanCache,
    check_report,
    decode_workload,
    merge_decode_workloads,
)

#: Served models and the registry keywords that truncate their stacks.
MODELS = {"bert": {"num_layers": 2}, "llama2-7b": {"num_layers": 1}}


def deployment(name: str) -> DecodeModel:
    builder, overrides = get_entry(name).builder, MODELS[name]
    return DecodeModel(name, lambda batch: builder(batch, **overrides), max_batch_size=8)


def serve(cache: PlanCache, label: str) -> None:
    engine = FleetEngine(
        [deployment(name) for name in MODELS],
        chip=IPU_MK2,
        num_chips=2,
        constraints=FAST_CONSTRAINTS,
        plan_cache=cache,
    )
    before = cache.stats.snapshot()
    engine.warm()
    warmed = cache.stats.since(before)
    # Offer each model twice its single-chip batch-1 capacity, so batches
    # form; each model is its own tenant, so the report slices per model.
    requests = merge_decode_workloads(
        *(
            decode_workload(
                name,
                num_requests=100,
                rate=2.0 / engine.iteration_latency(name, 1),
                seed=42 + index,
                prompt_tokens=(1, 1),
                output_tokens=(1, 1),
                interactive_fraction=0.0,
                tenant=name,
            )
            for index, name in enumerate(MODELS)
        )
    )
    report = engine.run(requests)
    assert check_report(report, requests) == []

    print(f"== {label} ==")
    print(
        f"warm-up: {warmed.misses} compiles ({warmed.compile_seconds:.2f}s), "
        f"{warmed.hits} cache hits; while serving: {report.cache.misses} compiles"
    )
    print_table(
        [
            {
                "model": name,
                "completed": scope.total_completed,
                "throughput_rps": scope.throughput,
                "p50_ms": scope.latency_percentiles["p50"] * 1e3,
                "p99_ms": scope.latency_percentiles["p99"] * 1e3,
            }
            for name, scope in report.per_tenant().items()
        ]
    )
    print(report.summary())
    print()


def main() -> None:
    cache = PlanCache()
    serve(cache, "First run: the warm-up compiles every batch bucket")
    serve(cache, "Second run: every bucket is already in the plan cache")


if __name__ == "__main__":
    main()
