"""Compile-time micro-benchmark: the tracked point of the perf trajectory.

``python -m repro.bench`` times full-graph compiles of registry models through
the serving plan cache and records, per model:

* wall-clock compile time (cold) and cache-hit lookup time (warm),
* the streaming search's sketch/materialize accounting — candidates sketched,
  feasible candidates evaluated, plans the compile fully built (the ones its
  schedule picks) — and the resulting materialization ratio (how many full
  ``build_plan`` constructions the compile avoided versus the eager search),
  and
* optionally a *before/after* comparison against the eager reference search
  (Figure 18-style accounting): its wall time, its materialization count, and
  a frontier-equality check proving the streaming search lost nothing.

The result is written to ``BENCH_compile.json``; successive runs of the same
configuration are the repo's compile-time trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core import (
    DEFAULT_CONSTRAINTS,
    FAST_CONSTRAINTS,
    SearchConstraints,
    T10Compiler,
    default_cost_model,
)
from repro.experiments.common import build_workload
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.serving.plan_cache import CacheStats, PlanCache

#: Models benchmarked by default: the two compile-time workloads plus the
#: smallest end-to-end model as a floor reference.
DEFAULT_BENCH_MODELS: tuple[str, ...] = ("opt-125m", "bert-base", "nerf")

#: Schema version of ``BENCH_compile.json`` (bump on breaking row changes).
SCHEMA_VERSION = 1


@dataclass
class BenchConfig:
    """Knobs of one benchmark run."""

    models: Sequence[str] = DEFAULT_BENCH_MODELS
    batch_size: int = 1
    quick: bool = False
    """Truncate transformer stacks and use the fast constraint setting."""
    jobs: int = 1
    reference: bool = True
    """Also run the eager reference search (the before/after accounting)."""
    chip: ChipSpec = IPU_MK2
    constraints: SearchConstraints | None = None
    """Explicit constraint setting; defaults to FAST (quick) / DEFAULT."""
    output: Path | str | None = "BENCH_compile.json"

    def resolved_constraints(self) -> SearchConstraints:
        if self.constraints is not None:
            return self.constraints
        return FAST_CONSTRAINTS if self.quick else DEFAULT_CONSTRAINTS


@dataclass
class BenchReport:
    """All rows of one run plus the derived totals."""

    config_label: str
    rows: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "benchmark": "compile",
            "schema_version": SCHEMA_VERSION,
            "config": self.config_label,
            "host": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
            },
            "rows": self.rows,
            "totals": self.totals,
        }


def _bench_model(
    model: str,
    config: BenchConfig,
    cache: PlanCache,
) -> dict:
    """Benchmark one model's compile through its (fresh) plan cache.

    The cache must be model-private: a shared cache would memoise one
    compiler whose operator-signature cache bleeds across models, making a
    later model's dispatched-search accounting cover only the signatures the
    earlier models did not already search.
    """
    graph = build_workload(model, config.batch_size, quick=config.quick)
    constraints = config.resolved_constraints()

    start = time.perf_counter()
    cold = cache.get_or_compile(graph, config.chip, constraints)
    cold_seconds = time.perf_counter() - start
    compiled = cold.compiled

    start = time.perf_counter()
    warm = cache.get_or_compile(graph, config.chip, constraints)
    warm_seconds = time.perf_counter() - start
    delta = cache.stats.snapshot()

    evaluated = compiled.evaluated_candidates
    materialized = compiled.materialized_plans
    row = {
        "model": model,
        "batch": config.batch_size,
        "status": compiled.status,
        "operators": len(graph),
        "unique_operators": compiled.unique_operators,
        "dispatched_searches": compiled.dispatched_searches,
        "compile_seconds": round(cold_seconds, 4),
        "sketched": compiled.sketched_candidates,
        "evaluated": evaluated,
        "materialized": materialized,
        "materialization_ratio": round(evaluated / materialized, 2) if materialized else None,
        # Counted from the stats: reading ``compiled.pareto_plans`` would
        # build every frontier plan inside the timed compile.
        "pareto_plans": sum(stats.optimized for stats in compiled.search_stats.values()),
        "cache_outcome_cold": cold.outcome,
        "cache_outcome_warm": warm.outcome,
        "cache_hit_seconds": round(warm_seconds, 6),
        "cache_hits": delta.hits,
    }

    if config.reference:
        # Before/after accounting (Figure 18-style): rerun every unique
        # operator through the eager search on a fresh optimizer and check
        # the streaming frontier is bit-identical.
        reference = T10Compiler(
            config.chip,
            cost_model=default_cost_model(config.chip),
            constraints=constraints,
        )
        seen: set[tuple] = set()
        ref_materialized = 0
        # None (not true) for failed compiles: there is no frontier to verify.
        frontier_match: bool | None = True if compiled.status == "ok" else None
        start = time.perf_counter()
        for operator in graph.operators:
            signature = operator.signature()
            if signature in seen:
                continue
            seen.add(signature)
            plans, stats = reference.intra_op.search_reference(operator)
            ref_materialized += stats.materialized
            if frontier_match and plans != compiled.pareto_plans.get(operator.name):
                frontier_match = False
        ref_seconds = time.perf_counter() - start
        row.update(
            reference_search_seconds=round(ref_seconds, 4),
            reference_materialized=ref_materialized,
            materialized_reduction=(
                round(ref_materialized / materialized, 2) if materialized else None
            ),
            frontier_match=frontier_match,
        )
    return row


def run_bench(config: BenchConfig) -> BenchReport:
    """Run the compile-time benchmark and (optionally) write the JSON report."""
    label = "quick" if config.quick else "full"
    report = BenchReport(config_label=label)
    # One fresh plan cache per model: every compile is genuinely cold (no
    # operator-signature reuse across models), so each row's accounting spans
    # all of that model's unique operators.
    cache_totals = CacheStats()
    for model in config.models:
        cache = PlanCache(jobs=config.jobs)
        report.rows.append(_bench_model(model, config, cache))
        stats = cache.stats
        cache_totals = CacheStats(
            hits_memory=cache_totals.hits_memory + stats.hits_memory,
            hits_disk=cache_totals.hits_disk + stats.hits_disk,
            misses=cache_totals.misses + stats.misses,
            compile_seconds=cache_totals.compile_seconds + stats.compile_seconds,
            saved_seconds=cache_totals.saved_seconds + stats.saved_seconds,
            sketched_candidates=cache_totals.sketched_candidates
            + stats.sketched_candidates,
            materialized_plans=cache_totals.materialized_plans
            + stats.materialized_plans,
        )

    # All rows count, failed compiles included — the search work ran either
    # way, and the cache counters in the same report say so.
    total_evaluated = sum(row["evaluated"] for row in report.rows)
    total_materialized = sum(row["materialized"] for row in report.rows)
    report.totals = {
        "models": len(report.rows),
        "compile_seconds": round(sum(row["compile_seconds"] for row in report.rows), 4),
        "sketched": sum(row["sketched"] for row in report.rows),
        "evaluated": total_evaluated,
        "materialized": total_materialized,
        "materialization_ratio": (
            round(total_evaluated / total_materialized, 2) if total_materialized else None
        ),
        "cache": cache_totals.as_dict(),
    }

    if config.output is not None:
        path = Path(config.output)
        path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return report
