"""Figure 16 (parallel): compile-time scaling of the parallel engine.

The paper bounds compile time with cost models and search constraints
(Figure 16); this companion sweep measures how much further wall-clock
compile time drops when the independent intra-operator Pareto searches fan
out over ``jobs`` workers (:mod:`repro.core.parallel`).  Each (model, batch)
is compiled once per ``jobs`` setting with a cold plan cache, and every
parallel compile is checked for plan divergence against the serial one — the
engine guarantees bit-for-bit identical output, and the experiment verifies
it on real workloads.
"""

from __future__ import annotations

import gc
import os
from typing import Sequence

from repro.core import T10Compiler, default_cost_model
from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.experiments.common import batch_sizes_for, build_workload, print_table
from repro.hw.spec import IPU_MK2, ChipSpec

#: Models swept by default: the transformer workload the speedup target is
#: defined on, plus one CNN-ish and one MLP workload for shape diversity.
DEFAULT_MODELS: tuple[str, ...] = ("bert", "vit", "nerf")

#: Worker counts swept (1 is the serial reference).
DEFAULT_JOBS_GRID: tuple[int, ...] = (1, 2, 4)


def run(
    *,
    chip: ChipSpec = IPU_MK2,
    models: Sequence[str] = DEFAULT_MODELS,
    batch_sizes: Sequence[int] | None = None,
    jobs_grid: Sequence[int] = DEFAULT_JOBS_GRID,
    constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    quick: bool = False,
) -> list[dict]:
    """One row per (model, batch, jobs) with compile time and divergence check.

    ``speedup_vs_serial`` is serial time / this row's time; ``plans_match``
    records whether the row's Pareto frontiers, schedule and program equal the
    serial compile's (always ``True`` unless the determinism guarantee is
    broken).
    """
    if not jobs_grid or min(jobs_grid) < 1:
        raise ValueError(f"jobs_grid entries must be >= 1, got {jobs_grid!r}")
    # The serial reference always runs first: it is the speedup denominator
    # and the divergence baseline for every other cell.
    grid = [1] + [j for j in dict.fromkeys(jobs_grid) if j != 1]
    cost_model = default_cost_model(chip)
    rows: list[dict] = []
    for model_name in models:
        if batch_sizes is not None:
            sizes: Sequence[int] = batch_sizes
        elif quick:
            sizes = (1,)
        else:
            sizes = batch_sizes_for(model_name, quick=quick)
        for batch in sizes:
            graph = build_workload(model_name, batch, quick=quick)
            reference = None
            serial_time = None
            for jobs in grid:
                # Untimed: collect the garbage of earlier cells first, so no
                # cell's time holds a collection another cell's allocations
                # triggered (a full one took 40-75 ms, half a BERT-large cell).
                gc.collect()
                # A fresh compiler per cell: each timing must start from a
                # cold intra-op cache, or later cells would measure lookups.
                compiled = T10Compiler(
                    chip, cost_model=cost_model, constraints=constraints, jobs=jobs
                ).compile(graph)
                if jobs == 1:
                    reference = compiled
                    serial_time = compiled.compile_time_seconds
                assert reference is not None and serial_time is not None
                rows.append(
                    {
                        "model": model_name,
                        "batch": batch,
                        "jobs": jobs,
                        "host_cpus": os.cpu_count() or 1,
                        "operators": len(graph),
                        "unique_operators": len(graph.unique_signatures()),
                        "compile_time_s": compiled.compile_time_seconds,
                        "speedup_vs_serial": serial_time
                        / max(compiled.compile_time_seconds, 1e-9),
                        "plans_match": compiled.pareto_plans == reference.pareto_plans
                        and compiled.schedule == reference.schedule
                        and compiled.program == reference.program,
                        "status": compiled.status,
                    }
                )
    return rows


def main() -> None:
    """Print the parallel compile-time sweep (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 16 (parallel): compile time vs jobs",
    )


if __name__ == "__main__":
    main()
