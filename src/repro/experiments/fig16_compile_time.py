"""Figure 16: T10 compilation time across models and batch sizes.

T10 avoids per-plan hardware profiling thanks to its cost model and search
constraints, so whole models compile in bounded time; this module records the
wall-clock compilation time of the reproduction's compiler for each workload.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import T10Compiler, default_cost_model
from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.experiments.common import batch_sizes_for, build_workload, print_table
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.models import DNN_MODELS


def run(
    *,
    chip: ChipSpec = IPU_MK2,
    models: Sequence[str] = DNN_MODELS,
    batch_sizes: Sequence[int] | None = None,
    constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    quick: bool = False,
    jobs: int | None = 1,
) -> list[dict]:
    """One row per (model, batch) with T10's compilation time.

    ``jobs`` selects the parallel-compilation width (identical programs, see
    :mod:`repro.core.parallel`); the fig16p sweep compares widths directly.
    """
    rows: list[dict] = []
    for model_name in models:
        sizes = batch_sizes if batch_sizes is not None else batch_sizes_for(model_name, quick=quick)
        for batch in sizes:
            graph = build_workload(model_name, batch, quick=quick)
            compiled = T10Compiler(
                chip,
                cost_model=default_cost_model(chip),
                constraints=constraints,
                jobs=jobs,
            ).compile(graph)
            rows.append(
                {
                    "model": model_name,
                    "batch": batch,
                    "operators": len(graph),
                    "unique_operators": len(graph.unique_signatures()),
                    "compile_time_s": compiled.compile_time_seconds,
                    "status": compiled.status,
                }
            )
    return rows


def main() -> None:
    """Print the Figure 16 compilation-time table (quick grid)."""
    print_table(run(quick=True), title="Figure 16: T10 compilation time (seconds)")


if __name__ == "__main__":
    main()
