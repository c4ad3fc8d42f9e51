"""Shared helpers for the per-figure experiment modules.

Every experiment module exposes ``run(...) -> list[dict]`` returning the rows
the corresponding paper figure/table plots, plus a ``main()`` that prints them
as an aligned text table.  ``quick=True`` shrinks the sweep (fewer batch
sizes, truncated transformer stacks) so the benchmark suite can regenerate
every figure in minutes; the default settings reproduce the full grids.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from repro.baselines import AnsorCompiler, PopARTCompiler, RollerCompiler
from repro.core import T10Compiler, default_cost_model
from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.ir.graph import OperatorGraph
from repro.models import build_model, get_entry
from repro.obs import (
    NULL_TRACER,
    Tracer,
    to_chrome_trace,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.runtime import EvaluationResult, Executor
from repro.serving.metrics import ContinuousReport, check_report
from repro.serving.request import DecodeRequest

#: Compiler display names in the order Figure 12 plots them.
COMPILER_ORDER: tuple[str, ...] = ("PopART", "Ansor", "Roller", "T10")

#: Transformer layer count used by quick-mode experiments.
QUICK_NUM_LAYERS = 2


@contextmanager
def trace_session(path: str | Path | None = None) -> Iterator[Tracer]:
    """Install an ambient tracer for the block and export it on exit.

    With ``path=None`` this is a no-op yielding the disabled tracer, so
    callers can wrap their run unconditionally (``--trace`` off costs
    nothing).  A ``.jsonl`` path writes the raw event log; any other path
    writes Chrome-trace JSON loadable in Perfetto, after a schema check that
    refuses (``ValueError``) to write a malformed export.  The export
    happens even when the block raises, so a failed run still leaves its
    partial trace.
    """
    if path is None:
        yield NULL_TRACER
        return
    tracer = Tracer()
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        out = Path(path)
        if out.suffix == ".jsonl":
            write_jsonl(tracer, out)
        else:
            problems = validate_chrome_trace(to_chrome_trace(tracer))
            if problems:
                raise ValueError(
                    f"refusing to write an invalid Chrome trace to {out}:\n"
                    + "\n".join(problems[:20])
                )
            write_chrome_trace(tracer, out)
        print(f"trace: wrote {out} ({len(tracer)} events)")


def checked(report: ContinuousReport, requests: Sequence[DecodeRequest]) -> ContinuousReport:
    """``report``, once :func:`~repro.serving.metrics.check_report` finds it
    balanced; a decode run that loses a request or mis-slices its books is
    a bug, so the figure refuses to plot it."""
    failures = check_report(report, requests)
    if failures:
        raise RuntimeError(f"{report.policy} run broke its invariants: {failures}")
    return report


def layer_overrides(
    model_name: str, *, quick: bool = False, num_layers: int | None = None
) -> dict[str, int]:
    """Registry-builder keywords that truncate a model's layer stack.

    ``num_layers`` overrides the layer count outright (it wins over the
    quick-mode truncation); otherwise quick runs keep two encoder layers
    and one decoder layer, and full runs keep the whole stack.
    """
    if num_layers is not None:
        return {"num_layers": num_layers}
    if quick and model_name.startswith(("bert", "vit")):
        return {"num_layers": QUICK_NUM_LAYERS}
    if quick and model_name.startswith(("opt", "llama")):
        return {"num_layers": 1}
    return {}


def build_workload(
    model_name: str,
    batch_size: int,
    *,
    quick: bool = False,
    num_layers: int | None = None,
) -> OperatorGraph:
    """Build a registered model, optionally truncated for quick runs.

    ``num_layers`` overrides the layer count outright — the multi-chip
    experiment uses it to build stacks that deliberately exceed one chip's
    SRAM (see :func:`layer_overrides`).
    """
    overrides = layer_overrides(model_name, quick=quick, num_layers=num_layers)
    return build_model(model_name, batch_size, **overrides)


def batch_sizes_for(model_name: str, *, quick: bool = False) -> tuple[int, ...]:
    """Batch sizes swept for one model (the registry grid, or its extremes)."""
    sizes = get_entry(model_name).batch_sizes
    if quick and len(sizes) > 2:
        return (sizes[0], sizes[-1])
    return sizes


#: T10 compiler instances are cached per (chip, constraints) so their
#: intra-operator plan caches persist across experiments — identical operators
#: appearing in several figures are searched only once, mirroring the paper's
#: note that per-operator plans are reused within and across models.
_T10_CACHE: dict[tuple, T10Compiler] = {}


def shared_t10_compiler(
    chip: ChipSpec,
    constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    *,
    jobs: int | None = 1,
) -> T10Compiler:
    """A cached T10 compiler for ``chip`` (plan cache shared across experiments).

    ``jobs`` selects the parallel-compilation width; compilers with different
    widths are cached separately (their plan searches produce identical
    results, but a sweep must not let one setting's warm cache serve another's
    timing run).
    """
    key = (chip.name, chip.num_cores, chip.sram_per_core, constraints, jobs)
    if key not in _T10_CACHE:
        _T10_CACHE[key] = T10Compiler(
            chip,
            cost_model=default_cost_model(chip),
            constraints=constraints,
            jobs=jobs,
        )
    return _T10_CACHE[key]


def make_compilers(
    chip: ChipSpec,
    *,
    names: Sequence[str] = COMPILER_ORDER,
    constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    jobs: int | None = 1,
) -> dict[str, object]:
    """Instantiate the requested compilers for one chip."""
    factories: dict[str, Callable[[], object]] = {
        "PopART": lambda: PopARTCompiler(chip),
        "Ansor": lambda: AnsorCompiler(chip),
        "Roller": lambda: RollerCompiler(chip),
        "T10": lambda: shared_t10_compiler(chip, constraints, jobs=jobs),
    }
    unknown = [name for name in names if name not in factories]
    if unknown:
        raise ValueError(f"unknown compilers {unknown}; known: {sorted(factories)}")
    return {name: factories[name]() for name in names}


def evaluate_workload(
    model_name: str,
    batch_size: int,
    *,
    chip: ChipSpec = IPU_MK2,
    compiler_names: Sequence[str] = COMPILER_ORDER,
    quick: bool = False,
    constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    jobs: int | None = 1,
) -> dict[str, EvaluationResult]:
    """Compile and simulate one workload with each requested compiler."""
    graph = build_workload(model_name, batch_size, quick=quick)
    executor = Executor(chip)
    compilers = make_compilers(
        chip, names=compiler_names, constraints=constraints, jobs=jobs
    )
    return {name: executor.evaluate(compiler, graph) for name, compiler in compilers.items()}


def latency_ms(result: EvaluationResult) -> float | None:
    """Latency in milliseconds, or ``None`` for models that did not fit."""
    return result.latency * 1e3 if result.ok else None


def format_value(value: object) -> str:
    """Render one table cell."""
    if value is None:
        return "x"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], *, title: str = "") -> str:
    """Format rows as an aligned text table (one line per row)."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[format_value(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(width) for col, width in zip(columns, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def print_table(rows: Sequence[Mapping[str, object]], *, title: str = "") -> None:
    """Print rows as an aligned text table."""
    print(format_table(rows, title=title))
