"""Figure 26 (extension): multi-chip pipeline-sharded execution.

The paper scales *within* one device (Figure 21's core counts and V-IPUs);
this experiment scales *across* chips with :mod:`repro.dist`: each model is
split into pipeline stages over a group of 1/2/4 chips, every stage is
compiled by the ordinary single-chip pipeline, and micro-batches stream
through the stage pipeline in virtual time.  Two headline effects:

* a model whose working set exceeds one chip's distributed SRAM (OPT-13B
  with two decoder layers) **OOMs on a single chip but serves once sharded
  across two or more**, and
* for a model that fits everywhere, **steady-state throughput rises
  monotonically with the chip count** at a fixed micro-batch count, because
  the pipeline bottleneck (slowest stage + its boundary transfer) shrinks.

Every cell is compiled twice with independent caches and compared
artefact-by-artefact (``plans_match``): stage plans inherit the bit-for-bit
determinism guarantee of :mod:`repro.core.parallel`.
"""

from __future__ import annotations

from repro.core import default_cost_model
from repro.dist import ShardedCompiler, ShardedModel
from repro.experiments.common import build_workload, print_table
from repro.experiments.serving_common import CHIP, constraints_for

#: (model, batch, num_layers override): one workload that fits a single chip
#: at every chip count, and one that only fits once sharded.
FIG26_WORKLOADS: tuple[tuple[str, int, int | None], ...] = (
    ("bert", 1, None),
    ("opt-13b", 8, 2),
)

#: Chip-group sizes swept (1 is the unsharded single-chip reference).
CHIP_COUNTS: tuple[int, ...] = (1, 2, 4)

#: Micro-batch counts streamed through the pipeline per cell: the full
#: grid, then the quick grid.
MICRO_BATCHES: tuple[int, ...] = (1, 8)
QUICK_MICRO_BATCHES: tuple[int, ...] = (8,)


def _row(
    model_name: str,
    batch: int,
    graph_ops: int,
    num_chips: int,
    micro: int,
    sharded: ShardedModel,
    plans_match: bool,
) -> dict:
    row: dict = {
        "model": model_name,
        "batch": batch,
        "operators": graph_ops,
        "chips": num_chips,
        "micro_batches": micro,
        "status": sharded.status,
        "stage_ops": "/".join(str(stage.num_ops) for stage in sharded.stages) or None,
        "latency_ms": None,
        "fill_ms": None,
        "drain_ms": None,
        "bottleneck_ms": None,
        "transfer_ms": None,
        "throughput_rps": None,
        "plans_match": plans_match,
        "compile_s": sharded.compile_seconds,
    }
    if sharded.ok:
        result = sharded.pipeline(micro)
        row.update(
            latency_ms=result.total_latency * 1e3,
            fill_ms=result.fill_time * 1e3,
            drain_ms=result.drain_time * 1e3,
            bottleneck_ms=result.bottleneck * 1e3,
            transfer_ms=sum(result.transfer_times) * 1e3,
            throughput_rps=result.throughput(batch),
        )
    return row


def run(*, quick: bool = False, jobs: int | None = 1) -> list[dict]:
    """One row per (workload, chip count, micro-batch count).

    ``throughput_rps`` is samples per virtual second over the whole
    pipelined execution (micro-batches × batch / end-to-end latency).
    Every (workload, chip count) is compiled a second time from a cold
    cache and compared stage-by-stage (``plans_match``) — the comparison
    holds for every ``jobs`` width, like fig16p.
    """
    constraints = constraints_for(quick)
    micro_batches = QUICK_MICRO_BATCHES if quick else MICRO_BATCHES
    cost_model = default_cost_model(CHIP)
    rows: list[dict] = []
    for model_name, batch, num_layers in FIG26_WORKLOADS:
        graph = build_workload(model_name, batch, quick=quick, num_layers=num_layers)
        # One compiler per workload: stage programs are cached under
        # stage-slice scoped keys, so different chip counts never collide
        # while intra-op searches of repeated layers are still shared.
        compiler = ShardedCompiler(
            CHIP, cost_model=cost_model, constraints=constraints, jobs=jobs
        )
        for num_chips in CHIP_COUNTS:
            sharded = compiler.compile(graph, num_chips)
            fresh = ShardedCompiler(
                CHIP, cost_model=cost_model, constraints=constraints, jobs=jobs
            )
            plans_match = sharded.plans_equal(fresh.compile(graph, num_chips))
            for micro in micro_batches:
                rows.append(
                    _row(
                        model_name,
                        batch,
                        len(graph),
                        num_chips,
                        micro,
                        sharded,
                        plans_match,
                    )
                )
    return rows


def main() -> None:
    """Print the multi-chip sharding sweep (quick grid)."""
    print_table(
        run(quick=True),
        title="Figure 26: pipeline-sharded execution across chips",
    )


if __name__ == "__main__":
    main()
