"""The T10 compiler front door.

``T10Compiler.compile`` runs the full pipeline of the paper on an operator
graph (``compile_many`` on several, searching their operators as one batch):

1. fit (or reuse) the cost model against the target chip,
2. search Pareto-optimal compute-shift plans per operator (§4.3.1),
3. reconcile memory across operators to pick idle/active plans (§4.3.2),
4. generate the device program (§4.4).

The result is a :class:`CompiledModel` carrying the program, the schedule,
per-operator plan frontiers, search-space statistics and the compile time —
everything the evaluation figures need.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.codegen import generate_program
from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.core.cost_model import CostModel
from repro.core.inter_op import InterOpScheduler, ModelSchedule
from repro.core.intra_op import IntraOpOptimizer, SearchSpaceStats
from repro.core.parallel import GraphSearchResult, ParallelCompilationEngine
from repro.core.plan import OperatorPlan, PlanFrontier
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.program import DeviceProgram
from repro.hw.spec import IPU_MK2, ChipSpec
from repro.ir.graph import OperatorGraph
from repro.ir.operator import Operator
from repro.obs.trace import get_tracer

#: Cost models are expensive enough to fit that sharing them across compiler
#: instances targeting the same chip is worthwhile (they are deterministic).
#: Compiles may run on several threads (the plan cache is thread-safe), so
#: this cache is guarded by a lock; fitting happens outside it (a duplicate
#: concurrent fit is wasted work but harmless — both threads produce the
#: same model).
_COST_MODEL_CACHE: dict[tuple[str, int], CostModel] = {}
_COST_MODEL_LOCK = threading.Lock()


def default_cost_model(chip: ChipSpec) -> CostModel:
    """Fitted cost model for ``chip``, cached per chip configuration."""
    key = (chip.name, chip.num_cores)
    with _COST_MODEL_LOCK:
        model = _COST_MODEL_CACHE.get(key)
    if model is None:
        model = CostModel.fit(chip)
        with _COST_MODEL_LOCK:
            model = _COST_MODEL_CACHE.setdefault(key, model)
    return model


@dataclass
class CompiledModel:
    """Result of compiling one operator graph for one chip."""

    graph: OperatorGraph
    chip: ChipSpec
    status: str
    program: DeviceProgram | None = None
    schedule: ModelSchedule | None = None
    frontiers: dict[str, PlanFrontier] = field(
        default_factory=dict, repr=False, compare=False
    )
    """Per-operator Pareto frontiers as reconciliation read them: sketches,
    of which only the scheduled members are built (see :attr:`pareto_plans`)."""
    search_stats: dict[str, SearchSpaceStats] = field(default_factory=dict)
    compile_time_seconds: float = 0.0
    """Wall-clock seconds of this graph's compile.  A graph compiled alone
    owns its whole compile.  In a batch (:meth:`T10Compiler.compile_many`)
    it owns its reconcile and codegen plus a share of the batch's shared
    plan search, in proportion to the candidates its own fresh searches
    sketched (equal shares when none did), so the times of a batch sum to
    its wall time."""
    error: str = ""
    unique_operators: int = 0
    """Distinct operator signatures in the graph (searched at most once)."""
    dispatched_searches: int = 0
    """Fresh plan searches this compile ran (signature-cache misses)."""
    sketched_candidates: int = 0
    """Plan candidates sketched across the fresh searches."""
    evaluated_candidates: int = 0
    """Feasible candidates sketched (the eager search would build them all)."""
    materialized_plans: int = 0
    """Plans this compile built: the idle and active plans its schedule picks
    that no earlier compile had built, plus eagerly built library plans."""

    @property
    def pareto_plans(self) -> dict[str, list[OperatorPlan]]:
        """Per-operator Pareto plans in graph order, built on first access.

        Operators of one signature share one list.  Building every frontier
        member costs far more than the compile's schedule-only builds, so
        the compiler itself never reads this.
        """
        return {name: frontier.plans() for name, frontier in self.frontiers.items()}

    @property
    def ok(self) -> bool:
        """Whether compilation produced a runnable program."""
        return self.status == "ok" and self.program is not None

    def plan_for(self, op_name: str) -> OperatorPlan:
        """Active execution plan chosen for one operator."""
        if self.schedule is None:
            raise RuntimeError("model did not compile successfully")
        return self.schedule.per_op[op_name].active_plan

    def summary(self) -> str:
        """One-paragraph description of the compilation result."""
        if not self.ok:
            return f"{self.graph.name} on {self.chip.name}: {self.status} ({self.error})"
        assert self.schedule is not None and self.program is not None
        return (
            f"{self.graph.name} on {self.chip.name}: {len(self.graph)} operators, "
            f"{len(self.program)} program steps, "
            f"idle memory {self.schedule.idle_memory_per_core / 1024:.1f} KiB/core, "
            f"estimated {self.schedule.est_total_time * 1e3:.3f} ms, "
            f"compiled in {self.compile_time_seconds:.2f}s"
        )


class T10Compiler:
    """End-to-end compiler for inter-core connected intelligence processors."""

    def __init__(
        self,
        chip: ChipSpec = IPU_MK2,
        *,
        cost_model: CostModel | None = None,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
        jobs: int | None = 1,
    ) -> None:
        """``jobs`` controls intra-op search parallelism: 1 compiles serially,
        N fans unique-operator searches out over N workers, and ``None`` picks
        a host-appropriate default.  Results are identical for every setting
        (see :mod:`repro.core.parallel` for the determinism argument).
        """
        self.chip = chip
        self.cost_model = cost_model or default_cost_model(chip)
        self.constraints = constraints
        self.intra_op = IntraOpOptimizer(chip, self.cost_model, constraints)
        self.inter_op = InterOpScheduler(chip, self.cost_model)
        self.engine = ParallelCompilationEngine(chip, self.cost_model, constraints, jobs=jobs)

    @property
    def jobs(self) -> int:
        """Worker count the intra-op searches fan out over."""
        return self.engine.jobs

    def close(self) -> None:
        """No-op (idempotent): a compiler holds nothing to release.  Its
        search workers are process-wide daemons that stop with the
        interpreter (see :mod:`repro.core.parallel`)."""

    # ------------------------------------------------------------------ #
    def compile(self, graph: OperatorGraph) -> CompiledModel:
        """Compile ``graph`` into a device program (or an OOM diagnosis)."""
        return self.compile_many([graph])[0]

    def compile_many(self, graphs: Sequence[OperatorGraph]) -> list[CompiledModel]:
        """Compile each of ``graphs``, searching all their operators as one batch.

        Each result equals compiling the graphs one by one, in order
        (:meth:`ParallelCompilationEngine.search_graphs
        <repro.core.parallel.ParallelCompilationEngine.search_graphs>`), but
        operators of one layout across the graphs — a model's batch buckets,
        say — share their array passes.  See
        :attr:`CompiledModel.compile_time_seconds` for how the batch's time
        is split.
        """
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.wall_span(
            "plan-search",
            track="compiler/graph",
            cat="compile",
            graph=",".join(graph.name for graph in graphs),
        ) as span:
            searches = self.engine.search_graphs(graphs, self.intra_op)
            span.set(
                dispatched=sum(search.dispatched for search in searches),
                sketched=sum(search.sketched_candidates for search in searches),
                materialized=sum(search.materialized_plans for search in searches),
            )
        searched = mark = time.perf_counter()
        # The shared search time goes to the graphs by the candidates their
        # own fresh searches sketched (evenly when none did).
        weights = [search.sketched_candidates for search in searches]
        total = sum(weights)
        if not total:
            weights, total = [1] * len(searches), len(searches)
        compiled = []
        for graph, search, weight in zip(graphs, searches, weights):
            model = self._finish(graph, search)
            now = time.perf_counter()
            model.compile_time_seconds = (searched - start) * weight / total + (now - mark)
            mark = now
            compiled.append(model)
        return compiled

    def _finish(self, graph: OperatorGraph, search: GraphSearchResult) -> CompiledModel:
        """Reconcile and generate ``graph``'s program from its search."""
        tracer = get_tracer()
        accounting = dict(
            unique_operators=search.unique_operators,
            dispatched_searches=search.dispatched,
            sketched_candidates=search.sketched_candidates,
            evaluated_candidates=search.evaluated_candidates,
        )
        if not search.ok:
            return CompiledModel(
                graph=graph,
                chip=self.chip,
                status="oom",
                frontiers=search.frontiers,
                search_stats=search.stats,
                error=search.error or "",
                materialized_plans=search.materialized_plans,
                **accounting,
            )
        try:
            with tracer.wall_span(
                "reconcile", track="compiler/graph", cat="compile", graph=graph.name
            ) as span:
                schedule = self.inter_op.reconcile(search.frontiers)
                span.set(materialized=schedule.materialized_plans)
            with tracer.wall_span(
                "codegen", track="compiler/graph", cat="compile", graph=graph.name
            ):
                program = generate_program(graph, schedule, self.chip)
        except (OutOfChipMemoryError, ValueError) as error:
            return CompiledModel(
                graph=graph,
                chip=self.chip,
                status="oom",
                frontiers=search.frontiers,
                search_stats=search.stats,
                error=str(error),
                materialized_plans=search.materialized_plans,
                **accounting,
            )
        return CompiledModel(
            graph=graph,
            chip=self.chip,
            status="ok",
            program=program,
            schedule=schedule,
            frontiers=search.frontiers,
            search_stats=search.stats,
            materialized_plans=search.materialized_plans + schedule.materialized_plans,
            **accounting,
        )

    def compile_operator(self, operator: Operator) -> list[OperatorPlan]:
        """Convenience wrapper: Pareto plans of a single operator."""
        return self.intra_op.pareto_plans(operator)
