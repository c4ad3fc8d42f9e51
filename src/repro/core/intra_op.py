"""Intra-operator plan search: sketch, prune, materialize, keep the Pareto set.

This is the first stage of T10's two-level optimisation (paper §4.3.1).  For
one operator it:

1. enumerates candidate operator partition factors under the parallelism and
   padding constraints (:mod:`repro.core.partition`),
2. enumerates temporal-factor combinations per tensor,
3. **sketches** every candidate — exact memory footprint and step structure
   from divisor arithmetic alone (:func:`repro.core.plan.sketch_plan`), on
   sub-extents, sharing degrees and sub-shapes derived once per ``F_op``
   (:func:`repro.core.plan.fop_geometry`),
4. drops SRAM-infeasible sketches, prices the survivors' exact execution
   time with one batched cost-model call per bounded batch, and keeps the
   Pareto frontier *of sketches* (:class:`repro.core.pareto.ParetoAccumulator`)
   — a sketch's priced bound is its plan's ``time_est`` bit for bit and its
   memory is exact, so this is the plan frontier — and
5. **materializes** a full :class:`~repro.core.plan.OperatorPlan` (rTensors,
   shift schedule, communication cost) only for the final frontier members.

The streaming pipeline holds at most one batch of sketches plus the frontier
in memory and produces a frontier bit-for-bit identical to the eager
implementation it replaced (kept as :meth:`IntraOpOptimizer.search_reference`,
the executable specification the determinism tests compare against).

Results are cached per operator signature: identical operators (the repeated
layers of a transformer, say) are searched once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.core.cost_model import CostModel
from repro.core.pareto import ParetoAccumulator, pareto_front
from repro.core.partition import (
    complete_space_size,
    enumerate_operator_partitions,
    temporal_factor_choices,
)
from repro.core.plan import (
    FopGeometry,
    OperatorPlan,
    PlanSketch,
    build_library_plan,
    build_plan,
    fop_geometry,
    sketch_plan,
)
from repro.hw.spec import ChipSpec
from repro.ir.operator import Operator
from repro.obs.trace import get_tracer

#: Surviving sketches are costed and pruned in bounded batches: one vectorised
#: cost-model call per batch, and never the whole candidate list in memory.
SKETCH_BATCH = 128


@dataclass(frozen=True)
class SearchSpaceStats:
    """Plan-space sizes at each stage of the search (Figure 18).

    ``sketched`` counts every ``(F_op, temporal)`` combination examined,
    ``evaluated`` the feasible candidates among them, ``filtered`` the ones
    that also fit a core's SRAM, ``materialized`` the candidates that were
    fully built (rTensors + shift schedule) — the final frontier only, or
    the one library plan — and ``optimized`` the Pareto frontier.
    ``truncated`` is set when the ``max_plans`` constraint capped the
    enumeration before the space was exhausted.
    """

    complete: float
    filtered: float
    evaluated: int
    optimized: int
    sketched: int = 0
    materialized: int = 0
    truncated: bool = False


def infeasible_plan_error(op_name: str, chip_name: str) -> ValueError:
    """The error raised when an operator admits no feasible plan.

    Centralised so the serial and parallel search paths raise bit-identical
    diagnostics (the parallel engine reconstructs serial error ordering).
    """
    return ValueError(
        f"no feasible execution plan for operator {op_name!r} "
        f"on chip {chip_name}"
    )


def _plan_memory(plan: OperatorPlan) -> float:
    return plan.memory_bytes


def _plan_time(plan: OperatorPlan) -> float:
    return plan.time_est


def _sketch_memory(item: tuple[PlanSketch, float]) -> int:
    return item[0].memory_bytes


def _sketch_time(item: tuple[PlanSketch, float]) -> float:
    return item[1]


class IntraOpOptimizer:
    """Searches Pareto-optimal compute-shift plans for individual operators."""

    def __init__(
        self,
        chip: ChipSpec,
        cost_model: CostModel,
        constraints: SearchConstraints = DEFAULT_CONSTRAINTS,
    ) -> None:
        self.chip = chip
        self.cost_model = cost_model
        self.constraints = constraints
        # One dict holding (frontier, stats) per signature: a single atomic
        # assignment per completed search, so concurrent readers (the plan
        # cache shares one optimizer across serving threads) never observe a
        # half-written result.  Duplicate concurrent searches of one
        # signature are wasted but harmless — the search is deterministic.
        self._cache: dict[tuple, tuple[list[OperatorPlan], SearchSpaceStats]] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def pareto_plans(self, operator: Operator) -> list[OperatorPlan]:
        """Pareto-optimal plans of ``operator``, sorted by increasing memory.

        Raises :class:`ValueError` if no feasible plan exists (the operator
        cannot fit the chip at all).
        """
        plans, _ = self.search_results(operator)
        if not plans:
            raise infeasible_plan_error(operator.name, self.chip.name)
        return plans

    def search_results(
        self, operator: Operator
    ) -> tuple[list[OperatorPlan], SearchSpaceStats]:
        """Frontier and stats of ``operator`` without raising on infeasibility.

        An infeasible operator yields an empty frontier; callers that need the
        serial error behaviour (``pareto_plans``) raise on it themselves.  This
        is the entry point the parallel engine's workers use.
        """
        signature = operator.signature()
        cached = self._cache.get(signature)
        if cached is None:
            cached = self._search(operator)
        return cached

    def peek(
        self, signature: tuple
    ) -> tuple[list[OperatorPlan], SearchSpaceStats] | None:
        """Cached search result for ``signature``, or ``None`` if not searched."""
        return self._cache.get(signature)

    def seed(
        self,
        signature: tuple,
        plans: list[OperatorPlan],
        stats: SearchSpaceStats,
    ) -> None:
        """Install an externally computed search result (parallel engine merge)."""
        self._cache[signature] = (plans, stats)

    def enumerate_plans(self, operator: Operator) -> list[OperatorPlan]:
        """All costed candidate plans (used by the plan-space studies)."""
        candidates = list(self._candidate_plans(operator))
        return candidates

    def search_space_stats(self, operator: Operator) -> SearchSpaceStats:
        """Complete / filtered / Pareto plan-space sizes for ``operator``."""
        _, stats = self.search_results(operator)
        return stats

    def clear_cache(self) -> None:
        """Drop cached search results (used when constraints change)."""
        self._cache.clear()

    # ------------------------------------------------------------------ #
    # Streaming search
    # ------------------------------------------------------------------ #
    def _search(
        self, operator: Operator
    ) -> tuple[list[OperatorPlan], SearchSpaceStats]:
        signature = operator.signature()
        # One wall-domain span per fresh search (signature-cache misses only).
        # Worker *processes* see the disabled ambient tracer, so process-pool
        # searches are silently un-traced; worker threads inherit it and the
        # tracer is thread-safe.
        tracer = get_tracer()
        with tracer.wall_span(
            "operator-search",
            track="compiler/intra-op",
            cat="compile",
            op=operator.name,
            op_type=operator.expr.op_type,
        ) as span:
            result = self._stream_search(operator)
            stats = result[1]
            span.set(
                sketched=stats.sketched,
                evaluated=stats.evaluated,
                fitting=int(stats.filtered),
                materialized=stats.materialized,
                optimized=stats.optimized,
                truncated=stats.truncated,
            )
        self._cache[signature] = result
        return result

    def _stream_search(
        self, operator: Operator
    ) -> tuple[list[OperatorPlan], SearchSpaceStats]:
        expr = operator.expr
        sram = self.chip.sram_per_core
        sketched = evaluated = fitting = 0
        truncated = False

        if expr.library_fallback:
            plan = build_library_plan(expr, self.chip, self.cost_model)
            sketched = evaluated = 1
            frontier = [plan] if plan.memory_bytes <= sram else []
            fitting = len(frontier)
            materialized = 1
        else:
            # (sketch, priced time bound) pairs: the bound is the built plan's
            # ``time_est`` bit for bit, so this is the plan frontier.
            accumulator: ParetoAccumulator[tuple[PlanSketch, float]] = (
                ParetoAccumulator(memory=_sketch_memory, time=_sketch_time)
            )
            batch: list[PlanSketch] = []
            tracer = get_tracer()

            def flush() -> None:
                if not batch:
                    return
                with tracer.wall_span(
                    "sketch-flush",
                    track="compiler/intra-op",
                    cat="compile",
                    op=operator.name,
                    batch=len(batch),
                ) as span:
                    per_step_times = self.cost_model.compute_time_batch(
                        expr.op_type,
                        [
                            (s.subtask_shape, s.flops_per_step, s.bytes_per_step)
                            for s in batch
                        ],
                    )
                    pruned = 0
                    for sketch, per_step in zip(batch, per_step_times):
                        sketch.compute_time = sketch.num_steps * per_step
                        bound = sketch.time_lower_bound(self.cost_model)
                        # A sketch matched by a no-larger frontier member can
                        # never join the frontier; the check keeps it out of
                        # ``insert`` altogether.
                        if accumulator.dominates(sketch.memory_bytes, bound):
                            pruned += 1
                            continue
                        accumulator.insert((sketch, bound))
                    span.set(pruned=pruned, frontier=len(accumulator))
                    batch.clear()

            for fop, geometry, temporal in self._enumerate_candidates(expr):
                sketched += 1
                sketch = sketch_plan(expr, self.chip, fop, temporal, geometry)
                if sketch is None:
                    continue
                evaluated += 1
                if sketch.memory_bytes <= sram:
                    fitting += 1
                    batch.append(sketch)
                    if len(batch) >= SKETCH_BATCH:
                        flush()
                if evaluated >= self.constraints.max_plans:
                    truncated = True
                    break
            flush()
            frontier = [
                sketch.materialize(expr, self.chip, self.cost_model)
                for sketch, _ in accumulator.items()
            ]
            materialized = len(frontier)

        stats = SearchSpaceStats(
            complete=complete_space_size(expr, self.chip.num_cores),
            filtered=float(fitting),
            evaluated=evaluated,
            optimized=len(frontier),
            sketched=sketched,
            materialized=materialized,
            truncated=truncated,
        )
        return frontier, stats

    # ------------------------------------------------------------------ #
    # Reference (eager) search — the executable specification
    # ------------------------------------------------------------------ #
    def search_reference(
        self, operator: Operator
    ) -> tuple[list[OperatorPlan], SearchSpaceStats]:
        """The eager search the streaming pipeline replaced.

        Materializes every feasible candidate, filters on SRAM and applies one
        batch :func:`pareto_front` — exactly the seed implementation.  The
        streaming search must return a bit-identical frontier and identical
        ``complete``/``filtered``/``evaluated``/``optimized``/``truncated``
        accounting; only ``materialized`` may (and should) be smaller.  Used
        by the determinism tests and the ``repro.bench`` before/after
        search-space accounting; results are deliberately not cached.  It
        also keeps :meth:`~repro.core.plan.PlanSketch.materialize`'s sketch
        consistency checks running on *every* feasible candidate (through
        :func:`~repro.core.plan.build_plan`), where the streaming search runs
        them on frontier members only.
        """
        expr = operator.expr
        sketched = 0
        truncated = False
        candidates: list[OperatorPlan] = []
        if expr.library_fallback:
            sketched = 1
            candidates.append(build_library_plan(expr, self.chip, self.cost_model))
        else:
            for fop, geometry, temporal in self._enumerate_candidates(expr):
                sketched += 1
                plan = build_plan(expr, self.chip, self.cost_model, fop, temporal, geometry)
                if plan is None:
                    continue
                candidates.append(plan)
                if len(candidates) >= self.constraints.max_plans:
                    truncated = True
                    break
        fitting = [
            plan for plan in candidates if plan.memory_bytes <= self.chip.sram_per_core
        ]
        frontier = pareto_front(fitting, memory=_plan_memory, time=_plan_time)
        stats = SearchSpaceStats(
            complete=complete_space_size(expr, self.chip.num_cores),
            filtered=float(len(fitting)),
            evaluated=len(candidates),
            optimized=len(frontier),
            sketched=sketched,
            materialized=len(candidates),
            truncated=truncated,
        )
        return frontier, stats

    def _candidate_plans(self, operator: Operator) -> Iterable[OperatorPlan]:
        expr = operator.expr
        if expr.library_fallback:
            yield build_library_plan(expr, self.chip, self.cost_model)
            return

        produced = 0
        for fop, geometry, temporal in self._enumerate_candidates(expr):
            plan = build_plan(expr, self.chip, self.cost_model, fop, temporal, geometry)
            if plan is None:
                continue
            produced += 1
            yield plan
            if produced >= self.constraints.max_plans:
                return

    def _enumerate_candidates(
        self, expr
    ) -> Iterable[tuple[dict[str, int], FopGeometry, dict[str, int]]]:
        """Yield every ``(F_op, geometry, temporal)`` candidate in canonical order.

        The single source of the enumeration order: the streaming search, the
        eager reference and the plan-space studies all consume this, so the
        "bit-identical frontiers" invariant cannot be broken by the loops
        drifting apart.  ``geometry`` is :func:`~repro.core.plan.fop_geometry`
        of the ``F_op``, derived once and shared by all its temporal
        combinations.  Feasibility capping (``max_plans``) stays with the
        callers — it counts *feasible* candidates, which only they know.
        """
        fops = enumerate_operator_partitions(expr, self.chip.num_cores, self.constraints)
        per_tensor_choices = self._per_tensor_choice_budget(len(expr.all_tensors))
        for fop in fops:
            geometry = fop_geometry(expr, fop)
            for temporal in self._temporal_combinations(
                expr, fop, geometry, per_tensor_choices
            ):
                yield fop, geometry, temporal

    def _per_tensor_choice_budget(self, num_tensors: int) -> int:
        """How many temporal factors to consider per tensor."""
        budget = self.constraints.max_temporal_combos
        per_tensor = max(2, int(round(budget ** (1.0 / max(num_tensors, 1)))))
        return per_tensor

    def _temporal_combinations(
        self,
        expr,
        fop: Mapping[str, int],
        geometry: FopGeometry,
        per_tensor_choices: int,
    ) -> Iterable[dict[str, int]]:
        names = [tensor.spec.name for tensor in geometry.tensors]
        choices = [
            temporal_factor_choices(
                expr,
                tensor.spec,
                fop,
                max_choices=per_tensor_choices,
                sharing=tensor.sharing,
                sub_shape=tensor.sub_shape,
            )
            for tensor in geometry.tensors
        ]
        combos = itertools.product(*choices)
        for combo in itertools.islice(combos, self.constraints.max_temporal_combos):
            yield dict(zip(names, combo))
