"""Intra-operator plan search: sketch, prune, keep the Pareto set as sketches.

This is the first stage of T10's two-level optimisation (paper §4.3.1).  For
one operator it:

1. enumerates candidate operator partition factors under the parallelism and
   padding constraints (:mod:`repro.core.partition`),
2. derives the geometry of every ``F_op`` in one array pass
   (:func:`repro.core.plan.fop_columns`) — sub-extents, cores used, and per
   tensor the sharing degree, sub-shape, element count and longest dim — and
   each tensor's temporal-factor choices, thinned once per distinct
   ``(sharing degree, longest dim)`` pair; then **sketches** every temporal
   combination of a run of these rows at once as numpy columns
   (:func:`repro.core.plan.sketch_block`) — exact feasibility, memory
   footprint, step structure and shift schedule from divisor arithmetic
   alone,
3. drops SRAM-infeasible candidates, prices the survivors' exact execution
   time as arrays, and keeps the Pareto frontier of ``(memory, bound)``
   pairs (:class:`repro.core.pareto.ParetoAccumulator`) — a candidate's
   priced bound is its plan's ``time_est`` bit for bit and its memory is
   exact, so this is the plan frontier — and
4. **verifies** the final frontier members: each is re-sketched by the
   scalar :func:`~repro.core.plan.sketch_plan`, priced, and checked
   against its block values.  The frontier is returned as these sketches
   (:class:`~repro.core.plan.PlanFrontier`).  A sketch carries everything
   memory reconciliation reads, so a compile builds a full
   :class:`~repro.core.plan.OperatorPlan` (rTensors, shift schedule) only
   for the idle and active plans its schedule picks.  Library-fallback
   operators still build their one plan eagerly.

The search is batched.  Operators that differ only in their axis extents
(one :func:`~repro.core.plan.column_layout`: the buckets of one model, the
projections of one transformer layer) share step 2's array pass, and their
candidates are sketched and priced in shared blocks of at most
:data:`SKETCH_BLOCK`, cut across operator boundaries; each operator keeps
its own ``max_plans`` cut, frontier and accounting.  A lone operator is a
batch of one.

The search holds one block of candidates plus the frontiers in memory and
produces for each operator a frontier bit-for-bit identical to the eager
implementation it replaced (kept as :meth:`IntraOpOptimizer.search_reference`, the executable
specification the determinism tests compare against).

Results are cached per operator signature: identical operators (the repeated
layers of a transformer, say) are searched once and share one frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.constraints import DEFAULT_CONSTRAINTS, SearchConstraints
from repro.core.cost_model import CostModel
from repro.core.pareto import ParetoAccumulator, pareto_front
from repro.core.partition import (
    complete_space_size,
    enumerate_operator_partitions,
    enumerate_partition_rows,
    thinned_temporal_choices,
)
from repro.core.plan import (
    FopColumns,
    FopGeometry,
    OperatorPlan,
    PlanFrontier,
    PlanSketch,
    build_library_plan,
    build_plan,
    column_layout,
    fop_columns,
    fop_geometry,
    sketch_block,
    sketch_plan,
    temporal_combos,
)
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.spec import ChipSpec
from repro.ir.expr import TensorExpression
from repro.ir.operator import Operator
from repro.obs.trace import get_tracer

#: Candidates per block: whole operator partitions join a block while it
#: holds at most this many temporal combinations, and each block is
#: sketched, priced and filtered as numpy columns in one go.  Chosen by a
#: block-size sweep (docs/performance.md, "Block sketching").
SKETCH_BLOCK = 1024

#: ``(memory, priced time bound, F_op row, temporal factors)`` of one candidate.
_Candidate = tuple[int, float, int, tuple[int, ...]]


@dataclass(frozen=True)
class SearchSpaceStats:
    """Plan-space sizes at each stage of the search (Figure 18).

    ``sketched`` counts every ``(F_op, temporal)`` combination examined,
    ``evaluated`` the feasible candidates among them, ``filtered`` the ones
    that also fit a core's SRAM, ``materialized`` the candidates made ready
    to build — the final frontier members, each re-sketched, priced and
    verified but built only when a schedule picks it or a caller asks for
    the plans, or the one eagerly built library plan — and ``optimized``
    the Pareto frontier.  :attr:`CompiledModel.materialized_plans
    <repro.core.compiler.CompiledModel.materialized_plans>` counts the plans
    a compile actually built.
    ``truncated`` is set when the ``max_plans`` constraint cut off a
    further feasible candidate (not when the space held exactly
    ``max_plans`` of them).
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


def _candidate_memory(item: _Candidate) -> int:
    return item[0]


def _candidate_time(item: _Candidate) -> float:
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
        self._cache: dict[tuple, tuple[PlanFrontier, SearchSpaceStats]] = {}

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
        serial error behaviour (``pareto_plans``) raise on it themselves.
        Builds every frontier plan not built yet; the compiler reads
        :meth:`search_frontier` instead and builds only what it picks.
        """
        frontier, stats = self.search_frontier(operator)
        return frontier.plans(), stats

    def search_frontier(self, operator: Operator) -> tuple[PlanFrontier, SearchSpaceStats]:
        """Frontier of ``operator`` as sketches, and its stats (cached).

        Operators of one signature share the returned frontier object.
        """
        signature = operator.signature()
        cached = self._cache.get(signature)
        if cached is None:
            found, errors = self._search([operator])
            if signature in errors:
                raise errors[signature]
            # The search's own result: another thread may already have
            # dropped the cached one (:meth:`forget`).
            cached = found[signature]
        return cached

    def peek(self, signature: tuple) -> tuple[PlanFrontier, SearchSpaceStats] | None:
        """Cached search result for ``signature``, or ``None`` if not searched."""
        return self._cache.get(signature)

    def forget(self, signature: tuple) -> None:
        """Drop the cached search result of ``signature``, if any."""
        self._cache.pop(signature, None)

    def seed(
        self,
        operator: Operator,
        members: list[PlanSketch | OperatorPlan],
        stats: SearchSpaceStats,
    ) -> None:
        """Install frontier members searched elsewhere (parallel engine merge)."""
        self._cache[operator.signature()] = (self._frontier(operator, members), stats)

    def _frontier(
        self, operator: Operator, members: list[PlanSketch | OperatorPlan]
    ) -> PlanFrontier:
        return PlanFrontier(members, operator.expr, self.chip, self.cost_model)

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
    # Batched streaming search
    # ------------------------------------------------------------------ #
    def search_many(self, operators: Iterable[Operator]) -> dict[tuple, Exception]:
        """Search every operator of ``operators`` not cached yet, in one batch.

        Each result is cached as :meth:`search_frontier` caches it.  Returns
        the error of each operator whose search raised
        :class:`~repro.hw.memory.OutOfChipMemoryError` or
        :class:`ValueError`, by signature; such an operator stays uncached.
        """
        fresh: dict[tuple, Operator] = {}
        for operator in operators:
            signature = operator.signature()
            if signature not in self._cache:
                fresh.setdefault(signature, operator)
        return self._search(list(fresh.values()))[1] if fresh else {}

    def _search(
        self, operators: Sequence[Operator]
    ) -> tuple[dict[tuple, tuple[PlanFrontier, SearchSpaceStats]], dict[tuple, Exception]]:
        """Search ``operators`` (distinct signatures, none cached) as one batch.

        Operators of one :func:`~repro.core.plan.column_layout` are searched
        together (:meth:`_search_layout`); a library-fallback operator alone.
        When a layout's search fails, each of its operators is searched
        alone, so a failure is attributed to the operator that raised it.
        Returns the results it cached and the errors, by signature.
        """
        groups: dict[tuple, list[Operator]] = {}
        for operator in operators:
            expr = operator.expr
            key = (
                ("library", operator.signature())
                if expr.library_fallback
                else column_layout(expr, self.chip)
            )
            groups.setdefault(key, []).append(operator)
        work = list(reversed(groups.values()))
        found: dict[tuple, tuple[PlanFrontier, SearchSpaceStats]] = {}
        errors: dict[tuple, Exception] = {}
        while work:
            group = work.pop()
            try:
                results = self._search_group(group)
            except (OutOfChipMemoryError, ValueError) as error:
                if len(group) == 1:
                    errors[group[0].signature()] = error
                else:
                    work.extend([operator] for operator in reversed(group))
                continue
            for operator, (members, stats) in zip(group, results):
                signature = operator.signature()
                found[signature] = self._cache[signature] = (
                    self._frontier(operator, members),
                    stats,
                )
        return found, errors

    def _search_group(
        self, operators: list[Operator]
    ) -> list[tuple[list[PlanSketch | OperatorPlan], SearchSpaceStats]]:
        # One wall-domain span per layout searched (signature-cache misses
        # only).  Worker processes see the disabled ambient tracer, so their
        # searches are silently un-traced.
        with get_tracer().wall_span(
            "layout-search",
            track="compiler/intra-op",
            cat="compile",
            op_type=operators[0].expr.op_type,
            operators=len(operators),
        ) as span:
            if operators[0].expr.library_fallback:
                results = [self._library_search(operators[0])]
            else:
                results = self._search_layout(operators)
            span.set(
                sketched=sum(stats.sketched for _, stats in results),
                evaluated=sum(stats.evaluated for _, stats in results),
                fitting=int(sum(stats.filtered for _, stats in results)),
                materialized=sum(stats.materialized for _, stats in results),
                optimized=sum(stats.optimized for _, stats in results),
                truncated=sum(stats.truncated for _, stats in results),
            )
        return results

    def _library_search(
        self, operator: Operator
    ) -> tuple[list[PlanSketch | OperatorPlan], SearchSpaceStats]:
        """A library-fallback operator's one plan, built eagerly."""
        expr = operator.expr
        plan = build_library_plan(expr, self.chip, self.cost_model)
        frontier: list[PlanSketch | OperatorPlan] = (
            [plan] if plan.memory_bytes <= self.chip.sram_per_core else []
        )
        stats = SearchSpaceStats(
            complete=complete_space_size(expr, self.chip.num_cores),
            filtered=float(len(frontier)),
            evaluated=1,
            optimized=len(frontier),
            sketched=1,
            materialized=1,
        )
        return frontier, stats

    def _search_layout(
        self, operators: list[Operator]
    ) -> list[tuple[list[PlanSketch | OperatorPlan], SearchSpaceStats]]:
        """Search operators of one layout in shared blocks.

        Their ``F_op`` rows are derived in one array pass, then sketched,
        SRAM-filtered and priced in blocks of whole rows cut across operator
        boundaries (:func:`_next_block`).  Every operator keeps its own
        ``max_plans`` cut, Pareto accumulator and accounting, and a
        candidate's values do not depend on its block, so each operator's
        frontier and stats are those of a search of it alone.
        """
        tracer = get_tracer()
        sram = self.chip.sram_per_core
        limit = self.constraints.max_temporal_combos
        op_type = operators[0].expr.op_type
        with tracer.wall_span(
            "fop-geometry", track="compiler/intra-op", cat="compile", operators=len(operators)
        ) as span:
            columns = self._fop_columns([operator.expr for operator in operators])
            span.set(fops=len(columns))
        counts = columns.combo_counts(limit).tolist()
        states = [
            _OperatorState(operator, rows, self.constraints.max_plans)
            for operator, rows in zip(operators, columns.operator_rows())
        ]
        live = states
        while live:
            parts = _next_block(live, counts)
            with tracer.wall_span(
                "sketch-flush", track="compiler/intra-op", cat="compile", operators=len(parts)
            ) as span:
                block = sketch_block(
                    self.chip,
                    columns,
                    [row for _, start, stop, _ in parts for row in range(start, stop)],
                    limit,
                )
                # Each operator's ``max_plans`` cut and SRAM filter on its
                # part of the block; then one pricing call for all of them.
                first = candidates = 0
                fitting: list[tuple[_OperatorState, np.ndarray]] = []
                for state, _, _, size in parts:
                    feasible = block.feasible[first : first + size]
                    taken = np.cumsum(feasible)
                    end = size
                    if taken[-1] >= state.remaining:
                        # The cut falls in this part; it truncates the
                        # search only if a further feasible candidate exists.
                        end = int(np.searchsorted(taken, state.remaining)) + 1
                        state.truncated = bool(feasible[end:].any())
                    state.sketched += end
                    candidates += end
                    state.evaluated += int(taken[end - 1])
                    state.remaining -= int(taken[end - 1])
                    fits = block.memory_bytes[first : first + end] <= sram
                    index = first + np.flatnonzero(feasible[:end] & fits)
                    state.fitting += len(index)
                    fitting.append((state, index))
                    first += size
                index = np.concatenate([part for _, part in fitting])
                pruned = 0
                if len(index):
                    bounds = block.time_bound(self.cost_model, op_type, index).tolist()
                    memories = block.memory_bytes[index].tolist()
                    first = 0
                    for state, part in fitting:
                        accumulator = state.accumulator
                        stop = first + len(part)
                        for position, memory, bound in zip(
                            part.tolist(), memories[first:stop], bounds[first:stop]
                        ):
                            # A candidate matched by a no-larger frontier
                            # member can never join the frontier; the check
                            # keeps it out of ``insert`` altogether.
                            if accumulator.dominates(memory, bound):
                                pruned += 1
                                continue
                            accumulator.insert((memory, bound, *block.candidate(position)))
                        first = stop
                span.set(candidates=candidates, pruned=pruned)
            live = [
                state for state in live if state.remaining and state.next_row < state.rows.stop
            ]
        return [self._finish(state, columns) for state in states]

    def _finish(
        self, state: _OperatorState, columns: FopColumns
    ) -> tuple[list[PlanSketch | OperatorPlan], SearchSpaceStats]:
        """One operator's verified frontier and stats once its rows are done."""
        expr = state.operator.expr
        if not state.remaining and not state.truncated:
            # The cut filled ``max_plans`` on a part's last feasible
            # candidate: look for a further feasible one candidate at a
            # time, as the reference search does, rather than by blocks.
            later = [columns.fop(row) for row in range(state.next_row, state.rows.stop)]
            state.truncated = any(
                sketch_plan(expr, self.chip, fop, temporal, geometry) is not None
                for fop, geometry, temporal in self._scalar_candidates(expr, later)
            )
        frontier: list[PlanSketch | OperatorPlan] = [
            self._verified(expr, columns, *candidate)
            for candidate in state.accumulator.items()
        ]
        stats = SearchSpaceStats(
            complete=complete_space_size(expr, self.chip.num_cores),
            filtered=float(state.fitting),
            evaluated=state.evaluated,
            optimized=len(frontier),
            sketched=state.sketched,
            materialized=len(frontier),
            truncated=state.truncated,
        )
        return frontier, stats

    def _verified(
        self,
        expr,
        columns: FopColumns,
        memory: int,
        bound: float,
        row: int,
        factors: tuple[int, ...],
    ) -> PlanSketch:
        """Re-sketch one frontier member with :func:`sketch_plan` and price it.

        Raises :class:`RuntimeError` when the scalar sketch disagrees with
        the block's feasibility, memory or priced bound: the frontier was
        chosen on the block's values, so any drift would silently change it.
        """
        temporal = dict(zip((spec.name for spec in expr.all_tensors), factors))
        sketch = sketch_plan(expr, self.chip, columns.fop(row), temporal, columns.geometry(row))
        if sketch is None:
            raise RuntimeError("block sketch accepted a candidate sketch_plan rejects")
        sketch.price(expr.op_type, self.cost_model)
        if sketch.memory_bytes != memory or sketch.time_est != bound:
            raise RuntimeError("block sketch diverged from sketch_plan")
        return sketch

    # ------------------------------------------------------------------ #
    # Reference (eager) search — the executable specification
    # ------------------------------------------------------------------ #
    def search_reference(
        self, operator: Operator
    ) -> tuple[list[OperatorPlan], SearchSpaceStats]:
        """The eager search the streaming pipeline replaced.

        Materializes every feasible candidate, filters on SRAM and applies one
        batch :func:`pareto_front` — exactly the seed implementation, apart
        from ``truncated``, which is set only when the ``max_plans`` cut drops
        a further feasible candidate.  The
        streaming search must return a bit-identical frontier and identical
        ``complete``/``filtered``/``evaluated``/``optimized``/``truncated``
        accounting; only ``materialized`` may (and should) be smaller.  Used
        by the determinism tests and the ``repro.bench`` before/after
        search-space accounting; results are deliberately not cached.  It
        also keeps :meth:`~repro.core.plan.PlanSketch.materialize`'s sketch
        consistency checks running on *every* feasible candidate (through
        :func:`~repro.core.plan.build_plan`), where a compile runs them only on
        the plans its schedule picks.
        """
        expr = operator.expr
        sketched = 0
        truncated = False
        candidates: list[OperatorPlan] = []
        if expr.library_fallback:
            sketched = 1
            candidates.append(build_library_plan(expr, self.chip, self.cost_model))
        else:
            for fop, geometry, temporal in self._scalar_candidates(expr):
                if len(candidates) >= self.constraints.max_plans:
                    # Truncated only if the cut dropped a feasible candidate.
                    if sketch_plan(expr, self.chip, fop, temporal, geometry) is not None:
                        truncated = True
                        break
                    continue
                sketched += 1
                plan = build_plan(expr, self.chip, self.cost_model, fop, temporal, geometry)
                if plan is not None:
                    candidates.append(plan)
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
        for fop, geometry, temporal in self._scalar_candidates(expr):
            plan = build_plan(expr, self.chip, self.cost_model, fop, temporal, geometry)
            if plan is None:
                continue
            produced += 1
            yield plan
            if produced >= self.constraints.max_plans:
                return

    def _scalar_candidates(
        self, expr, fops: Sequence[dict[str, int]] | None = None
    ) -> Iterator[tuple[dict[str, int], FopGeometry, dict[str, int]]]:
        """Every ``(F_op, geometry, temporal)`` candidate of ``fops``, one at a time.

        ``fops`` defaults to every ``F_op`` of the operator.  Each ``F_op``'s
        geometry comes from the scalar derivation
        (:func:`~repro.core.plan.fop_geometry`) and its temporal choices from
        that geometry, as :func:`~repro.core.partition.temporal_factor_choices`
        derives them, so the eager reference search stays an independent
        check of :meth:`_fop_columns`.  Both paths expand the choices in one
        order (:func:`~repro.core.plan.temporal_combos`).  Feasibility capping
        (``max_plans``) stays with the callers — it counts *feasible*
        candidates, which only they know.
        """
        if fops is None:
            fops = enumerate_operator_partitions(expr, self.chip.num_cores, self.constraints)
        names = [spec.name for spec in expr.all_tensors]
        budget = self._per_tensor_choice_budget(len(names))
        limit = self.constraints.max_temporal_combos
        for fop in fops:
            geometry = fop_geometry(expr, fop)
            choices = [
                thinned_temporal_choices(
                    tensor.sharing, max(tensor.sub_shape, default=1), budget
                )
                for tensor in geometry.tensors
            ]
            for combo in temporal_combos(choices, limit):
                yield fop, geometry, dict(zip(names, combo))

    def _fop_columns(self, exprs: Sequence[TensorExpression]) -> FopColumns:
        """Every ``F_op`` of ``exprs`` (operators of one layout) with its
        geometry and temporal choices, as columns."""
        # Each operator's rows become an array at once, so only one
        # operator's row tuples are alive at a time.
        partitions = [
            np.array(
                enumerate_partition_rows(expr, self.chip.num_cores, self.constraints),
                dtype=np.int64,
            )
            for expr in exprs
        ]
        budget = self._per_tensor_choice_budget(len(exprs[0].all_tensors))
        return fop_columns(exprs, self.chip, partitions, budget)

    def _per_tensor_choice_budget(self, num_tensors: int) -> int:
        """How many temporal factors to consider per tensor."""
        budget = self.constraints.max_temporal_combos
        per_tensor = max(2, int(round(budget ** (1.0 / max(num_tensors, 1)))))
        return per_tensor


class _OperatorState:
    """One operator's search state inside a batched layout search."""

    __slots__ = (
        "operator",
        "rows",
        "next_row",
        "remaining",
        "sketched",
        "evaluated",
        "fitting",
        "truncated",
        "accumulator",
    )

    def __init__(self, operator: Operator, rows: range, max_plans: int) -> None:
        self.operator = operator
        self.rows = rows
        """The operator's ``F_op`` rows in its layout's columns."""
        self.next_row = rows.start
        """Its first row not sketched yet."""
        self.remaining = max_plans
        """Feasible candidates still allowed (the ``max_plans`` cut)."""
        self.sketched = self.evaluated = self.fitting = 0
        self.truncated = False
        # (memory, priced time bound, F_op row, temporal factors) per
        # candidate: the bound is the built plan's ``time_est`` bit for bit,
        # so this is the plan frontier.
        self.accumulator: ParetoAccumulator[_Candidate] = ParetoAccumulator(
            memory=_candidate_memory, time=_candidate_time
        )


def _next_block(
    live: list[_OperatorState], counts: list[int]
) -> list[tuple[_OperatorState, int, int, int]]:
    """The next shared block, as ``(operator, first row, stop row,
    candidates)`` parts: whole ``F_op`` rows of the ``live`` operators in row
    order, at most :data:`SKETCH_BLOCK` candidates in all (one row at least).
    """
    parts = []
    size = 0
    for state in live:
        start = row = state.next_row
        stop = state.rows.stop
        while row < stop and (size + counts[row] <= SKETCH_BLOCK or not size):
            size += counts[row]
            row += 1
        if row > start:
            parts.append((state, start, row, sum(counts[start:row])))
            state.next_row = row
        if row < stop:
            break
    return parts
