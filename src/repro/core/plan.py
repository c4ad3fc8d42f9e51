"""Compute-shift execution plans and their analytical metrics (paper §4.2).

An :class:`OperatorPlan` captures one way of running one operator with the
compute-shift paradigm: the operator partition factor ``F_op``, one rTensor
configuration per tensor, the aligned rotating paces, and everything derived
from them — the per-step sub-task, the number of compute-shift steps, the
inter-core shift schedule, the per-core memory footprint, and the cost-model
estimates of compute and communication time.  The intra-operator optimizer
enumerates many candidate plans, keeps the Pareto-optimal ones, and the
inter-operator scheduler later picks an (idle, active) pair per operator.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from repro.core.cost_model import CostModel
from repro.core.partition import (
    align_rotation_paces,
    choose_rotation_dim,
    derive_rtensor,
    sub_extents,
    tensor_sharing_degree,
    thinned_temporal_choices,
)
from repro.core.rtensor import RTensorConfig
from repro.hw.spec import ChipSpec
from repro.ir.expr import TensorExpression
from repro.ir.tensor import TensorRole, TensorSpec
from repro.utils import ceil_div, prod


@dataclass(frozen=True)
class ShiftOp:
    """One tensor's shift schedule inside a plan (consumed by codegen)."""

    tensor_name: str
    bytes_per_step: int
    num_steps: int
    ring_size: int


@dataclass(frozen=True)
class OperatorPlan:
    """One candidate compute-shift execution plan for an operator."""

    op_type: str
    fop: Mapping[str, int]
    rtensors: Mapping[str, RTensorConfig]
    rotation_paces: Mapping[str, int]
    cores_used: int
    num_steps: int
    subtask_shape: Mapping[str, int]
    flops_per_step: float
    bytes_per_step: int
    compute_time_est: float
    comm_time_est: float
    shift_ops: tuple[ShiftOp, ...]
    memory_bytes: int
    dtype_bytes: int

    # ------------------------------------------------------------------ #
    @property
    def time_est(self) -> float:
        """Estimated active-state execution time (compute + communication)."""
        return self.compute_time_est + self.comm_time_est

    @property
    def data_bytes(self) -> int:
        """Per-core bytes of tensor partitions (memory without the shift buffer)."""
        return sum(config.partition_bytes for config in self.rtensors.values())

    @property
    def idle_bytes(self) -> int:
        """Per-core bytes held while the operator is idle.

        Only persistent tensors (weights) stay resident between executions;
        activations are produced and consumed by neighbouring operators and
        their memory is reclaimed by liveness analysis (paper §4.4).
        """
        return sum(self._weight_partition_bytes.values())

    @property
    def _weight_partition_bytes(self) -> dict[str, int]:
        """Per-core bytes of each weight tensor, computed once per plan.

        Reconciliation reads these sizes for every (idle, active) pair it
        prices.  The memo is an instance attribute, not a field, so ``==``,
        ``repr`` and ``canonicalize`` never see it.  It is set with
        ``object.__setattr__`` rather than ``functools.cached_property``:
        the latter writes through ``__dict__``, which on CPython 3.11+ gives
        every plan its own garbage-collected dict object.
        """
        sizes = getattr(self, "_weight_sizes", None)
        if sizes is None:
            sizes = {
                name: config.partition_bytes
                for name, config in self.rtensors.items()
                if config.spec.role is TensorRole.WEIGHT
            }
            object.__setattr__(self, "_weight_sizes", sizes)
        return sizes

    @property
    def comm_fraction_est(self) -> float:
        """Estimated fraction of time spent shifting."""
        total = self.time_est
        return self.comm_time_est / total if total > 0 else 0.0

    def setup_bytes_from(self, idle: "OperatorPlan | None") -> int:
        """Per-core bytes that must move to transition ``idle`` → this plan.

        The setup phase redistributes persistent tensor data over the
        inter-core links so that every core holds the weight partitions the
        active plan expects (paper §4.3.2).  Data a core already holds under
        the idle plan does not need to move again, so only the per-tensor
        growth counts.  Activations are laid out by their producer operator
        (or an explicit inter-operator transition), not by the setup phase.
        """
        return _setup_bytes(
            self._weight_partition_bytes,
            None if idle is None else idle._weight_partition_bytes,
        )

    def describe(self) -> str:
        """Compact human-readable plan summary (used by the examples)."""
        fop = ", ".join(f"{axis}={factor}" for axis, factor in self.fop.items() if factor > 1)
        return (
            f"{self.op_type}[{fop or 'replicated'}] on {self.cores_used} cores: "
            f"{self.num_steps} steps, {self.memory_bytes / 1024:.1f} KiB/core, "
            f"est {self.time_est * 1e6:.1f} us ({self.comm_fraction_est:.0%} shift)"
        )


def _setup_bytes(active: Mapping[str, int], idle: Mapping[str, int] | None) -> int:
    """Per-core setup bytes from per-weight partition bytes (active, idle).

    The one formula behind :meth:`OperatorPlan.setup_bytes_from` and
    :meth:`PlanSketch.setup_bytes_from`: every weight the idle layout holds
    less of than the active one grows by the difference.
    """
    if idle is None:
        return sum(active.values())
    return sum(max(0, size - idle.get(name, 0)) for name, size in active.items())


# --------------------------------------------------------------------------- #
# Plan construction: cheap sketch, lazy materialization
# --------------------------------------------------------------------------- #
@dataclass
class PlanSketch:
    """Cheap integer-math précis of one plan candidate.

    A sketch answers the two questions the search asks about every candidate
    — does it fit SRAM, and can it possibly beat the frontier? — from the
    operator partition factor and the temporal factors alone: feasibility, the
    exact per-core memory footprint and the exact step structure all follow
    from divisor arithmetic, without deriving rTensor configurations or a
    shift schedule.  The search computes the same values for whole blocks of
    candidates (:func:`sketch_block`); :func:`sketch_plan` is the one-candidate
    specification it is checked against.

    The final Pareto frontier is kept as sketches (:class:`PlanFrontier`).
    Once priced (:meth:`price`), a sketch answers everything memory
    reconciliation asks of a frontier member — ``memory_bytes``,
    ``time_est``, ``idle_bytes`` and :meth:`setup_bytes_from` — with the
    values the built plan would give, bit for bit.  Only the members a
    schedule picks pay :meth:`materialize`, which builds the full
    (bit-identical to :func:`build_plan`) :class:`OperatorPlan`.

    ``compute_time`` is filled in by whoever prices the sketch; together with
    the priced ``shift_bound_terms`` it yields :meth:`time_lower_bound`, the
    execution time the full plan can never beat.
    """

    fop: dict[str, int]
    temporal_factors: dict[str, int]
    cores_used: int
    memory_bytes: int
    num_steps: int
    steps_per_axis: dict[str, int]
    rotation_paces: dict[str, int]
    subtask_shape: dict[str, int]
    flops_per_step: float
    bytes_per_step: int
    weight_bytes: dict[str, int]
    """Per-core partition bytes of each weight tensor, in tensor order: the
    sizes the built plan's setup phase moves (:meth:`setup_bytes_from`)."""
    shift_bound_terms: tuple[tuple[int, int], ...] = ()
    """``(num_shift_steps, bytes_per_step)`` of every shift operation of the
    plan — rotation shifts in tensor order, then the reduction merge — with
    the step counts and sizes the materialized schedule will have.  Pricing
    them through the communication model reproduces ``comm_time_est``
    bit-for-bit, so the sketch's time bound is exact (never optimistic *or*
    pessimistic) and frontier pruning loses no plan the eager search keeps."""
    compute_time: float | None = None
    comm_time: float | None = None
    """The built plan's ``comm_time_est``, set by :meth:`price`."""
    built: OperatorPlan | None = field(default=None, repr=False, compare=False)
    """The plan :meth:`PlanFrontier.plan` built from this sketch, once built."""

    def comm_time_lower_bound(self, cost_model: CostModel) -> float:
        """The materialized plan's communication time (an exact bound)."""
        return sum(
            steps * cost_model.shift_time(nbytes)
            for steps, nbytes in self.shift_bound_terms
        )

    def time_lower_bound(self, cost_model: CostModel) -> float:
        """The materialized plan's ``time_est``, priced without materializing.

        Exact compute time (set by whoever priced the sketch) plus
        the exactly-replicated shift-schedule cost; the terms are summed in
        schedule order so the float result matches ``time_est`` bit-for-bit.
        """
        assert self.compute_time is not None, "sketch has not been costed yet"
        return self.compute_time + self.comm_time_lower_bound(cost_model)

    def price(self, op_type: str, cost_model: CostModel) -> None:
        """Set the built plan's compute and communication times."""
        self.compute_time = self.num_steps * cost_model.compute_time(
            op_type, self.subtask_shape, self.flops_per_step, self.bytes_per_step
        )
        self.comm_time = self.comm_time_lower_bound(cost_model)

    @property
    def time_est(self) -> float:
        """The built plan's ``time_est`` (the sketch must be priced)."""
        assert self.compute_time is not None and self.comm_time is not None, (
            "sketch has not been priced yet"
        )
        return self.compute_time + self.comm_time

    @property
    def idle_bytes(self) -> int:
        """The built plan's ``idle_bytes``: its weight partitions."""
        return sum(self.weight_bytes.values())

    def setup_bytes_from(self, idle: "PlanSketch | None") -> int:
        """The built plan's setup bytes from ``idle``'s built plan
        (:meth:`OperatorPlan.setup_bytes_from`)."""
        return _setup_bytes(self.weight_bytes, None if idle is None else idle.weight_bytes)

    def materialize(
        self,
        expr: TensorExpression,
        chip: ChipSpec,
        cost_model: CostModel,
    ) -> OperatorPlan:
        """Build the full :class:`OperatorPlan` this sketch abbreviates.

        Derives the rTensor configurations and the shift schedule the sketch
        skipped; the result is exactly what :func:`build_plan` returns for the
        same ``(fop, temporal_factors)``.

        Raises :class:`RuntimeError` when the built plan's paces, shift
        pricing, memory or per-weight partition bytes diverge from the
        sketch's: the streaming search builds its frontier, and
        reconciliation picks from it, on sketch values, so any drift would
        silently change either.  A compile materializes only the frontier
        members its schedule picks (and whatever reads
        ``CompiledModel.pareto_plans`` builds the rest);
        :meth:`~repro.core.intra_op.IntraOpOptimizer.search_reference` sends
        every feasible candidate through these checks via :func:`build_plan`.
        """
        configs: dict[str, RTensorConfig] = {}
        for spec in expr.all_tensors:
            config = derive_rtensor(
                expr, spec, self.fop, self.temporal_factors.get(spec.name, 1)
            )
            if config is None:
                raise RuntimeError(
                    f"sketch accepted an infeasible candidate for {spec.name}"
                )
            configs[spec.name] = config
        configs, paces = align_rotation_paces(expr, configs, self.fop)
        if paces != self.rotation_paces:
            raise RuntimeError("sketch paces diverged from the rTensor alignment")

        compute_time = self.compute_time
        if compute_time is None:
            compute_time = self.num_steps * cost_model.compute_time(
                expr.op_type, self.subtask_shape, self.flops_per_step, self.bytes_per_step
            )

        shift_ops = _build_shift_schedule(expr, configs, self.fop, self.steps_per_axis)
        comm_time = sum(
            op.num_steps * cost_model.shift_time(op.bytes_per_step) for op in shift_ops
        )
        # The frontier pruning treats the sketch's priced shift terms as this
        # plan's exact communication time; any drift between sketch_plan and
        # _build_shift_schedule silently drops frontier plans, so fail loudly
        # (a real raise, not an assert — it must survive ``python -O``).
        if comm_time != self.comm_time_lower_bound(cost_model):
            raise RuntimeError(
                "sketch shift pricing diverged from the materialized schedule"
            )

        memory = sum(config.partition_bytes for config in configs.values())
        memory += chip.shift_buffer_bytes
        if memory != self.memory_bytes:
            raise RuntimeError("sketch memory diverged from the rTensor footprint")
        weights = {
            name: config.partition_bytes
            for name, config in configs.items()
            if config.spec.role is TensorRole.WEIGHT
        }
        if weights != self.weight_bytes:
            raise RuntimeError("sketch weight partitions diverged from the rTensors")

        return OperatorPlan(
            op_type=expr.op_type,
            fop=dict(self.fop),
            rtensors=configs,
            rotation_paces=paces,
            cores_used=self.cores_used,
            num_steps=self.num_steps,
            subtask_shape=self.subtask_shape,
            flops_per_step=self.flops_per_step,
            bytes_per_step=self.bytes_per_step,
            compute_time_est=compute_time,
            comm_time_est=comm_time,
            shift_ops=tuple(shift_ops),
            memory_bytes=memory,
            dtype_bytes=expr.dtype.bytes,
        )


class PlanFrontier:
    """One operator's Pareto frontier, whose plans are built on demand.

    ``members`` are sorted by increasing memory.  Each is a priced, verified
    :class:`PlanSketch` — or an :class:`OperatorPlan` where the plan was
    built eagerly (the library-fallback operators, or a frontier of plans
    handed to the scheduler directly).  Both kinds answer what memory
    reconciliation reads with the built plan's values.  :meth:`plan` builds
    one member the first time it is asked for, through
    :meth:`PlanSketch.materialize` with the operator's expression, chip and
    cost model, and memoizes it on the member.

    Building is deterministic, so two threads racing on one member build
    equal plans; the memo is set with one assignment and either may stay.
    A pickled frontier carries its built plans instead of the cost model,
    which need not pickle (custom kernel models are plain callables).
    """

    def __init__(
        self,
        members: Sequence[PlanSketch | OperatorPlan],
        expr: TensorExpression | None = None,
        chip: ChipSpec | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.members = tuple(members)
        self.expr = expr
        self.chip = chip
        self.cost_model = cost_model
        self._plans: list[OperatorPlan] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def build(self, index: int) -> tuple[OperatorPlan, bool]:
        """Member ``index``'s plan, and whether this call built it."""
        member = self.members[index]
        if isinstance(member, OperatorPlan):
            return member, False
        plan = member.built
        if plan is not None:
            return plan, False
        assert self.expr is not None and self.chip is not None and self.cost_model is not None
        plan = member.materialize(self.expr, self.chip, self.cost_model)
        member.built = plan
        return plan, True

    def plan(self, index: int) -> OperatorPlan:
        """Member ``index``'s plan, built on first request."""
        return self.build(index)[0]

    def plans(self) -> list[OperatorPlan]:
        """Every member's plan: one list per frontier, built on first request."""
        plans = self._plans
        if plans is None:
            plans = [self.plan(index) for index in range(len(self.members))]
            self._plans = plans
        return plans

    def __getstate__(self) -> dict:
        return {"members": tuple(self.plans())}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["members"])


class TensorGeometry(NamedTuple):
    """One tensor's slice of an :class:`FopGeometry`."""

    spec: TensorSpec
    sharing: int
    """Cores sharing one sub-tensor (:func:`~repro.core.partition.tensor_sharing_degree`)."""
    sub_shape: tuple[int, ...]
    """One sub-tensor's shape, halo included
    (:func:`~repro.core.partition.tensor_sub_shape`)."""
    elements: int
    """``prod(sub_shape)``."""


class FopGeometry(NamedTuple):
    """Everything a sketch needs that depends only on ``(expr, F_op)``.

    All temporal combinations of one ``F_op`` share it, so the scalar search
    paths derive it once per ``F_op`` (:func:`fop_geometry`) and hand it to
    every :func:`sketch_plan` call of that ``F_op``.  The block search reads
    it off its :class:`FopColumns` (:meth:`FopColumns.geometry`), only for
    the frontier members it re-sketches.
    """

    cores_used: int
    extents: dict[str, int]
    """Per-axis sub-operator extents (:func:`~repro.core.partition.sub_extents`)."""
    tensors: tuple[TensorGeometry, ...]
    """One entry per tensor, in ``expr.all_tensors`` order."""


def fop_geometry(expr: TensorExpression, fop: Mapping[str, int]) -> FopGeometry:
    """Derive the temporal-independent geometry of one operator partition."""
    extents = sub_extents(expr, fop)
    tensors = []
    for spec in expr.all_tensors:
        sub_shape = expr.tensor_shape(spec, extents)
        tensors.append(
            TensorGeometry(
                spec, tensor_sharing_degree(expr, spec, fop), sub_shape, prod(sub_shape)
            )
        )
    return FopGeometry(prod(fop.values()), extents, tuple(tensors))


def sketch_plan(
    expr: TensorExpression,
    chip: ChipSpec,
    fop: Mapping[str, int],
    temporal_factors: Mapping[str, int],
    geometry: FopGeometry | None = None,
) -> PlanSketch | None:
    """Sketch one plan candidate without deriving rTensors or shift schedules.

    Returns ``None`` exactly when :func:`build_plan` would (a temporal factor
    that no dimension can host, a factor that does not divide its tensor's
    sharing degree, or more sub-operators than cores); a non-``None`` sketch
    carries the candidate's exact memory footprint and step structure.
    ``geometry`` is ``fop_geometry(expr, fop)``, derived here when omitted.
    """
    if geometry is None:
        geometry = fop_geometry(expr, fop)
    used = geometry.cores_used
    if used > chip.num_cores:
        return None

    dtype_bytes = expr.dtype.bytes
    memory = chip.shift_buffer_bytes
    extents = geometry.extents
    output = expr.output
    pace_per_axis: dict[str, int] = {}
    rotating: list[tuple[str, int, int]] = []  # (axis, rotated dim length, sub-tensor bytes)
    output_sharing = 1
    output_sub_bytes = 0
    weight_bytes: dict[str, int] = {}
    for spec, sharing, sub_shape, elements in geometry.tensors:
        factor = temporal_factors.get(spec.name, 1)
        if factor > sharing or sharing % factor != 0:
            return None
        sub_bytes = elements * dtype_bytes
        if spec is output:
            output_sharing = sharing
            output_sub_bytes = sub_bytes
        partition_elems = elements
        if factor > 1:
            dim = choose_rotation_dim(expr, spec, fop, factor, sub_shape=sub_shape)
            if dim is None:
                return None
            partition_len = ceil_div(sub_shape[dim], factor)
            partition_elems = (partition_elems // sub_shape[dim]) * partition_len
            # The rotating-pace alignment of §4.2: tensors rotating along one
            # axis share the minimum partition length as their common pace.
            axis = spec.dims[dim].primary
            current = pace_per_axis.get(axis)
            pace = max(1, partition_len)
            pace_per_axis[axis] = pace if current is None else min(current, pace)
            rotating.append((axis, sub_shape[dim], sub_bytes))
        partition_bytes = partition_elems * dtype_bytes
        memory += partition_bytes
        if spec.role is TensorRole.WEIGHT:
            weight_bytes[spec.name] = partition_bytes

    steps_per_axis = {
        axis: max(1, ceil_div(extents[axis], max(pace, 1)))
        for axis, pace in pace_per_axis.items()
    }
    subtask_shape = {
        axis: (pace_per_axis[axis] if axis in pace_per_axis else extents[axis])
        for axis in expr.axes
    }
    # One step's slice of a tensor differs from its F_op sub-tensor only in
    # the dims that touch a rotated axis (whose step extent is the pace), so
    # only those are re-derived.  Exact integers: equal to summing
    # ``expr.tensor_bytes(spec, subtask_shape)`` over the tensors.
    step_elements = 0
    for spec, _, sub_shape, elements in geometry.tensors:
        if pace_per_axis:
            for index, dim in enumerate(spec.dims):
                if not pace_per_axis.keys().isdisjoint(dim.axes):
                    elements = (
                        elements // sub_shape[index] * expr.dim_length(dim, subtask_shape)
                    )
        step_elements += elements
    # Price the shift schedule the materialized plan will have, without
    # building it: T10's loop ordering (largest rotating tensor outermost,
    # §4.4) depends only on per-axis rotated-tensor sizes, and each rotating
    # tensor shifts ``steps_k - 1`` times per iteration of the loops outside
    # its axis.  Terms are kept in schedule order (rotation shifts in tensor
    # order, then the reduction merge) so pricing reproduces the float
    # summation of the full plan's ``comm_time_est`` bit-for-bit.
    axis_sizes: dict[str, int] = {}
    for axis, _, sub_bytes in rotating:
        axis_sizes[axis] = min(axis_sizes.get(axis, sub_bytes), sub_bytes)
    ordered_axes = sorted(axis_sizes, key=lambda axis: -axis_sizes[axis])
    axis_position = {axis: index for index, axis in enumerate(ordered_axes)}
    shift_bound_terms: list[tuple[int, int]] = []
    for axis, dim_len, sub_bytes in rotating:
        steps_k = steps_per_axis[axis]
        if steps_k <= 1:
            continue  # the schedule emits no shift op for this tensor
        outer_iters = prod(
            steps_per_axis[other]
            for other in ordered_axes
            if axis_position[other] < axis_position[axis]
        )
        rotation_steps = max(1, ceil_div(dim_len, pace_per_axis[axis]))
        shift_bound_terms.append(
            ((steps_k - 1) * outer_iters, ceil_div(sub_bytes, rotation_steps))
        )
    if output_sharing > 1 and temporal_factors.get(expr.output.name, 1) <= 1:
        # Spatially split reduction with a replicated output: each core merges
        # its partial result over a ring of the sharing cores (§4.2).
        merge_bytes = ceil_div(output_sub_bytes, output_sharing)
        shift_bound_terms.append((output_sharing - 1, merge_bytes))
    return PlanSketch(
        fop=dict(fop),
        temporal_factors=dict(temporal_factors),
        cores_used=used,
        memory_bytes=memory,
        num_steps=prod(steps_per_axis.values()),
        steps_per_axis=steps_per_axis,
        rotation_paces=pace_per_axis,
        subtask_shape=subtask_shape,
        flops_per_step=expr.flops(subtask_shape),
        bytes_per_step=step_elements * dtype_bytes,
        weight_bytes=weight_bytes,
        shift_bound_terms=tuple(shift_bound_terms),
    )


# --------------------------------------------------------------------------- #
# Block sketches: every temporal combination of a run of F_ops as arrays
# --------------------------------------------------------------------------- #
_T = TypeVar("_T")

#: Integers below this convert to float64 exactly.  The block sketcher keeps
#: int64 columns when every quantity of an operator stays below it, and falls
#: back to exact Python-int (object) columns otherwise.
_EXACT_FLOAT_INT = 2**53


def temporal_combos(
    choices: Sequence[Sequence[_T]], limit: int
) -> Iterator[tuple[_T, ...]]:
    """The temporal combinations of one ``F_op``, in canonical order.

    ``choices`` holds one choice list per tensor (``expr.all_tensors``
    order); the combinations are their Cartesian product, last tensor
    fastest, cut at ``limit``.  The scalar search paths expand the factor
    lists with it and :func:`sketch_block` expands row-index ranges of the
    same lengths with it, so both see the candidates in one order.
    """
    return itertools.islice(itertools.product(*choices), limit)


@dataclass(frozen=True)
class FopColumns:
    """The temporal-independent geometry of every ``F_op`` of the operators
    of one layout (:func:`column_layout`).

    Row ``i`` holds, as columns, what :func:`fop_geometry` derives for the
    ``i``-th ``F_op``, each tensor's longest sub-tensor dim and the
    temporal-factor choices of each tensor
    (:func:`~repro.core.partition.temporal_factor_choices`).  The rows of
    each operator are contiguous, operator after operator.  Per-tensor
    columns are ``(F_ops, tensors)`` in ``expr.all_tensors`` order.
    Integer columns are int64 while float64 holds every integer of the
    operators exactly (below :data:`_EXACT_FLOAT_INT`), and Python ints
    (object) otherwise.
    """

    exprs: tuple[TensorExpression, ...]
    """The operators' expressions, in row order.  They differ only in their
    axis extents, which the ``extents`` column holds per row."""
    ends: tuple[int, ...]
    """Each operator's stop row: its rows end where the next one's begin."""
    bound: int
    """Bounds every integer of these columns and of their :func:`sketch_block`
    columns on the chip they were derived for."""
    fops: np.ndarray
    """``(F_ops, axes)`` partition factors, in ``expr.axes`` order."""
    extents: np.ndarray
    """``(F_ops, axes)`` sub-operator extents."""
    cores_used: np.ndarray
    sharing: np.ndarray
    sub_shapes: np.ndarray
    """``(F_ops, tensors, largest rank)`` sub-shapes, halo included, padded
    with zeros past each tensor's rank."""
    elements: np.ndarray
    longest: np.ndarray
    """Length of the longest sub-tensor dim (0 for a scalar tensor)."""
    longest_axis: np.ndarray
    """``expr.axes`` index of the longest dim's primary axis (first dim on
    ties, as :func:`~repro.core.partition.choose_rotation_dim`)."""
    choice_factors: np.ndarray
    """Every distinct choice list, concatenated."""
    choice_start: np.ndarray
    """``(F_ops, tensors)`` offset of each tensor's choices in ``choice_factors``."""
    choice_count: np.ndarray
    """``(F_ops, tensors)`` number of choices of each tensor."""

    def __len__(self) -> int:
        return len(self.fops)

    @property
    def expr(self) -> TensorExpression:
        """The first operator's expression (the layout's names and specs)."""
        return self.exprs[0]

    def operator_rows(self) -> list[range]:
        """Each operator's rows, in ``exprs`` order."""
        return [range(start, end) for start, end in zip((0, *self.ends), self.ends)]

    def fop(self, row: int) -> dict[str, int]:
        """``F_op`` of ``row``."""
        return dict(zip(self.expr.axes, self.fops[row].tolist()))

    def geometry(self, row: int) -> FopGeometry:
        """:func:`fop_geometry` of ``row``, read off the columns; the tensor
        specs are those of the operator the row belongs to."""
        tensors = tuple(
            TensorGeometry(spec, sharing, tuple(shape[: spec.rank]), elements)
            for spec, sharing, shape, elements in zip(
                self.exprs[bisect.bisect_right(self.ends, row)].all_tensors,
                self.sharing[row].tolist(),
                self.sub_shapes[row].tolist(),
                self.elements[row].tolist(),
            )
        )
        extents = dict(zip(self.expr.axes, self.extents[row].tolist()))
        return FopGeometry(int(self.cores_used[row]), extents, tensors)

    def combo_counts(self, limit: int) -> np.ndarray:
        """Temporal combinations of each ``F_op`` (:func:`temporal_combos`)."""
        return np.minimum(self.choice_count.prod(axis=1), limit)


def _column_bound(expr: TensorExpression, chip: ChipSpec) -> int:
    """Bounds every integer of ``expr``'s columns and sketch blocks on ``chip``."""
    return max(
        prod(expr.axes.values()), expr.total_bytes + chip.shift_buffer_bytes, chip.num_cores
    )


def column_layout(expr: TensorExpression, chip: ChipSpec) -> tuple:
    """Everything :func:`fop_columns` and :func:`sketch_block` read off
    ``expr`` besides its axis extents, and whether its integers fit int64
    columns on ``chip``.  Operators of one layout share one
    :class:`FopColumns` and are sketched and priced in shared blocks."""
    return (
        expr.op_type,
        tuple(expr.axes),
        expr.all_tensors,
        expr.dtype,
        expr.flops_axes,
        expr.flops_per_point,
        _column_bound(expr, chip) < _EXACT_FLOAT_INT,
    )


def fop_columns(
    exprs: Sequence[TensorExpression],
    chip: ChipSpec,
    partitions: Sequence[Sequence[Sequence[int]]],
    max_choices: int,
) -> FopColumns:
    """Derive :class:`FopColumns` for operators of one :func:`column_layout`
    in one array pass: ``partitions[i]`` holds the ``F_op`` rows of
    ``exprs[i]``, in ``expr.axes`` order.

    Each tensor's temporal choices are thinned to ``max_choices``; the
    thinning runs once per distinct ``(sharing degree, longest dim)`` pair
    of all the operators.
    """
    expr = exprs[0]
    bound = max(_column_bound(each, chip) for each in exprs)
    ints = np.int64 if bound < _EXACT_FLOAT_INT else object
    # Factors are at most the core count, so int64 holds them exactly.
    fops = np.concatenate(
        [np.asarray(rows, dtype=np.int64).reshape(-1, len(expr.axes)) for rows in partitions]
    ).astype(ints, copy=False)
    full = np.array([list(each.axes.values()) for each in exprs], dtype=ints)
    extents = _ceil_div(np.repeat(full, [len(rows) for rows in partitions], axis=0), fops)
    layout = _tensor_layout(tuple(expr.axes), expr.all_tensors)
    # Every dim of every tensor at once: the sum of its axes' sub-extents,
    # minus the halo of a compound dim; past a tensor's rank, zero.
    dims = extents @ layout.dim_axes.astype(ints) - layout.halo.astype(ints)
    sub_shapes = dims[:, layout.tensor_dims]
    dim = sub_shapes.argmax(axis=2)
    sharing = np.where(layout.missing, fops[:, None, :], 1).prod(axis=2)

    # One thinning per distinct (sharing, longest) pair.  The choices are
    # divisors of the sharing degree, so a longest dim past it is clipped to
    # it; a scalar tensor's longest dim counts as 1, as in
    # ``temporal_factor_choices``.
    longest = sub_shapes.max(axis=2)
    pair_sharing = sharing.ravel()
    pair_reach = np.minimum(np.maximum(longest, 1), sharing).ravel()
    top = int(pair_sharing.max()) + 1
    if top >= 2**31:  # keep the pair keys exact
        pair_sharing = pair_sharing.astype(object)
    _, first, choice_id = np.unique(
        pair_sharing * top + pair_reach, return_index=True, return_inverse=True
    )
    lists = [
        thinned_temporal_choices(degree, reach, max_choices)
        for degree, reach in zip(pair_sharing[first].tolist(), pair_reach[first].tolist())
    ]
    sizes = np.array([len(factors) for factors in lists], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    return FopColumns(
        exprs=tuple(exprs),
        ends=tuple(itertools.accumulate(len(rows) for rows in partitions)),
        bound=bound,
        fops=fops,
        extents=extents,
        cores_used=fops.prod(axis=1),
        sharing=sharing,
        sub_shapes=sub_shapes,
        elements=np.maximum(sub_shapes, 1).prod(axis=2),  # every dim is >= 1
        longest=longest,
        longest_axis=layout.primary[np.arange(sharing.shape[1]), dim],
        choice_factors=np.array([f for factors in lists for f in factors], dtype=ints),
        choice_start=starts[choice_id].reshape(sharing.shape),
        choice_count=sizes[choice_id].reshape(sharing.shape),
    )


class _TensorLayout(NamedTuple):
    """Which axes make up each tensor dim of one expression, as index arrays."""

    dim_axes: np.ndarray
    """``(axes, dims + 1)``: 1 where the axis is part of the dim.  Dims of
    every tensor, in ``expr.all_tensors`` order, then an empty one."""
    halo: np.ndarray
    """``(dims + 1,)`` axes per dim, minus 1 (0 for the empty dim)."""
    tensor_dims: np.ndarray
    """``(tensors, largest rank)`` dim of each tensor position; the empty
    dim past the tensor's rank."""
    primary: np.ndarray
    """``(tensors, largest rank)`` axis index of each dim's primary axis."""
    missing: np.ndarray
    """``(tensors, axes)`` set where the tensor lacks the axis."""


@lru_cache(maxsize=None)
def _tensor_layout(axes: tuple[str, ...], tensors: tuple[TensorSpec, ...]) -> _TensorLayout:
    """The :class:`_TensorLayout` of an expression's axes and tensors (memoised:
    operators of one kind share it)."""
    rank = max(1, *(spec.rank for spec in tensors))
    all_dims = [dim for spec in tensors for dim in spec.dims]
    dim_axes = np.zeros((len(axes), len(all_dims) + 1), dtype=np.int64)
    for index, dim in enumerate(all_dims):
        dim_axes[[axes.index(axis) for axis in dim.axes], index] = 1
    tensor_dims = np.full((len(tensors), rank), len(all_dims), dtype=np.intp)
    primary = np.zeros((len(tensors), rank), dtype=np.intp)
    first = 0
    for position, spec in enumerate(tensors):
        tensor_dims[position, : spec.rank] = range(first, first + spec.rank)
        primary[position, : spec.rank] = [axes.index(dim.primary) for dim in spec.dims]
        first += spec.rank
    missing = np.array([[not spec.has_axis(axis) for axis in axes] for spec in tensors])
    halo = np.array([len(dim.axes) - 1 for dim in all_dims] + [0])
    return _TensorLayout(dim_axes, halo, tensor_dims, primary, missing)


@lru_cache(maxsize=None)
def _combo_offsets(lengths: tuple[int, ...], limit: int) -> np.ndarray:
    """``(combinations, tensors)`` choice positions of one choice-length tuple,
    in :func:`temporal_combos` order."""
    offsets = np.array(
        list(temporal_combos([range(length) for length in lengths], limit)), dtype=np.intp
    ).reshape(-1, len(lengths))
    offsets.flags.writeable = False
    return offsets


@dataclass(frozen=True)
class SketchBlock:
    """The sketches of every temporal combination of a run of ``F_op`` values.

    Candidate ``i`` is the ``i``-th combination in :func:`temporal_combos`
    order, ``F_op`` after ``F_op``.  Its columns hold exactly the values
    :func:`sketch_plan` gives that candidate — feasibility, memory, step
    count, sub-task shape, FLOPs and bytes per step, shift terms — and are
    meaningful only where ``feasible`` is set.  Integer columns are int64,
    or Python ints (object) for operators too large for float64 to hold
    their integers exactly.
    """

    fop_index: np.ndarray
    """:class:`FopColumns` row of each candidate."""
    factors: np.ndarray
    """``(candidates, tensors)`` temporal factor of every tensor."""
    feasible: np.ndarray
    memory_bytes: np.ndarray
    num_steps: np.ndarray
    subtask_shape: dict[str, np.ndarray]
    flops_per_step: np.ndarray
    bytes_per_step: np.ndarray
    shift_terms: tuple[tuple[np.ndarray, np.ndarray], ...]
    """``(num_shift_steps, bytes_per_step)`` columns in schedule order: one
    per tensor (its rotation shift), then the reduction merge.  A term the
    candidate's schedule does not have has zero steps."""

    def __len__(self) -> int:
        return len(self.fop_index)

    def candidate(self, index: int) -> tuple[int, tuple[int, ...]]:
        """``(F_op row, temporal factors)`` of candidate ``index``."""
        return int(self.fop_index[index]), tuple(self.factors[index].tolist())

    def time_bound(
        self, cost_model: CostModel, op_type: str, index: np.ndarray
    ) -> np.ndarray:
        """:meth:`PlanSketch.time_lower_bound` of the candidates at ``index``.

        The float operations are the scalar path's, in its order: compute
        time is ``num_steps * per_step``, communication time sums the shift
        terms in schedule order from zero, and the bound is their sum.
        Adding an absent term's exact ``0.0`` leaves a partial sum
        unchanged, so every element equals the scalar bound bit for bit.
        """
        per_step = cost_model.compute_time_batch(
            op_type,
            {axis: column[index] for axis, column in self.subtask_shape.items()},
            self.flops_per_step[index],
            self.bytes_per_step[index],
        )
        compute = _as_float(self.num_steps[index]) * per_step
        comm = np.zeros(len(index))
        for steps, nbytes in self.shift_terms:
            steps = steps[index]
            term = _as_float(steps) * cost_model.shift_time_batch(nbytes[index])
            comm = comm + np.where(steps > 0, term, 0.0)
        return compute + comm


def _as_float(column: np.ndarray) -> np.ndarray:
    return np.asarray(column, dtype=np.float64)


def _ceil_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    return -(-numerator // denominator)


def sketch_block(
    chip: ChipSpec,
    columns: FopColumns,
    rows: Sequence[int],
    limit: int,
) -> SketchBlock:
    """Sketch every temporal combination of the ``F_op`` ``rows`` of ``columns``.

    The array counterpart of :func:`sketch_plan`: each ``F_op`` contributes
    its first ``limit`` combinations (:func:`temporal_combos`), in ``rows``
    order, and the block's columns equal ``sketch_plan`` on each of them,
    bit for bit.  The rows may belong to several operators of the columns'
    layout: every row carries its own extents, and nothing else of a
    candidate depends on its operator.

    The work is split by what it depends on.  A *rotation row* per
    ``(F_op, tensor, factor)`` holds the factor's feasibility, the tensor's
    partition bytes, its rotated axis, pace and rotated-dim length — the
    rotation dim is the sub-tensor's longest (first on ties), whatever the
    factor, as in :func:`~repro.core.partition.choose_rotation_dim`.  Each
    candidate then picks one row per tensor, and the per-axis paces, step
    counts, sub-task shape and shift schedule follow as array arithmetic.
    """
    expr = columns.expr
    tensors = expr.all_tensors
    num_tensors = len(tensors)
    axes = list(expr.axes)
    axis_index = {axis: index for index, axis in enumerate(axes)}
    dtype_bytes = expr.dtype.bytes
    ints = columns.fops.dtype
    big = max(2**62, columns.bound + 1)  # larger than any pace, byte count or step count

    # Per (F_op, tensor) slot, flattened as ``F_op * num_tensors + tensor``.
    block_rows = np.asarray(rows, dtype=np.intp)
    sharing_col = columns.sharing[block_rows].ravel()
    elements_col = columns.elements[block_rows].ravel()
    sub_bytes_col = elements_col * dtype_bytes
    longest_col = columns.longest[block_rows].ravel()
    lengths = columns.choice_count[block_rows]
    slot_rows = lengths.ravel()

    # Rotation rows: one per (F_op, tensor, factor), slot after slot.
    owner = np.repeat(np.arange(len(slot_rows)), slot_rows)
    slot_first = np.cumsum(slot_rows) - slot_rows
    within = np.arange(len(owner)) - slot_first[owner]
    factor = columns.choice_factors[columns.choice_start[block_rows].ravel()[owner] + within]

    # Each F_op's combinations, as rotation-row indices: one cached table of
    # choice positions per choice-length tuple, offset by the F_op's slots.
    tables = [_combo_offsets(tuple(row), limit) for row in lengths.tolist()]
    fop_local = np.repeat(np.arange(len(tables)), [len(table) for table in tables])
    picks = np.concatenate(tables) + slot_first.reshape(lengths.shape)[fop_local]
    count = len(picks)

    # Rotation rows.
    row_sharing = sharing_col[owner]
    row_longest = longest_col[owner]
    rotates = factor > 1
    row_ok = (factor <= row_sharing) & (row_sharing % factor == 0) & (
        ~rotates | (row_longest >= factor)
    )
    partition_len = _ceil_div(row_longest, factor)
    row_elements = elements_col[owner]
    row_bytes = np.where(
        rotates, row_elements // np.maximum(row_longest, 1) * partition_len, row_elements
    ) * dtype_bytes
    row_pace = np.maximum(partition_len, 1)
    row_axis = np.where(rotates, columns.longest_axis[block_rows].ravel()[owner], -1)

    # Per candidate: the rows it picks and what they add up to.
    feasible = (columns.cores_used[block_rows] <= chip.num_cores)[fop_local]
    memory = np.full(count, chip.shift_buffer_bytes, dtype=ints)
    axis_ids = np.arange(len(axes))[:, None]
    pace = np.full((len(axes), count), big, dtype=ints)  # min pace per axis
    axis_bytes = np.full((len(axes), count), big, dtype=ints)  # min sub-tensor bytes
    first = np.full((len(axes), count), num_tensors)  # first tensor rotating on it
    rotated: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for position in range(num_tensors):
        picked = picks[:, position]
        feasible &= row_ok[picked]
        memory += row_bytes[picked]
        tensor_axis = row_axis[picked]
        tensor_owner = owner[picked]
        hit = tensor_axis[None, :] == axis_ids
        pace = np.where(hit, np.minimum(pace, row_pace[picked]), pace)
        axis_bytes = np.where(hit, np.minimum(axis_bytes, sub_bytes_col[tensor_owner]), axis_bytes)
        first = np.where(hit, np.minimum(first, position), first)
        rotated.append((tensor_axis, longest_col[tensor_owner], sub_bytes_col[tensor_owner]))

    fop_extents = columns.extents[block_rows][fop_local].T
    rotating = pace != big
    safe_pace = np.where(rotating, pace, 1)
    steps = np.where(rotating, np.maximum(_ceil_div(fop_extents, safe_pace), 1), 1)
    subtask = np.where(rotating, pace, fop_extents)

    flops_axes = expr.flops_axes if expr.flops_axes is not None else frozenset(axes)
    flops_rows = [axis_index[axis] for axis in axes if axis in flops_axes]
    flops_count = (
        subtask[flops_rows].prod(axis=0) if flops_rows else np.ones(count, dtype=ints)
    )
    step_elements = np.zeros(count, dtype=ints)
    for spec in tensors:
        tensor_elements = np.ones(count, dtype=ints)
        for dim in spec.dims:
            length = subtask[axis_index[dim.axes[0]]]
            for axis in dim.axes[1:]:
                length = length + subtask[axis_index[axis]]
            tensor_elements = tensor_elements * (length - (len(dim.axes) - 1))
        step_elements += tensor_elements

    # Shift schedule: axis ``b`` is looped outside axis ``a`` when its
    # rotating tensors are larger, or equally large and rotating earlier in
    # tensor order (the stable sort of ``sketch_plan``).  Axes that do not
    # rotate have one step, so they never change a product.
    outside = (axis_bytes[:, None] > axis_bytes[None, :]) | (
        (axis_bytes[:, None] == axis_bytes[None, :]) & (first[:, None] < first[None, :])
    )
    outer_iters = np.where(outside, steps[:, None], 1).prod(axis=0)
    candidates = np.arange(count)
    shift_terms = []
    for tensor_axis, dim_len, sub_bytes in rotated:
        at = np.maximum(tensor_axis, 0), candidates
        steps_k = steps[at]
        present = (tensor_axis >= 0) & (steps_k > 1)
        rotation_steps = np.maximum(_ceil_div(dim_len, safe_pace[at]), 1)
        shift_terms.append(
            (
                np.where(present, (steps_k - 1) * outer_iters[at], 0),
                _ceil_div(sub_bytes, rotation_steps),
            )
        )
    # The reduction merge of a replicated, spatially split output.
    output = picks[:, num_tensors - 1]
    output_sharing = row_sharing[output]
    merge = (output_sharing > 1) & (factor[output] <= 1)
    shift_terms.append(
        (
            np.where(merge, output_sharing - 1, 0),
            _ceil_div(sub_bytes_col[owner[output]], output_sharing),
        )
    )

    return SketchBlock(
        fop_index=block_rows[fop_local],
        factors=factor[picks],
        feasible=feasible,
        memory_bytes=memory,
        num_steps=steps.prod(axis=0),
        subtask_shape={axis: subtask[index] for index, axis in enumerate(axes)},
        flops_per_step=flops_count * expr.flops_per_point,
        bytes_per_step=step_elements * dtype_bytes,
        shift_terms=tuple(shift_terms),
    )


def build_plan(
    expr: TensorExpression,
    chip: ChipSpec,
    cost_model: CostModel,
    fop: Mapping[str, int],
    temporal_factors: Mapping[str, int],
    geometry: FopGeometry | None = None,
) -> OperatorPlan | None:
    """Build and cost one execution plan candidate.

    ``temporal_factors`` maps tensor names to the chosen temporal partition
    factor.  Returns ``None`` when the combination is infeasible (a temporal
    factor that no dimension can host, or more sub-operators than cores).
    Implemented as sketch-then-materialize so the eager and streaming search
    paths share one construction path; ``geometry`` is passed through to
    :func:`sketch_plan`.
    """
    sketch = sketch_plan(expr, chip, fop, temporal_factors, geometry)
    if sketch is None:
        return None
    return sketch.materialize(expr, chip, cost_model)


def _build_shift_schedule(
    expr: TensorExpression,
    configs: Mapping[str, RTensorConfig],
    fop: Mapping[str, int],
    steps_per_axis: Mapping[str, int],
) -> list[ShiftOp]:
    """Derive the per-tensor shift operations of one plan.

    The rotated axes form a loop nest.  T10 places the axis of the smaller
    tensor innermost (paper §4.4, sub-operator computation scheduling), so the
    small tensor is the one re-streamed by outer iterations.  A tensor rotating
    along axis ``k`` performs ``steps_k - 1`` shifts per cycle and one cycle
    per iteration of the loops outside ``k``.
    """
    # Order rotation axes outermost-first by the size of the tensors rotating
    # along them (largest first → smallest tensor innermost).
    axis_sizes: dict[str, int] = {}
    for config in configs.values():
        axis = config.rotation_axis
        if axis is None:
            continue
        size = config.sub_tensor_bytes
        axis_sizes[axis] = min(axis_sizes.get(axis, size), size)
    ordered_axes = sorted(axis_sizes, key=lambda axis: -axis_sizes[axis])
    axis_position = {axis: index for index, axis in enumerate(ordered_axes)}

    shift_ops: list[ShiftOp] = []
    for name, config in configs.items():
        axis = config.rotation_axis
        if axis is None:
            continue
        steps_k = steps_per_axis.get(axis, config.rotation_steps)
        if steps_k <= 1:
            continue
        outer_iters = prod(
            steps_per_axis[other]
            for other in ordered_axes
            if axis_position[other] < axis_position[axis]
        )
        num_shift_steps = (steps_k - 1) * outer_iters
        shift_ops.append(
            ShiftOp(
                tensor_name=name,
                bytes_per_step=config.bytes_per_shift,
                num_steps=num_shift_steps,
                ring_size=config.temporal_factor,
            )
        )

    shift_ops.extend(_reduction_merge_ops(expr, configs, fop))
    return shift_ops


def _reduction_merge_ops(
    expr: TensorExpression,
    configs: Mapping[str, RTensorConfig],
    fop: Mapping[str, int],
) -> list[ShiftOp]:
    """Partial-result merge traffic when reduction axes are spatially split.

    If a reduction axis is partitioned across cores and the output rTensor is
    replicated (not rotated), each core ends up with a partial output that
    must be combined over a ring of the sharing cores.
    """
    output = expr.output
    sharing = tensor_sharing_degree(expr, output, fop)
    if sharing <= 1:
        return []
    config = configs[output.name]
    if config.is_rotated:
        return []
    merge_bytes = ceil_div(config.sub_tensor_bytes, sharing)
    return [
        ShiftOp(
            tensor_name=f"{output.name}.partial",
            bytes_per_step=merge_bytes,
            num_steps=sharing - 1,
            ring_size=sharing,
        )
    ]


def build_library_plan(
    expr: TensorExpression,
    chip: ChipSpec,
    cost_model: CostModel,
) -> OperatorPlan:
    """Trivial plan for operators executed by the vendor library (paper §4.2).

    The operator's data is spread evenly over all cores and executed without
    inter-core rotation; its time comes from the generic cost model.
    """
    axis, extent = next(iter(expr.axes.items()))
    used = min(chip.num_cores, extent)
    fop = {name: 1 for name in expr.axes}
    fop[axis] = used
    extents = sub_extents(expr, fop)
    subtask_shape = dict(extents)
    flops = expr.flops(subtask_shape)
    nbytes = sum(expr.tensor_bytes(spec, subtask_shape) for spec in expr.all_tensors)
    configs = {}
    for spec in expr.all_tensors:
        config = derive_rtensor(expr, spec, fop, 1)
        assert config is not None
        configs[spec.name] = config
    memory = sum(c.partition_bytes for c in configs.values()) + chip.shift_buffer_bytes
    return OperatorPlan(
        op_type=expr.op_type,
        fop=fop,
        rtensors=configs,
        rotation_paces={},
        cores_used=used,
        num_steps=1,
        subtask_shape=subtask_shape,
        flops_per_step=flops,
        bytes_per_step=nbytes,
        compute_time_est=cost_model.compute_time(expr.op_type, subtask_shape, flops, nbytes),
        comm_time_est=0.0,
        shift_ops=(),
        memory_bytes=memory,
        dtype_bytes=expr.dtype.bytes,
    )
