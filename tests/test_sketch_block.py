"""The block sketcher against its executable specification.

``sketch_block`` sketches every temporal combination of a run of ``F_op``
values as numpy columns.  Every column must equal the scalar ``sketch_plan``
of the same candidate, and the block's priced bound must equal
``PlanSketch.time_lower_bound`` bit for bit: the streaming search chooses its
frontier on the block's values alone.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, IntraOpOptimizer, T10Compiler
from repro.core import intra_op
from repro.core.constraints import DEFAULT_CONSTRAINTS, FAST_CONSTRAINTS
from repro.core.partition import (
    choose_rotation_dim,
    enumerate_operator_partitions,
    temporal_factor_choices,
)
from repro.core.plan import (
    column_layout,
    fop_columns,
    fop_geometry,
    sketch_block,
    sketch_plan,
    temporal_combos,
)
from repro.experiments.common import build_workload
from repro.hw.spec import A100_CHIP, IPU_MK2
from repro.ir import conv2d, library_op, matmul
from repro.models import list_models, opt_decode_session
from repro.serving import ContinuousEngine, DecodeModel, PlanCache
from repro.serving.batcher import batch_buckets


@pytest.fixture(scope="module")
def a100_cost_model() -> CostModel:
    return CostModel.fit(A100_CHIP, samples_per_type=24)


def column_choices(columns, row):
    """Each tensor's temporal-factor choices under ``row``'s ``F_op``, read
    back from the flat choice columns."""
    return tuple(
        tuple(columns.choice_factors[start : start + count].tolist())
        for start, count in zip(
            columns.choice_start[row].tolist(), columns.choice_count[row].tolist()
        )
    )


def check_block(expr, chip, cost_model, columns, rows, limit):
    """Assert the block of ``columns``' ``rows`` equals ``sketch_plan`` on every
    candidate.  Returns the feasible candidates' scalar sketches, in order."""
    block = sketch_block(chip, columns, rows, limit)
    names = [spec.name for spec in expr.all_tensors]
    candidates = [
        (row, columns.fop(row), dict(zip(names, combo)))
        for row in rows
        for combo in temporal_combos(column_choices(columns, row), limit)
    ]
    assert block.factors.tolist() == [list(temporal.values()) for _, _, temporal in candidates]
    assert block.fop_index.tolist() == [row for row, _, _ in candidates]
    # Each candidate's own geometry: a wrong shared one must not pass unseen.
    sketches = [sketch_plan(expr, chip, fop, temporal) for _, fop, temporal in candidates]
    assert block.feasible.tolist() == [sketch is not None for sketch in sketches]

    live = [sketch for sketch in sketches if sketch is not None]
    index = np.flatnonzero(block.feasible)
    assert block.memory_bytes[index].tolist() == [s.memory_bytes for s in live]
    assert block.num_steps[index].tolist() == [s.num_steps for s in live]
    assert block.flops_per_step[index].tolist() == [s.flops_per_step for s in live]
    assert block.bytes_per_step[index].tolist() == [s.bytes_per_step for s in live]
    for axis, column in block.subtask_shape.items():
        assert column[index].tolist() == [s.subtask_shape[axis] for s in live]
    for sketch in live:
        sketch.compute_time = sketch.num_steps * cost_model.compute_time(
            expr.op_type, sketch.subtask_shape, sketch.flops_per_step, sketch.bytes_per_step
        )
    bounds = block.time_bound(cost_model, expr.op_type, index).tolist()
    assert bounds == [sketch.time_lower_bound(cost_model) for sketch in live]
    return live


def check_operator(optimizer, expr):
    """Check every candidate the search would sketch for ``expr``, as one
    block (a candidate's values do not depend on its block)."""
    limit = optimizer.constraints.max_temporal_combos
    columns = optimizer._fop_columns([expr])
    rows = range(len(columns))
    return check_block(expr, optimizer.chip, optimizer.cost_model, columns, rows, limit)


def check_geometry(optimizer, expr):
    """Assert the search's ``F_op`` columns equal the scalar derivations:
    :func:`fop_geometry`, the longest dim :func:`choose_rotation_dim` picks and
    :func:`temporal_factor_choices`.  Returns the ``F_op`` count."""
    columns = optimizer._fop_columns([expr])
    fops = enumerate_operator_partitions(expr, optimizer.chip.num_cores, optimizer.constraints)
    assert [columns.fop(row) for row in range(len(columns))] == fops
    axes = list(expr.axes)
    budget = optimizer._per_tensor_choice_budget(len(expr.all_tensors))
    for row, fop in enumerate(fops):
        geometry = columns.geometry(row)
        assert geometry == fop_geometry(expr, fop)
        assert type(geometry.cores_used) is int
        assert all(type(extent) is int for extent in geometry.extents.values())
        choices = column_choices(columns, row)
        for position, (tensor, factors) in enumerate(zip(geometry.tensors, choices)):
            spec = tensor.spec
            assert all(type(length) is int for length in tensor.sub_shape)
            assert type(tensor.sharing) is type(tensor.elements) is int
            longest = max(tensor.sub_shape, default=0)
            assert columns.longest[row, position] == longest
            # The first dim of the longest length is the only one that can host
            # a split of that many parts.
            dim = choose_rotation_dim(expr, spec, fop, longest) if longest > 1 else 0
            primary = spec.dims[dim].primary if spec.dims else axes[0]
            assert columns.longest_axis[row, position] == axes.index(primary)
            assert list(factors) == temporal_factor_choices(expr, spec, fop, max_choices=budget)
    return len(fops)


def registry_operators():
    """Every distinct searched operator of the registry models."""
    seen: set[tuple] = set()
    for model_name in list_models():
        for operator in build_workload(model_name, 1, quick=True).operators:
            if operator.expr.library_fallback or operator.signature() in seen:
                continue
            seen.add(operator.signature())
            yield operator


@pytest.mark.parametrize("chip_name", ["ipu", "a100"])
def test_registry_geometry_matches_scalar_derivation(
    chip_name, ipu_cost_model, a100_cost_model
):
    chip, cost_model = {
        "ipu": (IPU_MK2, ipu_cost_model),
        "a100": (A100_CHIP, a100_cost_model),
    }[chip_name]
    optimizer = IntraOpOptimizer(chip, cost_model, DEFAULT_CONSTRAINTS)
    assert sum(check_geometry(optimizer, operator.expr) for operator in registry_operators()) > 1000


@pytest.mark.parametrize("chip_name", ["ipu", "a100"])
def test_registry_models_match_scalar_sketches(
    chip_name, ipu_cost_model, a100_cost_model
):
    chip, cost_model = {
        "ipu": (IPU_MK2, ipu_cost_model),
        "a100": (A100_CHIP, a100_cost_model),
    }[chip_name]
    optimizer = IntraOpOptimizer(chip, cost_model, DEFAULT_CONSTRAINTS)
    checked = compound_rotated = multi_axis = 0
    for operator in registry_operators():
        expr = operator.expr
        compound_dims = [
            dim for spec in expr.all_tensors for dim in spec.dims if dim.is_compound
        ]
        for sketch in check_operator(optimizer, expr):
            checked += 1
            paces = sketch.rotation_paces
            # Conv inputs index ``h + kh``: a rotated axis there changes
            # that dim's per-step length.
            compound_rotated += any(
                not paces.keys().isdisjoint(dim.axes) for dim in compound_dims
            )
            # Two rotated axes exercise the loop-nest order of the shifts.
            multi_axis += len(paces) >= 2
    assert checked > 10_000
    assert compound_rotated > 0
    assert multi_axis > 0


def test_infeasible_factors_and_partitions(small_chip, small_cost_model):
    """Factors that do not divide the sharing degree, that exceed it, that no
    dim can host, and an ``F_op`` using more cores than the chip has."""
    expr = matmul("mm", m=96, k=4, n=4).expr
    fops = [(16, 1, 1), (8, 1, 4), (96, 1, 1)]  # (m, k, n)
    choices = [
        # B[k, n] is shared by the 16 m-parts: 3 does not divide 16, 32
        # exceeds it, and 8 divides it but exceeds both of B's 4-long dims.
        ((1,), (1, 2, 3, 8, 32), (1,)),
        ((1, 2, 4), (1, 2, 8), (1,)),
        ((1,), (1, 2), (1,)),
    ]
    # Hand-made choice lists replace the thinned ones, F_op by F_op.
    lists = [factors for per_fop in choices for factors in per_fop]
    counts = np.array([len(factors) for factors in lists]).reshape(3, 3)
    columns = replace(
        fop_columns([expr], small_chip, [fops], max_choices=2),
        choice_factors=np.array([f for factors in lists for f in factors]),
        choice_start=(np.cumsum(counts) - counts.ravel()).reshape(3, 3),
        choice_count=counts,
    )
    assert [column_choices(columns, row) for row in range(3)] == choices
    live = check_block(expr, small_chip, small_cost_model, columns, range(3), limit=64)
    block = sketch_block(small_chip, columns, range(3), limit=64)
    assert 0 < len(live) < len(block)
    assert not block.feasible[-2:].any()  # the 96-core F_op


@pytest.mark.parametrize("pricing", ["fitted", "default", "custom"])
def test_pricing_paths(pricing, small_chip, small_cost_model):
    """Fitted models, the analytic default and a ``register_custom`` function."""
    kernel_models = {} if pricing == "default" else small_cost_model.kernel_models
    cost_model = CostModel(small_chip, kernel_models, small_cost_model.comm_model)
    calls = []
    if pricing == "custom":

        def custom(shape, flops, nbytes):
            assert all(type(extent) is int for extent in shape.values())
            assert type(flops) is float and type(nbytes) is int
            calls.append(dict(shape))
            return 1e-6 + shape["m"] * 3e-9 + flops * 1e-12 + nbytes / 7e10

        cost_model.register_custom("matmul", custom)
    optimizer = IntraOpOptimizer(small_chip, cost_model, FAST_CONSTRAINTS)
    operators = [
        matmul("mm", m=96, k=48, n=64),
        conv2d("c", batch=2, in_channels=8, out_channels=16, height=16, width=16, kernel=3),
    ]
    for operator in operators:
        assert check_operator(optimizer, operator.expr)
        calls.clear()
        plans, stats = optimizer.search_results(operator)
        if pricing == "custom" and operator.expr.op_type == "matmul":
            # Called on the fitting candidates, then once per frontier member.
            assert len(calls) == stats.filtered + stats.materialized
        reference_plans, reference_stats = optimizer.search_reference(operator)
        assert plans == reference_plans
        assert stats == replace(reference_stats, materialized=stats.materialized)


@pytest.mark.parametrize("block_size", [1, 7, 1024])
def test_max_plans_cut_matches_reference(
    block_size, small_chip, small_cost_model, monkeypatch
):
    """The ``max_plans`` cut lands inside a block, on a block boundary (10
    with one-``F_op`` blocks) and exactly on the last feasible candidate."""
    monkeypatch.setattr(intra_op, "SKETCH_BLOCK", block_size)
    operator = matmul("mm", m=256, k=256, n=256)
    full = IntraOpOptimizer(small_chip, small_cost_model, FAST_CONSTRAINTS)
    total = full.search_space_stats(operator).evaluated
    for max_plans in (1, 10, total - 1, total, total + 1):
        constraints = replace(FAST_CONSTRAINTS, max_plans=max_plans)
        optimizer = IntraOpOptimizer(small_chip, small_cost_model, constraints)
        plans, stats = optimizer.search_results(operator)
        reference_plans, reference_stats = optimizer.search_reference(operator)
        assert plans == reference_plans
        assert stats == replace(reference_stats, materialized=stats.materialized)
        assert stats.evaluated == min(max_plans, total)
        assert stats.truncated == (max_plans < total)


def test_no_block_sketched_after_the_cut(small_chip, small_cost_model, monkeypatch):
    """Once ``max_plans`` is filled on a block's last feasible candidate, the
    search looks for a further feasible candidate without sketching blocks."""
    monkeypatch.setattr(intra_op, "SKETCH_BLOCK", 1)
    feasible_per_block: list[int] = []

    def counting_sketch_block(*args):
        block = sketch_block(*args)
        feasible_per_block.append(int(block.feasible.sum()))
        return block

    monkeypatch.setattr(intra_op, "sketch_block", counting_sketch_block)
    operator = matmul("mm", m=256, k=256, n=256)
    IntraOpOptimizer(small_chip, small_cost_model, FAST_CONSTRAINTS).search_results(operator)
    per_block = list(feasible_per_block)
    assert len(per_block) > 2 and all(per_block)
    for blocks in (1, 2, len(per_block)):
        feasible_per_block.clear()
        constraints = replace(FAST_CONSTRAINTS, max_plans=sum(per_block[:blocks]))
        optimizer = IntraOpOptimizer(small_chip, small_cost_model, constraints)
        _, stats = optimizer.search_results(operator)
        _, reference_stats = optimizer.search_reference(operator)
        assert len(feasible_per_block) == blocks
        assert stats.truncated is reference_stats.truncated is (blocks < len(per_block))


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["matmul", "conv"]),
    a=st.integers(1, 96),
    b=st.integers(1, 64),
    c=st.integers(1, 48),
    kernel=st.sampled_from([1, 3]),
)
def test_random_shapes_match_scalar_sketches(
    small_chip, small_cost_model, kind, a, b, c, kernel
):
    if kind == "matmul":
        operator = matmul("mm", m=a, k=b, n=c)
    else:
        size = max(kernel, a % 20 + 1)
        operator = conv2d(
            "c", batch=1, in_channels=b % 16 + 1, out_channels=c % 16 + 1,
            height=size, width=size, kernel=kernel,
        )
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, FAST_CONSTRAINTS)
    check_operator(optimizer, operator.expr)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["matmul", "conv"]),
    a=st.integers(1, 300),
    b=st.integers(1, 200),
    c=st.integers(1, 100),
    kernel=st.sampled_from([1, 3, 5]),
    num_cores=st.sampled_from([6, 64, 1472]),
)
def test_random_shapes_geometry_matches_scalar_derivation(
    small_chip, small_cost_model, kind, a, b, c, kernel, num_cores
):
    """Conv inputs carry compound ``h + kh`` dims, whose sub-length keeps the halo."""
    if kind == "matmul":
        operator = matmul("mm", m=a, k=b, n=c)
    else:
        size = max(kernel, a % 40 + 1)
        operator = conv2d(
            "c", batch=b % 4 + 1, in_channels=b % 32 + 1, out_channels=c % 32 + 1,
            height=size, width=max(kernel, c % 24 + 1), kernel=kernel,
        )
    chip = replace(small_chip, num_cores=num_cores)
    optimizer = IntraOpOptimizer(chip, small_cost_model, DEFAULT_CONSTRAINTS)
    assert check_geometry(optimizer, operator.expr)


def test_huge_operator_uses_exact_python_ints(small_chip, small_cost_model):
    """Past 2**53 the columns hold Python ints, still equal to the scalar path."""
    expr = matmul("huge", m=2**20, k=2**18, n=2**20).expr
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, FAST_CONSTRAINTS)
    columns = optimizer._fop_columns([expr])
    assert columns.elements.dtype == object
    rows = range(min(len(columns), intra_op.SKETCH_BLOCK // 16))
    assert sketch_block(small_chip, columns, rows, 16).memory_bytes.dtype == object
    assert check_block(expr, small_chip, small_cost_model, columns, rows, 16)
    assert check_geometry(optimizer, expr)


# --------------------------------------------------------------------------- #
# The batched search: every operator as if searched alone
# --------------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def registry_pool() -> tuple:
    return tuple(registry_operators())


def search_outcome(optimizer, operator):
    """Frontier members, built plans, stats and infeasibility error of one
    operator (cached by ``optimizer`` if it already searched it)."""
    frontier, stats = optimizer.search_frontier(operator)
    plans = frontier.plans()
    try:
        optimizer.pareto_plans(operator)
        error = ""
    except ValueError as exc:
        error = str(exc)
    members = [
        (plan.fop, getattr(plan, "temporal_factors", None), plan.memory_bytes, plan.time_est)
        for plan in frontier.members
    ]
    return members, plans, stats, error


def check_batch(chip, cost_model, constraints, operators):
    """Search ``operators`` as one batch; each must equal a fresh optimizer's
    one-operator search and :meth:`IntraOpOptimizer.search_reference`."""
    batched = IntraOpOptimizer(chip, cost_model, constraints)
    assert batched.search_many(operators) == {}
    for operator in operators:
        alone = IntraOpOptimizer(chip, cost_model, constraints)
        outcome = search_outcome(batched, operator)
        assert outcome == search_outcome(alone, operator)
        _, plans, stats, _ = outcome
        reference_plans, reference_stats = alone.search_reference(operator)
        assert plans == reference_plans
        assert stats == replace(reference_stats, materialized=stats.materialized)


def layout_operators():
    """Three matmuls of one layout with a few dozen candidates each."""
    return [
        matmul("a", m=64, k=32, n=48),
        matmul("b", m=96, k=16, n=32),
        matmul("c", m=48, k=64, n=16),
    ]


@pytest.mark.parametrize("block_size", [1, 7, 1024])
def test_batched_max_plans_cuts(
    block_size, small_chip, small_cost_model, monkeypatch
):
    """``max_plans`` cuts inside a block, on a block's last feasible
    candidate (one-row blocks end on every row), and on each operator's last
    feasible candidate, which with one shared block (1024) is an operator
    boundary inside the block."""
    monkeypatch.setattr(intra_op, "SKETCH_BLOCK", block_size)
    operators = layout_operators()
    full = IntraOpOptimizer(small_chip, small_cost_model, FAST_CONSTRAINTS)
    totals = [full.search_space_stats(operator).evaluated for operator in operators]
    assert sum(totals) <= 1024 and len(set(totals)) == 3
    cuts = {1, 2, 3, 7, 12} | {total + step for total in totals for step in (-1, 0, 1)}
    for max_plans in sorted(cuts):
        constraints = replace(FAST_CONSTRAINTS, max_plans=max_plans)
        check_batch(small_chip, small_cost_model, constraints, operators)


def test_batched_search_mixes_layouts_and_edge_operators(small_chip, small_cost_model):
    """Several layouts in one batch, with a library-fallback operator, an
    operator past 2**53 (object columns) and one with no feasible plan."""
    huge = matmul("huge", m=2**20, k=2**18, n=2**20)
    infeasible = matmul("big", m=4096, k=4096, n=4096)
    sort = library_op("sort", kind="sort", data_bytes=32 * 1024, flops=32 * 1024)
    operators = [
        *layout_operators(),
        conv2d("c", batch=1, in_channels=8, out_channels=16, height=12, width=12, kernel=3),
        sort,
        huge,
        infeasible,
        conv2d("d", batch=2, in_channels=4, out_channels=8, height=9, width=9, kernel=3),
    ]
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, FAST_CONSTRAINTS)
    assert optimizer._fop_columns([huge.expr]).elements.dtype == object
    assert len({column_layout(op.expr, small_chip) for op in operators}) == 4
    check_batch(small_chip, small_cost_model, FAST_CONSTRAINTS, operators)
    with pytest.raises(ValueError, match="no feasible execution plan"):
        optimizer.pareto_plans(infeasible)


def drawn_operator(data):
    kind = data.draw(st.sampled_from(["registry", "matmul", "conv", "huge", "library"]))
    if kind == "registry":
        return data.draw(st.sampled_from(registry_pool()))
    if kind == "matmul":
        m, k, n = (data.draw(st.integers(1, 128)) for _ in range(3))
        return matmul("mm", m=m, k=k, n=n)
    if kind == "conv":
        kernel = data.draw(st.sampled_from([1, 3]))
        size = data.draw(st.integers(kernel, 20))
        return conv2d(
            "cv", batch=data.draw(st.integers(1, 2)),
            in_channels=data.draw(st.integers(1, 16)),
            out_channels=data.draw(st.integers(1, 16)),
            height=size, width=size, kernel=kernel,
        )
    if kind == "huge":
        return matmul("huge", m=2**20, k=2**18, n=2**20)
    return library_op("sort", kind="sort", data_bytes=data.draw(st.integers(2, 2**16)), flops=1e4)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_search_matches_single_searches(
    small_chip, small_cost_model, ipu_cost_model, a100_cost_model, data
):
    """Drawn operator lists on three chips, drawn block sizes and
    ``max_plans`` cuts (including each operator's exact feasible count)."""
    chip, cost_model = data.draw(
        st.sampled_from(
            [(small_chip, small_cost_model), (IPU_MK2, ipu_cost_model),
             (A100_CHIP, a100_cost_model)]
        )
    )
    operators = [drawn_operator(data) for _ in range(data.draw(st.integers(1, 5)))]
    full = IntraOpOptimizer(chip, cost_model, FAST_CONSTRAINTS)
    totals = {full.search_space_stats(operator).evaluated for operator in operators}
    cuts = sorted({1, 5, 50_000} | totals | {total + 1 for total in totals})
    constraints = replace(FAST_CONSTRAINTS, max_plans=data.draw(st.sampled_from(cuts)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intra_op, "SKETCH_BLOCK", data.draw(st.sampled_from([1, 7, 64, 1024])))
        check_batch(chip, cost_model, constraints, operators)


def test_pair_warm_up_makes_one_pass_per_layout(ipu_cost_model, monkeypatch):
    """Warming one (model, chip class) pair derives one set of columns per
    operator layout and sketches one block per run of at most
    ``SKETCH_BLOCK`` candidates."""
    passes: list[tuple] = []
    blocks: list[int] = []

    def counting_fop_columns(exprs, chip, partitions, max_choices):
        columns = fop_columns(exprs, chip, partitions, max_choices)
        limit = FAST_CONSTRAINTS.max_temporal_combos
        passes.append((column_layout(exprs[0], chip), columns.combo_counts(limit).tolist()))
        return columns

    def counting_sketch_block(chip, columns, rows, limit):
        block = sketch_block(chip, columns, rows, limit)
        blocks.append(len(block))
        return block

    monkeypatch.setattr(intra_op, "fop_columns", counting_fop_columns)
    monkeypatch.setattr(intra_op, "sketch_block", counting_sketch_block)
    model = DecodeModel(
        "opt", opt_decode_session("125m", num_layers=1, kv_len=64), max_batch_size=4
    )
    cache = PlanCache(
        compiler_factory=lambda chip, constraints: T10Compiler(
            chip, cost_model=ipu_cost_model, constraints=constraints
        )
    )
    engine = ContinuousEngine(
        model, chip=IPU_MK2, num_chips=1, constraints=FAST_CONSTRAINTS, plan_cache=cache
    )
    engine.warm()
    operators = {
        op.signature(): op
        for bucket in batch_buckets(4)
        for op in model.decode_builder(bucket).operators
        if not op.expr.library_fallback
    }
    layouts = {column_layout(op.expr, IPU_MK2) for op in operators.values()}
    assert len(layouts) < len(operators)
    assert sorted(layout for layout, _ in passes) == sorted(layouts)
    expected = 0
    for _, counts in passes:
        size = 0
        for count in counts:
            if size and size + count > intra_op.SKETCH_BLOCK:
                expected += 1
                size = 0
            size += count
        expected += 1
    assert max(blocks) <= intra_op.SKETCH_BLOCK
    assert len(blocks) == expected
