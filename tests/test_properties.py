"""Cross-cutting property-based tests on the compiler core.

These generate random small operators and check the invariants every valid
compute-shift plan must satisfy, independent of the specific shapes.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.intra_op import IntraOpOptimizer
from repro.core.partition import (
    enumerate_operator_partitions,
    tensor_sharing_degree,
    temporal_factor_choices,
)
from repro.core.plan import build_plan
from repro.ir import elementwise, matmul
from repro.serving import merge_decode_workloads
from repro.utils import prod

from scenarios import FLEET, POISSON, Replay, check_scenario, scenarios

matmul_shapes = st.tuples(
    st.integers(min_value=2, max_value=128),
    st.integers(min_value=2, max_value=128),
    st.integers(min_value=2, max_value=128),
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=matmul_shapes)
def test_plan_invariants_for_random_matmuls(shape, small_chip, small_cost_model, fast_constraints):
    """Every plan built from an enumerated F_op satisfies the core invariants."""
    m, k, n = shape
    expr = matmul("mm", m=m, k=k, n=n).expr
    fops = enumerate_operator_partitions(expr, small_chip.num_cores, fast_constraints)
    assert fops
    fop = fops[0]
    temporal = {
        spec.name: temporal_factor_choices(expr, spec, fop, max_choices=3)[-1]
        for spec in expr.all_tensors
    }
    plan = build_plan(expr, small_chip, small_cost_model, fop, temporal)
    if plan is None:
        return
    # Memory, step and timing invariants.
    assert plan.memory_bytes > 0
    assert plan.num_steps >= 1
    assert plan.compute_time_est > 0
    assert plan.comm_time_est >= 0
    assert plan.cores_used == prod(fop.values()) <= small_chip.num_cores
    # The per-step sub-task never exceeds the sub-operator extents.
    for axis, extent in plan.subtask_shape.items():
        assert 1 <= extent <= expr.axes[axis]
    # Per-core tensor partitions never exceed their sub-tensors.
    for config in plan.rtensors.values():
        assert config.partition_bytes <= config.sub_tensor_bytes
        assert config.temporal_factor * config.num_rings == config.sharing_degree
    # Idle (weight-only) footprint is a subset of the full data footprint.
    assert 0 <= plan.idle_bytes <= plan.data_bytes


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=matmul_shapes)
def test_sharing_degrees_cover_all_cores(shape, small_chip, fast_constraints):
    """For every tensor, spatial slices times sharing degree covers all sub-operators."""
    m, k, n = shape
    expr = matmul("mm", m=m, k=k, n=n).expr
    for fop in enumerate_operator_partitions(expr, small_chip.num_cores, fast_constraints)[:5]:
        used = prod(fop.values())
        for spec in expr.all_tensors:
            sharing = tensor_sharing_degree(expr, spec, fop)
            slices = prod(fop[axis] for axis in expr.axes if spec.has_axis(axis))
            assert sharing * slices == used


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(min_value=16, max_value=512),
    cols=st.integers(min_value=16, max_value=512),
)
def test_elementwise_pareto_plans_have_no_communication(
    rows, cols, small_chip, small_cost_model, fast_constraints
):
    """Element-wise operators have no shared tensors, hence no shift traffic."""
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)
    op = elementwise("ew", {"r": rows, "c": cols}, kind="add")
    plans = optimizer.pareto_plans(op)
    assert plans
    for plan in plans:
        assert plan.comm_time_est == 0.0


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=matmul_shapes)
def test_pareto_frontier_is_consistent(shape, small_chip, small_cost_model, fast_constraints):
    """The frontier is sorted, mutually non-dominating and memory-feasible."""
    m, k, n = shape
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)
    plans = optimizer.pareto_plans(matmul("mm", m=m, k=k, n=n))
    memories = [p.memory_bytes for p in plans]
    times = [p.time_est for p in plans]
    assert memories == sorted(memories)
    assert times == sorted(times, reverse=True)
    assert all(mem <= small_chip.sram_per_core for mem in memories)


# --------------------------------------------------------------------------- #
# Fleet routing determinism
# --------------------------------------------------------------------------- #
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=scenarios(engines=(FLEET,), chips=(2, 2), models=(2,), traffic=(POISSON,)),
    order=st.permutations(range(2)),
)
def test_fleet_routing_is_deterministic(scenario, order, testbed):
    """Per-request placements and the full report are identical whichever
    order the tenant streams are merged in, across fresh engines, and whether
    plans compiled serially or with a two-worker pool (compile time is
    wall-clock only; the virtual timeline never sees it)."""
    replay = Replay(scenario, testbed)
    streams = [
        scenario.traffic.stream(model, index, replay.unit)
        for index, model in enumerate(replay.models)
    ]
    assert merge_decode_workloads(*(streams[i] for i in order)) == replay.workload
    check_scenario(scenario, testbed)
