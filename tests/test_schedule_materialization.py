"""Differential tests for schedule-only plan materialization.

A compile keeps each operator's Pareto frontier as priced sketches through
memory reconciliation and builds only the idle and active plans the
schedule picks.  These tests pin that this changes nothing observable:

* on every registry model, on IPU-MK2 and on the A100 hardware class,
  serial and with two workers, the compile's schedule equals a reconcile
  over the fully built frontiers in every field, and so does the program
  generated from it;
* the frontiers a compile exposes on access equal the eager reference
  search's;
* a compiled model survives the plan cache's disk tier with equal
  frontiers.

Because a compile builds only the plans its schedule picks, the sketch
divergence checks of :meth:`PlanSketch.materialize` run on every frontier
member here instead, together with the check that each priced sketch
answers reconciliation's questions exactly as its built plan does.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import (
    FAST_CONSTRAINTS,
    CostModel,
    InterOpScheduler,
    IntraOpOptimizer,
    OperatorPlan,
    PlanFrontier,
    PlanSketch,
    T10Compiler,
)
from repro.core.codegen import generate_program
from repro.experiments.common import build_workload
from repro.hw.spec import A100_CHIP, IPU_MK2
from repro.ir import OperatorGraph, matmul
from repro.models import list_models
from repro.serving import HIT_DISK, PlanCache

CHIPS = {"ipu-mk2": IPU_MK2, "a100": A100_CHIP}


@pytest.fixture(scope="module")
def cost_models():
    return {name: CostModel.fit(chip, samples_per_type=24) for name, chip in CHIPS.items()}


def compile_both(chip, cost_model, graph):
    """``graph`` compiled serially and with two process workers."""
    serial = T10Compiler(chip, cost_model=cost_model, constraints=FAST_CONSTRAINTS)
    two_jobs = T10Compiler(chip, cost_model=cost_model, constraints=FAST_CONSTRAINTS, jobs=2)
    return {"serial": serial.compile(graph), "jobs=2": two_jobs.compile(graph)}


def assert_schedule_matches_eager(compiled, chip, cost_model):
    """The compile's schedule equals a reconcile over its built frontiers."""
    schedule = compiled.schedule
    eager = InterOpScheduler(chip, cost_model).reconcile(compiled.pareto_plans)
    assert list(schedule.per_op) == list(eager.per_op)
    for name, entry in schedule.per_op.items():
        expected = eager.per_op[name]
        assert entry.idle_plan == expected.idle_plan, name
        assert entry.active_plan == expected.active_plan, name
        assert entry.setup_bytes == expected.setup_bytes, name
        assert entry.setup_time_est == expected.setup_time_est, name
        assert entry.active_time_est == expected.active_time_est, name
        assert entry == expected, name
    assert schedule.idle_memory_per_core == eager.idle_memory_per_core
    assert schedule.est_total_time == eager.est_total_time
    assert schedule.search_history == eager.search_history
    assert schedule == eager
    assert compiled.program == generate_program(compiled.graph, eager, chip)


@pytest.mark.parametrize("model", list_models())
@pytest.mark.parametrize("chip_name", list(CHIPS))
def test_schedule_and_frontiers_match_eager(chip_name, model, cost_models):
    chip, cost_model = CHIPS[chip_name], cost_models[chip_name]
    graph = build_workload(model, 1, quick=True)
    compiled = compile_both(chip, cost_model, graph)
    serial = compiled["serial"]
    reference = T10Compiler(chip, cost_model=cost_model, constraints=FAST_CONSTRAINTS)
    reference_plans = {}
    for operator in graph.operators:
        if operator.name not in serial.search_stats:
            break  # the search stopped at the first infeasible operator
        signature = operator.signature()
        if signature not in reference_plans:
            reference_plans[signature] = reference.intra_op.search_reference(operator)[0]
    for label, result in compiled.items():
        assert result.status == serial.status, label
        assert result.error == serial.error, label
        assert list(result.pareto_plans) == list(serial.search_stats), label
        for operator in graph.operators:
            if operator.name in result.pareto_plans:
                assert (
                    result.pareto_plans[operator.name]
                    == reference_plans[operator.signature()]
                ), (label, operator.name)
        if result.ok:
            assert_schedule_matches_eager(result, chip, cost_model)
    assert compiled["jobs=2"].schedule == serial.schedule
    assert compiled["jobs=2"].program == serial.program


def test_disk_round_trip_keeps_frontiers(tmp_path, ipu_cost_model):
    graph = build_workload("bert", 1, quick=True)

    def factory(chip, constraints):
        return T10Compiler(chip, cost_model=ipu_cost_model, constraints=constraints)

    compiled = PlanCache(tmp_path, compiler_factory=factory).get_or_compile(
        graph, IPU_MK2, FAST_CONSTRAINTS
    ).compiled
    assert compiled.ok
    lookup = PlanCache(tmp_path, compiler_factory=factory).get_or_compile(
        graph, IPU_MK2, FAST_CONSTRAINTS
    )
    assert lookup.outcome == HIT_DISK
    restored = lookup.compiled
    assert restored is not compiled
    assert restored.pareto_plans == compiled.pareto_plans
    assert restored.schedule == compiled.schedule
    assert restored.program == compiled.program


@pytest.mark.parametrize("model", list_models())
@pytest.mark.parametrize("chip_name", list(CHIPS))
def test_every_frontier_member_materializes_as_sketched(chip_name, model, cost_models):
    """Each member builds through the divergence checks, and its sketch
    prices memory, time, idle bytes and setup bytes as its plan does."""
    chip, cost_model = CHIPS[chip_name], cost_models[chip_name]
    optimizer = IntraOpOptimizer(chip, cost_model, FAST_CONSTRAINTS)
    seen = set()
    sketches = 0
    for operator in build_workload(model, 1, quick=True).operators:
        if operator.signature() in seen:
            continue
        seen.add(operator.signature())
        frontier, stats = optimizer.search_frontier(operator)
        assert len(frontier) == stats.optimized == stats.materialized
        if operator.expr.library_fallback:
            assert all(isinstance(member, OperatorPlan) for member in frontier.members)
            continue
        assert all(isinstance(member, PlanSketch) for member in frontier.members)
        assert all(member.built is None for member in frontier.members)
        plans = [
            member.materialize(operator.expr, chip, cost_model) for member in frontier.members
        ]
        for member, plan in zip(frontier.members, plans):
            assert member.memory_bytes == plan.memory_bytes
            assert member.time_est == plan.time_est
            assert member.idle_bytes == plan.idle_bytes
            assert member.setup_bytes_from(None) == plan.setup_bytes_from(None)
            for idle_member, idle_plan in zip(frontier.members, plans):
                assert member.setup_bytes_from(idle_member) == plan.setup_bytes_from(idle_plan)
        assert frontier.plans() == plans
        sketches += len(plans)
    assert sketches > 0


def matmul_graph() -> OperatorGraph:
    graph = OperatorGraph(name="matmuls")
    for index, (m, k, n) in enumerate([(256, 256, 256), (256, 256, 512), (256, 512, 256)] * 2):
        graph.add(matmul(f"mm{index}", m=m, k=k, n=n))
    return graph


def test_compile_builds_only_scheduled_plans(ipu_cost_model):
    compiler = T10Compiler(IPU_MK2, cost_model=ipu_cost_model, constraints=FAST_CONSTRAINTS)
    graph = matmul_graph()
    compiled = compiler.compile(graph)
    assert compiled.ok
    scheduled = {
        id(plan)
        for entry in compiled.schedule.per_op.values()
        for plan in (entry.idle_plan, entry.active_plan)
    }
    members = [
        member
        for frontier in {id(f): f for f in compiled.frontiers.values()}.values()
        for member in frontier.members
    ]
    built = [member.built for member in members if member.built is not None]
    assert {id(plan) for plan in built} == scheduled
    assert compiled.materialized_plans == compiled.schedule.materialized_plans == len(built)
    assert len(built) < len(members) == sum(
        compiled.search_stats[name].optimized for name in ("mm0", "mm1", "mm2")
    )
    # A recompile on the warm optimizer picks the same, already built, plans.
    again = compiler.compile(graph)
    assert again.materialized_plans == 0
    assert again.schedule == compiled.schedule
    # Reading the frontiers builds the rest, once; the scheduled plans are reused.
    plans = compiled.pareto_plans
    assert all(member.built is not None for member in members)
    assert compiled.pareto_plans == plans
    assert plans["mm0"] is plans["mm3"] is compiled.pareto_plans["mm3"]
    assert all(
        plan is member.built
        for plan, member in zip(plans["mm0"], compiled.frontiers["mm0"].members)
    )


def test_racing_threads_build_equal_plans(ipu_cost_model):
    """Threads racing on each unbuilt member all get its plan, and the memo
    keeps one of the racers' equal builds."""
    operator = matmul("mm", m=512, k=256, n=512)
    optimizer = IntraOpOptimizer(IPU_MK2, ipu_cost_model, FAST_CONSTRAINTS)
    frontier, _ = optimizer.search_frontier(operator)
    expected = [
        member.materialize(operator.expr, IPU_MK2, ipu_cost_model) for member in frontier.members
    ]
    # A fresh frontier over unbuilt copies of the members, raced index by index.
    fresh = PlanFrontier(
        [PlanSketch(**{**vars(member), "built": None}) for member in frontier.members],
        operator.expr,
        IPU_MK2,
        ipu_cost_model,
    )
    racers = 4  # more threads than the test hosts' cores
    barrier = threading.Barrier(racers, timeout=30)
    results: list[list[OperatorPlan]] = [[] for _ in range(racers)]

    def race(slot: int) -> None:
        for index in range(len(fresh)):
            barrier.wait()
            results[slot].append(fresh.plan(index))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=race, args=(slot,)) for slot in range(racers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == expected for result in results)
    assert [member.built for member in fresh.members] == expected
    assert fresh.plans() == expected
