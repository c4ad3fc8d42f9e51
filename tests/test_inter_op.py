"""Tests for the inter-operator memory-reconciliation scheduler (Algorithm 1)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    FAST_CONSTRAINTS,
    InterOpScheduler,
    IntraOpOptimizer,
    ModelSchedule,
    OperatorSchedule,
    T10Compiler,
)
from repro.experiments.common import build_workload
from repro.hw.memory import OutOfChipMemoryError
from repro.hw.spec import ChipSpec, KiB
from repro.ir import matmul

#: The registry models whose frontiers the reconciliation oracle replays.
ORACLE_MODELS = ("opt-125m", "bert-base", "nerf", "resnet", "vit")


@pytest.fixture()
def scheduler(small_chip, small_cost_model):
    return InterOpScheduler(small_chip, small_cost_model)


@pytest.fixture()
def frontier_for(small_chip, small_cost_model, fast_constraints):
    optimizer = IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)

    def build(name: str, m: int, k: int, n: int):
        return optimizer.pareto_plans(matmul(name, m=m, k=k, n=n))

    return build


class TestReconcile:
    def test_single_operator(self, scheduler, frontier_for):
        plans = frontier_for("mm", 256, 256, 256)
        schedule = scheduler.reconcile({"mm": plans})
        assert set(schedule.per_op) == {"mm"}
        entry = schedule.per_op["mm"]
        assert entry.active_plan in plans
        assert entry.idle_plan in plans
        assert entry.setup_time_est >= 0
        assert schedule.est_total_time > 0

    def test_multiple_operators_fit_memory(self, scheduler, frontier_for, small_chip):
        pareto = {
            "a": frontier_for("a", 256, 256, 256),
            "b": frontier_for("b", 128, 512, 128),
            "c": frontier_for("c", 512, 64, 256),
        }
        schedule = scheduler.reconcile(pareto)
        assert schedule.idle_memory_per_core <= small_chip.sram_per_core
        for name, entry in schedule.per_op.items():
            available = (
                small_chip.sram_per_core
                - schedule.idle_memory_per_core
                + entry.idle_plan.idle_bytes
            )
            assert entry.active_plan.memory_bytes <= available

    def test_identical_operators_grouped(self, scheduler, frontier_for):
        plans = frontier_for("mm", 256, 256, 256)
        schedule = scheduler.reconcile({"x": plans, "y": plans, "z": plans})
        entries = list(schedule.per_op.values())
        assert len(entries) == 3
        assert all(entry.active_plan is entries[0].active_plan for entry in entries)

    def test_history_recorded(self, scheduler, frontier_for):
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        assert schedule.search_history
        idle_memories = [mem for mem, _ in schedule.search_history]
        assert idle_memories == sorted(idle_memories)

    def test_best_configuration_selected(self, scheduler, frontier_for):
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        best_history_time = min(time for _, time in schedule.search_history)
        assert schedule.est_total_time == pytest.approx(best_history_time, rel=1e-6)

    def test_empty_frontier_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.reconcile({"mm": []})

    def test_setup_plus_active_totals(self, scheduler, frontier_for):
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        assert schedule.est_total_time == pytest.approx(
            schedule.est_setup_time + schedule.est_active_time, rel=1e-9
        )


class TestMemoryPressure:
    def test_more_memory_never_hurts(self, small_cost_model, frontier_for, small_chip):
        """With a bigger scratchpad the reconciled estimate can only improve."""
        pareto = {
            "a": frontier_for("a", 256, 256, 256),
            "b": frontier_for("b", 512, 256, 128),
        }
        small_schedule = InterOpScheduler(small_chip, small_cost_model).reconcile(pareto)
        bigger_chip = ChipSpec(
            name="bigger",
            num_cores=small_chip.num_cores,
            sram_per_core=small_chip.sram_per_core * 4,
            core_flops=small_chip.core_flops,
            link_bandwidth=small_chip.link_bandwidth,
            link_latency=small_chip.link_latency,
            offchip_bandwidth=small_chip.offchip_bandwidth,
        )
        big_schedule = InterOpScheduler(bigger_chip, small_cost_model).reconcile(pareto)
        assert big_schedule.est_total_time <= small_schedule.est_total_time * 1.001

    def test_raises_when_nothing_fits(self, small_cost_model, frontier_for):
        tiny = ChipSpec(
            name="impossible",
            num_cores=64,
            sram_per_core=16 * KiB,
            core_flops=100e9,
            link_bandwidth=5.5e9,
            link_latency=0.4e-6,
            offchip_bandwidth=8e9,
        )
        scheduler = InterOpScheduler(tiny, small_cost_model)
        pareto = {f"op{i}": frontier_for(f"op{i}", 512, 512, 512) for i in range(4)}
        with pytest.raises(OutOfChipMemoryError):
            scheduler.reconcile(pareto)

    def test_max_search_steps_respected(self, small_chip, small_cost_model, frontier_for):
        scheduler = InterOpScheduler(small_chip, small_cost_model, max_search_steps=3)
        schedule = scheduler.reconcile({"mm": frontier_for("mm", 256, 256, 256)})
        assert len(schedule.search_history) <= 3


# --------------------------------------------------------------------------- #
# Differential oracle: Algorithm 1 restated naively
# --------------------------------------------------------------------------- #
def reference_reconcile(chip, cost_model, pareto_plans, *, max_search_steps=512):
    """Algorithm 1 as first written: every step re-prices every plan.

    The executable specification the table-driven ``InterOpScheduler`` must
    reproduce exactly: each comparison prices ``setup_bytes_from`` afresh
    through the cost model, and operators sharing one frontier object are
    promoted together.
    """
    capacity = chip.sram_per_core
    groups = {}
    for name, frontier in pareto_plans.items():
        if not list(frontier):
            raise ValueError(f"operator {name!r} has no feasible plan")
        groups.setdefault(id(frontier), [[], list(frontier), 0])[0].append(name)
    groups = list(groups.values())  # [names, frontier, idle index]

    def idle_total():
        return sum(f[i].idle_bytes * len(names) for names, f, i in groups)

    def select_active(frontier, idle_plan, available):
        best, best_cost = None, float("inf")
        for plan in frontier:
            if plan.memory_bytes > available:
                continue
            cost = plan.time_est + cost_model.setup_time(plan.setup_bytes_from(idle_plan))
            if cost < best_cost:
                best, best_cost = plan, cost
        if best is None and idle_plan.memory_bytes <= available:
            best = idle_plan
        return best

    def available(total, idle_plan):
        return capacity - total + idle_plan.idle_bytes

    def estimate(total):
        result = 0.0
        for names, frontier, index in groups:
            idle_plan = frontier[index]
            active = select_active(frontier, idle_plan, available(total, idle_plan))
            if active is None:
                return float("inf")
            per_op = (
                cost_model.setup_time(active.setup_bytes_from(idle_plan)) + active.time_est
            )
            result += per_op * len(names)
        return result

    def best_promotion(total):
        best_index, best_ratio = None, 0.0
        for position, (names, frontier, index) in enumerate(groups):
            if index + 1 >= len(frontier):
                continue
            current, following = frontier[index], frontier[index + 1]
            delta_mem = (following.idle_bytes - current.idle_bytes) * len(names)
            if total + max(delta_mem, 0) > capacity:
                continue
            active = select_active(frontier, current, available(total, current))
            if active is None:
                continue
            saved = (
                cost_model.setup_time(active.setup_bytes_from(current))
                - cost_model.setup_time(active.setup_bytes_from(following))
            ) * len(names)
            if delta_mem <= 0:
                if saved >= 0:
                    return position
                continue
            if saved / delta_mem > best_ratio:
                best_index, best_ratio = position, saved / delta_mem
        return best_index

    history, best_time, best_state = [], float("inf"), None
    for _ in range(max_search_steps):
        total = idle_total()
        if total > capacity:
            break
        total_time = estimate(total)
        history.append((total, total_time))
        if total_time < best_time:
            best_time, best_state = total_time, [group[2] for group in groups]
        promotion = best_promotion(total)
        if promotion is None:
            break
        groups[promotion][2] += 1
    if best_state is None or best_time == float("inf"):
        raise OutOfChipMemoryError(idle_total(), capacity, "inter-operator reconciliation")
    for group, index in zip(groups, best_state):
        group[2] = index

    total = idle_total()
    per_op, total_time = {}, 0.0
    for names, frontier, index in groups:
        idle_plan = frontier[index]
        active = select_active(frontier, idle_plan, available(total, idle_plan))
        if active is None:
            raise OutOfChipMemoryError(total, capacity, names[0])
        setup_bytes = active.setup_bytes_from(idle_plan)
        setup_time = cost_model.setup_time(setup_bytes)
        for name in names:
            per_op[name] = OperatorSchedule(
                op_name=name,
                idle_plan=idle_plan,
                active_plan=active,
                setup_bytes=setup_bytes,
                setup_time_est=setup_time,
                active_time_est=active.time_est,
            )
            total_time += setup_time + active.time_est
    return ModelSchedule(
        per_op=per_op,
        idle_memory_per_core=total,
        est_total_time=total_time,
        search_history=history,
    )


@pytest.fixture(scope="module")
def registry_frontiers(ipu_chip, ipu_cost_model):
    """Per-model Pareto frontiers of the registry models (quick workloads)."""
    compiler = T10Compiler(ipu_chip, cost_model=ipu_cost_model, constraints=FAST_CONSTRAINTS)
    frontiers = {}
    for model in ORACLE_MODELS:
        search = compiler.engine.search_graph(
            build_workload(model, 1, quick=True), compiler.intra_op
        )
        assert search.ok
        frontiers[model] = search.pareto
    return frontiers


def outcome(reconcile):
    """A reconcile's schedule, or the message of the memory error it raised."""
    try:
        return reconcile()
    except OutOfChipMemoryError as error:
        return f"OutOfChipMemoryError: {error}"


def assert_same_schedule(schedule, expected):
    assert isinstance(schedule, ModelSchedule), schedule
    assert schedule.search_history == expected.search_history
    assert schedule.est_total_time == expected.est_total_time
    assert schedule.idle_memory_per_core == expected.idle_memory_per_core
    assert list(schedule.per_op) == list(expected.per_op)
    for name, entry in schedule.per_op.items():
        assert entry == expected.per_op[name]
        assert entry.idle_plan is expected.per_op[name].idle_plan
        assert entry.active_plan is expected.per_op[name].active_plan
    assert schedule == expected


class TestReferenceOracle:
    @pytest.mark.parametrize("max_steps", [512, 1], ids=["full", "one-step"])
    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_matches_naive_algorithm(
        self, registry_frontiers, ipu_chip, ipu_cost_model, model, max_steps
    ):
        pareto = registry_frontiers[model]
        schedule = InterOpScheduler(
            ipu_chip, ipu_cost_model, max_search_steps=max_steps
        ).reconcile(pareto)
        expected = reference_reconcile(
            ipu_chip, ipu_cost_model, pareto, max_search_steps=max_steps
        )
        assert_same_schedule(schedule, expected)
        if max_steps == 1:
            assert len(schedule.search_history) == 1

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_matches_naive_algorithm_under_reduced_sram(
        self, registry_frontiers, ipu_chip, ipu_cost_model, model
    ):
        """Below the leanest idle configuration the capacity break leads
        straight into ``OutOfChipMemoryError``; above it, active plans stop
        fitting and the search changes course."""
        assert_matches_under_sram_sweep(registry_frontiers[model], ipu_chip, ipu_cost_model)

    def test_matches_naive_algorithm_when_capacity_blocks_promotions(
        self, frontier_for, small_chip, small_cost_model
    ):
        """Small operators whose active plans fit beside a nearly full idle
        set, so that capacity, not the frontier's end, stops promotions."""
        pareto = {
            "a": frontier_for("a", 256, 256, 256),
            "b": frontier_for("b", 128, 512, 128),
            "c": frontier_for("c", 512, 64, 256),
        }
        pareto["a2"] = pareto["a"]
        assert_matches_under_sram_sweep(pareto, small_chip, small_cost_model)


def assert_matches_under_sram_sweep(pareto, chip, cost_model):
    """Oracle agreement on a sweep of SRAM sizes below ``chip``'s."""
    full = InterOpScheduler(chip, cost_model).reconcile(pareto)
    leanest = full.search_history[0][0]
    promotions = full.search_history[-1][0] - leanest
    largest_active = max(plan.memory_bytes for plans in pareto.values() for plan in plans)
    sizes = [leanest - 1]
    sizes += [leanest + promotions * step // 16 for step in range(16)]
    sizes += [leanest + promotions + largest_active * step // 16 for step in range(17)]
    outcomes = []
    for sram in sizes:
        reduced = replace(chip, sram_per_core=sram)
        got = outcome(lambda: InterOpScheduler(reduced, cost_model).reconcile(pareto))
        expected = outcome(lambda: reference_reconcile(reduced, cost_model, pareto))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert_same_schedule(got, expected)
        outcomes.append(got)
    assert "inter-operator reconciliation" in outcomes[0]
    # Memory pressure changed the search somewhere in the sweep.
    assert any(
        entry.search_history != full.search_history
        for entry in outcomes
        if isinstance(entry, ModelSchedule)
    )


class TestPricingBound:
    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_setup_time_calls_bounded_by_frontier_sizes(
        self, registry_frontiers, ipu_chip, ipu_cost_model, monkeypatch, model
    ):
        """Each (idle, active) pair is priced at most once per reconcile, so
        the number of ``setup_time`` calls is bounded by the frontier sizes
        alone, however many search steps the greedy policy takes."""
        pareto = registry_frontiers[model]
        sizes = {id(frontier): len(frontier) for frontier in pareto.values()}
        bound = sum(n * n for n in sizes.values()) + sum(sizes.values())
        calls = []
        price = ipu_cost_model.setup_time
        monkeypatch.setattr(
            ipu_cost_model, "setup_time", lambda nbytes: calls.append(nbytes) or price(nbytes)
        )
        schedule = InterOpScheduler(ipu_chip, ipu_cost_model).reconcile(pareto)
        assert len(schedule.search_history) > 1
        assert 0 < len(calls) <= bound
