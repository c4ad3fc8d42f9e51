"""Tests for the intra-operator Pareto plan search."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import IntraOpOptimizer
from repro.core.constraints import FAST_CONSTRAINTS, SearchConstraints
from repro.ir import conv2d, library_op, matmul


@pytest.fixture()
def optimizer(small_chip, small_cost_model, fast_constraints):
    return IntraOpOptimizer(small_chip, small_cost_model, fast_constraints)


class TestParetoPlans:
    def test_nonempty_and_sorted_by_memory(self, optimizer):
        plans = optimizer.pareto_plans(matmul("mm", m=256, k=256, n=256))
        assert plans
        memories = [p.memory_bytes for p in plans]
        assert memories == sorted(memories)

    def test_frontier_times_decrease_with_memory(self, optimizer):
        plans = optimizer.pareto_plans(matmul("mm", m=256, k=256, n=256))
        times = [p.time_est for p in plans]
        assert times == sorted(times, reverse=True)

    def test_all_plans_fit_chip(self, optimizer, small_chip):
        plans = optimizer.pareto_plans(matmul("mm", m=256, k=256, n=256))
        assert all(p.memory_bytes <= small_chip.sram_per_core for p in plans)

    def test_no_plan_dominated(self, optimizer):
        plans = optimizer.pareto_plans(matmul("mm", m=256, k=256, n=256))
        for a in plans:
            for b in plans:
                if a is b:
                    continue
                dominated = (
                    b.memory_bytes <= a.memory_bytes
                    and b.time_est <= a.time_est
                    and (b.memory_bytes < a.memory_bytes or b.time_est < a.time_est)
                )
                assert not dominated

    def test_conv_operator_searchable(self, optimizer):
        op = conv2d("c", batch=2, in_channels=8, out_channels=16, height=16, width=16, kernel=3)
        plans = optimizer.pareto_plans(op)
        assert plans
        assert all(p.op_type == "conv2d" for p in plans)

    def test_library_fallback_single_plan(self, optimizer):
        op = library_op("sort", kind="sort", data_bytes=32 * 1024, flops=32 * 1024)
        plans = optimizer.pareto_plans(op)
        assert len(plans) == 1

    def test_infeasible_operator_raises(self, small_cost_model, fast_constraints, tiny_chip):
        optimizer = IntraOpOptimizer(tiny_chip, small_cost_model, fast_constraints)
        # A single operator bigger than the whole chip's memory cannot be planned.
        huge = matmul("huge", m=8192, k=8192, n=8192)
        with pytest.raises(ValueError):
            optimizer.pareto_plans(huge)


class TestCaching:
    def test_identical_operators_share_frontier(self, optimizer):
        first = optimizer.pareto_plans(matmul("a", m=128, k=128, n=128))
        second = optimizer.pareto_plans(matmul("b", m=128, k=128, n=128))
        assert first is second

    def test_clear_cache(self, optimizer):
        first = optimizer.pareto_plans(matmul("a", m=128, k=128, n=128))
        optimizer.clear_cache()
        second = optimizer.pareto_plans(matmul("a", m=128, k=128, n=128))
        assert first is not second


class TestSearchSpaceStats:
    def test_ordering(self, optimizer):
        op = matmul("mm", m=256, k=256, n=256)
        stats = optimizer.search_space_stats(op)
        assert (
            stats.complete
            >= stats.sketched
            >= stats.evaluated
            >= stats.filtered
            >= stats.materialized
            >= stats.optimized
        )
        assert stats.optimized >= 1

    def test_filtered_counts_sram_survivors(self, optimizer, small_chip):
        """``filtered`` is the post-SRAM-filter count, not the evaluated count."""
        op = matmul("mm", m=256, k=256, n=256)
        stats = optimizer.search_space_stats(op)
        candidates = optimizer.enumerate_plans(op)
        fitting = [p for p in candidates if p.memory_bytes <= small_chip.sram_per_core]
        assert stats.evaluated == len(candidates)
        assert stats.filtered == float(len(fitting))

    def test_not_truncated_within_budget(self, optimizer):
        stats = optimizer.search_space_stats(matmul("mm", m=256, k=256, n=256))
        assert not stats.truncated
        assert stats.evaluated < optimizer.constraints.max_plans

    def test_truncated_when_max_plans_caps(self, small_chip, small_cost_model):
        capped = IntraOpOptimizer(
            small_chip,
            small_cost_model,
            SearchConstraints(
                core_count_samples=8,
                max_factorizations_per_target=200,
                max_temporal_combos=32,
                max_plans=10,
            ),
        )
        stats = capped.search_space_stats(matmul("mm", m=256, k=256, n=256))
        assert stats.truncated
        assert stats.evaluated == 10

    @pytest.mark.parametrize("max_plans, truncated", [(23, True), (24, False), (25, False)])
    def test_truncated_only_when_a_feasible_candidate_is_cut(
        self, ipu_chip, ipu_cost_model, max_plans, truncated
    ):
        """matmul 96x48x64 has exactly 24 feasible candidates on IPU-MK2 under
        ``FAST_CONSTRAINTS``: a cap of 24 cuts nothing."""
        constraints = replace(FAST_CONSTRAINTS, max_plans=max_plans)
        optimizer = IntraOpOptimizer(ipu_chip, ipu_cost_model, constraints)
        op = matmul("mm", m=96, k=48, n=64)
        for _, stats in (optimizer.search_results(op), optimizer.search_reference(op)):
            assert stats.evaluated == min(max_plans, 24)
            assert stats.truncated is truncated


class TestStreamingMatchesReference:
    """The streaming sketch/prune/materialize search is bit-identical to the
    eager implementation it replaced (kept as ``search_reference``)."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: matmul("mm", m=256, k=256, n=256),
            lambda: matmul("skinny", m=8, k=512, n=8),
            lambda: conv2d(
                "c", batch=2, in_channels=8, out_channels=16, height=16, width=16, kernel=3
            ),
            lambda: library_op("sort", kind="sort", data_bytes=32 * 1024, flops=32 * 1024),
        ],
        ids=["matmul", "skinny-matmul", "conv", "library"],
    )
    def test_frontier_bit_identical(self, optimizer, factory):
        reference_plans, reference_stats = optimizer.search_reference(factory())
        plans, stats = optimizer.search_results(factory())
        assert plans == reference_plans
        assert stats.complete == reference_stats.complete
        assert stats.sketched == reference_stats.sketched
        assert stats.evaluated == reference_stats.evaluated
        assert stats.filtered == reference_stats.filtered
        assert stats.optimized == reference_stats.optimized
        assert stats.truncated == reference_stats.truncated

    def test_streaming_materializes_fewer(self, optimizer):
        op = matmul("mm", m=256, k=256, n=256)
        _, reference_stats = optimizer.search_reference(op)
        stats = optimizer.search_space_stats(op)
        assert reference_stats.materialized == reference_stats.evaluated
        assert stats.materialized < reference_stats.materialized


class TestConstraints:
    def test_stricter_constraints_fewer_candidates(self, small_chip, small_cost_model):
        op = matmul("mm", m=256, k=256, n=256)
        strict = IntraOpOptimizer(
            small_chip,
            small_cost_model,
            SearchConstraints(
                core_count_samples=2, max_factorizations_per_target=20, max_temporal_combos=4
            ),
        )
        loose = IntraOpOptimizer(
            small_chip,
            small_cost_model,
            SearchConstraints(
                core_count_samples=8, max_factorizations_per_target=200, max_temporal_combos=32
            ),
        )
        assert strict.search_space_stats(op).evaluated <= loose.search_space_stats(op).evaluated

    def test_best_plan_at_least_as_good_with_bigger_space(self, small_chip, small_cost_model):
        op = matmul("mm", m=256, k=256, n=256)
        strict = IntraOpOptimizer(
            small_chip,
            small_cost_model,
            SearchConstraints(
                core_count_samples=2, max_factorizations_per_target=20, max_temporal_combos=4
            ),
        )
        loose = IntraOpOptimizer(
            small_chip,
            small_cost_model,
            SearchConstraints(
                core_count_samples=8, max_factorizations_per_target=200, max_temporal_combos=32
            ),
        )
        strict_best = min(p.time_est for p in strict.pareto_plans(op))
        loose_best = min(p.time_est for p in loose.pareto_plans(op))
        assert loose_best <= strict_best * 1.01
