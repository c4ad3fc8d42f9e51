"""Tests for operator partitioning: F_op enumeration, rTensor derivation, alignment."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import SearchConstraints
from repro.core.partition import (
    align_rotation_paces,
    complete_space_size,
    derive_rtensor,
    enumerate_operator_partitions,
    filtered_space_size,
    max_usable_cores,
    spatial_factor,
    sub_extents,
    temporal_factor_choices,
    tensor_sharing_degree,
    tensor_sub_shape,
)
from repro.ir import conv2d, matmul
from repro.utils import prod


@pytest.fixture()
def mm():
    return matmul("mm", m=6, k=6, n=3).expr


@pytest.fixture()
def conv():
    return conv2d(
        "conv", batch=4, in_channels=8, out_channels=16, height=16, width=16, kernel=3
    ).expr


class TestDerivedQuantities:
    def test_sub_extents(self, mm):
        assert sub_extents(mm, {"m": 2, "k": 1, "n": 3}) == {"m": 3, "k": 6, "n": 1}

    def test_sharing_degree_matches_paper_example(self, mm):
        """Figure 7: F_op = [2, 1, 3] -> A shared by 3 cores, B by 2, C by 1."""
        fop = {"m": 2, "k": 1, "n": 3}
        a, b = mm.inputs
        assert tensor_sharing_degree(mm, a, fop) == 3
        assert tensor_sharing_degree(mm, b, fop) == 2
        assert tensor_sharing_degree(mm, mm.output, fop) == 1

    def test_spatial_factor(self, mm):
        fop = {"m": 2, "k": 1, "n": 3}
        a, b = mm.inputs
        assert spatial_factor(mm, a, fop) == (2, 1)
        assert spatial_factor(mm, b, fop) == (1, 3)
        assert spatial_factor(mm, mm.output, fop) == (2, 3)

    def test_tensor_sub_shape_with_halo(self, conv):
        input_spec = next(s for s in conv.inputs if s.name == "I")
        factors = {"b": 1, "f": 1, "c": 1, "h": 4, "w": 4, "kh": 1, "kw": 1}
        shape = tensor_sub_shape(conv, input_spec, factors)
        # Output tile 4x4 plus the 3x3 kernel halo -> 6x6 input footprint.
        assert shape == (4, 8, 6, 6)

    def test_max_usable_cores_small_operator(self, mm):
        assert max_usable_cores(mm, 1000) == 6 * 6 * 3


class TestDeriveRTensor:
    def test_replicated_weight(self, mm):
        fop = {"m": 6, "k": 1, "n": 1}
        b = mm.inputs[1]
        config = derive_rtensor(mm, b, fop, 1)
        assert config is not None
        assert config.sharing_degree == 6
        assert not config.is_rotated
        assert config.partition_bytes == config.sub_tensor_bytes

    def test_temporal_split_reduces_memory(self, mm):
        fop = {"m": 6, "k": 1, "n": 1}
        b = mm.inputs[1]
        replicated = derive_rtensor(mm, b, fop, 1)
        split = derive_rtensor(mm, b, fop, 3)
        assert split is not None and replicated is not None
        assert split.partition_bytes < replicated.partition_bytes

    def test_invalid_when_factor_does_not_divide_sharing(self, mm):
        fop = {"m": 6, "k": 1, "n": 1}
        b = mm.inputs[1]
        assert derive_rtensor(mm, b, fop, 4) is None

    def test_invalid_when_no_dim_large_enough(self):
        expr = matmul("tiny", m=64, k=2, n=2).expr
        fop = {"m": 64, "k": 1, "n": 1}
        b = expr.inputs[1]
        # B is 2x2; it cannot be split into 16 temporal partitions.
        assert derive_rtensor(expr, b, fop, 16) is None


class TestAlignment:
    def test_figure7_aligned_pace(self, mm):
        """Tensors rotating along k share pace 2 = min(partition lengths 2 and 3)."""
        fop = {"m": 2, "k": 1, "n": 3}
        a, b = mm.inputs
        configs = {
            "A": derive_rtensor(mm, a, fop, 3),
            "B": derive_rtensor(mm, b, fop, 2),
            "C": derive_rtensor(mm, mm.output, fop, 1),
        }
        assert all(config is not None for config in configs.values())
        aligned, paces = align_rotation_paces(mm, configs, fop)
        assert paces == {"k": 2}
        a_cfg = aligned["A"]
        b_cfg = aligned["B"]
        assert a_cfg.rp[a_cfg.rotation_dim] == 2
        assert b_cfg.rp[b_cfg.rotation_dim] == 2

    def test_pace_not_above_any_partition(self, conv):
        fop = {"b": 2, "f": 4, "c": 1, "h": 2, "w": 2, "kh": 1, "kw": 1}
        configs = {}
        for spec in conv.all_tensors:
            sharing = tensor_sharing_degree(conv, spec, fop)
            factor = max(d for d in range(1, sharing + 1) if sharing % d == 0 and d <= 4)
            config = derive_rtensor(conv, spec, fop, factor)
            if config is not None:
                configs[spec.name] = config
        aligned, paces = align_rotation_paces(conv, configs, fop)
        for config in aligned.values():
            dim = config.rotation_dim
            if dim is None:
                continue
            assert config.rp[dim] <= config.partition_shape[dim]


class TestTemporalChoices:
    def test_always_contains_one(self, mm):
        fop = {"m": 2, "k": 1, "n": 3}
        for spec in mm.all_tensors:
            assert 1 in temporal_factor_choices(mm, spec, fop)

    def test_choices_divide_sharing(self, mm):
        fop = {"m": 6, "k": 1, "n": 3}
        for spec in mm.all_tensors:
            sharing = tensor_sharing_degree(mm, spec, fop)
            for choice in temporal_factor_choices(mm, spec, fop):
                assert sharing % choice == 0

    def test_respects_max_choices(self, mm):
        fop = {"m": 6, "k": 1, "n": 3}
        b = mm.inputs[0]
        assert len(temporal_factor_choices(mm, b, fop, max_choices=2)) <= 2

    @pytest.mark.parametrize("max_choices", [1, 0, -1])
    def test_rejects_a_budget_below_both_extremes(self, max_choices):
        """The thinning keeps the smallest and largest factor, so it cannot
        honour a budget below 2 (1 used to divide by zero, 0 returned two)."""
        expr = matmul("mm", m=64, k=64, n=64).expr
        b = expr.inputs[1]
        fop = {"m": 16, "k": 1, "n": 1}
        assert len(temporal_factor_choices(expr, b, fop)) > 2
        with pytest.raises(ValueError, match="max_choices"):
            temporal_factor_choices(expr, b, fop, max_choices=max_choices)


class TestEnumeration:
    def test_parallelism_constraint(self, small_chip):
        expr = matmul("mm", m=256, k=256, n=256).expr
        constraints = SearchConstraints(min_core_utilization=0.9)
        fops = enumerate_operator_partitions(expr, small_chip.num_cores, constraints)
        assert fops
        for fop in fops:
            used = prod(fop.values())
            assert used <= small_chip.num_cores
            assert used >= int(0.9 * small_chip.num_cores)

    def test_padding_constraint(self, small_chip):
        expr = conv2d(
            "c", batch=2, in_channels=8, out_channels=8, height=16, width=16, kernel=3
        ).expr
        constraints = SearchConstraints(padding_threshold=0.9)
        fops = enumerate_operator_partitions(expr, small_chip.num_cores, constraints)
        for fop in fops:
            for axis, factor in fop.items():
                if factor > 1:
                    assert constraints.padding_ok(expr.axes[axis], factor)

    def test_small_operator_falls_back(self):
        expr = matmul("tiny", m=2, k=2, n=2).expr
        constraints = SearchConstraints()
        fops = enumerate_operator_partitions(expr, 1024, constraints)
        assert fops
        assert all(prod(f.values()) <= 8 for f in fops)

    def test_candidate_cap_respected(self, small_chip):
        expr = matmul("mm", m=512, k=512, n=512).expr
        constraints = SearchConstraints(max_plans=10)
        fops = enumerate_operator_partitions(expr, small_chip.num_cores, constraints)
        assert len(fops) <= 10


class TestSpaceSizes:
    def test_complete_larger_than_filtered(self, small_chip):
        expr = conv2d(
            "c", batch=4, in_channels=16, out_channels=16, height=14, width=14, kernel=3
        ).expr
        constraints = SearchConstraints()
        complete = complete_space_size(expr, small_chip.num_cores)
        filtered = filtered_space_size(expr, small_chip.num_cores, constraints)
        assert complete > filtered > 0

    def test_complete_grows_with_dimensions(self, small_chip):
        small = matmul("a", m=64, k=64, n=64).expr
        big = conv2d(
            "c", batch=8, in_channels=32, out_channels=32, height=28, width=28, kernel=3
        ).expr
        assert complete_space_size(big, small_chip.num_cores) > complete_space_size(
            small, small_chip.num_cores
        )


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=4, max_value=256),
    k=st.integers(min_value=4, max_value=256),
    n=st.integers(min_value=4, max_value=256),
)
def test_property_enumerated_partitions_valid(m, k, n):
    """Every enumerated F_op respects the core budget and axis extents."""
    expr = matmul("mm", m=m, k=k, n=n).expr
    constraints = SearchConstraints(
        core_count_samples=3, max_factorizations_per_target=40, max_temporal_combos=8
    )
    fops = enumerate_operator_partitions(expr, 64, constraints)
    assert fops
    for fop in fops:
        assert prod(fop.values()) <= 64
        for axis, factor in fop.items():
            assert 1 <= factor <= expr.axes[axis]


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=4, max_value=256),
    k=st.integers(min_value=4, max_value=256),
    n=st.integers(min_value=4, max_value=256),
)
def test_property_factors_divide_padded_shapes(m, k, n):
    """Each partition factor divides its axis's padded extent evenly.

    A sub-operator's extent is ``ceil(L / f)``; the padded axis length is
    therefore ``ceil(L / f) * f``, which every ``f`` must divide with no
    remainder and which never falls short of the original extent.
    """
    expr = matmul("mm", m=m, k=k, n=n).expr
    constraints = SearchConstraints(
        core_count_samples=3, max_factorizations_per_target=40, max_temporal_combos=8
    )
    for fop in enumerate_operator_partitions(expr, 64, constraints):
        extents = sub_extents(expr, fop)
        for axis, factor in fop.items():
            original = expr.axes[axis]
            padded = extents[axis] * factor
            assert padded % factor == 0
            assert padded >= original
            assert extents[axis] == -(-original // factor)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=512),
    k=st.integers(min_value=2, max_value=512),
    n=st.integers(min_value=2, max_value=512),
    cores=st.sampled_from([8, 64, 1472]),
)
def test_property_complete_space_matches_closed_form(m, k, n, cores):
    """``complete_space_size`` equals its closed form, recomputed independently:

    ``prod_axes min(L_axis, C) * prod_tensors min(C, longest_dim)``.
    """
    expr = matmul("mm", m=m, k=k, n=n).expr
    spatial = 1.0
    for extent in expr.axes.values():
        spatial *= max(1, min(extent, cores))
    temporal = 1.0
    for spec in expr.all_tensors:
        longest = max(expr.tensor_shape(spec)) if spec.dims else 1
        temporal *= max(1, min(cores, longest))
    assert complete_space_size(expr, cores) == spatial * temporal


@settings(max_examples=15, deadline=None)
@given(
    m=st.integers(min_value=4, max_value=256),
    k=st.integers(min_value=4, max_value=256),
    n=st.integers(min_value=4, max_value=256),
)
def test_property_filtered_space_matches_closed_form(m, k, n):
    """``filtered_space_size`` is exactly |F_op candidates| x temporal combos."""
    expr = matmul("mm", m=m, k=k, n=n).expr
    constraints = SearchConstraints(
        core_count_samples=3, max_factorizations_per_target=40, max_temporal_combos=8
    )
    fops = enumerate_operator_partitions(expr, 64, constraints)
    per_tensor = 6
    combos = min(constraints.max_temporal_combos, per_tensor ** len(expr.all_tensors))
    expected = float(len(fops) * combos)
    assert filtered_space_size(
        expr, 64, constraints, temporal_choices_per_tensor=per_tensor
    ) == expected
