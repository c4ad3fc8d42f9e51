"""Operator partitioning: from an operator partition factor to rTensor configs.

This module implements §4.2 of the paper:

* ``enumerate_operator_partitions`` enumerates candidate operator partition
  factors ``F_op`` (one integer split per axis of the tensor expression)
  subject to the parallelism and padding constraints;
* ``derive_rtensor`` turns an ``F_op`` plus a temporal-factor choice into a
  concrete :class:`~repro.core.rtensor.RTensorConfig` for one tensor;
* ``align_rotation_paces`` applies the two alignment rules of §4.2 (tensors
  rotating along the same axis share one rotating pace; the pace cannot
  exceed any partition's length along that axis).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from repro.core.constraints import SearchConstraints
from repro.core.rtensor import RTensorConfig
from repro.ir.expr import TensorExpression
from repro.ir.tensor import TensorSpec
from repro.utils import ceil_div, divisors, prod


# --------------------------------------------------------------------------- #
# Basic derived quantities
# --------------------------------------------------------------------------- #
def sub_extents(expr: TensorExpression, fop: Mapping[str, int]) -> dict[str, int]:
    """Per-axis extents of one sub-operator under ``F_op`` (padded split)."""
    return {axis: ceil_div(extent, fop.get(axis, 1)) for axis, extent in expr.axes.items()}


def cores_used(fop: Mapping[str, int]) -> int:
    """Number of sub-operators (= cores used) implied by ``F_op``."""
    return prod(fop.values())


def tensor_sharing_degree(
    expr: TensorExpression, spec: TensorSpec, fop: Mapping[str, int]
) -> int:
    """Number of cores that share one sub-tensor of ``spec``.

    A tensor is sliced only along axes it carries; the sub-operators along
    every *missing* axis all need the same sub-tensor, so the sharing degree
    is the product of ``F_op`` over the missing axes (paper §4.2).
    """
    missing = [axis for axis in expr.axes if not spec.has_axis(axis)]
    return prod(fop.get(axis, 1) for axis in missing)


def spatial_factor(
    expr: TensorExpression, spec: TensorSpec, fop: Mapping[str, int]
) -> tuple[int, ...]:
    """Per-dimension spatial partition factor of ``spec`` induced by ``F_op``.

    Compound dimensions (``h + kh``) are partitioned along their primary axis
    only, matching how T10 handles compound axes (§5).
    """
    return tuple(fop.get(dim.primary, 1) for dim in spec.dims)


def tensor_sub_shape(
    expr: TensorExpression, spec: TensorSpec, fop: Mapping[str, int]
) -> tuple[int, ...]:
    """Shape of one sub-tensor of ``spec`` under ``F_op``.

    Evaluated from the sub-operator extents so that compound dimensions keep
    their halo (an ``h + kh`` dimension split along ``h`` still needs the
    extra ``kh - 1`` rows on every core).
    """
    extents = sub_extents(expr, fop)
    return expr.tensor_shape(spec, extents)


# --------------------------------------------------------------------------- #
# Temporal factor and rotating pace
# --------------------------------------------------------------------------- #
def choose_rotation_dim(
    expr: TensorExpression,
    spec: TensorSpec,
    fop: Mapping[str, int],
    temporal_factor: int,
    *,
    sub_shape: tuple[int, ...] | None = None,
) -> int | None:
    """Pick the dimension along which a sub-tensor of ``spec`` is split temporally.

    T10 splits a shared sub-tensor along one of its own dimensions to form
    rotation rings.  We pick the dimension with the longest sub-length that
    can accommodate the requested split (at least one element per partition);
    a longer dimension keeps the rotating pace flexible and the shift tiles
    contiguous.  Returns ``None`` when no dimension can host the split.
    ``sub_shape`` may pass a precomputed :func:`tensor_sub_shape` (the plan
    sketcher computes it once per tensor anyway).
    """
    if temporal_factor <= 1:
        return None
    shape = tensor_sub_shape(expr, spec, fop) if sub_shape is None else sub_shape
    best_dim: int | None = None
    best_len = 0
    for index, length in enumerate(shape):
        if length >= temporal_factor and length > best_len:
            best_dim = index
            best_len = length
    return best_dim


def temporal_factor_choices(
    expr: TensorExpression,
    spec: TensorSpec,
    fop: Mapping[str, int],
    *,
    max_choices: int = 6,
) -> list[int]:
    """Feasible temporal factors for ``spec`` under ``F_op``.

    A temporal factor must divide the sharing degree (so the number of rings
    is an integer, §4.2) and must not exceed the longest sub-tensor dimension
    (otherwise some partition would be empty).  The list is thinned to at most
    ``max_choices`` values spanning the full replicate-to-fully-split range so
    the cross-product over tensors stays tractable.  The thinning always keeps
    both extremes, so ``max_choices`` below 2 raises :class:`ValueError`.
    """
    shape = tensor_sub_shape(expr, spec, fop)
    longest = max(shape) if shape else 1
    sharing = tensor_sharing_degree(expr, spec, fop)
    return list(thinned_temporal_choices(sharing, longest, max_choices))


@lru_cache(maxsize=None)
def thinned_temporal_choices(
    sharing: int, longest: int, max_choices: int
) -> tuple[int, ...]:
    """The divisor thinning of :func:`temporal_factor_choices`, memoised.

    The choice list depends only on the sharing degree, the longest sub-tensor
    dimension and the thinning budget — three small integers that recur
    constantly across the candidates of one search — so the divisor filtering
    runs once per distinct combination.  The block search
    (:func:`~repro.core.plan.fop_columns`) calls it directly on its columns.
    """
    if max_choices < 2:
        raise ValueError(
            f"max_choices must be at least 2 (both extremes are kept), got {max_choices}"
        )
    feasible = [d for d in divisors(sharing) if d <= longest]
    if not feasible:
        feasible = [1]
    if len(feasible) <= max_choices:
        return tuple(feasible)
    # Keep the extremes and an even spread in between.
    picks = {feasible[0], feasible[-1]}
    step = (len(feasible) - 1) / (max_choices - 1)
    for i in range(1, max_choices - 1):
        picks.add(feasible[round(i * step)])
    return tuple(sorted(picks))


def derive_rtensor(
    expr: TensorExpression,
    spec: TensorSpec,
    fop: Mapping[str, int],
    temporal_factor: int,
) -> RTensorConfig | None:
    """Build the rTensor configuration of ``spec`` for one plan candidate.

    Returns ``None`` when the requested temporal factor cannot be realised
    (no dimension long enough), which invalidates the candidate.
    """
    sharing = tensor_sharing_degree(expr, spec, fop)
    if temporal_factor > sharing or sharing % temporal_factor != 0:
        return None
    shape = expr.tensor_shape(spec)
    sub_shape = tensor_sub_shape(expr, spec, fop)
    fs = spatial_factor(expr, spec, fop)
    rank = len(shape)
    ft = [1] * rank
    rp = [0] * rank
    if temporal_factor > 1:
        dim = choose_rotation_dim(expr, spec, fop, temporal_factor)
        if dim is None:
            return None
        ft[dim] = temporal_factor
        rp[dim] = max(1, ceil_div(sub_shape[dim], temporal_factor))
    # The spatial factors apply to the full tensor shape; compound dims keep
    # their primary-axis factor, so recompute fs against the real shape to
    # avoid splitting a dimension into more parts than it has elements.
    fs = tuple(min(f, length) for f, length in zip(fs, shape))
    return RTensorConfig(
        spec=spec,
        shape=shape,
        dtype_bytes=expr.dtype.bytes,
        fs=fs,
        ft=tuple(ft),
        rp=tuple(rp),
        sharing_degree=sharing,
        sub_shape=sub_shape,
    )


def align_rotation_paces(
    expr: TensorExpression,
    configs: Mapping[str, RTensorConfig],
    fop: Mapping[str, int],
) -> tuple[dict[str, RTensorConfig], dict[str, int]]:
    """Align rotating paces across tensors rotating along the same axis.

    Implements the two constraints of §4.2: all rTensors rotating along axis
    ``k`` share one pace, and the pace cannot exceed any of their partition
    lengths along ``k``.  T10 maximises compute intensity by picking the
    minimum partition length as the common pace.

    Returns the updated configs plus the per-axis pace map used to derive the
    sub-task shape and the number of compute-shift steps.
    """
    pace_per_axis: dict[str, int] = {}
    for config in configs.values():
        axis = config.rotation_axis
        if axis is None:
            continue
        dim = config.rotation_dim
        assert dim is not None
        partition_len = max(1, config.partition_shape[dim])
        current = pace_per_axis.get(axis)
        pace_per_axis[axis] = partition_len if current is None else min(current, partition_len)

    aligned: dict[str, RTensorConfig] = {}
    for name, config in configs.items():
        axis = config.rotation_axis
        if axis is None:
            aligned[name] = config
            continue
        dim = config.rotation_dim
        assert dim is not None
        rp = list(config.rp)
        rp[dim] = pace_per_axis[axis]
        aligned[name] = RTensorConfig(
            spec=config.spec,
            shape=config.shape,
            dtype_bytes=config.dtype_bytes,
            fs=config.fs,
            ft=config.ft,
            rp=tuple(rp),
            sharing_degree=config.sharing_degree,
            sub_shape=config.sub_shape,
        )
    return aligned, pace_per_axis


# --------------------------------------------------------------------------- #
# Operator partition enumeration
# --------------------------------------------------------------------------- #
def _axis_limit(extent: int, num_cores: int) -> int:
    """Maximum number of parts one axis can be split into."""
    return max(1, min(extent, num_cores))


def max_usable_cores(expr: TensorExpression, num_cores: int) -> int:
    """Most sub-operators the expression can be split into on this chip."""
    capacity = prod(_axis_limit(extent, num_cores) for extent in expr.axes.values())
    return min(num_cores, capacity)


def _factorizations_with_limits(
    target: int,
    limits: Sequence[int],
    lengths: Sequence[int],
    constraints: SearchConstraints,
    cap: int,
) -> list[tuple[int, ...]]:
    """Ordered factorizations of ``target`` bounded per position.

    Each factor must not exceed the corresponding axis limit and must respect
    the padding constraint against the axis length.  Enumeration stops once
    ``cap`` results are collected.
    """
    results: list[tuple[int, ...]] = []

    def recurse(remaining: int, index: int, chosen: list[int]) -> None:
        if len(results) >= cap:
            return
        if index == len(limits):
            if remaining == 1:
                results.append(tuple(chosen))
            return
        # Lower bound pruning: the remaining axes must be able to absorb the
        # remaining product.
        rest_capacity = prod(limits[index + 1 :]) if index + 1 < len(limits) else 1
        for factor in divisors(remaining):
            if factor > limits[index]:
                break
            if remaining // factor > rest_capacity:
                continue
            if factor > 1 and not constraints.padding_ok(lengths[index], factor):
                continue
            chosen.append(factor)
            recurse(remaining // factor, index + 1, chosen)
            chosen.pop()
            if len(results) >= cap:
                return

    recurse(target, 0, [])
    return results


def enumerate_operator_partitions(
    expr: TensorExpression,
    num_cores: int,
    constraints: SearchConstraints,
) -> list[dict[str, int]]:
    """Enumerate candidate operator partition factors ``F_op``.

    The parallelism constraint restricts candidates to those using at least
    ``min_core_utilization`` of the achievable cores; within that band a
    sample of total core counts is enumerated and factored over the axes
    (largest axes first, which is where meaningful splits live).
    """
    axes = list(expr.axes)
    return [
        dict(zip(axes, row)) for row in enumerate_partition_rows(expr, num_cores, constraints)
    ]


def enumerate_partition_rows(
    expr: TensorExpression,
    num_cores: int,
    constraints: SearchConstraints,
) -> list[tuple[int, ...]]:
    """:func:`enumerate_operator_partitions` as rows of factors in ``expr.axes`` order."""
    axes = list(expr.axes.keys())
    lengths = [expr.axes[a] for a in axes]
    limits = [_axis_limit(length, num_cores) for length in lengths]
    usable = max_usable_cores(expr, num_cores)
    low = max(1, int(usable * constraints.min_core_utilization))

    # Enumerate from axes with the largest extents first so pruning bites early.
    order = sorted(range(len(axes)), key=lambda i: -lengths[i])
    ordered_limits = [limits[i] for i in order]
    ordered_lengths = [lengths[i] for i in order]

    targets = _sample_targets(low, usable, constraints.core_count_samples)
    seen: set[tuple[int, ...]] = set()
    candidates: list[tuple[int, ...]] = []
    for target in targets:
        factorizations = _factorizations_with_limits(
            target,
            ordered_limits,
            ordered_lengths,
            constraints,
            constraints.max_factorizations_per_target,
        )
        for factors in factorizations:
            fop_items = [1] * len(axes)
            for position, original_index in enumerate(order):
                fop_items[original_index] = factors[position]
            key = tuple(fop_items)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(key)
            if len(candidates) >= constraints.max_plans:
                return candidates
    if not candidates:
        candidates.append(tuple(_greedy_partition(expr, num_cores).values()))
    return candidates


def _sample_targets(low: int, high: int, samples: int) -> list[int]:
    """Evenly sample core-count targets in ``[low, high]`` (endpoints included)."""
    if high <= low:
        return [max(1, high)]
    if samples <= 1:
        return [high]
    span = high - low
    picks = {low + round(i * span / (samples - 1)) for i in range(samples)}
    picks.add(high)
    return sorted(picks, reverse=True)


def _greedy_partition(expr: TensorExpression, num_cores: int) -> dict[str, int]:
    """Fallback partition when the constrained enumeration finds nothing.

    Splits the largest axes greedily until the core budget is exhausted; used
    for degenerate operators (tiny extents or a single axis).
    """
    fop = {axis: 1 for axis in expr.axes}
    remaining = num_cores
    for axis, extent in sorted(expr.axes.items(), key=lambda item: -item[1]):
        if remaining <= 1:
            break
        split = min(extent, remaining)
        fop[axis] = split
        remaining //= split
    return fop


# --------------------------------------------------------------------------- #
# Search-space accounting (Figure 18)
# --------------------------------------------------------------------------- #
def complete_space_size(expr: TensorExpression, num_cores: int) -> float:
    """Size of the unconstrained plan space for one operator.

    Every axis can be split into ``1..min(L, C)`` parts, and every tensor can
    choose any divisor of its sharing degree as a temporal factor with any
    feasible rotating pace.  The count is dominated by the spatial choices, so
    (as in the paper) we report the product of per-axis choices multiplied by
    a per-tensor temporal/pace choice bound.
    """
    spatial = prod(_axis_limit(extent, num_cores) for extent in expr.axes.values())
    temporal_bound = 1.0
    for spec in expr.all_tensors:
        # Up to C divisors of the sharing degree and as many pace choices as
        # the longest dimension; bound both by the core count.
        longest = max(expr.tensor_shape(spec)) if spec.dims else 1
        temporal_bound *= max(1, min(num_cores, longest))
    return float(spatial) * temporal_bound


def filtered_space_size(
    expr: TensorExpression,
    num_cores: int,
    constraints: SearchConstraints,
    *,
    temporal_choices_per_tensor: int = 6,
) -> float:
    """Number of plans that survive the parallelism/padding constraints.

    This is the space actually evaluated by the cost model; it corresponds to
    the "Filtered Space" bars of Figure 18.
    """
    fops = enumerate_operator_partitions(expr, num_cores, constraints)
    per_tensor = max(1, temporal_choices_per_tensor)
    combos = min(constraints.max_temporal_combos, per_tensor ** len(expr.all_tensors))
    return float(len(fops) * combos)
