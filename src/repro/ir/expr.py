"""Tensor expressions: the operator-level IR consumed by the compiler.

T10 represents each operator with a tensor expression (paper §4.2), e.g. a
matrix multiplication is ``C[m, n] += A[m, k] * B[k, n]``.  The expression
records every iteration axis with its extent, the tensors involved (with the
axes that index each dimension) and how many floating-point operations one
iteration point performs.  Everything the partitioner and the cost model need
— tensor shapes, byte counts, FLOP counts, which axes are reductions — derives
from this single structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.ir.dtype import DType
from repro.ir.tensor import DimExpr, TensorRole, TensorSpec
from repro.utils import prod


@dataclass(frozen=True)
class TensorExpression:
    """A single tensor operator expressed over named iteration axes.

    Parameters
    ----------
    op_type:
        Kernel family the operator belongs to (``"matmul"``, ``"conv2d"``,
        ``"elementwise"``, ...).  The cost model fits one kernel model per
        ``op_type``.
    axes:
        Mapping from axis name to extent.  Every axis referenced by a tensor
        dimension must appear here.
    inputs / output:
        Tensor specs.  Axes present in ``axes`` but absent from the output are
        reduction axes.
    flops_per_point:
        Floating-point operations performed per iteration point (2 for a
        multiply-accumulate).
    flops_axes:
        Axes whose extents multiply into the FLOP count.  Defaults to all
        axes; data-movement operators such as gather restrict this so their
        "compute" reflects the output size rather than the full index space.
    dtype:
        Element type of all tensors of this operator.
    library_fallback:
        True for operators that cannot be expressed as a tensor expression
        (e.g. Sort) and therefore use the vendor-library implementation
        instead of the compute-shift partition search.
    """

    op_type: str
    axes: Mapping[str, int]
    inputs: tuple[TensorSpec, ...]
    output: TensorSpec
    flops_per_point: float = 2.0
    flops_axes: frozenset[str] | None = None
    dtype: DType = DType.FP16
    library_fallback: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", dict(self.axes))
        if not self.axes:
            raise ValueError("TensorExpression requires at least one axis")
        for axis, extent in self.axes.items():
            if extent <= 0:
                raise ValueError(f"axis {axis!r} must have positive extent, got {extent}")
        for spec in self.all_tensors:
            for axis in spec.axes:
                if axis not in self.axes:
                    raise ValueError(
                        f"tensor {spec.name!r} references unknown axis {axis!r}"
                    )
        if self.flops_axes is not None:
            unknown = set(self.flops_axes) - set(self.axes)
            if unknown:
                raise ValueError(f"flops_axes reference unknown axes {sorted(unknown)}")

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def all_tensors(self) -> tuple[TensorSpec, ...]:
        """Inputs followed by the output tensor."""
        return tuple(self.inputs) + (self.output,)

    @property
    def reduction_axes(self) -> frozenset[str]:
        """Axes that do not appear in the output tensor (reduced away)."""
        output_axes = set(self.output.axes)
        return frozenset(axis for axis in self.axes if axis not in output_axes)

    # ------------------------------------------------------------------ #
    # Shapes, sizes and FLOPs
    # ------------------------------------------------------------------ #
    def dim_length(self, dim: DimExpr, extents: Mapping[str, int] | None = None) -> int:
        """Concrete length of one tensor dimension.

        A compound dimension ``h + kh`` has length ``h_extent + kh_extent - 1``
        (the "valid" convolution input footprint); a plain dimension has the
        extent of its axis.
        """
        extents = self.axes if extents is None else extents
        total = sum(extents[axis] for axis in dim.axes)
        return total - (len(dim.axes) - 1)

    def tensor_shape(
        self, spec: TensorSpec, extents: Mapping[str, int] | None = None
    ) -> tuple[int, ...]:
        """Concrete shape of ``spec`` under the given axis extents."""
        return tuple(self.dim_length(dim, extents) for dim in spec.dims)

    def tensor_elements(self, spec: TensorSpec, extents: Mapping[str, int] | None = None) -> int:
        """Number of elements of ``spec``."""
        return prod(self.tensor_shape(spec, extents))

    def tensor_bytes(self, spec: TensorSpec, extents: Mapping[str, int] | None = None) -> int:
        """Size of ``spec`` in bytes."""
        return self.tensor_elements(spec, extents) * self.dtype.bytes

    @property
    def total_flops(self) -> float:
        """Floating point operations performed by the whole operator."""
        return self.flops(self.axes)

    def flops(self, extents: Mapping[str, int]) -> float:
        """FLOPs of a (sub-)task covering the given axis extents."""
        axes = self.flops_axes if self.flops_axes is not None else frozenset(self.axes)
        count = prod(extents[axis] for axis in self.axes if axis in axes)
        return count * self.flops_per_point

    @property
    def total_bytes(self) -> int:
        """Total bytes of all input and output tensors."""
        return sum(self.tensor_bytes(spec) for spec in self.all_tensors)

    @property
    def weight_bytes(self) -> int:
        """Bytes of persistent (weight) tensors."""
        return sum(
            self.tensor_bytes(spec)
            for spec in self.inputs
            if spec.role is TensorRole.WEIGHT
        )

    @property
    def activation_bytes(self) -> int:
        """Bytes of non-persistent input tensors."""
        return sum(
            self.tensor_bytes(spec)
            for spec in self.inputs
            if spec.role is not TensorRole.WEIGHT
        )

    @property
    def output_bytes(self) -> int:
        """Bytes of the output tensor."""
        return self.tensor_bytes(self.output)

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved if every tensor is touched exactly once."""
        return self.total_flops / max(1, self.total_bytes)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def signature(self) -> tuple:
        """Hashable identity used to cache compilation results.

        Two operators with the same signature have identical partition spaces
        and cost profiles, so their Pareto frontiers can be shared (paper
        §6.3: final plans are cached and reused for identical operators).
        """
        return (
            self.op_type,
            tuple(sorted(self.axes.items())),
            tuple((spec.name, spec.dims, spec.role.value) for spec in self.inputs),
            (self.output.name, self.output.dims, self.output.role.value),
            self.flops_per_point,
            self.flops_axes,
            self.dtype,
            self.library_fallback,
        )

    def __str__(self) -> str:
        axes = ", ".join(f"{name}={extent}" for name, extent in self.axes.items())
        return f"{self.op_type}({axes})"
