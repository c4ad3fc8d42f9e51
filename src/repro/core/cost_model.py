"""The T10 cost model (paper §4.3.1).

T10 avoids profiling every candidate plan on hardware by fitting, per operator
type, a linear regression from sub-task features to single-core execution
time, and a second linear model from transfer volume to communication time.
The compute-shift paradigm makes this viable because every step touches only
local memory — there are no unpredictable stalls to model.

In this reproduction the "hardware" being profiled is the analytical chip
simulator; the simulator's ground truth is intentionally nonlinear (launch
overhead, saturation, vector alignment, a conv black-box factor), so the
fitted model is near-perfect for matmul-like kernels and mildly inaccurate
for convolution, mirroring Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.hw.simulator import ChipSimulator
from repro.hw.spec import ChipSpec
from repro.ir import ops as op_factories
from repro.ir.operator import Operator


@dataclass(frozen=True)
class KernelSample:
    """One profiled sub-task: its shape features and measured time."""

    op_type: str
    shape: Mapping[str, int]
    flops: float
    nbytes: float
    measured_time: float


@dataclass
class LinearKernelModel:
    """Least-squares linear model ``time ≈ c0 + c1·flops + c2·bytes``."""

    op_type: str
    coefficients: np.ndarray
    samples: list[KernelSample] = field(default_factory=list)

    @classmethod
    def fit(cls, op_type: str, samples: Sequence[KernelSample]) -> "LinearKernelModel":
        """Fit the model on profiled samples of one operator type."""
        if not samples:
            raise ValueError(f"cannot fit kernel model for {op_type!r} without samples")
        features = np.array([[1.0, s.flops, s.nbytes] for s in samples])
        targets = np.array([s.measured_time for s in samples])
        coefficients, *_ = np.linalg.lstsq(features, targets, rcond=None)
        return cls(op_type=op_type, coefficients=coefficients, samples=list(samples))

    def predict(self, flops: float, nbytes: float) -> float:
        """Predicted single-core execution time of a sub-task (seconds)."""
        c0, c1, c2 = self.coefficients
        return float(max(c0 + c1 * flops + c2 * nbytes, 1e-9))

    def predict_batch(self, flops: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predict` over many sub-tasks at once.

        The arithmetic is element-wise float64 in the same association order
        as the scalar path, so each result is bit-identical to calling
        :meth:`predict` per sample — the block plan search relies on that
        to stay exactly equal to the one-plan-at-a-time implementation.
        """
        c0, c1, c2 = self.coefficients
        times = c0 + c1 * np.asarray(flops, dtype=np.float64) + c2 * np.asarray(
            nbytes, dtype=np.float64
        )
        return np.maximum(times, 1e-9)

    def accuracy(self, samples: Sequence[KernelSample] | None = None) -> dict[str, float]:
        """Mean absolute percentage error and R² against ``samples``."""
        samples = list(samples) if samples is not None else self.samples
        if not samples:
            return {"mape": 0.0, "r2": 1.0, "num_samples": 0.0}
        measured = np.array([s.measured_time for s in samples])
        predicted = np.array([self.predict(s.flops, s.nbytes) for s in samples])
        errors = np.abs(predicted - measured) / np.maximum(measured, 1e-12)
        residual = float(np.sum((measured - predicted) ** 2))
        total = float(np.sum((measured - measured.mean()) ** 2))
        r2 = 1.0 - residual / total if total > 0 else 1.0
        return {
            "mape": float(errors.mean()),
            "r2": r2,
            "num_samples": float(len(samples)),
        }


@dataclass
class CommModel:
    """Linear model of inter-core transfer time as a function of volume."""

    latency: float
    per_byte: float

    def predict(self, nbytes: float) -> float:
        """Predicted time of one shift of ``nbytes`` per core (seconds)."""
        return float(max(self.latency + self.per_byte * nbytes, 0.0))

    def predict_batch(self, nbytes: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`predict`, bit-identical to it per volume."""
        times = self.latency + self.per_byte * np.asarray(nbytes, dtype=np.float64)
        # ``max(x, 0.0)`` keeps ``x`` unless ``0.0 > x``; so does this.
        return np.where(0.0 > times, 0.0, times)


#: Operator types the cost model is fitted for by default.
DEFAULT_OP_TYPES: tuple[str, ...] = (
    "matmul",
    "conv2d",
    "elementwise_add",
    "elementwise_gelu",
    "pool",
    "reduce_sum",
    "gather",
    "softmax",
    "layernorm",
)

CustomCostFn = Callable[[Mapping[str, int], float, float], float]


class CostModel:
    """Per-operator-type kernel models plus a communication model."""

    def __init__(
        self,
        chip: ChipSpec,
        kernel_models: Mapping[str, LinearKernelModel],
        comm_model: CommModel,
    ) -> None:
        self.chip = chip
        self.kernel_models: dict[str, LinearKernelModel] = dict(kernel_models)
        self.comm_model = comm_model
        self._custom: dict[str, CustomCostFn] = {}

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @classmethod
    def fit(
        cls,
        chip: ChipSpec,
        *,
        op_types: Iterable[str] = DEFAULT_OP_TYPES,
        samples_per_type: int = 48,
        seed: int = 7,
        simulator: ChipSimulator | None = None,
    ) -> "CostModel":
        """Profile random sub-tasks on one simulated core and fit the models.

        The sub-tasks depend only on ``(op_types, samples_per_type, seed)``,
        not on the chip, so they are drawn once per key
        (:func:`drawn_subtasks`) and only timed per chip.
        """
        simulator = simulator or ChipSimulator(chip)
        kernel_models: dict[str, LinearKernelModel] = {}
        for op_type, subtasks in drawn_subtasks(tuple(op_types), samples_per_type, seed):
            samples = _time_subtasks(simulator, op_type, subtasks)
            if samples:
                kernel_models[op_type] = LinearKernelModel.fit(op_type, samples)
        comm_model = fit_comm_model(simulator)
        return cls(chip=chip, kernel_models=kernel_models, comm_model=comm_model)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def compute_time(
        self,
        op_type: str,
        subtask_shape: Mapping[str, int],
        flops: float,
        nbytes: float,
    ) -> float:
        """Predicted per-step single-core compute time of a sub-task."""
        if op_type in self._custom:
            return self._custom[op_type](subtask_shape, flops, nbytes)
        model = self._lookup(op_type)
        if model is not None:
            return model.predict(flops, nbytes)
        return self._default_compute_time(flops, nbytes)

    def compute_time_batch(
        self,
        op_type: str,
        subtask_shape: Mapping[str, np.ndarray],
        flops: np.ndarray,
        nbytes: np.ndarray,
    ) -> np.ndarray:
        """Per-step compute times of many sub-tasks of one operator type.

        The sub-tasks are columns: ``subtask_shape`` maps each axis to its
        extents, and ``flops`` and ``nbytes`` hold one value per sub-task.
        Fitted kernel models and the analytic default are evaluated as
        float64 arrays in the association order of their scalar forms.  A
        custom cost function is called once per sub-task, with a shape dict
        of Python ints built from the columns.  Every element is
        bit-identical to calling :meth:`compute_time` on its sub-task.
        """
        if op_type in self._custom:
            fn = self._custom[op_type]
            axes = list(subtask_shape)
            shapes = zip(*(np.asarray(column).tolist() for column in subtask_shape.values()))
            return np.array(
                [
                    fn(dict(zip(axes, shape)), flop, nbyte)
                    for shape, flop, nbyte in zip(
                        shapes, np.asarray(flops).tolist(), np.asarray(nbytes).tolist()
                    )
                ],
                dtype=np.float64,
            )
        model = self._lookup(op_type)
        if model is not None:
            return model.predict_batch(flops, nbytes)
        return self._default_compute_time(
            np.asarray(flops, dtype=np.float64), np.asarray(nbytes, dtype=np.float64)
        )

    def shift_time(self, nbytes: float) -> float:
        """Predicted time of one inter-core shift of ``nbytes``."""
        return self.comm_model.predict(nbytes)

    def shift_time_batch(self, nbytes: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`shift_time`, bit-identical to it per volume."""
        return self.comm_model.predict_batch(nbytes)

    def setup_time(self, nbytes: float) -> float:
        """Predicted time of an idle→active transition moving ``nbytes`` per core."""
        return self.comm_model.predict(nbytes)

    def register_custom(self, op_type: str, fn: CustomCostFn) -> None:
        """Register a user-supplied cost function for a custom kernel.

        Mirrors the interface the paper exposes for vendor/custom kernels.
        """
        self._custom[op_type] = fn

    def has_model(self, op_type: str) -> bool:
        """Whether a fitted or custom model exists for ``op_type``."""
        return op_type in self._custom or self._lookup(op_type) is not None

    def accuracy_report(self) -> dict[str, dict[str, float]]:
        """Per-operator-type accuracy metrics of the fitted models (Fig. 8)."""
        return {
            op_type: model.accuracy() for op_type, model in sorted(self.kernel_models.items())
        }

    # ------------------------------------------------------------------ #
    def _lookup(self, op_type: str) -> LinearKernelModel | None:
        if op_type in self.kernel_models:
            return self.kernel_models[op_type]
        # Element-wise variants share a model with the generic kinds.
        if op_type.startswith("elementwise"):
            for candidate in ("elementwise_add", "elementwise_gelu"):
                if candidate in self.kernel_models:
                    return self.kernel_models[candidate]
        if op_type.startswith("library"):
            return self.kernel_models.get("elementwise_add")
        return None

    def _default_compute_time(
        self, flops: float | np.ndarray, nbytes: float | np.ndarray
    ) -> float | np.ndarray:
        """Analytic fallback for operator types without a fitted model.

        Element-wise on float64 arrays, with the scalar path's operations.
        """
        effective = 0.45 * self.chip.core_flops
        return (
            self.chip.compute_launch_overhead
            + flops / effective
            + nbytes / self.chip.local_mem_bandwidth
        )


# --------------------------------------------------------------------------- #
# Profiling (sample generation)
# --------------------------------------------------------------------------- #
#: One drawn sub-task: its expression's op type, axis extents, FLOPs and bytes.
_Subtask = tuple[str, tuple[tuple[str, int], ...], float, int]


def profile_op_type(
    simulator: ChipSimulator,
    op_type: str,
    num_samples: int,
    rng: np.random.Generator,
) -> list[KernelSample]:
    """Generate random sub-task shapes of ``op_type`` and time them."""
    return _time_subtasks(simulator, op_type, _draw_subtasks(op_type, num_samples, rng))


@lru_cache(maxsize=None)
def drawn_subtasks(
    op_types: tuple[str, ...], samples_per_type: int, seed: int
) -> tuple[tuple[str, tuple[_Subtask, ...]], ...]:
    """The random sub-tasks :meth:`CostModel.fit` profiles, per op type.

    One generator seeded with ``seed`` draws ``samples_per_type`` sub-tasks
    of each op type in turn, so the draws depend on the key alone and are
    memoised on it: every chip's fit times the same sub-tasks.
    """
    rng = np.random.default_rng(seed)
    return tuple(
        (op_type, tuple(_draw_subtasks(op_type, samples_per_type, rng)))
        for op_type in op_types
    )


def _draw_subtasks(op_type: str, num_samples: int, rng: np.random.Generator) -> list[_Subtask]:
    """``num_samples`` random sub-tasks of ``op_type`` (none for an unknown type)."""
    subtasks: list[_Subtask] = []
    for _ in range(num_samples):
        operator = _random_subtask(op_type, rng)
        if operator is None:
            return []
        expr = operator.expr
        subtasks.append(
            (expr.op_type, tuple(expr.axes.items()), expr.total_flops, expr.total_bytes)
        )
    return subtasks


def _time_subtasks(
    simulator: ChipSimulator, op_type: str, subtasks: Iterable[_Subtask]
) -> list[KernelSample]:
    """Time each sub-task on one simulated core."""
    samples: list[KernelSample] = []
    for kernel, axes, flops, nbytes in subtasks:
        shape = dict(axes)
        measured = simulator.compute_task_time(kernel, shape, flops, nbytes)
        samples.append(
            KernelSample(
                op_type=op_type,
                shape=shape,
                flops=flops,
                nbytes=float(nbytes),
                measured_time=measured,
            )
        )
    return samples


def fit_comm_model(simulator: ChipSimulator) -> CommModel:
    """Fit the linear communication model against the simulator."""
    volumes = np.array([256, 1024, 4096, 16384, 65536, 262144], dtype=float)
    times = np.array([simulator.shift_time_per_step(int(v)) for v in volumes])
    features = np.stack([np.ones_like(volumes), volumes], axis=1)
    (latency, per_byte), *_ = np.linalg.lstsq(features, times, rcond=None)
    return CommModel(latency=float(latency), per_byte=float(per_byte))


def _random_subtask(op_type: str, rng: np.random.Generator) -> Operator | None:
    """A random small operator of ``op_type`` representing one core's sub-task."""
    if op_type == "matmul":
        return op_factories.matmul(
            "sample",
            m=int(rng.integers(1, 192)),
            k=int(rng.integers(8, 256)),
            n=int(rng.integers(1, 192)),
        )
    if op_type == "conv2d":
        return op_factories.conv2d(
            "sample",
            batch=1,
            in_channels=int(rng.integers(4, 64)),
            out_channels=int(rng.integers(4, 64)),
            height=int(rng.integers(4, 28)),
            width=int(rng.integers(4, 28)),
            kernel=int(rng.choice([1, 3, 5])),
        )
    if op_type.startswith("elementwise"):
        kind = op_type.split("_", 1)[1] if "_" in op_type else "add"
        return op_factories.elementwise(
            "sample",
            {"r": int(rng.integers(8, 512)), "c": int(rng.integers(8, 512))},
            kind=kind,
            flops_per_point=4.0 if kind == "gelu" else 1.0,
        )
    if op_type == "pool":
        return op_factories.pool2d(
            "sample",
            batch=1,
            channels=int(rng.integers(4, 64)),
            height=int(rng.integers(4, 28)),
            width=int(rng.integers(4, 28)),
            kernel=2,
        )
    if op_type == "reduce_sum":
        return op_factories.reduce_sum(
            "sample",
            {"r": int(rng.integers(8, 512)), "c": int(rng.integers(8, 512))},
            reduce_axes=["c"],
        )
    if op_type == "gather":
        return op_factories.gather(
            "sample",
            vocab=int(rng.integers(128, 4096)),
            tokens=int(rng.integers(4, 128)),
            hidden=int(rng.integers(16, 256)),
        )
    if op_type == "softmax":
        return op_factories.softmax(
            "sample", rows=int(rng.integers(8, 256)), cols=int(rng.integers(8, 256))
        )
    if op_type == "layernorm":
        return op_factories.layernorm(
            "sample", rows=int(rng.integers(8, 256)), cols=int(rng.integers(8, 256))
        )
    return None
