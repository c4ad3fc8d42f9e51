"""Tests for the fitted cost model (kernel and communication models)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.cost_model import (
    DEFAULT_OP_TYPES,
    CommModel,
    CostModel,
    LinearKernelModel,
    drawn_subtasks,
    fit_comm_model,
    profile_op_type,
)
from repro.hw.simulator import ChipSimulator
from repro.hw.spec import A100_CHIP, IPU_MK2


class TestProfiling:
    def test_generates_requested_samples(self, small_chip):
        simulator = ChipSimulator(small_chip)
        rng = np.random.default_rng(0)
        samples = profile_op_type(simulator, "matmul", 10, rng)
        assert len(samples) == 10
        assert all(s.measured_time > 0 for s in samples)

    def test_unknown_op_type_returns_empty(self, small_chip):
        simulator = ChipSimulator(small_chip)
        rng = np.random.default_rng(0)
        assert profile_op_type(simulator, "fft", 5, rng) == []


class TestKernelModel:
    def test_fit_requires_samples(self):
        with pytest.raises(ValueError):
            LinearKernelModel.fit("matmul", [])

    def test_prediction_positive(self, small_cost_model):
        model = small_cost_model.kernel_models["matmul"]
        assert model.predict(0.0, 0.0) > 0
        assert model.predict(1e6, 1e5) > 0

    def test_matmul_accuracy_high(self, small_cost_model):
        metrics = small_cost_model.kernel_models["matmul"].accuracy()
        assert metrics["r2"] > 0.95
        assert metrics["mape"] < 0.15

    def test_conv_less_accurate_than_matmul(self, small_cost_model):
        """The vendor black-box factor makes conv the least predictable type (Fig. 8)."""
        conv = small_cost_model.kernel_models["conv2d"].accuracy()
        matmul_metrics = small_cost_model.kernel_models["matmul"].accuracy()
        assert conv["mape"] > matmul_metrics["mape"]

    def test_elementwise_nearly_perfect(self, small_cost_model):
        metrics = small_cost_model.kernel_models["elementwise_add"].accuracy()
        assert metrics["mape"] < 0.05


class TestCommModel:
    def test_linear_in_bytes(self, small_chip):
        comm = fit_comm_model(ChipSimulator(small_chip))
        assert comm.predict(2 * 10**5) > comm.predict(10**5)

    def test_matches_simulator_closely(self, small_chip):
        simulator = ChipSimulator(small_chip)
        comm = fit_comm_model(simulator)
        for nbytes in (512, 8192, 131072):
            assert comm.predict(nbytes) == pytest.approx(
                simulator.shift_time_per_step(nbytes), rel=0.05
            )

    def test_nonnegative(self):
        assert CommModel(latency=-1.0, per_byte=0.0).predict(0) == 0.0


class TestCostModel:
    def test_fit_covers_default_types(self, small_cost_model):
        for op_type in DEFAULT_OP_TYPES:
            assert small_cost_model.has_model(op_type)

    def test_elementwise_variants_share_model(self, small_cost_model):
        assert small_cost_model.has_model("elementwise_relu")
        time = small_cost_model.compute_time("elementwise_relu", {"r": 8, "c": 8}, 64, 128)
        assert time > 0

    def test_unknown_type_uses_fallback(self, small_cost_model):
        assert not small_cost_model.has_model("fft")
        assert small_cost_model.compute_time("fft", {"n": 64}, 1e5, 1024) > 0

    def test_custom_cost_function(self, small_cost_model):
        # On a copy: the session-wide model must stay picklable for the
        # process workers of later compiles.
        cost_model = copy.deepcopy(small_cost_model)
        cost_model.register_custom("mykernel", lambda shape, flops, nbytes: 42.0)
        assert cost_model.has_model("mykernel")
        assert cost_model.compute_time("mykernel", {}, 1.0, 1.0) == 42.0

    def test_shift_and_setup_consistent(self, small_cost_model):
        assert small_cost_model.shift_time(1024) == small_cost_model.setup_time(1024)

    def test_accuracy_report_structure(self, small_cost_model):
        report = small_cost_model.accuracy_report()
        assert "matmul" in report
        assert set(report["matmul"]) == {"mape", "r2", "num_samples"}

    def test_deterministic_fit(self, small_chip):
        a = CostModel.fit(small_chip, op_types=("matmul",), samples_per_type=16, seed=3)
        b = CostModel.fit(small_chip, op_types=("matmul",), samples_per_type=16, seed=3)
        np.testing.assert_allclose(
            a.kernel_models["matmul"].coefficients, b.kernel_models["matmul"].coefficients
        )

    @pytest.mark.parametrize("order", [("ipu", "a100"), ("a100", "ipu")])
    def test_fits_share_their_drawn_subtasks_bit_identically(self, order):
        """The sub-tasks are drawn once per (op types, samples, seed) and only
        timed per chip: each fit equals a fresh one that draws its own."""
        chips = {"ipu": IPU_MK2, "a100": A100_CHIP}
        drawn_subtasks.cache_clear()
        fits = [CostModel.fit(chips[name]) for name in order]
        assert drawn_subtasks.cache_info().misses == 1
        for name, fit in zip(order, fits):
            simulator = ChipSimulator(chips[name])
            rng = np.random.default_rng(7)
            for op_type in DEFAULT_OP_TYPES:
                fresh = LinearKernelModel.fit(
                    op_type, profile_op_type(simulator, op_type, 48, rng)
                )
                model = fit.kernel_models[op_type]
                assert model.coefficients.tolist() == fresh.coefficients.tolist()
                assert model.samples == fresh.samples
            assert fit.comm_model == fit_comm_model(simulator)

    def test_prediction_tracks_simulator(self, small_chip, small_cost_model):
        """Cost-model predictions should track ground truth across task sizes."""
        simulator = ChipSimulator(small_chip)
        shape_small = {"m": 16, "k": 32, "n": 16}
        shape_large = {"m": 128, "k": 128, "n": 128}
        for shape in (shape_small, shape_large):
            flops = 2 * shape["m"] * shape["k"] * shape["n"]
            nbytes = 2 * (
                shape["m"] * shape["k"] + shape["k"] * shape["n"] + shape["m"] * shape["n"]
            )
            measured = simulator.compute_task_time("matmul", shape, flops, nbytes)
            predicted = small_cost_model.compute_time("matmul", shape, flops, nbytes)
            assert predicted == pytest.approx(measured, rel=0.5)
