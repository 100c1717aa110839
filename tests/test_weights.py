"""Tests for the weight-quantized linear layers (Table 5 machinery)."""

import numpy as np
import pytest

from repro.fp.formats import FP16, fp16_matmul, quantize_to_format
from repro.quant.weights import DenseLinear, LLMInt8Linear, QServeW4A8Linear, make_linear


@pytest.fixture
def weight(rng):
    return rng.standard_normal((64, 32)) / 8.0


@pytest.fixture
def x(rng):
    return rng.standard_normal((10, 64))


class TestDenseLinear:
    def test_matches_fp16_matmul(self, weight, x):
        lin = DenseLinear(weight)
        out = lin(x)
        rel = np.linalg.norm(out - x @ weight) / np.linalg.norm(x @ weight)
        assert rel < 5e-3

    def test_storage(self, weight):
        assert DenseLinear(weight).storage_bits == 64 * 32 * 16


class TestDenseLinearExactness:
    """The weight is rounded once into its float32 MMA operand; every call
    must equal rounding both operands per call, bit for bit."""

    @staticmethod
    def _assert_exact(w, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got = DenseLinear(w)(x)
            want = fp16_matmul(x, quantize_to_format(w, FP16))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_decode_row(self, weight, rng):
        self._assert_exact(weight, rng.standard_normal((1, 64)))

    def test_prefill_block(self, weight, rng):
        self._assert_exact(weight, rng.standard_normal((37, 64)))

    def test_three_d_input(self, weight, rng):
        x = rng.standard_normal((3, 5, 64))
        self._assert_exact(weight, x)
        assert DenseLinear(weight)(x).shape == (3, 5, 32)

    def test_weights_past_fp16_max_become_inf(self, weight, rng):
        w = weight.copy()
        w[0, :4] = [7e4, -7e4, 1e6, 65519.0]  # the last rounds down to the max
        with np.errstate(over="ignore"):
            stored = DenseLinear(w).weight
        assert np.isposinf(stored[0, 0]) and np.isneginf(stored[0, 1])
        assert np.isposinf(stored[0, 2]) and stored[0, 3] == np.finfo(np.float16).max
        self._assert_exact(w, rng.standard_normal((4, 64)))

    def test_fp16_subnormal_weights(self, weight, rng):
        w = weight.copy()
        tiny = np.finfo(np.float16).smallest_subnormal
        w[:, 0] = tiny * rng.integers(1, 1024, size=64)  # all FP16 subnormals
        w[:3, 1] = [tiny / 3, tiny * 0.75, 1e-9]  # flush/round at the bottom
        stored = DenseLinear(w).weight
        np.testing.assert_array_equal(stored[:, 0], w[:, 0])
        np.testing.assert_array_equal(stored[:3, 1], [0.0, tiny, 0.0])
        self._assert_exact(w, rng.standard_normal((6, 64)) * 1e4)

    def test_weight_held_once_as_float32(self, weight):
        lin = DenseLinear(weight)
        assert lin.weight.dtype == np.float32
        np.testing.assert_array_equal(lin.weight, quantize_to_format(weight, FP16))
        # No float64 copy kept beside the operand.
        assert [k for k, v in vars(lin).items() if isinstance(v, np.ndarray)] == ["weight"]
        assert lin.storage_bits == 64 * 32 * 16


class TestLLMInt8Linear:
    def test_close_to_dense(self, weight, x):
        dense = DenseLinear(weight)(x)
        out = LLMInt8Linear(weight)(x)
        rel = np.linalg.norm(out - dense) / np.linalg.norm(dense)
        assert rel < 0.02

    def test_outlier_path_exact(self, weight, rng):
        # A column far past the threshold routes through FP16 exactly.
        x = rng.standard_normal((4, 64))
        x[:, 3] = 100.0
        out = LLMInt8Linear(weight, outlier_threshold=6.0)(x)
        dense = DenseLinear(weight)(x)
        rel = np.linalg.norm(out - dense) / np.linalg.norm(dense)
        assert rel < 0.02

    def test_all_outliers_degenerates_to_fp16(self, weight, rng):
        x = rng.standard_normal((4, 64)) * 100
        out = LLMInt8Linear(weight, outlier_threshold=6.0)(x)
        dense = DenseLinear(weight)(x)
        np.testing.assert_allclose(out, dense, rtol=1e-9)

    def test_storage_smaller_than_dense(self, weight):
        assert LLMInt8Linear(weight).storage_bits < DenseLinear(weight).storage_bits

    def test_batched_input(self, weight, rng):
        x = rng.standard_normal((3, 5, 64))
        out = LLMInt8Linear(weight)(x)
        assert out.shape == (3, 5, 32)


class TestQServeW4A8Linear:
    def test_close_to_dense(self, weight, x):
        dense = DenseLinear(weight)(x)
        out = QServeW4A8Linear(weight)(x)
        rel = np.linalg.norm(out - dense) / np.linalg.norm(dense)
        assert rel < 0.12  # 4-bit weights + 8-bit activations

    def test_storage_near_4bit(self, weight):
        lin = QServeW4A8Linear(weight)
        bits_per_weight = lin.storage_bits / (64 * 32)
        assert 4.0 < bits_per_weight < 6.5

    def test_group_padding(self, rng):
        # in_features not divisible by group_size exercises the pad path.
        w = rng.standard_normal((70, 16)) / 8.0
        lin = QServeW4A8Linear(w, group_size=32)
        out = lin(rng.standard_normal((3, 70)))
        assert out.shape == (3, 16)


class TestMakeLinear:
    def test_dispatch(self, weight):
        assert isinstance(make_linear(weight, "fp16"), DenseLinear)
        assert isinstance(make_linear(weight, "llm_int8"), LLMInt8Linear)
        assert isinstance(make_linear(weight, "qserve_w4a8"), QServeW4A8Linear)

    def test_unknown_raises(self, weight):
        with pytest.raises(ValueError):
            make_linear(weight, "awq")
