import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asc.errors import ValidationError
from asc.tensor_ops import GELU_COEF, gelu, layernorm, matmul, softmax_rows, unit_rows
from oracles import cosine


def matmul_oracle(a, b):
    """Naive triple loop in float64."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_small_example(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        b = np.array([[5, 6], [7, 8]], dtype=np.float32)
        npt.assert_array_equal(matmul(a, b), np.array([[19, 22], [43, 50]], dtype=np.float32))

    @given(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_triple_loop_oracle(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        npt.assert_allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-6, rtol=1e-6)

    def test_result_dtype(self):
        out = matmul(np.ones((2, 2), dtype=np.float32), np.ones((2, 2), dtype=np.float32))
        assert out.dtype == np.float32

    @pytest.mark.parametrize("lead, m, k, n", [
        ((3,), 1, 4, 1), ((2, 4), 5, 3, 5), ((4, 8), 17, 8, 17), ((2, 8), 33, 32, 4),
    ])
    def test_stacked_equals_each_2d_slice(self, lead, m, k, n):
        rng = np.random.default_rng(m * k * n)
        a = rng.standard_normal(lead + (m, k)).astype(np.float32)
        b = rng.standard_normal(lead + (k, n)).astype(np.float32)
        out = matmul(a, b)
        assert out.shape == lead + (m, n)
        for index in np.ndindex(*lead):
            npt.assert_array_equal(out[index], matmul(a[index], b[index]))


class TestSoftmaxRows:
    def test_symmetric_two_logits(self):
        npt.assert_allclose(softmax_rows(np.array([[0.0, 0.0]], dtype=np.float32)), [[0.5, 0.5]])

    def test_stable_under_large_equal_logits(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, 1000.0]], dtype=np.float32))
        npt.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)

    def test_matches_direct_formula(self):
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        expd = np.exp(np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(out[0], expd / expd.sum(), atol=1e-7)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, m, n, seed):
        rng = np.random.default_rng(seed)
        x = (rng.uniform(-1e4, 1e4, size=(m, n))).astype(np.float32)
        out = softmax_rows(x)
        assert np.all(out >= 0)
        npt.assert_allclose(out.sum(axis=1), np.ones(m), atol=1e-6)

    def test_stacked_equals_each_2d_slice(self):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal((2, 3, 7, 7)) * 30).astype(np.float32)
        out = softmax_rows(x)
        for index in np.ndindex(2, 3):
            npt.assert_array_equal(out[index], softmax_rows(x[index]))


class TestLayernorm:
    def test_constant_row_maps_to_zero(self):
        x = np.array([[1.0, 1.0, 1.0]], dtype=np.float32)
        out = layernorm(x, np.ones(3, dtype=np.float32), np.zeros(3, dtype=np.float32))
        npt.assert_array_equal(out, np.zeros((1, 3), dtype=np.float32))

    def test_already_normalized_row_is_fixed_point(self):
        x = np.array([[-1.0, 1.0]], dtype=np.float32)
        out = layernorm(x, np.ones(2, dtype=np.float32), np.zeros(2, dtype=np.float32))
        npt.assert_allclose(out, [[-1.0, 1.0]], atol=1e-5)

    def test_row_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8)).astype(np.float32) * 5
        out = layernorm(x, np.ones(8, dtype=np.float32), np.zeros(8, dtype=np.float32)).astype(np.float64)
        assert np.all(np.abs(out.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-4)

    def test_gamma_beta_applied(self):
        x = np.array([[-1.0, 1.0]], dtype=np.float32)
        out = layernorm(x, np.array([2.0, 2.0], dtype=np.float32), np.array([1.0, 1.0], dtype=np.float32))
        npt.assert_allclose(out, [[-1.0, 3.0]], atol=1e-5)

    def test_stacked_equals_each_2d_slice(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 5, 8)).astype(np.float32)
        gamma = rng.standard_normal(8).astype(np.float32)
        beta = rng.standard_normal(8).astype(np.float32)
        out = layernorm(x, gamma, beta)
        for i in range(3):
            npt.assert_array_equal(out[i], layernorm(x[i], gamma, beta))


class TestGelu:
    def test_zero(self):
        assert gelu(np.array([0.0], dtype=np.float32))[0] == 0.0

    def test_large_positive_asymptote(self):
        assert abs(float(gelu(np.array([10.0], dtype=np.float32))[0]) - 10.0) < 1e-4

    def test_unit_input_matches_reference(self):
        # frozen from the 64-bit formula 0.5*(1 + tanh(c*(x + 0.044715 x^3))) at x=1
        assert abs(float(gelu(np.array([1.0], dtype=np.float32))[0]) - 0.841191990607477) < 1e-6

    def test_coefficient_is_sqrt_two_over_pi(self):
        assert abs(GELU_COEF - math.sqrt(2.0 / math.pi)) < 1e-9

    def test_within_one_ulp_of_the_power_form(self):
        # x*x*x and x**3 differ by at most one float64 rounding, which is
        # at most 1 ulp after the float32 cast
        rng = np.random.default_rng(21)
        x = np.concatenate([
            rng.standard_normal(200_000) * 3,
            rng.uniform(-60.0, 60.0, 50_000),
        ]).astype(np.float32)
        x64 = x.astype(np.float64)
        power = 0.5 * x64 * (1.0 + np.tanh(GELU_COEF * (x64 + 0.044715 * x64 ** 3)))
        npt.assert_array_max_ulp(gelu(x), power.astype(np.float32), maxulp=1)

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_close_to_exact_erf_gelu(self, x):
        exact = 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))
        approx = float(gelu(np.array([x], dtype=np.float32))[0])
        assert abs(approx - exact) < 2e-3


class TestCosine:
    def test_identical_unit_vectors(self):
        v = np.array([1.0, 0.0, 0.0], dtype=np.float32)
        assert cosine(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0], dtype=np.float32),
                      np.array([0.0, 1.0], dtype=np.float32)) == 0.0

    def test_hand_arithmetic(self):
        # dot([3,4],[4,3]) = 24, norms 5*5 -> 24/25
        value = cosine(np.array([3.0, 4.0], dtype=np.float32),
                       np.array([4.0, 3.0], dtype=np.float32))
        assert abs(value - 0.96) < 1e-12

    def test_antiparallel(self):
        v = np.array([1.0, 2.0], dtype=np.float32)
        assert abs(cosine(v, -v) - (-1.0)) <= 1e-9

    def test_zero_vector_rule(self):
        assert cosine(np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            cosine(np.zeros(2, dtype=np.float32), np.zeros(3, dtype=np.float32))

    def test_returns_python_float(self):
        v = np.ones(4, dtype=np.float32)
        assert type(cosine(v, v)) is float

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
           st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_self_similarity_symmetry_and_scale(self, vals, alpha):
        u = np.array(vals, dtype=np.float32)
        v = np.roll(u, 1)
        if float(np.linalg.norm(u.astype(np.float64))) < 1e-6:
            return
        assert abs(cosine(u, u) - 1.0) <= 1e-9
        assert cosine(u, v) == cosine(v, u)
        assert -1.0 <= cosine(u, v) <= 1.0
        # scale in float64 so input quantization does not mask the property
        scaled = alpha * u.astype(np.float64)
        assert abs(cosine(scaled, v.astype(np.float64)) - cosine(u, v)) <= 1e-9


class TestUnitRows:
    def test_live_rows_have_unit_norm_and_dead_rows_are_zero(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0]], dtype=np.float32)
        unit = unit_rows(x)
        assert unit.dtype == np.float64 and unit.shape == x.shape
        npt.assert_array_equal(unit[0], [0.6, 0.8])
        npt.assert_array_equal(unit[1:], np.zeros((2, 2)))

    def test_input_is_not_modified(self):
        x = np.array([[2.0, 0.0], [0.0, 0.0]])
        before = x.copy()
        unit_rows(x)
        npt.assert_array_equal(x, before)

    def test_normalizes_the_last_axis_of_a_stack(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 6)).astype(np.float32)
        unit = unit_rows(x)
        for k in range(3):
            npt.assert_array_equal(unit[k], unit_rows(x[k]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_row_dots_agree_with_oracle_cosine(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((5, 7)).astype(np.float32)
        a[0] = 0.0
        dots = np.einsum("nd,nd->n", unit_rows(a), unit_rows(b))
        for n in range(5):
            assert abs(dots[n] - cosine(a[n], b[n])) <= 1e-12
