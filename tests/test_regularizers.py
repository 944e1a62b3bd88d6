import math

import numpy as np
import pytest

from conftest import oracle_residual_penalty
from tkgc.core import complex_moduli
from tkgc.regularizers import (
    RECURRENT_VARIANTS,
    RecurrentParams,
    TemporalRegSpec,
    _recurrent_forward,
    init_recurrent,
    linear3,
    n3_terms,
    norm_curve,
    parse_reg_spec,
    recurrent_generate,
    recurrent_generate_backward,
    temporal_lp,
    temporal_np,
    temporal_penalty_grad,
    write_norm_curves_csv,
)


def n3_of_factors(*factors) -> float:
    """Nuclear 3-norm of trilinear factors, summed over the factors."""
    return float(sum(n3_terms(complex_moduli(f)) for f in factors))


class TestN3Terms:
    def test_all_ones_real_unit_moduli(self):
        ones = np.array([1.0, 1.0, 0.0, 0.0])  # d=2, imaginary half zero
        assert n3_of_factors(ones, ones, ones) == pytest.approx(2.0)

    def test_zero_factors(self):
        zero = np.zeros(6)
        assert n3_of_factors(zero, zero, zero) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v, w = (rng.standard_normal(6) for _ in range(3))
            expected = 0.0
            for f in (u, v, w):
                for z in range(3):
                    expected += abs(complex(f[z], f[3 + z])) ** 3
            expected /= 3.0
            assert n3_of_factors(u, v, w) == pytest.approx(expected, rel=1e-12)

    def test_per_row_terms(self):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((4, 6))
        terms = n3_terms(complex_moduli(batch))
        for row in range(4):
            assert terms[row] == pytest.approx(n3_of_factors(batch[row]),
                                               rel=1e-12)


class TestTemporalNp:
    def test_identical_rows_zero(self):
        table = np.tile(np.array([0.3, -0.7]), (4, 1))
        assert temporal_np(table, 3) == 0.0

    def test_hand_value_real_components(self):
        table = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert temporal_np(table, 4) == pytest.approx(0.125)

    def test_scalar_difference_power(self):
        table = np.array([[0.0], [0.4]])
        assert temporal_np(table, 5) == pytest.approx(0.01024)

    def test_complex_pairs_use_modulus(self):
        # One complex component per row: diff = 0.5 + 0.5i, |diff|^4 = 0.25.
        table = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert temporal_np(table, 4, complex_pairs=True) == pytest.approx(0.25)

    def test_short_table_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert temporal_np(np.zeros((1, 4)), 3) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("complex_pairs", [False, True])
    def test_matches_oracle(self, p, complex_pairs):
        rng = np.random.default_rng(p)
        for _ in range(25):
            table = rng.standard_normal((5, 6))
            assert temporal_np(table, p, complex_pairs) == pytest.approx(
                oracle_residual_penalty(table, p, complex_pairs), rel=1e-12
            )


class TestTemporalLp:
    def test_identical_rows_zero(self):
        table = np.tile(np.array([1.0, 2.0, 3.0]), (3, 1))
        assert temporal_lp(table, 2) == 0.0

    def test_hand_value(self):
        table = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert temporal_lp(table, 2) == pytest.approx(0.5)

    def test_p1_matches_np(self):
        rng = np.random.default_rng(1)
        table = rng.standard_normal((6, 4))
        assert temporal_lp(table, 1) == pytest.approx(
            temporal_np(table, 1), rel=1e-12
        )

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for p in (1, 2, 3, 5):
            table = rng.standard_normal((5, 6))
            got = temporal_lp(table, p, complex_pairs=True)
            want = oracle_residual_penalty(table, p, True, root="global")
            assert got == pytest.approx(want, rel=1e-12)


class TestLinear3:
    def test_zero_bias_equals_np(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((5, 4))
        assert linear3(table, np.zeros(4), 3) == pytest.approx(
            temporal_np(table, 3), rel=1e-12
        )

    def test_arithmetic_progression_fully_explained(self):
        bias = np.array([0.25, -0.5, 1.0, 0.0])
        table = np.cumsum(np.tile(bias, (5, 1)), axis=0)
        assert linear3(table, bias, 3) == pytest.approx(0.0, abs=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            table = rng.standard_normal((3, 4))
            bias = rng.standard_normal(4)
            got = linear3(table, bias, 3, complex_pairs=True)
            want = oracle_residual_penalty(table, 3, True, bias=bias)
            assert got == pytest.approx(want, rel=1e-12)


class TestPenaltyProperties:
    def test_nonnegative_and_zero_iff_flat(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 3, 4, 5):
            table = rng.standard_normal((4, 6))
            assert temporal_np(table, p) > 0
            assert temporal_lp(table, p) > 0
            flat = np.tile(table[0], (4, 1))
            assert temporal_np(flat, p) == 0.0
            assert temporal_lp(flat, p) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((5, 4))
        shift = rng.standard_normal(4)
        for p in (1, 3, 5):
            assert temporal_np(table + shift, p) == pytest.approx(
                temporal_np(table, p), rel=1e-12
            )
            assert temporal_lp(table + shift, p) == pytest.approx(
                temporal_lp(table, p), rel=1e-12
            )

    def test_linear3_invariant_iff_drift_absorbed(self):
        rng = np.random.default_rng(7)
        table = rng.standard_normal((5, 4))
        bias = rng.standard_normal(4)
        drift = rng.standard_normal(4)
        drifted = table + np.outer(np.arange(5), drift)
        base = linear3(table, bias, 3)
        absorbed = linear3(drifted, bias + drift, 3)
        unabsorbed = linear3(drifted, bias, 3)
        assert absorbed == pytest.approx(base, rel=1e-10)
        assert unabsorbed != pytest.approx(base, rel=1e-6)

    def test_np_monotone_in_p(self):
        rng = np.random.default_rng(8)
        small = 0.8 * rng.random((4, 3))  # residual magnitudes <= 1
        small_table = np.vstack([np.zeros(3), np.cumsum(small, axis=0)])
        values = [temporal_np(small_table, p) for p in (1, 2, 3, 4, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        large = 1.0 + rng.random((4, 3))  # residual magnitudes >= 1
        large_table = np.vstack([np.zeros(3), np.cumsum(large, axis=0)])
        values = [temporal_np(large_table, p) for p in (1, 2, 3, 4, 5)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestPenaltyGradients:
    """Direct finite-difference checks of the standalone penalty gradients."""

    @staticmethod
    def _fd(fn, table, h=1e-6):
        grad = np.zeros_like(table)
        flat = table.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = fn()
            flat[idx] = original - h
            down = fn()
            flat[idx] = original
            grad.reshape(-1)[idx] = (up - down) / (2 * h)
        return grad

    @pytest.mark.parametrize("family", ["N", "L", "linear3"])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("complex_pairs", [False, True])
    def test_gradients(self, family, p, complex_pairs):
        rng = np.random.default_rng(9)
        table = rng.standard_normal((4, 4))
        bias = rng.standard_normal(4)

        def penalty() -> float:
            if family == "N":
                return temporal_np(table, p, complex_pairs)
            if family == "L":
                return temporal_lp(table, p, complex_pairs)
            return linear3(table, bias, p, complex_pairs)

        value, grad, grad_bias = temporal_penalty_grad(
            table, TemporalRegSpec(family=family, p=p), bias=bias,
            complex_pairs=complex_pairs,
        )
        assert value == pytest.approx(penalty())
        fd = self._fd(penalty, table)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)
        if family == "linear3":
            fd_bias = self._fd(penalty, bias)
            np.testing.assert_allclose(grad_bias, fd_bias, rtol=1e-6, atol=1e-8)
        else:
            assert grad_bias is None


class TestRecurrentGenerate:
    def test_all_zero_parameters_generate_zero(self):
        params = init_recurrent("rnn", 3, 8, np.random.default_rng(0), scale=0.0)
        table = recurrent_generate(params, 5)
        assert table.shape == (5, 8)
        assert not table.any()

    def test_linear_rnn_identity_fixed_point(self):
        rng = np.random.default_rng(1)
        params = init_recurrent("linear_rnn", 3, 6, rng, scale=0.3)
        params.tensors["W"] = np.eye(3)
        params.tensors["b"] = np.zeros(3)
        table = recurrent_generate(params, 7)
        for row in range(1, 7):
            assert np.array_equal(table[row], table[0])

    def test_rnn_matches_unrolled_scalar_oracle(self):
        rng = np.random.default_rng(2)
        params = init_recurrent("rnn", 2, 4, rng, scale=0.7)
        table = recurrent_generate(params, 5)
        t = params.tensors
        h = [float(x) for x in t["h0"]]
        for step in range(5):
            h = [
                math.tanh(sum(t["W"][a][b] * h[b] for b in range(2)) + t["b"][a])
                for a in range(2)
            ]
            for out in range(4):
                expected = (
                    sum(t["W_out"][out][b] * h[b] for b in range(2))
                    + t["b_out"][out]
                )
                assert table[step][out] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_bitwise(self):
        params = init_recurrent("gru", 3, 6, np.random.default_rng(3))
        a = recurrent_generate(params, 9)
        b = recurrent_generate(params, 9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", RECURRENT_VARIANTS)
    def test_backward_matches_finite_differences(self, variant):
        rng = np.random.default_rng(4)
        params = init_recurrent(variant, 3, 4, rng, scale=0.5)
        count = 6
        weights = rng.standard_normal((count, 4))

        def objective() -> float:
            return float(np.sum(weights * recurrent_generate(params, count)))

        _, cache = _recurrent_forward(params, count)
        grads = recurrent_generate_backward(params, cache, weights)
        h = 1e-6
        for name in params.tensor_names():
            tensor = params.tensors[name]
            flat = tensor.reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + h
                up = objective()
                flat[idx] = original - h
                down = objective()
                flat[idx] = original
                fd = (up - down) / (2 * h)
                assert grads[name].reshape(-1)[idx] == pytest.approx(
                    fd, rel=1e-5, abs=1e-7
                ), f"{variant} {name}[{idx}]"

    def test_round_trip_through_named_tensors(self):
        params = init_recurrent("linear_lstm", 2, 4, np.random.default_rng(5))
        rebuilt = RecurrentParams.from_tensors(
            "linear_lstm",
            {k: v.reshape(1, -1) if v.ndim == 1 else v
             for k, v in params.named_tensors().items()},
        )
        table_a = recurrent_generate(params, 4)
        table_b = recurrent_generate(rebuilt, 4)
        assert np.array_equal(table_a, table_b)


class TestNormCurve:
    def test_zero_at_origin(self):
        for family, p in (("N", 2), ("N", 5), ("L", 1), ("L", 3)):
            pairs = dict(norm_curve(family, p, samples=5))
            assert pairs[0.0] == 0.0

    def test_n5_at_point_four(self):
        pairs = norm_curve("N", 5, interval=(0.4, 0.4), samples=2)
        assert pairs[0][1] == pytest.approx(0.01024)

    def test_n2_at_two(self):
        pairs = dict(norm_curve("N", 2, samples=5))
        assert pairs[2.0] == pytest.approx(4.0)

    def test_lp_is_absolute_value(self):
        for p in (1, 2, 5):
            pairs = dict(norm_curve("L", p, samples=9))
            for x, y in pairs.items():
                assert y == pytest.approx(abs(x))

    def test_monotone_in_magnitude(self):
        ys = [y for x, y in norm_curve("N", 3, samples=401) if x >= 0]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "norms.csv"
        write_norm_curves_csv(path, ["N5", "N2", "L1"], samples=401)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,N5,N2,L1"
        rows = {float(line.split(",")[0]): line.split(",")[1:]
                for line in lines[1:]}
        assert float(rows[0.4][0]) == pytest.approx(0.01024, abs=5e-7)
        assert float(rows[2.0][1]) == pytest.approx(4.0)
        assert float(rows[-1.5][2]) == pytest.approx(1.5)
        assert len(lines) == 402


class TestRegSpec:
    def test_parse_family_with_exponent(self):
        spec = parse_reg_spec("N4")
        assert spec.family == "N" and spec.p == 4
        assert spec.label == "N4"

    def test_parse_recurrent(self):
        spec = parse_reg_spec("linear_gru", hidden_size=5)
        assert spec.family == "recurrent"
        assert spec.variant == "linear_gru"
        assert spec.hidden_size == 5

    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            TemporalRegSpec(family="N", p=0)
        with pytest.raises(ValueError):
            parse_reg_spec("L6")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_reg_spec("banana")
