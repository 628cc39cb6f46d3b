"""Tests for the scalar special-function layer: the digamma gap, quadrature
rules, the A-function solver, and its interpolation table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, psi

from gcpnet import gcp
from gcpnet import special as sp


class TestDigamma:
    def test_recurrence(self):
        # psi(x+1) = psi(x) + 1/x on both halves of the gap; the gap is a
        # difference of two psi values below 4, so its error is absolute
        for x in (0.07, 1.3, 41.0):
            np.testing.assert_allclose(
                sp.delta_psi(x + 1.0),
                sp.delta_psi(x) + 1.0 / x - 1.0 / (x + 0.5), rtol=0,
                atol=1e-14)

    def test_delta_psi_is_left_minus_right_half(self):
        np.testing.assert_allclose(sp.delta_psi(2.0), psi(2.0) - psi(2.5),
                                   rtol=1e-13)
        assert sp.delta_psi(3.0) < 0.0

    def test_matches_high_precision_gap(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in (1e-6, 0.07, 1.3, 19.99, 20.0, 41.0, 911.3, 1e4, 1e8):
            exact = mpmath.digamma(x) - mpmath.digamma(mpmath.mpf(x) + 0.5)
            np.testing.assert_allclose(sp.delta_psi(x), float(exact),
                                       rtol=2e-15)

    def test_increasing_at_large_alpha(self):
        # steps of 6e-17 in the gap; a difference of two psi values near
        # 6.8 is noisy at 1e-15 and would not be monotone here
        gaps = [sp.delta_psi(911.0 + 1e-10 * k) for k in range(40)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sp.delta_psi(0.0)
        with pytest.raises(ValueError):
            sp.delta_psi(-1.0)


class TestQuadratureRules:
    def test_hermite_is_standardized(self):
        # nodes/weights are for the density N(0,1), not exp(-x^2)
        r = sp.hermite_rule(64)
        np.testing.assert_allclose(r.weights.sum(), 1.0, rtol=1e-14)
        np.testing.assert_allclose(r.weights @ r.nodes, 0.0, atol=1e-14)
        np.testing.assert_allclose(r.weights @ r.nodes**2, 1.0, rtol=1e-13)
        np.testing.assert_allclose(r.weights @ r.nodes**4, 3.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [64, 128, 512, 1024])
    def test_hermite_nodes_are_exactly_antisymmetric(self, n):
        # dynamics reads the mirror node's denominator off the reversed
        # array, which is exact only if node n-1-i is minus node i
        nodes = sp.hermite_rule(n).nodes
        np.testing.assert_array_equal(nodes, -nodes[::-1])

    def test_hermite_integrates_smooth_function(self):
        r = sp.hermite_rule(128)
        got = sp.gauss_weighted_integral(np.cos, r)
        np.testing.assert_allclose(got, math.exp(-0.5), rtol=1e-12)

    def test_legendre_polynomial_exactness(self):
        lo, hi = -1.5, 2.5
        r = sp.legendre_rule(8, lo, hi)
        np.testing.assert_allclose(r.weights.sum(), hi - lo, rtol=1e-14)
        np.testing.assert_allclose(r.weights @ r.nodes**3,
                                   (hi**4 - lo**4) / 4.0, rtol=1e-13)

    def test_legendre_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            sp.legendre_rule(8, 1.0, 1.0)


class TestRationalMeanComplement:
    def test_closed_form(self):
        for s in (1e-6, 0.1, 1.0, 10.0, 1e4):
            ref = math.sqrt(math.pi * s / 2.0) * float(erfcx(math.sqrt(s / 2.0)))
            np.testing.assert_allclose(sp.rational_mean_complement(s), ref,
                                       rtol=1e-14)

    def test_limits_and_monotonicity(self):
        assert sp.rational_mean_complement(0.0) == 0.0
        grid = np.geomspace(1e-8, 1e8, 200)
        vals = np.array([sp.rational_mean_complement(float(s)) for s in grid])
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0

    def test_matches_quadrature(self):
        # s * E[1/(s+y^2)] under the standardized Hermite rule
        r = sp.hermite_rule(512)
        for s in (0.3, 2.0, 25.0):
            quad = s * sp.gauss_weighted_integral(lambda y: 1.0 / (s + y * y), r)
            np.testing.assert_allclose(sp.rational_mean_complement(s), quad,
                                       rtol=1e-9)


class TestWeightedSquareMean:
    def test_matches_quadrature(self):
        r = sp.hermite_rule(512)
        for s in (0.3, 2.762267226684, 40.0):
            quad = sp.gauss_weighted_integral(
                lambda y: s * y * y / (s + y * y) ** 2, r)
            np.testing.assert_allclose(sp.weighted_square_mean(s), quad,
                                       rtol=1e-8)

    def test_zero_at_origin(self):
        assert sp.weighted_square_mean(0.0) == 0.0


class TestSolveA:
    # reference values computed by driving the closed-form residual to the
    # floating-point limit with an independent high-precision bisection
    ORACLE = {
        0.5: 0.312726053246,
        1.0: 0.463288014524,
        2.0: 0.618866386658,
        5.0: 0.789739166028,
        20.0: 0.932916360692,
        50.0: 0.971394024036,
    }

    def test_oracle_values(self):
        for alpha, ref in self.ORACLE.items():
            np.testing.assert_allclose(sp.solve_A(alpha), ref, atol=1e-12)

    def test_residual_vanishes_at_solution(self):
        for alpha in (0.05, 0.7, 3.0, 120.0):
            a = sp.solve_A(alpha)
            assert abs(sp.a_equation_residual(alpha, a)) < 1e-12

    def test_residual_closed_form_agrees_with_quadrature(self):
        rule = sp.hermite_rule(1024)
        for alpha, a in ((1.0, 0.3), (4.0, 0.9)):
            np.testing.assert_allclose(
                sp.a_equation_residual(alpha, a),
                sp.a_equation_residual(alpha, a, rule=rule), rtol=1e-7)

    def test_bounds_and_monotonicity(self):
        grid = np.geomspace(1e-3, 1e3, 60)
        vals = np.array([sp.solve_A(float(x)) for x in grid])
        assert np.all(vals > 0)
        assert np.all(vals < np.minimum(1.0, grid))
        assert np.all(np.diff(vals) > 0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_solution_stays_in_open_interval(self, alpha):
        a = sp.solve_A(alpha)
        assert 0.0 < a < min(1.0, alpha)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sp.solve_A(0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_rejects_nonfinite_alpha(self, alpha):
        # the limit A(inf) = 1 is no root a bisection can find
        with pytest.raises(ValueError, match="finite"):
            sp.solve_A(alpha)


class TestAlphaTable:
    def test_interpolation_accuracy(self):
        tab = sp.alpha_table()
        for alpha in (0.01, 0.37, 1.0, 7.3, 212.0, 990.0):
            direct = alpha - sp.solve_A(alpha)
            assert abs(tab.gap_many([alpha])[0] - direct) / direct < 1e-6

    def test_worst_midpoint_error(self):
        # the geometric midpoints of the knots are where the interpolant is
        # farthest from a solve; measured worst relative error 1.8e-9
        tab = sp.alpha_table()
        mids = np.sqrt(tab.alphas[:-1] * tab.alphas[1:])
        direct = np.array([a - sp.solve_A(a) for a in mids])
        assert np.max(np.abs(tab.gap_many(mids) / direct - 1.0)) < 1e-8

    def test_interpolant_matches_scipy_pchip(self):
        from scipy.interpolate import PchipInterpolator

        tab = sp.alpha_table()
        ref = PchipInterpolator(tab.log_alphas,
                                np.log(2.0 * (tab.alphas - tab.a_values)))
        np.testing.assert_array_equal(tab.log_alphas, ref.x)
        np.testing.assert_array_equal(tab.coefficients, ref.c)
        rng = np.random.default_rng(0)
        queries = np.concatenate([tab.alphas, np.exp(rng.uniform(
            tab.log_alphas[0], tab.log_alphas[-1], 100_000))])
        expected = 0.5 * np.exp(ref(np.log(queries)))
        np.testing.assert_array_equal(tab.gap_many(queries), expected)
        # a one-element call is one point of the array path
        for alpha in queries[:1000]:
            alpha = float(alpha)
            assert (tab.gap_many([alpha])[0]
                    == 0.5 * float(np.exp(ref(np.log(alpha)))))

    def test_outside_range_falls_back_to_direct_solve(self):
        tab = sp.alpha_table()
        for alpha in (1e-4, 5e3):
            np.testing.assert_allclose(tab.gap_many([alpha])[0],
                                       alpha - sp.solve_A(alpha), rtol=1e-13)

    def test_gap_many_matches_scalar_path(self):
        # a 0-d call is one point of the array path, bitwise, inside the
        # table and out
        tab = sp.alpha_table()
        rng = np.random.default_rng(3)
        alphas = np.concatenate([[1e-4, 0.5, 2.0, 700.0, 5e3], tab.alphas,
                                 np.exp(rng.uniform(math.log(1e-3),
                                                    math.log(1e3), 20_000))])
        got = tab.gap_many(alphas)
        ref = np.array([tab.gap_many(np.float64(a)) for a in alphas])
        np.testing.assert_array_equal(got, ref)
        # so scalar prognostic variances work too
        assert np.isfinite(gcp.prognostic_variances(1.0, 2.0, 1.0)).all()

    def test_gap_many_rejects_nonpositive(self):
        tab = sp.alpha_table()
        with pytest.raises(ValueError):
            tab.gap_many(np.array([1.0, 0.0]))

    def test_shared_instance_is_cached(self):
        assert sp.alpha_table() is sp.alpha_table()
