"""Tests for the scalar special-function layer: erfcx, the digamma and
trigamma gaps, quadrature rules, the A-function solver, and its
interpolation table.  scipy and mpmath serve as references only."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, psi

from gcpnet import gcp
from gcpnet import special as sp


def _mp_gap_and_a(alpha):
    """(alpha - A, A) by Newton in ln x on mpmath's alpha(x), where x =
    sqrt(alpha - A), with the digits that A's cancellation and exp(x^2)
    cost at large alpha."""
    import mpmath
    digits = max(0, int(math.log10(alpha)))
    with mpmath.workdps(40 + 3 * digits):
        a = mpmath.mpf(alpha)
        u = mpmath.log(min(mpmath.sqrt(a), 2 * a / mpmath.sqrt(mpmath.pi)))
        for _ in range(60):
            x = mpmath.exp(u)
            r = mpmath.sqrt(mpmath.pi) * x * mpmath.exp(x * x) * mpmath.erfc(x)
            c = 1 - r
            step = mpmath.log(r / (2 * c * a)) * r * c / (r - 2 * x * x * c)
            u -= step
            if abs(step) < mpmath.mpf(10) ** (-25 - digits):
                break
        else:
            raise AssertionError(f"reference did not converge at {alpha}")
        x = mpmath.exp(u)
        return float(x * x), float(a - x * x)


def rational_mean_complement(s):
    """R(s) = s E[1/(s + y^2)] = sqrt(pi s / 2) erfcx(sqrt(s / 2)), y ~
    N(0, 1), as `_gap_state` reads it at x = sqrt(s / 2)."""
    return sp._gap_state(math.sqrt(0.5 * s))[0]


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
        for gap in (sp.delta_psi, sp.delta_trigamma):
            with pytest.raises(ValueError):
                gap(0.0)
            with pytest.raises(ValueError):
                gap(-1.0)

    def test_trigamma_gap_matches_high_precision(self):
        # both sides of x = 20, where the recurrence hands over to the tail
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in np.concatenate([np.geomspace(1e-3, 1e4, 57), [19.5, 20.0]]):
            exact = (mpmath.psi(1, mpmath.mpf(x))
                     - mpmath.psi(1, mpmath.mpf(x) + 0.5))
            np.testing.assert_allclose(sp.delta_trigamma(float(x)),
                                       float(exact), rtol=1e-14)


class TestErfcx:
    def test_matches_high_precision(self):
        # both of Cody's ranges and their boundaries; from 4 on the
        # continued fraction takes over, checked below
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        xs = np.concatenate([np.linspace(0.0, 4.0, 2001),
                             [0.46875, np.nextafter(0.46875, 1.0), 4.0]])
        for x in map(float, xs):
            exact = float(mpmath.exp(mpmath.mpf(x) ** 2)
                          * mpmath.erfc(mpmath.mpf(x)))
            assert abs(sp.erfcx(x) - exact) <= 6 * math.ulp(exact), x

    def test_continued_fraction_beyond_four(self):
        # R = sqrt(pi) x erfcx(x) from the continued fraction, from just
        # above x = 4 to x = 1e150 (alpha = 1e300)
        mpmath = pytest.importorskip("mpmath")
        xs = np.concatenate([np.linspace(4.0, 50.0, 401),
                             [np.nextafter(4.0, 5.0), 1e3, 1e8, 1e150]])
        for x in map(float, xs):
            s = 2.0 * x * x
            # exp(x^2) needs the digits of x^2 on top of the 40 kept
            with mpmath.workdps(40 + 2 * int(math.log10(x))):
                half = mpmath.sqrt(mpmath.mpf(s) / 2)
                exact = float(mpmath.sqrt(mpmath.pi) * half
                              * mpmath.exp(half ** 2) * mpmath.erfc(half))
            got = rational_mean_complement(s)
            assert abs(got - exact) <= 2 * math.ulp(exact), x


class TestQuadratureRules:
    def test_hermite_is_standardized(self):
        # nodes/weights are for the density N(0,1), not exp(-x^2)
        r = sp.hermite_rule(64)
        np.testing.assert_allclose(r.weights.sum(), 1.0, rtol=1e-14)
        np.testing.assert_allclose(r.weights @ r.nodes, 0.0, atol=1e-14)
        np.testing.assert_allclose(r.weights @ r.nodes**2, 1.0, rtol=1e-13)
        np.testing.assert_allclose(r.weights @ r.nodes**4, 3.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [64, 128, 512, 1024, 1, 2, 3, 4, 5, 7, 16])
    def test_hermite_nodes_are_exactly_antisymmetric(self, n):
        # dynamics reads the mirror node's denominator off the reversed
        # array, which is exact only if node n-1-i is minus node i
        nodes = sp.hermite_rule(n).nodes
        np.testing.assert_array_equal(nodes, -nodes[::-1])

    def test_hermite_integrates_smooth_function(self):
        r = sp.hermite_rule(128)
        got = sp.gauss_weighted_integral(np.cos, r)
        np.testing.assert_allclose(got, math.exp(-0.5), rtol=1e-12)

    def test_hermite_requires_a_node(self):
        with pytest.raises(ValueError):
            sp.hermite_rule(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 16, 128, 512, 1024])
    def test_hermite_matches_high_precision(self, n):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        r = sp.hermite_rule(n)
        assert np.all(np.diff(r.nodes) > 0)
        _assert_samples_match(r, _mp_hermite, n, mpmath)
        np.testing.assert_allclose(r.weights.sum(), 1.0, rtol=0, atol=1e-14)
        # E[y^2k] = (2k-1)!!; past 2k = 80 the moments sit on nodes whose
        # weights underflow at n = 1024
        for k in range(min(n, 40)):
            np.testing.assert_allclose(r.weights @ r.nodes ** (2 * k),
                                       float(math.prod(range(1, 2 * k, 2))),
                                       rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 256, 512])
    def test_legendre_matches_high_precision(self, n):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        r = sp.legendre_rule(n)
        np.testing.assert_array_equal(r.nodes, -r.nodes[::-1])
        assert np.all(np.diff(r.nodes) > 0)
        _assert_samples_match(r, _mp_legendre, n, mpmath)
        np.testing.assert_allclose(r.weights.sum(), 1.0, rtol=1e-14)
        # E[y^2k] = 1/(2k + 1) for y ~ U(-1, 1)
        for k in range(n):
            np.testing.assert_allclose(r.weights @ r.nodes ** (2 * k),
                                       1.0 / (2 * k + 1), rtol=1e-13)

    def test_rules_report_nonconvergence(self, monkeypatch):
        # one Newton pass is never enough from the asymptotic starts
        monkeypatch.setattr(sp, "_RULE_NEWTON_CAP", 1)
        with pytest.raises(sp.NumericError, match="Hermite"):
            sp.hermite_rule.__wrapped__(64)
        with pytest.raises(sp.NumericError, match="Legendre"):
            sp.legendre_rule(64)


def _mp_hermite(y, n, mpmath):
    """The N(0,1) Gauss-Hermite node nearest y and its weight, by Newton on
    H_n in mpmath; the weight is 2^(n-1) (n-1)! / (n H_{n-1}(x)^2)."""
    x = mpmath.mpf(float(y)) / mpmath.sqrt(2)

    def h_pair(x):
        prev, cur = mpmath.mpf(1), 2 * x
        for k in range(1, n):
            prev, cur = cur, 2 * x * cur - 2 * k * prev
        return cur, prev

    for _ in range(3):
        h_n, h_prev = h_pair(x)
        x -= h_n / (2 * n * h_prev)
    _, h_prev = h_pair(x)
    return (x * mpmath.sqrt(2),
            mpmath.mpf(2) ** (n - 1) * mpmath.factorial(n - 1)
            / (n * h_prev ** 2))


def _mp_legendre(x, n, mpmath):
    """The Gauss-Legendre node nearest x and its U(-1, 1) weight
    1/((1-x^2) P_n'^2), by Newton on P_n in mpmath."""
    x = mpmath.mpf(float(x))

    def p_and_slope(x):
        prev, cur = mpmath.mpf(1), x
        for j in range(1, n):
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
        return cur, n * (prev - x * cur) / (1 - x * x)

    for _ in range(3):
        p, slope = p_and_slope(x)
        x -= p / slope
    _, slope = p_and_slope(x)
    return x, 1 / ((1 - x * x) * slope ** 2)


def _assert_samples_match(rule, reference, n, mpmath):
    """Nodes within 1e-14 and weights above 1e-300 within 1e-12 relative of
    a 40-digit reference, at the central nodes, the largest ones and the
    largest ones whose weights do not underflow."""
    upper = np.flatnonzero(rule.nodes >= 0.0)
    kept = np.flatnonzero(rule.weights > 1e-300)
    for i in sorted({*upper[:3], *upper[-2:], *kept[-2:]}):
        node, weight = reference(rule.nodes[i], n, mpmath)
        assert abs(rule.nodes[i] - node) <= 1e-14 * abs(node), (n, i)
        if weight > 1e-300:
            assert abs(rule.weights[i] - weight) <= 1e-12 * weight, (n, i)


class TestRationalMeanComplement:
    def test_closed_form(self):
        for s in (1e-6, 0.1, 1.0, 10.0, 1e4):
            ref = math.sqrt(math.pi * s / 2.0) * float(erfcx(math.sqrt(s / 2.0)))
            np.testing.assert_allclose(rational_mean_complement(s), ref,
                                       rtol=1e-14)

    def test_limits_and_monotonicity(self):
        assert rational_mean_complement(0.0) == 0.0
        grid = np.geomspace(1e-8, 1e8, 200)
        vals = np.array([rational_mean_complement(float(s)) for s in grid])
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0

    def test_matches_quadrature(self):
        # s * E[1/(s+y^2)] under the standardized Hermite rule
        r = sp.hermite_rule(512)
        for s in (0.3, 2.0, 25.0):
            quad = s * sp.gauss_weighted_integral(lambda y: 1.0 / (s + y * y), r)
            np.testing.assert_allclose(rational_mean_complement(s), quad,
                                       rtol=1e-9)


class TestWeightedSquareMean:
    # W = E[s y^2/(s + y^2)^2] enters log_gap_slope as R (1 - R) / W
    def test_matches_quadrature(self):
        r = sp.hermite_rule(512)
        for s in (0.3, 2.762267226684, 40.0):
            quad = sp.gauss_weighted_integral(
                lambda y: s * y * y / (s + y * y) ** 2, r)
            big_r = rational_mean_complement(s)
            np.testing.assert_allclose(sp.log_gap_slope(s),
                                       big_r * (1.0 - big_r) / quad,
                                       rtol=1e-8)

    def test_zero_at_origin(self):
        # W and R vanish together at s = 0, where the slope's limit is 2
        assert rational_mean_complement(0.0) == 0.0
        assert sp.log_gap_slope(0.0) == 2.0


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
            s = 2.0 * (alpha - a)
            mean = sp.gauss_weighted_integral(lambda y: y * y / (s + y * y),
                                              rule)
            np.testing.assert_allclose(
                sp.a_equation_residual(alpha, a),
                (alpha + 0.5) * (2.0 * mean) - 1.0, rtol=1e-7)

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

    @given(st.floats(min_value=-100.0,
                     max_value=math.log10(1.7e308)).map(lambda e: 10.0 ** e))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_contract_over_the_float_range(self, alpha):
        # A < min(1, alpha) always, but its double rounds onto the bound
        # once the distance, 3/(2 alpha) from 1 or (4/pi) alpha^2 from
        # alpha, falls below half an ulp: above about 3e16, below 4e-17
        a = sp.solve_A(alpha)
        assert 0.0 < a <= min(1.0, alpha)
        assert a < min(1.0, alpha) or not 1e-15 < alpha < 1e15
        x = sp._solve_x(alpha)
        assert 0.0 < x * x < math.inf
        assert abs(sp._gap_state(x)[2] - alpha) <= 8 * math.ulp(alpha)

    def test_matches_high_precision_over_the_float_range(self):
        # the solved gap and A from 1e-100 to the top of the float range,
        # against a 40-digit-plus reference
        pytest.importorskip("mpmath")
        for alpha in map(float, np.geomspace(1e-100, 1.7e308, 400)):
            gap, a = _mp_gap_and_a(alpha)
            assert abs(sp._solve_x(alpha) ** 2 / gap - 1.0) <= 2e-15, alpha
            assert abs(sp.solve_A(alpha) / a - 1.0) <= 5e-15, alpha

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sp.solve_A(0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_rejects_nonfinite_alpha(self, alpha):
        # A(inf) = 1 is a limit, not a root: Newton in ln x has no finite
        # start there
        with pytest.raises(ValueError, match="finite"):
            sp.solve_A(alpha)


class TestAlphaTable:
    def test_interpolation_accuracy(self):
        tab = sp.alpha_table()
        for alpha in (0.01, 0.37, 1.0, 7.3, 212.0, 990.0):
            direct = alpha - sp.solve_A(alpha)
            assert abs(tab.gap_many([alpha])[0] - direct) / direct < 1e-6

    def test_worst_interior_error(self):
        # 7 interior points of every interval, where the interpolant is
        # farthest from a solve; measured worst relative error 1.4e-10 (a
        # PCHIP slope estimate misses by 3.4e-8)
        tab = sp.alpha_table()
        x = tab.log_alphas
        q = (x[:-1, None] + np.arange(1, 8) / 8.0 * np.diff(x)[:, None]).ravel()
        alphas = np.exp(q)
        direct = np.array([a - sp.solve_A(a) for a in alphas])
        assert np.max(np.abs(tab.gap_many(alphas) / direct - 1.0)) < 5e-10

    def test_gap_is_strictly_increasing(self):
        gaps = sp.alpha_table().gap_many(np.logspace(-3.0, 3.0, 400_001))
        assert np.all(np.diff(gaps) > 0.0)

    @pytest.mark.parametrize("index", [0, 100, 255, 400, 510])
    def test_knot_slopes_are_exact(self, index):
        # the slope at a knot is d ln(alpha - A) / d ln alpha, here against
        # a central difference of the solver
        tab = sp.alpha_table()
        x, h = tab.log_alphas[index], 1e-5

        def log_gap(q):
            return math.log(math.exp(q) - sp.solve_A(math.exp(q)))

        np.testing.assert_allclose(tab.coefficients[2, index],
                                   (log_gap(x + h) - log_gap(x - h)) / (2 * h),
                                   rtol=1e-6)

    def test_outside_range_falls_back_to_direct_solve(self):
        # against mpmath: alpha - solve_A(alpha) itself cancels at 1e-4
        pytest.importorskip("mpmath")
        tab = sp.alpha_table()
        for alpha in (1e-4, 5e3):
            np.testing.assert_allclose(tab.gap_many([alpha])[0],
                                       _mp_gap_and_a(alpha)[0], rtol=1e-13)

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

    def test_gap_many_increases_across_the_float_range(self):
        gaps = sp.alpha_table().gap_many(np.geomspace(1e-100, 1e300, 1000))
        assert np.all(np.isfinite(gaps))
        assert np.all(np.diff(gaps) > 0.0)

    def test_gap_underflow_is_a_numeric_error(self):
        # alpha - A ~ (4/pi) alpha^2 rounds to 0 below alpha = 1.4e-162
        with pytest.raises(sp.NumericError, match="underflows"):
            sp.alpha_table().gap_many([1.0, 1e-170])

    def test_gap_many_rejects_nonpositive(self):
        tab = sp.alpha_table()
        with pytest.raises(ValueError):
            tab.gap_many(np.array([1.0, 0.0]))

    def test_shared_instance_is_cached(self):
        assert sp.alpha_table() is sp.alpha_table()
