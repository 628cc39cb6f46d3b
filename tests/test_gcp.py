"""Tests for the normal-gamma belief layer: the marginal NLL and its
analytic gradients, their agreement with the KL route of tests/reference.py
(posterior updates, the KL loss and its gradient), prognostic variances, and
the first-order contamination correction constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as student_t

from gcpnet import gcp
from gcpnet.special import delta_psi, solve_A
from reference import kl_grad, kl_loss, posterior_update

positive = st.floats(min_value=0.05, max_value=50.0)
reals = st.floats(min_value=-30.0, max_value=30.0)


def nll_terms(p, y):
    """gcp.nll_terms_arrays at one point: (nll, dm, dnu, dalpha, dbeta)."""
    return gcp.nll_terms_arrays(p.m, p.nu, p.alpha, p.beta, y)


def random_params(rng):
    return gcp.GcpParams(m=float(rng.normal()),
                         nu=float(rng.uniform(0.2, 5.0)),
                         alpha=float(rng.uniform(0.3, 6.0)),
                         beta=float(rng.uniform(0.2, 4.0)))


class TestGcpParams:
    def test_sigma_definition(self):
        p = gcp.GcpParams(m=0.0, nu=2.0, alpha=1.0, beta=3.0)
        np.testing.assert_allclose(p.sigma, 3.0 * 3.0 / 2.0, rtol=1e-15)

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(ValueError):
            gcp.GcpParams(m=0.0, nu=0.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            gcp.GcpParams(m=0.0, nu=1.0, alpha=-2.0, beta=1.0)
        with pytest.raises(ValueError):
            gcp.GcpParams(m=math.nan, nu=1.0, alpha=1.0, beta=1.0)


class TestPosteriorUpdate:
    @given(reals, positive, positive, positive, reals)
    @settings(max_examples=60, deadline=None)
    def test_update_algebra(self, m, nu, alpha, beta, y):
        prior = gcp.GcpParams(m=m, nu=nu, alpha=alpha, beta=beta)
        post = posterior_update(prior, y)
        np.testing.assert_allclose(post.m, (nu * m + y) / (nu + 1.0), rtol=1e-12)
        assert post.nu == nu + 1.0
        assert post.alpha == alpha + 0.5
        np.testing.assert_allclose(
            post.beta, beta + nu / (nu + 1.0) * (y - m) ** 2 / 2.0, rtol=1e-12)

    def test_observation_at_mean_only_bumps_counts(self):
        prior = gcp.GcpParams(m=1.5, nu=3.0, alpha=2.0, beta=1.0)
        post = posterior_update(prior, 1.5)
        assert (post.m, post.nu, post.alpha, post.beta) == (1.5, 4.0, 2.5, 1.0)

    def test_rejects_nonfinite_observation(self):
        prior = gcp.GcpParams(m=0.0, nu=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            posterior_update(prior, math.inf)


class TestKlLoss:
    def test_zero_exactly_at_posterior(self):
        fixed = gcp.GcpParams(m=0.3, nu=2.0, alpha=1.5, beta=0.8)
        post = posterior_update(fixed, 1.1)
        assert kl_loss(post, fixed, 1.1) == 0.0

    def test_positive_away_from_posterior(self):
        fixed = gcp.GcpParams(m=0.3, nu=2.0, alpha=1.5, beta=0.8)
        rng = np.random.default_rng(0)
        for _ in range(25):
            other = random_params(rng)
            assert kl_loss(other, fixed, 1.1) > 0.0

    def test_gradient_matches_finite_differences(self):
        fixed = gcp.GcpParams(m=-0.2, nu=1.3, alpha=2.1, beta=0.7)
        params = gcp.GcpParams(m=0.4, nu=2.6, alpha=1.2, beta=1.5)
        y = 0.9
        grad = kl_grad(params, fixed, y)
        names = ("m", "nu", "alpha", "beta")
        for i, name in enumerate(names):
            h = 1e-6 * max(1.0, abs(getattr(params, name)))
            up = {n: getattr(params, n) for n in names}
            dn = dict(up)
            up[name] += h
            dn[name] -= h
            fd = (kl_loss(gcp.GcpParams(**up), fixed, y)
                  - kl_loss(gcp.GcpParams(**dn), fixed, y)) / (2.0 * h)
            np.testing.assert_allclose(grad[i], fd, rtol=2e-6, atol=1e-9)

    def test_gradient_equals_marginal_gradient_at_shared_point(self):
        # the two losses differ by a params-free constant when evaluated
        # where the belief being trained and the frozen copy coincide
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng)
            y = float(rng.normal(scale=2.0))
            kg = kl_grad(p, p, y)
            sg = nll_terms(p, y)[1:]
            np.testing.assert_allclose(kg, sg, rtol=1e-10, atol=1e-12)


class TestStudentNll:
    def test_cauchy_point_value(self):
        # alpha = 1/2 makes the marginal a Cauchy; at the location with
        # unit scale the density is 1/(pi*sqrt(2))
        p = gcp.GcpParams(m=0.7, nu=3.0, alpha=0.5, beta=0.75)
        assert p.sigma == 1.0
        np.testing.assert_allclose(nll_terms(p, 0.7)[0],
                                   1.4913034761293729, rtol=1e-15)

    def test_matches_scipy_t(self):
        p = gcp.GcpParams(m=0.2, nu=1.7, alpha=2.3, beta=0.9)
        scale = math.sqrt(p.sigma / p.alpha)
        for y in (0.2, -1.4, 6.0, 0.21):
            ref = -student_t.logpdf(y, df=2.0 * p.alpha, loc=p.m, scale=scale)
            np.testing.assert_allclose(nll_terms(p, y)[0], ref, rtol=1e-13)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        names = ("m", "nu", "alpha", "beta")
        for _ in range(10):
            p = random_params(rng)
            y = float(rng.normal(scale=2.0))
            grad = nll_terms(p, y)[1:]
            for i, name in enumerate(names):
                h = 1e-6 * max(1.0, abs(getattr(p, name)))
                up = {n: getattr(p, n) for n in names}
                dn = dict(up)
                up[name] += h
                dn[name] -= h
                fd = (nll_terms(gcp.GcpParams(**up), y)[0]
                      - nll_terms(gcp.GcpParams(**dn), y)[0]) / (2.0 * h)
                np.testing.assert_allclose(grad[i], fd, rtol=5e-6, atol=1e-8)

    def test_array_path_matches_scalar_path(self):
        # one call over 40 points agrees with 40 one-point calls
        rng = np.random.default_rng(9)
        n = 40
        m = rng.normal(size=n)
        nu = rng.uniform(0.2, 5.0, size=n)
        alpha = rng.uniform(0.3, 6.0, size=n)
        beta = rng.uniform(0.2, 4.0, size=n)
        y = rng.normal(scale=2.0, size=n)
        nll, dm, dnu, dalpha, dbeta = gcp.nll_terms_arrays(m, nu, alpha, beta, y)
        for i in range(n):
            p = gcp.GcpParams(m=m[i], nu=nu[i], alpha=alpha[i], beta=beta[i])
            terms = nll_terms(p, float(y[i]))
            np.testing.assert_allclose(nll[i], terms[0], rtol=1e-12)
            np.testing.assert_allclose(
                (dm[i], dnu[i], dalpha[i], dbeta[i]),
                terms[1:], rtol=1e-10, atol=1e-13)


def variances_at(nu, alpha, beta):
    """prognostic_variances at one point, as two length-1 arrays."""
    return gcp.prognostic_variances(np.array([nu]), np.array([alpha]),
                                    np.array([beta]))


class TestPrognostic:
    def test_corrected_variance_uses_alpha_gap(self):
        p = gcp.GcpParams(m=0.1, nu=1.0, alpha=2.0, beta=1.0)
        assert p.sigma == 2.0
        v_p, v_st = variances_at(p.nu, p.alpha, p.beta)
        np.testing.assert_allclose(v_p, 1.448085819272, atol=1e-10)
        np.testing.assert_allclose(v_st, 2.0, rtol=1e-14)
        assert v_st[0] != gcp.STUDENT_VARIANCE_INFINITE

    def test_student_variance_infinite_tag_at_low_alpha(self):
        v_p, v_st = variances_at(1.0, 0.9, 1.0)
        assert v_st[0] == gcp.STUDENT_VARIANCE_INFINITE
        assert math.isfinite(v_p[0]) and v_p[0] > 0

    @pytest.mark.parametrize("alpha", [1e9, 1e300])
    def test_finite_at_large_alpha(self, alpha):
        # the table hands these to the direct solve, which has no upper
        # limit below the largest double
        v_p, v_st = variances_at(1.0, alpha, 1.0)
        assert math.isfinite(v_p[0]) and v_p[0] > 0
        np.testing.assert_allclose(v_p, v_st, rtol=1e-6)

    def test_corrected_always_below_student(self):
        # alpha - A(alpha) > alpha - 1 for every alpha, so the corrected
        # variance never exceeds the plain Student one when both exist
        rng = np.random.default_rng(2)
        nu, alpha, beta = np.array([
            (rng.uniform(0.5, 3.0), rng.uniform(1.05, 30.0),
             rng.uniform(0.2, 3.0)) for _ in range(30)]).T
        v_p, v_st = gcp.prognostic_variances(nu, alpha, beta)
        assert np.all(v_p < v_st)


class TestCorrectionConstants:
    def test_frozen_values_at_alpha_two(self):
        c = gcp.correction_constants(2.0)
        np.testing.assert_allclose(c.b, 6.463430695597212, rtol=1e-10)
        np.testing.assert_allclose(c.b0, 0.02067730, atol=2e-8)
        np.testing.assert_allclose(c.b1, 1.55238114, atol=2e-8)

    def test_limit_of_b_at_small_alpha(self):
        c = gcp.correction_constants(1e-4)
        np.testing.assert_allclose(c.b, 2.000254643318176, rtol=1e-9)

    def test_b_at_large_alpha_matches_high_precision(self):
        # 2 alpha / A(alpha) at alpha = 1e4 from 40-digit mpmath; the
        # slope's former (R (1 + s) - s) / 2 form lost 2e-8 of it here
        np.testing.assert_allclose(gcp.correction_constants(1e4).b,
                                   20002.999700134919808, rtol=1e-12)

    def test_b_is_alpha_over_a_exactly(self):
        for alpha in (0.5, 2.0, 7.0, 80.0):
            c = gcp.correction_constants(alpha)
            np.testing.assert_allclose(c.b * solve_A(alpha), 2.0 * alpha,
                                       rtol=1e-11)

    def test_internal_identity_ties_all_three(self):
        # b0 + b1 = b/(2a+1) - delta_psi(a) by construction
        for alpha in (0.7, 2.0, 11.0):
            c = gcp.correction_constants(alpha)
            np.testing.assert_allclose(c.b0 + c.b1,
                                       c.b / (2.0 * alpha + 1.0)
                                       - delta_psi(alpha), rtol=1e-11)

    def test_b0_positive_and_decaying(self):
        vals = [gcp.correction_constants(a).b0 for a in (1.0, 4.0, 16.0, 64.0)]
        assert all(v > 0 for v in vals)
        assert all(x > y for x, y in zip(vals, vals[1:]))
        # quadratic tail: alpha^2 * b0 approaches a constant
        scaled = [a * a * gcp.correction_constants(a).b0 for a in (40.0, 80.0, 160.0)]
        assert abs(scaled[2] - scaled[1]) < abs(scaled[1] - scaled[0])

    def test_corrected_variance_applies_factor(self):
        v_p, _ = variances_at(1.0, 2.0, 1.0)
        c = gcp.correction_constants(2.0)
        got = gcp.corrected_variance(v_p, 2.0, 0.05, constants=c)
        np.testing.assert_allclose(got, (1.0 - 0.05 * c.b) * v_p,
                                   rtol=1e-14)

    def test_corrected_variance_rejects_out_of_range_epsilon(self):
        v_p, _ = variances_at(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            gcp.corrected_variance(v_p, 2.0, 0.5)   # 1 - 0.5*b(2) < 0
        with pytest.raises(ValueError):
            gcp.corrected_variance(v_p, 2.0, -0.01)
