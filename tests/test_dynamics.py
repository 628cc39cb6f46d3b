"""Tests for the training-dynamics module: mixture bookkeeping, the three
population integrals, the ODE integrator, equilibrium solving with
certification, the two inverse-problem verifications, and the qualitative
change of the flow at zero contamination."""

import math
import time

import numpy as np
import pytest

from gcpnet import dynamics as dyn
from gcpnet.special import hermite_rule, legendre_rule, solve_A

OUT5 = ("gaussian", 5.0, 1.0)


def spec_at(eps, outlier=OUT5, **kw):
    return dyn.ContaminationSpec(epsilon=eps, outlier=outlier, **kw)


class TestContaminationSpec:
    def test_component_weights(self):
        s = spec_at(0.1)
        comps = s.components()
        assert comps[0] == (0.9, "gaussian", 0.0, 1.0)
        assert comps[1] == (0.1, "gaussian", 5.0, 1.0)

    def test_zero_epsilon_drops_outlier_component(self):
        assert len(spec_at(0.0).components()) == 1

    def test_validation(self):
        with pytest.raises(dyn.ConditionError):
            spec_at(-0.1)
        with pytest.raises(dyn.ConditionError):
            spec_at(1.0)
        with pytest.raises(dyn.ConditionError):
            spec_at(0.1, v_g=0.0)
        with pytest.raises(dyn.ConditionError):
            spec_at(0.1, outlier=("uniform", 2.0, -1.0))
        with pytest.raises(dyn.ConditionError):
            spec_at(0.1, outlier=("gaussian", 0.0, -1.0))
        with pytest.raises(dyn.ConditionError):
            spec_at(0.1, outlier=("cauchy", 0.0, 1.0))
        with pytest.raises(dyn.ConditionError):
            spec_at(0.1, outlier=("standardized", "uniform", 0.0, 1.0))

    def test_mixture_mean_variance(self):
        mean, var = dyn.mixture_mean_variance(spec_at(0.1))
        np.testing.assert_allclose(mean, 0.5, rtol=1e-14)
        np.testing.assert_allclose(var, 0.9 + 0.1 * 26.0 - 0.25, rtol=1e-14)

    def test_uniform_outlier_moments(self):
        mom = dyn.outlier_moments(spec_at(0.2, outlier=("uniform", -1.0, 3.0)))
        v = 16.0 / 12.0
        np.testing.assert_allclose(mom["mean"], 1.0, rtol=1e-14)
        np.testing.assert_allclose(mom[2], v, rtol=1e-14)
        np.testing.assert_allclose(mom[4], 1.8 * v * v, rtol=1e-14)
        assert mom[3] == 0.0 and mom[5] == 0.0


class TestIndicators:
    def test_far_outlier(self):
        ind = dyn.indicators(spec_at(0.1))
        np.testing.assert_allclose(ind.c_go, 625.0, rtol=1e-13)
        np.testing.assert_allclose(ind.d_go, 125.0, rtol=1e-13)

    def test_same_mean_wider_outlier(self):
        ind = dyn.indicators(spec_at(0.1, outlier=("gaussian", 0.0, 2.0)))
        np.testing.assert_allclose(ind.c_go, 3.0, atol=1e-13)
        assert ind.d_go == 0.0

    def test_identical_outlier_is_degenerate(self):
        ind = dyn.indicators(spec_at(0.1, outlier=("gaussian", 0.0, 1.0)))
        assert ind.c_go == 0.0 and ind.d_go == 0.0

    def test_symmetric_uniform(self):
        ind = dyn.indicators(spec_at(0.1, outlier=("uniform", -1.0, 1.0)))
        v = 4.0 / 12.0
        np.testing.assert_allclose(ind.c_go, 3.0 * (v - 1.0) ** 2
                                   + (1.8 * v * v - 3.0 * v * v), rtol=1e-12)
        assert ind.d_go == 0.0


class TestIntegrals:
    def test_pure_generative_mean_is_a_root(self):
        # gaussian components cancel pairwise in exact arithmetic; the
        # uniform rule only cancels to quadrature roundoff
        f, _, _ = dyn.fgh(0.0, 1.7, 0.9, spec_at(0.0))
        assert f == 0.0
        f, _, _ = dyn.fgh(0.0, 1.7, 0.9,
                          spec_at(0.3, outlier=("uniform", -2.0, 2.0)))
        assert abs(f) < 1e-15

    def test_outlier_equal_to_generative_changes_nothing(self):
        clean = spec_at(0.0)
        masked = spec_at(0.4, outlier=("gaussian", 0.0, 1.0))
        for alpha, sigma in ((0.8, 0.5), (3.0, 2.2)):
            a = dyn.fgh(0.2, alpha, sigma, clean)
            b = dyn.fgh(0.2, alpha, sigma, masked)
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)

    def test_shape_balance_vanishes_on_known_manifold(self):
        # clean Gaussian data: H = 0 exactly where sigma = v_g (alpha - A)
        s = dyn.ContaminationSpec(epsilon=0.0, m_g=0.3, v_g=1.7)
        for alpha in (0.6, 2.0, 9.0):
            sigma = 1.7 * (alpha - solve_A(alpha))
            _, _, h = dyn.fgh(0.3, alpha, sigma, s)
            assert abs(h) < 1e-12

    def test_log_balance_negative_on_manifold_without_outliers(self):
        s = spec_at(0.0)
        for alpha in (0.5, 2.0, 20.0, 200.0):
            sigma = alpha - solve_A(alpha)
            _, g, _ = dyn.fgh(0.0, alpha, sigma, s)
            assert g < 0.0

    def test_node_count_convergence(self):
        s = spec_at(0.07)
        coarse = dyn.fgh(0.15, 1.3, 0.8, s, nodes=256)
        fine = dyn.fgh(0.15, 1.3, 0.8, s, nodes=1024)
        np.testing.assert_allclose(coarse, fine, rtol=0, atol=1e-11)

    def test_uniform_component_against_dense_grid(self):
        s = spec_at(0.3, outlier=("uniform", -2.0, 4.0))
        f, g, h = dyn.fgh(0.1, 1.4, 0.9, s)
        ys = np.linspace(-2.0, 4.0, 400001)
        z = ys - 0.1
        dens = 0.3 / 6.0
        f_u = np.trapezoid(z / (1.8 + z * z), ys) * dens
        clean = dyn.fgh(0.1, 1.4, 0.9, spec_at(0.0))
        # the gaussian part of the mixture is the eps-scaled clean value
        np.testing.assert_allclose(f, 0.7 * clean[0] + f_u, atol=1e-9)


def reference_component_fgh(m, alpha, sigma, weight, kind, a, b, n):
    """One component's values and Jacobian with the rules built on every
    call and the mirror denominator computed from c - offsets."""
    two_sigma = 2.0 * sigma
    if kind == "gaussian":
        rule = hermite_rule(n)
        offsets = math.sqrt(b) * rule.nodes
        c = a - m
        z = c + offsets
        density = 1.0
    else:
        rule = legendre_rule(n // 2, a, b)
        z = rule.nodes - m
        density = 1.0 / (b - a)
    w = rule.weights
    zsq = z * z
    den = two_sigma + zsq
    if kind == "gaussian":
        pair_num = 2.0 * c * (two_sigma + c * c - offsets * offsets)
        pair_den = ((two_sigma + (c + offsets) ** 2)
                    * (two_sigma + (c - offsets) ** 2))
        f = 0.5 * float(w @ (pair_num / pair_den))
    else:
        f = float(w @ (z / den))
    g = float(w @ np.log1p(zsq / two_sigma))
    h = float(w @ ((alpha * zsq - sigma) / den))
    vals = (weight * (f * density), weight * (g * density),
            weight * (h * density))
    inv = 1.0 / den
    z_inv, zsq_inv = z * inv, zsq * inv
    z_den2, zsq_den2 = w @ (z_inv * inv), w @ (zsq_inv * inv)
    shape = 2.0 * alpha + 1.0
    jac = np.array([
        [w @ ((zsq - two_sigma) * inv * inv), 0.0, -two_sigma * z_den2],
        [-2.0 * (w @ z_inv), 0.0, -(w @ zsq_inv)],
        [-two_sigma * shape * z_den2, alpha * (w @ zsq_inv),
         -sigma * shape * zsq_den2],
    ])
    return vals, weight * (jac * density)


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("component", [("gaussian", 5.0, 1.0),
                                       ("gaussian", -1.5, 4.0),
                                       ("uniform", -4.0, 16.0)])
def test_component_fgh_is_bitwise_the_reference(component, n):
    # the cached nodes and the reversed mirror denominator change no bit
    rng = np.random.default_rng(11)
    for m, log_alpha, log_sigma in rng.uniform(-3.0, 3.0, size=(20, 3)):
        args = (m, math.exp(log_alpha), math.exp(log_sigma), 0.3) + component
        want_vals, want_jac = reference_component_fgh(*args, n)
        for jacobian in (False, True):
            vals, jac = dyn._component_fgh(*args, n, jacobian=jacobian)
            assert vals == want_vals
        np.testing.assert_array_equal(jac, want_jac)


class TestJacobian:
    @pytest.mark.parametrize("outlier", [OUT5, ("uniform", -4.0, 16.0)])
    def test_analytic_jacobian_matches_central_differences(self, outlier):
        s = spec_at(0.07, outlier=outlier)
        x = np.array([0.3, math.log(2.3), math.log(1.4)])

        def residual(y):
            return np.array(dyn.fgh(y[0], math.exp(y[1]), math.exp(y[2]), s))

        values, jac = dyn.fgh(0.3, 2.3, 1.4, s, jacobian=True)
        np.testing.assert_array_equal(values, residual(x))
        fd = np.empty((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = 1e-5
            fd[:, j] = (residual(x + step) - residual(x - step)) / 2e-5
        # F does not depend on alpha, so that entry is zero both ways
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-14)
        assert jac[0, 1] == 0.0 and fd[0, 1] == 0.0


class TestFlow:
    def test_flow_matches_integral_combination(self):
        st = dyn.DynState(m=0.1, nu=1.0, alpha=1.5, beta=0.5)
        s = spec_at(0.05)
        dm, dnu, dalpha, dbeta, dsigma = dyn.flow(st, s)
        f, g, h = dyn.fgh(st.m, st.alpha, st.sigma, s)
        np.testing.assert_allclose(dm, (2.0 * st.alpha + 1.0) * f, rtol=1e-14)
        np.testing.assert_allclose(dnu, -h / (st.nu * (st.nu + 1.0)), rtol=1e-14)
        np.testing.assert_allclose(dalpha, -g, rtol=1e-14)
        np.testing.assert_allclose(dbeta, h / st.beta, rtol=1e-14)

    def test_sigma_rate_is_chain_rule_of_beta_and_nu(self):
        st = dyn.DynState(m=-0.2, nu=2.3, alpha=0.9, beta=1.4)
        _, dnu, _, dbeta, dsigma = dyn.flow(st, spec_at(0.12))
        ref = dbeta * (st.nu + 1.0) / st.nu - st.beta * dnu / st.nu**2
        np.testing.assert_allclose(dsigma, ref, rtol=1e-12)

    def test_sigma_property(self):
        st = dyn.DynState(m=0.0, nu=2.0, alpha=1.0, beta=3.0)
        np.testing.assert_allclose(st.sigma, 4.5, rtol=1e-15)


class TestIntegrate:
    def test_settles_onto_certified_equilibrium(self):
        s = spec_at(0.1)
        start = dyn.DynState(m=0.3, nu=1.0, alpha=1.2, beta=0.6)
        traj = dyn.integrate(start, s, t_end=600.0, settle_tol=1e-8)
        assert traj.settled
        eq = dyn.equilibrium(s)
        end = traj.end_state()
        assert abs(end.m - eq.m) < 1e-5
        assert abs(end.alpha - eq.alpha) < 1e-5
        assert abs(end.sigma - eq.sigma) < 1e-5

    def test_equilibrium_is_stationary(self):
        s = spec_at(0.05)
        eq = dyn.equilibrium(s)
        nu = 1.0
        start = dyn.DynState(m=eq.m, nu=nu, alpha=eq.alpha,
                             beta=eq.sigma * nu / (nu + 1.0))
        traj = dyn.integrate(start, s, t_end=50.0)
        assert abs(traj.m[-1] - eq.m) < 1e-8
        assert abs(traj.alpha[-1] - eq.alpha) < 1e-8
        assert abs(traj.sigma[-1] - eq.sigma) < 1e-7

    def test_no_contamination_escapes_to_infinity(self):
        # with eps = 0 there is no rest point: alpha and sigma grow without
        # bound along the high-sigma channel while the mean still relaxes
        s = spec_at(0.0, m_g=0.0)
        start = dyn.DynState(m=1.2, nu=1.0, alpha=1.0, beta=1.5e7)
        traj = dyn.integrate(start, s, t_end=5e6, escape_bound=1e3)
        assert traj.escaped
        assert traj.alpha[-1] > 1e3 and traj.sigma[-1] > 1e3
        assert abs(traj.m[-1]) < 1e-6

    def test_escape_follows_square_root_law(self):
        # on the high-sigma channel dalpha/dt ~ 1/(2 alpha)
        s = spec_at(0.0)
        start = dyn.DynState(m=0.0, nu=1.0, alpha=1.0, beta=1.5e7)
        traj = dyn.integrate(start, s, t_end=4e5)
        half = np.searchsorted(traj.t, traj.t[-1] / 4.0)
        ratio = traj.alpha[-1] / traj.alpha[half]
        np.testing.assert_allclose(ratio, 2.0, rtol=0.08)

    @staticmethod
    def count_fgh(monkeypatch):
        calls = [0]
        fgh = dyn.fgh

        def counting(*args, **kwargs):
            calls[0] += 1
            return fgh(*args, **kwargs)

        monkeypatch.setattr(dyn, "fgh", counting)
        return calls

    def test_escape_attempt_costs_ten_evaluations(self, monkeypatch):
        # the full step and the first half step share f(u), and a rejected
        # retry reuses it; the escaping state's own f(u) is never needed
        calls = self.count_fgh(monkeypatch)
        start = dyn.DynState(m=1.2, nu=1.0, alpha=1.0, beta=1.5e7)
        traj = dyn.integrate(start, spec_at(0.0), t_end=5e6, escape_bound=1e3)
        accepted = len(traj.t) - 1
        assert traj.escaped and traj.rejected > 0
        assert calls[0] == traj.evaluations
        assert traj.evaluations == 10 * (accepted + traj.rejected) + accepted

    def test_settle_check_costs_no_extra_evaluation(self, monkeypatch):
        # the settle check's f(u) is the next step's first stage, so only
        # the start state adds one beyond the escape run's count
        calls = self.count_fgh(monkeypatch)
        start = dyn.DynState(m=0.3, nu=1.0, alpha=1.2, beta=0.6)
        traj = dyn.integrate(start, spec_at(0.1), t_end=600.0,
                             settle_tol=1e-8)
        accepted = len(traj.t) - 1
        assert traj.settled and traj.rejected > 0
        assert calls[0] == traj.evaluations
        assert traj.evaluations == 10 * (accepted + traj.rejected) + accepted + 1

    def test_step_budget_marks_truncation(self):
        s = spec_at(0.1)
        start = dyn.DynState(m=0.3, nu=1.0, alpha=1.2, beta=0.6)
        traj = dyn.integrate(start, s, t_end=600.0, max_steps=5)
        assert traj.truncated and not traj.settled

    def test_trajectory_time_grid_is_increasing(self):
        s = spec_at(0.1)
        traj = dyn.integrate(dyn.DynState(m=0.0, nu=1.0, alpha=1.0, beta=0.5),
                             s, t_end=10.0)
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[0] == 0.0


FROZEN_SWEEP = {
    # independent continuation chain, certified at doubled node count
    0.04: (3.681245313467916e-2, 1.5905134103872898, 1.259420594251166),
    0.01: (1.3253845904748667e-2, 3.2635336070320093, 2.7382984311696874),
    2.5e-5: (1.1803451463192888e-4, 209.30752045706203, 208.43757376075465),
}


class TestEquilibrium:
    def test_cold_solve_matches_frozen_point(self):
        eq = dyn.equilibrium(spec_at(0.04))
        m, alpha, sigma = FROZEN_SWEEP[0.04]
        np.testing.assert_allclose(eq.m, m, rtol=1e-9)
        np.testing.assert_allclose(eq.alpha, alpha, rtol=1e-9)
        np.testing.assert_allclose(eq.sigma, sigma, rtol=1e-8)
        assert eq.converged and eq.max_residual < 1e-9
        assert len(eq.residuals) == 3
        assert 0.0 <= eq.step_bound < 1e-10

    def test_certification_refines_uniform_outliers(self, monkeypatch):
        counts = []
        legendre = dyn.legendre_rule

        def recording(n, lo, hi):
            counts.append(n)
            return legendre(n, lo, hi)

        monkeypatch.setattr(dyn, "legendre_rule", recording)
        # node data is cached per component; start cold so every rule the
        # solve needs is built, and recorded, here
        dyn._component_nodes.cache_clear()
        eq = dyn.equilibrium(spec_at(0.04, outlier=("uniform", -4.0, 16.0)))
        assert eq.nodes == 512
        # Newton at 512 nodes uses 256 Legendre nodes, the certificate 512
        assert set(counts) == {256, 512}

    def test_cold_grid_certifies_without_the_flow(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("cold solves must not integrate the flow")

        monkeypatch.setattr(dyn, "integrate", no_flow)
        families = [OUT5, ("gaussian", 3.0, 4.0), ("gaussian", -6.0, 0.5),
                    ("gaussian", 10.0, 2.0), ("uniform", -4.0, 16.0)]
        t0 = time.perf_counter()
        for outlier in families:
            for eps in np.geomspace(0.2, 1e-4, 9):
                eq = dyn.equilibrium(spec_at(float(eps), outlier=outlier))
                assert eq.converged and eq.max_residual < dyn.CERT_TOL
        assert time.perf_counter() - t0 < 2.0

    def test_explicit_guess_reaches_same_root(self):
        eq = dyn.newton_equilibrium(spec_at(0.04), (0.03, 1.4, 1.1))
        np.testing.assert_allclose(eq.m, FROZEN_SWEEP[0.04][0], rtol=1e-9)

    def test_requires_positive_epsilon(self):
        with pytest.raises(dyn.ConditionError):
            dyn.equilibrium(spec_at(0.0))

    def test_requires_positive_outlier_indicator(self):
        # narrower same-shape outlier drives the quartic indicator negative
        bad = spec_at(0.1, outlier=("gaussian", 1.0, 0.5))
        assert dyn.indicators(bad).c_go < 0.0
        with pytest.raises(dyn.ConditionError):
            dyn.equilibrium(bad)

    def test_asymptotic_guess_scales_inversely_with_epsilon(self):
        g1 = dyn.asymptotic_guess(spec_at(1e-3))
        g2 = dyn.asymptotic_guess(spec_at(5e-4))
        np.testing.assert_allclose(g2[1] / g1[1], 2.0, rtol=1e-6)
        assert g1[0] > 0 and g1[1] > 0 and g1[2] > 0

    def test_sweep_walks_to_deep_small_epsilon(self):
        # the residual tolerance leaves ~1e-6 relative slack along the
        # shallow (alpha, sigma) valley, so different continuation paths
        # agree only to that level at large alpha
        rows = dyn.equilibrium_sweep([0.04, 0.01, 2.5e-5])
        assert [e for e, _ in rows] == [0.04, 0.01, 2.5e-5]
        for eps, eq in rows:
            m, alpha, sigma = FROZEN_SWEEP[eps]
            np.testing.assert_allclose(eq.m, m, rtol=2e-6)
            np.testing.assert_allclose(eq.alpha, alpha, rtol=2e-6)
            np.testing.assert_allclose(eq.sigma, sigma, rtol=2e-6)
            assert eq.converged

    def test_alpha_grows_and_gap_shrinks_along_sweep(self):
        rows = dyn.equilibrium_sweep([0.04, 0.02, 0.01, 0.005])
        alphas = [eq.alpha for _, eq in rows]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        gaps = [eps * eq.alpha for eps, eq in rows]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_ode_and_newton_agree(self):
        # independent routes to the same point, within 1e-5 componentwise
        for eps in (0.01, 0.05, 0.1):
            s = spec_at(eps)
            eq = dyn.equilibrium(s)
            start = dyn.DynState(m=0.2, nu=1.0, alpha=1.1, beta=0.55)
            # the settle tolerance ends the run; the horizon only bounds it
            traj = dyn.integrate(start, s, t_end=20000.0, settle_tol=1e-9)
            assert traj.settled
            end = traj.end_state()
            assert abs(end.m - eq.m) < 1e-5
            assert abs(end.alpha - eq.alpha) < 1e-5
            assert abs(end.sigma - eq.sigma) < 1e-5

    def test_epsilon_continuity(self):
        # no jumps: every step along a fine geometric grid stays comparable
        # to the median step of the same column
        eps_grid = np.geomspace(0.1, 0.005, 25)
        rows = dyn.equilibrium_sweep(list(eps_grid))
        got = {e: eq for e, eq in rows}
        vals = np.array([[got[e].m, math.log(got[e].alpha),
                          math.log(got[e].sigma)] for e in eps_grid])
        deltas = np.abs(np.diff(vals, axis=0))
        med = np.median(deltas, axis=0)
        assert np.all(deltas.max(axis=0) <= 10.0 * med)


class TestBifurcation:
    def test_no_root_exists_without_contamination(self):
        rng = np.random.default_rng(11)
        s = spec_at(0.0)
        for _ in range(20):
            guess = (float(rng.uniform(-0.5, 0.8)),
                     float(np.exp(rng.uniform(np.log(0.3), np.log(40.0)))),
                     float(np.exp(rng.uniform(np.log(0.2), np.log(60.0)))))
            with pytest.raises((dyn.NonConvergenceError, dyn.NumericError)):
                dyn.newton_equilibrium(s, guess)

    def test_single_root_with_contamination(self):
        rng = np.random.default_rng(7)
        s = spec_at(0.02)
        roots = []
        for _ in range(12):
            guess = (float(rng.uniform(-0.5, 0.8)),
                     float(np.exp(rng.uniform(np.log(0.3), np.log(40.0)))),
                     float(np.exp(rng.uniform(np.log(0.2), np.log(60.0)))))
            try:
                eq = dyn.newton_equilibrium(s, guess)
            except dyn.NonConvergenceError:
                continue
            if eq.converged:
                roots.append((eq.m, eq.alpha, eq.sigma))
        assert len(roots) >= 3
        arr = np.array(roots)
        assert np.all(arr.max(axis=0) - arr.min(axis=0) < 1e-8)

    def test_stalled_start_exits_within_iteration_cap(self, monkeypatch):
        # from this start Newton wanders the escape valley; the iteration
        # cap ends the solve (471 fgh calls with an 80-iteration cap)
        calls = []
        fgh = dyn.fgh

        def counting(*args, **kwargs):
            calls.append(1)
            return fgh(*args, **kwargs)

        monkeypatch.setattr(dyn, "fgh", counting)
        with pytest.raises(dyn.NonConvergenceError, match="30 iterations"):
            dyn.newton_equilibrium(spec_at(0.02), (0.313, 24.2, 16.7))
        assert len(calls) < 200

    def test_flow_field_never_rests_without_contamination(self):
        s = spec_at(0.0)
        rows = dyn.field_grid(np.geomspace(0.3, 50.0, 10),
                              np.geomspace(0.05, 40.0, 10), s)
        arr = np.array(rows)
        assert arr.shape == (100, 4)
        assert np.all(np.hypot(arr[:, 2], arr[:, 3]) > 1e-3)


# inverse-problem values frozen from runs certified at doubled node count
FROZEN_VG = (0.9988623145, 1.1699089609, 1.2855008901, 1.3587783358,
             1.4017425027)
FROZEN_MP = (1.214676495448e-1, 5.350265507661e-2, 2.030733749758e-2,
             5.946685450245e-3, 1.050270214930e-3)


class TestVarianceVerification:
    def test_frozen_inverse_problem_values(self):
        rep = dyn.verify_variance_correction(alpha=2.0, sigma=2.0)
        assert all(r.converged for r in rep.rows)
        np.testing.assert_allclose([r.v_g for r in rep.rows], FROZEN_VG,
                                   atol=2e-8)
        np.testing.assert_allclose(rep.b, 6.463430695597212, rtol=1e-10)
        np.testing.assert_allclose(rep.v_p, 2.0 / (2.0 - solve_A(2.0)),
                                   rtol=1e-12)

    def test_deviation_is_first_order_remainder(self):
        rep = dyn.verify_variance_correction(alpha=2.0, sigma=2.0)
        for row in rep.rows:
            ref = abs(row.v_g - (1.0 - rep.b * row.epsilon) * rep.v_p)
            np.testing.assert_allclose(row.deviation, ref, rtol=1e-10)

    def test_zero_epsilon_row_recovers_uncontaminated_variance(self):
        rep = dyn.verify_variance_correction(alpha=2.0, sigma=2.0,
                                             eps_seq=(0.01, 0.0))
        row = rep.rows[-1]
        assert row.epsilon == 0.0
        np.testing.assert_allclose(row.v_g, rep.v_p, rtol=1e-12)
        assert row.deviation == 0.0 and math.isnan(row.m_o)

    def test_remainder_is_quadratic_in_epsilon(self):
        # halving eps four times: e(eps)/e(2 eps) settles near 1/4
        eps = (0.0025, 0.00125, 0.000625, 0.0003125)
        rep = dyn.verify_variance_correction(alpha=2.0, sigma=2.0, eps_seq=eps)
        ratios = rep.ratios()
        assert len(ratios) == 3
        for r in ratios:
            assert 0.15 <= r <= 0.35

    def test_slope_recovers_correction_coefficient(self):
        eps = (0.0025, 0.00125, 0.000625, 0.0003125)
        rep = dyn.verify_variance_correction(alpha=2.0, sigma=2.0, eps_seq=eps)
        assert abs(rep.rows[-1].slope - rep.b) / rep.b < 0.01

    @pytest.mark.parametrize("alpha, sigma", [(2.0, 2.0), (3.0, 1.0)])
    def test_inverse_jacobian_matches_central_differences(self, alpha, sigma):
        eps = 0.01
        x = np.array([math.log(1.2), math.log(6.0)])

        def residual(y):
            s = dyn.ContaminationSpec(
                epsilon=eps, v_g=math.exp(y[0]),
                outlier=("gaussian", math.exp(y[1]), 1.0))
            return np.array(dyn.fgh(0.0, alpha, sigma, s)[1:])

        values, jac = dyn._inverse_residual(x, eps, alpha, sigma,
                                            dyn.DYNAMICS_NODES_DEFAULT)
        np.testing.assert_array_equal(values, residual(x))
        fd = np.empty((2, 2))
        for j in range(2):
            step = np.zeros(2)
            step[j] = 1e-5
            fd[:, j] = (residual(x + step) - residual(x - step)) / 2e-5
        np.testing.assert_allclose(jac, fd, rtol=1e-6)

    def test_other_alpha_sigma_pair(self):
        rep = dyn.verify_variance_correction(alpha=3.0, sigma=1.0,
                                             eps_seq=(0.002, 0.001))
        assert all(r.converged for r in rep.rows)
        assert rep.rows[-1].deviation < rep.rows[0].deviation


class TestMeanVerification:
    def test_frozen_mean_roots(self):
        rep = dyn.verify_mean_exponential(alpha=2.0, sigma=2.0)
        np.testing.assert_allclose([r.m_p for r in rep.rows], FROZEN_MP,
                                   rtol=1e-9)

    def test_super_polynomial_decay(self):
        eps = (0.0025, 0.00125, 0.000625, 0.0003125)
        rep = dyn.verify_mean_exponential(alpha=2.0, sigma=2.0, eps_seq=eps)
        for k in (2, 3):
            seq = rep.power_ratios(k)
            assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_failed_mean_root_marks_row_unconverged(self, monkeypatch):
        newton = dyn._damped_newton

        def failing_mean_root(evaluate, x0, tol, caps=None):
            if len(x0) == 1:
                raise dyn.NonConvergenceError("line search stalled")
            return newton(evaluate, x0, tol, caps)

        monkeypatch.setattr(dyn, "_damped_newton", failing_mean_root)
        rep = dyn.verify_mean_exponential(alpha=2.0, sigma=2.0,
                                          eps_seq=(0.01, 0.0))
        row, clean = rep.rows
        assert not row.converged
        assert math.isnan(row.m_p) and math.isnan(row.deviation)
        np.testing.assert_allclose(row.v_g, FROZEN_VG[3], atol=2e-8)
        assert clean.converged and clean.m_p == 0.0

    def test_symmetric_mixture_mean_root_is_exact(self):
        s = spec_at(0.3, outlier=("uniform", -2.0, 2.0))
        assert abs(dyn.solve_mean_root(s, 1.5, 0.9)) < 1e-15
        s2 = dyn.ContaminationSpec(epsilon=0.0, m_g=0.7)
        assert dyn.solve_mean_root(s2, 2.0, 1.0) == 0.7

    def test_mean_root_kills_the_pull_integral(self):
        s = spec_at(0.08)
        m = dyn.solve_mean_root(s, 2.0, 2.0)
        f, _, _ = dyn.fgh(m, 2.0, 2.0, s)
        assert abs(f) < 1e-13
