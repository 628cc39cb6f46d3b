"""Tests for the training-dynamics module: mixture bookkeeping, the three
population integrals, the ODE integrator, equilibrium solving with
certification, the two inverse-problem verifications, and the qualitative
change of the flow at zero contamination."""

import math
import time
from dataclasses import replace
from fractions import Fraction

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
        big = dyn.MIXTURE_LIMIT
        spec_at(0.1, m_g=-big, v_g=big, outlier=("uniform", -big, big))
        for kw in ({"m_g": 2 * big}, {"v_g": math.inf},
                   {"outlier": ("gaussian", math.nan, 1.0)},
                   {"outlier": ("uniform", 0.0, 2 * big)}):
            with pytest.raises(dyn.ConditionError, match="must be finite"):
                spec_at(0.1, **kw)
        for nodes in (1, True, 2.0):
            with pytest.raises(dyn.ConditionError, match="nodes"):
                dyn.ContaminationSpec(epsilon=0.04, nodes=nodes)

    def test_node_count_defaults_and_reaches_every_integral(self):
        s, default = spec_at(0.04, nodes=64), spec_at(0.04)
        assert default.nodes == dyn.DYNAMICS_NODES_DEFAULT
        assert dyn.fgh(0.1, 1.3, 0.8, s) != dyn.fgh(0.1, 1.3, 0.8, default)
        assert dyn.equilibrium(s).nodes == 64
        assert all(eq.nodes == 64 for _, eq in
                   dyn.equilibrium_sweep([0.04, 0.02], nodes=64))

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
        assert mom[3] == 0.0


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
        # both rules are mirrored about a component's center, so the
        # pairwise mean integrand cancels in exact arithmetic for each kind
        f, _, _ = dyn.fgh(0.0, 1.7, 0.9, spec_at(0.0))
        assert f == 0.0
        f, _, _ = dyn.fgh(0.0, 1.7, 0.9,
                          spec_at(0.3, outlier=("uniform", -2.0, 2.0)))
        assert f == 0.0

    @pytest.mark.parametrize("kind, half", [("gaussian", 4.0),
                                            ("uniform", 2.0)])
    @pytest.mark.parametrize("m_g", [0.0, 1.5])
    def test_mean_pull_is_odd_about_a_symmetric_mixture(self, kind, half,
                                                        m_g):
        # an outlier centered on m_g: F(m_g + d) = -F(m_g - d) to the bit,
        # for offsets d that m_g +- d represent exactly
        outlier = ((kind, m_g, half) if kind == "gaussian"
                   else (kind, m_g - half, m_g + half))
        s = spec_at(0.3, outlier=outlier, m_g=m_g)
        for d in (2.0 ** -40, 0.375, 3.0, 40.0):
            for alpha, sigma in ((1.7, 0.9), (30.0, 1e-3)):
                above, _, _ = dyn.fgh(m_g + d, alpha, sigma, s)
                below, _, _ = dyn.fgh(m_g - d, alpha, sigma, s)
                assert above == -below != 0.0, (d, alpha, sigma)

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
        coarse = dyn.fgh(0.15, 1.3, 0.8, replace(s, nodes=256))
        fine = dyn.fgh(0.15, 1.3, 0.8, replace(s, nodes=1024))
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


def pruned_hermite(n):
    """(nodes, weights) of hermite_rule(n) less its outermost pairs, taken
    one by one while one side's dropped weights sum to at most 2^-64."""
    rule = hermite_rule(n)
    k, dropped = 0, 0.0
    while dropped + rule.weights[k] <= 2.0 ** -64:
        dropped += rule.weights[k]
        k += 1
    return rule.nodes[k:n - k], rule.weights[k:n - k]


def reference_component_fgh(m, alpha, sigma, weight, kind, a, b, n):
    """One component's eight weighted expectations with the rules built on
    every call, the mirror denominator computed from c - offsets, and each
    integrand summed on its own in numpy's pairwise order."""
    two_sigma = 2.0 * sigma
    if kind == "gaussian":
        nodes, w = pruned_hermite(n)
        offsets = math.sqrt(b) * nodes
        c = a - m
    else:
        rule = legendre_rule(n // 2)
        w = rule.weights
        offsets = 0.5 * (b - a) * rule.nodes
        c = 0.5 * (a + b) - m
    z = c + offsets
    zsq = z * z
    den = two_sigma + zsq
    integrands = [
        c * (two_sigma + c * c - offsets * offsets)
        / ((two_sigma + (c + offsets) ** 2) * (two_sigma + (c - offsets) ** 2)),
        np.log1p(zsq / two_sigma),
        (alpha * zsq - sigma) / den,
        z / den, zsq / den, z / den / den, zsq / den / den,
        (zsq - two_sigma) / den / den]
    return [weight * float(np.add.reduce(w * v)) for v in integrands]


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("component", [("gaussian", 5.0, 1.0),
                                       ("gaussian", -1.5, 4.0),
                                       ("uniform", -4.0, 16.0)])
def test_component_fgh_is_bitwise_the_reference(component, n):
    # the cached nodes, the reversed mirror denominator and the one
    # buffer's row reductions change no bit
    rng = np.random.default_rng(11)
    for m, log_alpha, log_sigma in rng.uniform(-3.0, 3.0, size=(20, 3)):
        args = (m, math.exp(log_alpha), math.exp(log_sigma), 0.3) + component
        want = reference_component_fgh(*args, n)
        nodes = dyn._component_nodes(*component, n)
        assert dyn._component_sums(*args[:4], nodes) == want[:3]
        assert dyn._component_sums(*args[:4], nodes, jacobian=True) == want


def gaussian_integrands(m, alpha, sigma, a, b, nodes):
    """The integrands at the nodes, in `_component_sums` order, that a
    gaussian N(a, b) component's expectations are read from, each rounded
    as `_component_sums` rounds it."""
    two_sigma = 2.0 * sigma
    offsets = math.sqrt(b) * nodes
    c = a - m
    z = c + offsets
    zsq = z * z
    den = two_sigma + zsq
    return [c * (two_sigma + c * c - offsets * offsets) / (den * den[::-1]),
            np.log1p(zsq / two_sigma), (alpha * zsq - sigma) / den,
            z / den, zsq / den, z / den / den, zsq / den / den,
            (zsq - two_sigma) / den / den]


@pytest.mark.parametrize("n", [512, 1024])
def test_pruned_hermite_rule_matches_the_full_rule(n):
    _, weights, offsets, _ = dyn._component_nodes("gaussian", 0.0, 1.0, n)
    assert np.array_equal(offsets, -offsets[::-1])
    assert np.array_equal(weights, weights[::-1])
    full = hermite_rule(n)
    k = (n - len(weights)) // 2
    assert k > 0 and 2.0 * float(np.sum(full.weights[:k])) <= 2.0 ** -63
    dropped = np.r_[:k, n - k:n]
    # seeded states over Newton's admissible box, m on several scales
    rng = np.random.default_rng(23)
    cap = math.log(dyn.ALPHA_CAP)
    for a, b in [(5.0, 1.0), (-1.5, 4.0), (0.0, 1.0), (3.0, 4.0)]:
        for _ in range(60):
            m = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-3, 7))
            alpha = math.exp(rng.uniform(-cap, cap))
            sigma = math.exp(rng.uniform(-60.0, 60.0))
            want = gaussian_integrands(m, alpha, sigma, a, b, full.nodes)
            got = dyn._component_sums(
                m, alpha, sigma, 1.0,
                dyn._component_nodes("gaussian", a, b, n), jacobian=True)
            for i, (value, v) in enumerate(zip(got, want)):
                # four roundings of sum |w v| from the full rule's correctly
                # rounded sum, and what the dropped nodes carry: at most
                # 2^-63 of the mass times their largest |v|, which leads for
                # z / den^2 when its peak at z = 0 lies among them (m far
                # out, sigma small)
                bound = (4.0 * 2.0 ** -52 * float(full.weights @ np.abs(v))
                         + 2.0 ** -63 * float(np.abs(v[dropped]).max()))
                assert abs(value - math.fsum(full.weights * v)) <= bound, (
                    i, m, alpha, sigma, a, b)


def test_small_hermite_rules_keep_every_node():
    _, weights, offsets, _ = dyn._component_nodes("gaussian", 0.0, 1.0, 16)
    np.testing.assert_array_equal(weights, hermite_rule(16).weights)
    np.testing.assert_array_equal(offsets, hermite_rule(16).nodes)


def test_uniform_components_keep_every_legendre_node():
    center, weights, offsets, _ = dyn._component_nodes("uniform", -4.0,
                                                       16.0, 1024)
    rule = legendre_rule(512)
    assert center == 6.0
    np.testing.assert_array_equal(weights, rule.weights)
    np.testing.assert_array_equal(offsets, 10.0 * rule.nodes)


class TestSolve:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_numpy_on_well_conditioned_systems(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            jac = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            rhs = rng.normal(size=n)
            got = dyn._solve(jac.tolist(), rhs.tolist(), (0.0,) * n)
            assert all(isinstance(v, float) for v in got)
            np.testing.assert_allclose(got, np.linalg.solve(jac, rhs),
                                       rtol=1e-13, atol=0)

    def test_pivots_past_a_zero_leading_entry(self):
        got = dyn._solve([[0.0, 2.0], [4.0, 1.0]], [2.0, 9.0], (0.0, 0.0))
        assert got == [2.0, 1.0]

    @pytest.mark.parametrize("jac", [[[0.0]], [[1.0, 2.0], [2.0, 4.0]],
                                     [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0],
                                      [0.0, 2.0, 2.0]]])
    def test_singular_jacobian_is_nonconvergence(self, jac):
        x = (0.5,) * len(jac)
        with pytest.raises(dyn.NonConvergenceError,
                           match=r"singular Jacobian at \(0\.5"):
            dyn._solve(jac, [1.0] * len(jac), x)


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
        assert jac[0][1] == 0.0 and fd[0, 1] == 0.0

    @pytest.mark.parametrize("outlier", [OUT5, ("uniform", -4.0, 16.0)])
    def test_jacobian_entries_are_python_floats(self, outlier):
        # type, not isinstance: np.float64 subclasses float
        s = spec_at(0.07, outlier=outlier)
        _, jac = dyn.fgh(0.3, 2.3, 1.4, s, jacobian=True)
        assert len(jac) == 3 and all(len(row) == 3 for row in jac)
        assert all(type(v) is float for row in jac for v in row)
        for weight, kind, a, b in s.components():
            sums = dyn._component_sums(
                0.3, 2.3, 1.4, weight, dyn._component_nodes(kind, a, b, 64),
                jacobian=True)
            assert len(sums) == 8 and all(type(v) is float for v in sums)


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


def full_tableau():
    """Dormand-Prince's seven stages as a 7x7 matrix of Fractions, with the
    fifth-order weights (the last row, b7 = 0) and the fourth-order ones."""
    a = [[Fraction(0)] * 7 for _ in range(7)]
    for i, row in enumerate(dyn.DP_TABLEAU, start=1):
        a[i][:len(row)] = row
    b = list(dyn.DP_TABLEAU[-1]) + [Fraction(0)]
    return a, b, [x - e for x, e in zip(b, dyn.DP_ERROR)]


def order_conditions(a, w):
    """sum(w * tree) - 1/gamma(tree) for every rooted tree up to order 5,
    by order."""
    c = [sum(row) for row in a]

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    def times(x, y):
        return [p * q for p, q in zip(x, y)]

    def av(v):
        return [dot(row, v) for row in a]

    one = [Fraction(1)] * 7
    c2, ac = times(c, c), av(c)
    trees = {
        1: [(one, 1)],
        2: [(c, 2)],
        3: [(c2, 3), (ac, 6)],
        4: [(times(c2, c), 4), (times(c, ac), 8), (av(c2), 12),
            (av(ac), 24)],
        5: [(times(c2, c2), 5), (times(c2, ac), 10),
            (times(c, av(c2)), 15), (times(c, av(ac)), 30),
            (times(ac, ac), 20), (av(times(c2, c)), 20),
            (av(times(c, ac)), 40), (av(av(c2)), 60), (av(av(ac)), 120)],
    }
    return {order: [dot(w, t) - Fraction(1, g) for t, g in rows]
            for order, rows in trees.items()}


def test_dormand_prince_tableau_is_exact():
    a, b, b_star = full_tableau()
    # each row sums to its stage time; the last row is both the seventh
    # stage and the fifth-order weights b, so that stage sits at the new
    # state (c = 1) and its rates are the next step's first (FSAL)
    assert [sum(row) for row in a] == [0, Fraction(1, 5), Fraction(3, 10),
                                       Fraction(4, 5), Fraction(8, 9), 1, 1]
    assert sum(b) == 1 and sum(dyn.DP_ERROR) == 0
    fifth, fourth = order_conditions(a, b), order_conditions(a, b_star)
    assert all(v == 0 for order in fifth.values() for v in order)
    assert all(v == 0 for order in range(1, 5) for v in fourth[order])
    # the embedded solution is exactly fourth order, so the error estimate
    # measures the fifth-order terms
    assert any(v != 0 for v in fourth[5])


def test_written_out_stages_follow_the_tableau():
    # a generic loop over the exact tableau gives bitwise the same step,
    # error and stiffness cap as the written-out tuple expressions
    def f(u):
        m, nu, alpha, beta = u
        return (-m * alpha + 0.3, nu * (1.0 - nu), math.sin(alpha) - alpha,
                -beta / (1.0 + m * m))

    u, h = (0.4, 1.3, 2.1, 0.7), 0.37
    ks, points = [f(u)], [u]
    for row in dyn.DP_TABLEAU:
        points.append(tuple(x + h * sum(float(w) * k[i]
                                        for w, k in zip(row, ks))
                            for i, x in enumerate(u)))
        ks.append(f(points[-1]))
    err = max(abs(h * sum(float(e) * k[i] for e, k in zip(dyn.DP_ERROR, ks)))
              / (dyn.ATOL + dyn.RTOL * abs(y)) for i, y in enumerate(points[-1]))
    cap = (dyn.STIFF_BOUND * math.dist(points[6], points[5])
           / math.dist(ks[6], ks[5]))
    assert dyn._dp5_step(u, ks[0], h, f) == (points[6], ks[6], err, cap)


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

    def test_escape_attempt_costs_six_evaluations(self, monkeypatch):
        # the start costs one evaluation and each attempt six: its seventh
        # stage is the next attempt's first, and a rejected retry reuses it
        calls = self.count_fgh(monkeypatch)
        start = dyn.DynState(m=1.2, nu=1.0, alpha=1.0, beta=1.5e7)
        traj = dyn.integrate(start, spec_at(0.0), t_end=5e6, escape_bound=1e3)
        accepted = len(traj.t) - 1
        assert traj.escaped and traj.rejected > 0
        assert calls[0] == traj.evaluations
        assert traj.evaluations == 1 + 6 * (accepted + traj.rejected)

    def test_settle_check_costs_no_extra_evaluation(self, monkeypatch):
        # the settle check's f(u) is the seventh stage of the step that
        # reached u, so the count is the escape run's formula
        calls = self.count_fgh(monkeypatch)
        start = dyn.DynState(m=0.3, nu=1.0, alpha=1.2, beta=0.6)
        traj = dyn.integrate(start, spec_at(0.1), t_end=600.0,
                             settle_tol=1e-8)
        accepted = len(traj.t) - 1
        assert traj.settled
        assert calls[0] == traj.evaluations
        assert traj.evaluations == 1 + 6 * (accepted + traj.rejected)

    def test_stiffness_cap_settles_near_the_rest_point(self):
        # near the rest point at eps = 0.1 the stiffest rate is about -0.99;
        # uncapped, the step sits at h ~ 3 on the pair's stability boundary
        # and the rates hover at the tolerance, so the run never settles
        # (3,319 evaluations to t = 1000); capped, it settles in 661
        s = spec_at(0.1)
        eq = dyn.equilibrium(s)
        start = dyn.DynState(m=eq.m + 0.01, nu=1.0, alpha=eq.alpha * 1.01,
                             beta=0.5 * eq.sigma * 1.01)
        traj = dyn.integrate(start, s, t_end=1000.0, settle_tol=1e-9)
        assert traj.settled and traj.evaluations <= 1300

    def test_positivity_rejection_shrinks_the_step(self, monkeypatch):
        # from alpha = 1e-6 the first trial steps leave the positive orthant
        finite_rates, refused = dyn._finite_rates, []

        def counting(k):
            if k is None:
                refused.append(k)
            return finite_rates(k)

        monkeypatch.setattr(dyn, "_finite_rates", counting)
        traj = dyn.integrate(dyn.GcpParams(m=0.0, nu=1.0, alpha=1e-6, beta=0.5),
                             spec_at(0.05), t_end=5.0)
        assert refused and traj.rejected >= 1
        assert not traj.truncated and traj.t[-1] == 5.0
        for values in (traj.nu, traj.alpha, traj.beta):
            assert np.all(values > 0)

    def test_step_budget_marks_truncation(self, monkeypatch):
        s = spec_at(0.1)
        start = dyn.DynState(m=0.3, nu=1.0, alpha=1.2, beta=0.6)
        monkeypatch.setattr(dyn, "MAX_STEPS", 5)
        traj = dyn.integrate(start, s, t_end=600.0)
        assert traj.truncated and not traj.settled

    def test_trajectory_time_grid_is_increasing(self):
        s = spec_at(0.1)
        traj = dyn.integrate(dyn.DynState(m=0.0, nu=1.0, alpha=1.0, beta=0.5),
                             s, t_end=10.0)
        assert np.all(np.diff(traj.t) > 0)
        assert traj.t[0] == 0.0


CRITERION_3_EPS = [0.04, 0.02, 0.01, 0.005, 4e-4, 2e-4, 1e-4, 5e-5, 2.5e-5,
                   1.25e-5]
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

        def recording(n):
            counts.append(n)
            return legendre(n)

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

    def test_sweep_falls_back_to_asymptotic_start(self, monkeypatch):
        eps = (0.04, 0.02, 0.01)
        want = dyn.equilibrium_sweep(eps)
        newton, guesses = dyn.newton_equilibrium, []

        def first_continuation_fails(spec, guess):
            guesses.append(guess)
            # call 1 is the cold start, call 2 the first continuation
            if len(guesses) == 2:
                raise dyn.NonConvergenceError("continuation start failed")
            return newton(spec, guess)

        monkeypatch.setattr(dyn, "newton_equilibrium", first_continuation_fails)
        got = dyn.equilibrium_sweep(eps)
        assert guesses[2] == dyn.asymptotic_guess(spec_at(0.02))
        for (e_want, a), (e_got, b) in zip(want, got):
            assert e_got == e_want
            np.testing.assert_allclose([b.m, b.alpha, b.sigma],
                                       [a.m, a.alpha, a.sigma], rtol=1e-9)

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

    @pytest.mark.parametrize("outlier", [OUT5, ("gaussian", 3.0, 4.0),
                                         ("uniform", -4.0, 16.0)])
    def test_secant_starts_need_no_fallback(self, monkeypatch, outlier):
        # criterion 3's grid: only the first point starts asymptotically
        guess, starts = dyn.asymptotic_guess, []

        def recording(spec):
            starts.append(spec.epsilon)
            return guess(spec)

        monkeypatch.setattr(dyn, "asymptotic_guess", recording)
        rows = dyn.equilibrium_sweep(CRITERION_3_EPS, outlier=outlier)
        assert starts == [0.04]
        assert all(eq.converged and eq.max_residual < dyn.CERT_TOL
                   for _, eq in rows)

    def test_line_search_tests_the_residual_before_the_natural_level(
            self, monkeypatch):
        # a trial whose residual norm falls is accepted without the solve
        # that its natural level costs: one sweep down criterion 3's grid
        # makes 91 solves, where testing the natural level first made 148
        solve, calls = dyn._solve, []

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(dyn, "_solve", counting)
        dyn.equilibrium_sweep(CRITERION_3_EPS)
        assert len(calls) == 91

    def test_later_starts_are_the_secant_in_log_epsilon(self, monkeypatch):
        newton, guesses = dyn.newton_equilibrium, []

        def recording(spec, guess):
            guesses.append(guess)
            return newton(spec, guess)

        monkeypatch.setattr(dyn, "newton_equilibrium", recording)
        (_, eq0), (_, eq1), _ = dyn.equilibrium_sweep([0.04, 0.02, 0.01])
        assert guesses[1] == (eq0.m, eq0.alpha, eq0.sigma)
        # equal ratios put the third start one secant step past the second
        np.testing.assert_allclose(
            guesses[2], (2.0 * eq1.m - eq0.m, eq1.alpha**2 / eq0.alpha,
                         eq1.sigma**2 / eq0.sigma), rtol=1e-14)

    def test_tiny_epsilon_start_is_nonconvergence(self):
        with pytest.raises(dyn.NonConvergenceError, match="asymptotic start"):
            dyn.asymptotic_guess(spec_at(1e-320))
        with pytest.raises(dyn.NonConvergenceError, match="beyond"):
            dyn.asymptotic_guess(spec_at(1e-9))

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

    def test_deviation_is_nan_past_the_correction_range(self):
        # b(2) eps = 1.29 at eps = 0.2: the law (1 - b eps) v_p is negative
        rep = dyn.verify_variance_correction(alpha=2.0, sigma=2.0,
                                             eps_seq=(0.2,))
        (row,) = rep.rows
        assert rep.b * row.epsilon > 1.0
        assert row.converged and math.isnan(row.deviation)
        np.testing.assert_allclose(row.v_g, 0.668, rtol=1e-3)
        assert row.slope == (rep.v_p - row.v_g) / (0.2 * rep.v_p)

    def test_other_alpha_sigma_pair(self):
        rep = dyn.verify_variance_correction(alpha=3.0, sigma=1.0,
                                             eps_seq=(0.002, 0.001))
        assert all(r.converged for r in rep.rows)
        assert rep.rows[-1].deviation < rep.rows[0].deviation

    @pytest.mark.parametrize("alpha, sigma, eps", [(0.5, 1.0, 1e-3),
                                                   (0.8, 1.0, 5e-4),
                                                   (0.3, 1.0, 5e-4)])
    def test_start_beyond_the_domain_is_an_unconverged_row(self, alpha,
                                                           sigma, eps):
        # exp(b0 / (2 eps)) exceeds MIXTURE_LIMIT or overflows a float
        rep = dyn.verify_variance_correction(alpha, sigma, eps_seq=(eps,))
        (row,) = rep.rows
        assert not row.converged
        assert math.isnan(row.v_g) and math.isnan(row.m_o)

    def test_inverse_domain_ends_at_the_mixture_limit(self):
        # exp(ln 1e50) rounds to 1.0000000000000055e+50, which a spec
        # refuses, so the last admitted log is one ulp below ln 1e50
        lm = math.log(dyn.MIXTURE_LIMIT)
        edge = math.nextafter(lm, -math.inf)
        inside = dyn._inverse_residual((0.0, edge), 0.01, 2.0, 2.0, 64)
        assert inside is not None and all(map(math.isfinite, inside[0]))
        dyn.ContaminationSpec(epsilon=0.01, outlier=("gaussian",
                                                     math.exp(edge), 1.0))
        for x in [(0.0, lm), (0.0, math.nextafter(lm, math.inf)),
                  (0.0, 700.0), (0.0, 1e6), (0.0, math.nan),
                  (30.5, 1.0), (-30.5, 1.0)]:
            assert dyn._inverse_residual(x, 0.01, 2.0, 2.0, 64) is None

    @pytest.mark.parametrize("eps", [-0.1, 1.0, math.nan])
    def test_epsilon_outside_the_unit_interval_is_a_condition_error(self,
                                                                    eps):
        with pytest.raises(dyn.ConditionError, match="epsilon"):
            dyn.verify_variance_correction(2.0, 2.0, eps_seq=(0.01, eps))


class TestMeanVerification:
    def test_frozen_mean_roots(self):
        rep = dyn.verify_mean_exponential(alpha=2.0, sigma=2.0)
        np.testing.assert_allclose([r.m_p for r in rep.rows], FROZEN_MP,
                                   rtol=1e-9)

    def test_mean_report_extends_the_variance_report(self):
        # one inverse solve per epsilon carries both laws
        eps = (0.01, 0.005, 0.0)
        var = dyn.verify_variance_correction(alpha=2.0, sigma=2.0,
                                             eps_seq=eps)
        rep = dyn.verify_mean_exponential(alpha=2.0, sigma=2.0, eps_seq=eps)
        assert (rep.v_p, rep.b) == (var.v_p, var.b)
        assert rep.ratios() == var.ratios()
        fields = ("epsilon", "v_g", "m_o", "deviation", "slope", "converged")
        for vr, row in zip(var.rows, rep.rows, strict=True):
            np.testing.assert_array_equal(
                [getattr(row, f) for f in fields],
                [getattr(vr, f) for f in fields])
        assert [math.isnan(r.m_p) for r in var.rows] == [True, True, False]
        assert all(math.isfinite(r.m_p) for r in rep.rows)
        assert rep.rows[-1].m_p == var.rows[-1].m_p == 0.0

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
        assert math.isnan(row.m_p)
        np.testing.assert_allclose(row.v_g, FROZEN_VG[3], atol=2e-8)
        assert clean.converged and clean.m_p == 0.0

    def test_unconverged_inverse_row_carries_into_mean_report(self):
        rep = dyn.verify_mean_exponential(alpha=6.0, sigma=1.0,
                                          eps_seq=(0.07,))
        (row,) = rep.rows
        assert not row.converged
        assert math.isnan(row.m_p) and math.isnan(row.v_g)

    def test_symmetric_mixture_mean_root_is_exact(self):
        s = spec_at(0.3, outlier=("uniform", -2.0, 2.0))
        assert dyn.solve_mean_root(s, 1.5, 0.9) == 0.0
        s2 = dyn.ContaminationSpec(epsilon=0.0, m_g=0.7)
        assert dyn.solve_mean_root(s2, 2.0, 1.0) == 0.7

    def test_mean_root_kills_the_pull_integral(self):
        s = spec_at(0.08)
        m = dyn.solve_mean_root(s, 2.0, 2.0)
        f, _, _ = dyn.fgh(m, 2.0, 2.0, s)
        assert abs(f) < 1e-13

    @staticmethod
    def spec_keyed_inverse_residual(x, eps, alpha, sigma, n_nodes):
        # the inverse residual as each iterate's own mixture spec gives it:
        # fresh node data for N(0, v_g) and N(m_o, 1), bypassing the cache
        lv, lm = x
        offset = math.exp(min(lm, 709.0))
        if abs(lv) > 30.0 or not offset <= dyn.MIXTURE_LIMIT:
            return None
        build = dyn._component_nodes.__wrapped__
        _, g_gen, h_gen, *sums_gen = dyn._component_sums(
            0.0, alpha, sigma, 1.0 - eps,
            build("gaussian", 0.0, math.exp(lv), n_nodes), jacobian=True)
        _, g_out, h_out, *sums_out = dyn._component_sums(
            0.0, alpha, sigma, eps, build("gaussian", offset, 1.0, n_nodes),
            jacobian=True)
        j_gen = dyn._flow_jacobian(alpha, sigma, 0.0, sums_gen)
        j_out = dyn._flow_jacobian(alpha, sigma, 0.0, sums_out)
        return ((g_gen + g_out + dyn.delta_psi(alpha), h_gen + h_out),
                [[-j_gen[1][2], -offset * j_out[1][0]],
                 [-j_gen[2][2], -offset * j_out[2][0]]])

    @pytest.mark.parametrize("alpha, sigma, eps", [
        (2.0, 2.0, dyn.DEFAULT_VERIFY_EPS), (6.0, 1.0, (0.01, 0.005, 0.0025))])
    def test_scaled_unit_rule_is_bitwise_the_spec_rule(self, monkeypatch,
                                                      alpha, sigma, eps):
        got = repr(dyn.verify_mean_exponential(alpha, sigma, eps_seq=eps))
        monkeypatch.setattr(dyn, "_inverse_residual",
                            self.spec_keyed_inverse_residual)
        assert got == repr(dyn.verify_mean_exponential(alpha, sigma,
                                                       eps_seq=eps))

    def test_inverse_rows_reuse_the_cached_unit_rule(self):
        # the inverse Newton iterates build no node data of their own; only
        # the mean roots' mixtures, one pair per row, are new to the cache
        info = dyn._component_nodes.cache_info
        dyn._component_nodes.cache_clear()
        dyn.verify_variance_correction(2.0, 2.0)
        assert info().misses <= 2
        dyn.verify_mean_exponential(2.0, 2.0)
        before = info().misses
        dyn.verify_mean_exponential(2.0, 2.0)
        assert info().misses - before <= 2
