"""Special functions and Gaussian quadrature shared by the numeric modules.

The central object is the function A(alpha), defined for every alpha > 0 as
the unique root of

    (2*alpha + 1) * E[y^2 / (2*(alpha - A) + y^2)] - 1 = 0,    y ~ N(0, 1),

which enters the prognostic variance sigma / (alpha - A(alpha)).  A(alpha)
increases monotonically from 0 to 1 and always satisfies A(alpha) < alpha.

Everything about A is read at x = sqrt(alpha - A), where the expectation
is 1 - R with R = sqrt(pi) x erfcx(x) and the equation inverts in closed
form: alpha = R / (2 (1 - R)), A = W / (1 - R) with W = (R - 2x^2 (1 - R))/2.
Below x = 4 these read Cody's rational forms, and from x = 4 on the
continued fraction of erfcx (A&S 7.1.14), with no cancellation up to the
largest double.  `solve_A` is Newton in ln x on this inverse; `AlphaTable`
interpolates between knots whose values and slopes are closed forms.  The
quadrature residual is a cross-check only: a fixed Hermite rule loses the
integrand once s = 2x^2 leaves its node range.  Nothing here imports
scipy, so `solve-a` and the dynamics commands start on numpy alone.  The
exit-code error types live here, so the CLI need not import `dynamics`
or `net`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class NumericError(RuntimeError):
    """A quadrature or solver produced a non-finite or uncertifiable result."""


class ConditionError(ValueError):
    """A precondition on the contamination mixture is violated."""


class NonConvergenceError(NumericError):
    """A Newton solve failed; the message carries the iterate diagnostics."""


class TrainingDiverged(NumericError):
    """A loss or gradient stopped being finite mid-training; the message
    names the epoch, the batch and the sample."""


def _psi_tail(x: float) -> float:
    """ln(x) - Psi(x) by asymptotic series, exact to roundoff for x >= 20."""
    inv2 = 1.0 / (x * x)
    return 0.5 / x + inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))


def delta_psi(alpha: float) -> float:
    """Psi(alpha) - Psi(alpha + 1/2); strictly negative, increasing to 0.

    Subtracting two digammas loses about 1e-15 absolute, up to 4e-11 of
    the gap itself at alpha = 1e4.  Instead the recurrence
    Psi(x) = Psi(x + 1) - 1/x lifts x to 20, where the gap is a log1p plus
    the difference of two asymptotic tails, with no cancellation.
    """
    if not alpha > 0:
        raise ValueError(f"delta_psi requires alpha > 0, got {alpha!r}")
    x, gap = float(alpha), 0.0
    while x < 20.0:
        gap -= 0.5 / (x * (x + 0.5))
        x += 1.0
    return gap - math.log1p(0.5 / x) - _psi_tail(x) + _psi_tail(x + 0.5)


def _trigamma_tail(x: float) -> float:
    """Psi'(x) - 1/x by asymptotic series, exact to roundoff for x >= 20."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv2 * (0.5 + inv * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (
        1.0 / 42.0 - inv2 * (1.0 / 30.0 - inv2 * 5.0 / 66.0)))))


def delta_trigamma(alpha: float) -> float:
    """Psi'(alpha) - Psi'(alpha + 1/2), the derivative of delta_psi, with no
    subtraction of two trigammas: Psi'(x) = Psi'(x + 1) + 1/x^2 lifts x to
    20, then the gap is 1/2 / (x (x + 1/2)) plus two asymptotic tails."""
    if not alpha > 0:
        raise ValueError(f"delta_trigamma requires alpha > 0, got {alpha!r}")
    x, gap = float(alpha), 0.0
    while x < 20.0:
        gap += (x + 0.25) / (x * (x + 0.5)) ** 2
        x += 1.0
    return (gap + 0.5 / (x * (x + 0.5)) + _trigamma_tail(x)
            - _trigamma_tail(x + 0.5))


_SQRT_PI = math.sqrt(math.pi)


def erfcx(x: float) -> float:
    """exp(x^2) erfc(x) for a float x >= 0, within a few ulp: Cody's (1969)
    rational form from CALERF on [0, 0.46875], written out, and R(x) /
    (sqrt(pi) x) from `_gap_state` beyond."""
    if x <= 0.46875:
        z = x * x
        top = ((((1.85777706184603153e-1 * z + 3.16112374387056560e00) * z
                 + 1.13864154151050156e02) * z + 3.77485237685302021e02) * z
               + 3.20937758913846947e03)
        bottom = ((((z + 2.36012909523441209e01) * z + 2.44024637934444173e02)
                   * z + 1.28261652607737228e03) * z + 2.84423683343917062e03)
        return math.exp(z) * (1.0 - x * top / bottom)
    return _gap_state(x)[0] / (_SQRT_PI * x)


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight pair.

    Both are standardized expectation rules, exactly antisymmetric, with
    weights that sum to 1: a `hermite_rule` over y ~ N(0, 1), a
    `legendre_rule` over y ~ U(-1, 1).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


# Newton passes allowed from the asymptotic starts; for every n up to 1024
# Hermite nodes need 2 and Legendre nodes at most 4
_RULE_NEWTON_CAP = 8


def _mirrored(half, weights, zero_weight, n) -> QuadratureRule:
    """The exactly antisymmetric rule from its positive nodes, ascending;
    an odd n adds the zero node with `zero_weight`."""
    mid = [0.0] if n % 2 else []
    return QuadratureRule(
        np.concatenate((-half[::-1], mid, half)),
        np.concatenate((weights[::-1], [zero_weight] if n % 2 else [],
                        weights)))


def _hermite_ratio(x, n, weights):
    """rho_n = H_n / H_{n-1} at x > 0 by rho_{k+1} = 2x - 2k / rho_k, whose
    coefficients are exact, so no rounded constant biases every weight
    alike; with `weights` also 1 / (n prod_{k<n} rho_k^2 / (2k)), as a
    mantissa and a power of two that underflow cleanly to 0."""
    two_x = 2.0 * x
    rho = two_x
    mantissa, exponent = np.ones_like(x), np.zeros(x.shape, dtype=int)
    for k in range(1, n):
        if weights:
            mantissa, shift = np.frexp(mantissa * (rho * rho / (2 * k)))
            exponent += shift
        rho = two_x - 2 * k / rho
    return rho, np.ldexp(1.0 / (n * mantissa), -exponent) if weights else None


@lru_cache(maxsize=32)
def hermite_rule(n: int) -> QuadratureRule:
    """Standardized Gauss-Hermite rule: exact for E[p(y)], y ~ N(0,1).

    Tricomi's interior approximation (Townsend, Trogdon & Olver 2016)
    starts Newton on psi_n = H_n exp(-x^2/2) / norm, whose psi'' vanishes
    at a root, so it converges cubically, over the positive nodes at once.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    half, nu = n // 2, 2.0 * n + 1.0
    # t - sin t = c from cbrt(6c), below the root of this convex function
    c = (4.0 * half - 4.0 * np.arange(1, half + 1) + 3.0) * math.pi / nu
    t = np.cbrt(6.0 * c)
    for _ in range(6):
        t = t - (t - np.sin(t) - c) / (1.0 - np.cos(t))
    sig = np.cos(0.5 * t) ** 2
    x = np.sqrt(nu * sig - (1.25 / (1.0 - sig) ** 2 - 1.0 / (1.0 - sig)
                            - 0.25) / (3.0 * nu))
    for _ in range(_RULE_NEWTON_CAP):
        rho, _ = _hermite_ratio(x, n, weights=False)
        # psi_n / psi_n' with psi_n' = sqrt(2n) psi_{n-1} - x psi_n
        step = rho / (2 * n - x * rho)
        x = x - step
        if np.all(np.abs(step) <= 1e-8 * x):
            break
    else:
        raise NumericError(f"Hermite nodes did not converge at n={n}")
    rho, weights = _hermite_ratio(x, n, weights=True)
    # d log(weight)/dx = -4x at a root: the weight at the exact root, to
    # first order in the rounded node's residual step
    weights = weights * (1.0 + 4.0 * x * rho / (2 * n - x * rho))
    j = (n - 1) // 2
    return _mirrored(math.sqrt(2.0) * x, weights,
                     4 ** j / (n * math.comb(2 * j, j)), n)


def legendre_rule(n: int) -> QuadratureRule:
    """Standardized Gauss-Legendre rule: exact for E[p(y)], y ~ U(-1, 1).

    Newton on the three-term recurrence from Tricomi's approximation, over
    the positive nodes at once.  The weight 1/((1-x^2) P_n'^2) moves by
    2x/(1-x^2) per unit of node error, 5e-12 for the end node of n = 512
    rounded to a double, so it is taken to first order at the exact root.
    """
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1)
                                                   / (4 * n + 2))
    for _ in range(_RULE_NEWTON_CAP):
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        slope = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / slope
        if np.all(np.abs(step) <= 1e-15):
            break
        x = x - step
    else:
        raise NumericError(f"Legendre nodes did not converge at n={n}")
    one_minus_sq = (1.0 - x) * (1.0 + x)
    weights = 1.0 / (one_minus_sq * slope * slope) * (
        1.0 + 2.0 * x * step / one_minus_sq)
    j = (n - 1) // 2
    return _mirrored((x - step)[::-1], weights[::-1],
                     16 ** j / (n * math.comb(2 * j, j)) ** 2, n)


def gauss_weighted_integral(f, rule: QuadratureRule) -> float:
    """Sum w_i f(y_i) in numpy's fixed pairwise order, which no BLAS kernel
    changes; for a hermite rule this approximates E[f(y)], y~N(0,1)."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    acc = float(np.add.reduce(rule.weights * vals))
    if not math.isfinite(acc):
        raise NumericError("integrand produced a non-finite value at a node")
    return acc


# partial numerators k/2 of the continued fraction below U, innermost
# first, cut at depth 40; from x = 4 on 25 terms already reach 1e-17
_CF_NUMERATORS = tuple(0.5 * k for k in range(40, 2, -1))


def _gap_state(x: float):
    """(R, 1 - R, alpha, A, d ln(alpha - A) / d ln alpha) at x = sqrt(alpha
    - A) >= 0.  From x = 4 on, sqrt(pi) erfcx(x) = 1/(x + (1/2)/T) with T =
    x + 1/U and U = x + (3/2)/(x + 2/(x + ...)); then alpha = x T, A = x / U
    and 1 - R = (1/2)/(1/2 + x T): nothing cancels or overflows."""
    if x >= 4.0:
        u = x
        for numerator in _CF_NUMERATORS:
            u = x + numerator / u
        t = x + 1.0 / u
        xt = x * t
        return xt / (0.5 + xt), 0.5 / (0.5 + xt), xt, x / u, t * u / (0.5 + xt)
    if x == 0.0:
        return 0.0, 1.0, 0.0, 0.0, 2.0
    if x <= 0.46875:
        r = _SQRT_PI * x * erfcx(x)
        c = 1.0 - r
    else:
        # Cody's erfcx on (0.46875, 4] is P/Q, so 1 - R = D/Q with D = Q -
        # sqrt(pi) x P, formed once in 60-digit arithmetic; 1 - R by
        # subtraction would lose up to 1.5 digits as R nears 1
        c = ((((((((((-3.816297601959867e-08 * x + 1.925875836496077e-06) * x
                     - 4.6950524385900875e-05) * x + 0.5007368277548784) * x
                   + 7.864101148327068) * x + 58.169963712043064) * x
                 + 256.2738517866059) * x + 727.1773208563878) * x
               + 1258.6479468114035) * x + 1.23033935480374942e03)
             / ((((((((x + 1.57449261107098347e01) * x
                      + 1.17693950891312499e02) * x + 5.37181101862009858e02)
                    * x + 1.62138957456669019e03) * x + 3.29079923573345963e03)
                  * x + 4.36261909014324716e03) * x + 3.43936767414372164e03)
                * x + 1.23033935480374942e03))
        r = 1.0 - c
    w = 0.5 * (r - 2.0 * x * x * c)
    return r, c, 0.5 * r / c, w / c, r * c / w


def log_gap_slope(s: float) -> float:
    """d ln(alpha - A) / d ln alpha at s = 2*(alpha - A) >= 0: R (1 - R) /
    W with W = E[s y^2/(s + y^2)^2]; it falls from 2 at s = 0 to 1."""
    return _gap_state(math.sqrt(0.5 * s))[4]


def a_equation_residual(alpha: float, a: float) -> float:
    """(2*alpha+1) * E[y^2/(2(alpha-a)+y^2)] - 1, increasing in the trial
    value a, formed as (alpha + 1/2) * 2E - 1 to stay finite at any alpha,
    with E = 1 - R in closed form."""
    return (alpha + 0.5) * (2.0 * _gap_state(math.sqrt(alpha - a))[1]) - 1.0


def _solve_x(alpha: float) -> float:
    """x = sqrt(alpha - A(alpha)) by Newton in ln x on alpha(x), which is
    convex in ln x, from the right of the root, so no bracket is needed:
    the start joins the asymptotes alpha - A ~ alpha and ~ (4/pi) alpha^2.
    A step below 1e-9 leaves an error of order its square; none takes 5.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"solve_A requires a finite alpha > 0, got {alpha!r}")
    alpha = float(alpha)  # a numpy alpha would warn as 2 alpha overflows
    x = min(math.sqrt(alpha), 2.0 * alpha / _SQRT_PI)
    for _ in range(12):
        _, _, alpha_x, _, slope = _gap_state(x)
        step = 0.5 * slope * math.log(alpha_x / alpha)
        x *= math.exp(-step)
        if abs(step) < 1e-9:
            return x
    raise NumericError(f"A(alpha) did not converge at alpha={alpha}")


def solve_A(alpha: float) -> float:
    """A(alpha) = W / (1 - R) at the solved x, with no cancellation."""
    return _gap_state(_solve_x(alpha))[3]


@dataclass(frozen=True)
class AlphaTable:
    """alpha - A(alpha) as a cubic Hermite in ln alpha of ln(alpha - A),
    nearly linear (slope 2 for small alpha, 1 for large), over 512 knots
    spaced uniformly in ln x on [1e-3, 32], so alpha spans [8.9e-4, 1025].
    A knot's alpha and slope are closed forms of its x, so the build
    solves nothing; queries outside the grid are solved directly.
    """

    alphas: np.ndarray
    log_alphas: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)

    @classmethod
    def build(cls) -> "AlphaTable":
        """Column i of `coefficients` holds piece i in powers of
        log(alpha) - log_alphas[i], highest first."""
        x = np.geomspace(1e-3, 32.0, 512)
        states = np.array([_gap_state(float(v)) for v in x])
        alphas, d = states[:, 2], states[:, 4]
        knots, y = np.log(alphas), 2.0 * np.log(x)
        h = np.diff(knots)
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        return cls(alphas, knots,
                   np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def _log_gap(self, q):
        """The interpolant at log-alphas q inside the grid."""
        x, c = self.log_alphas, self.coefficients
        i = np.clip(np.searchsorted(x, q, "right") - 1, 0, len(x) - 2)
        s = q - x[i]
        s2 = s * s
        return ((c[3, i] + c[2, i] * s) + c[1, i] * s2) + c[0, i] * (s2 * s)

    def gap_many(self, alphas) -> np.ndarray:
        """alpha - A(alpha), the quantity the prognostic variance divides
        by, over an array of alphas of any shape, 0-d included."""
        arr = np.asarray(alphas, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("alpha values must be positive")
        out = np.empty_like(arr)
        inside = (arr >= self.alphas[0]) & (arr <= self.alphas[-1])
        if np.any(inside):
            out[inside] = np.exp(self._log_gap(np.log(arr[inside])))
        if not np.all(inside):
            out[~inside] = [_solve_x(a) ** 2 for a in arr[~inside]]
            if not np.all(out > 0.0):
                raise NumericError("alpha - A(alpha) underflows to 0 below "
                                   "alpha = 1.4e-162")
        return out


@lru_cache(maxsize=None)
def alpha_table() -> AlphaTable:
    """Shared lazily-built table (immutable, safe to share across threads)."""
    return AlphaTable.build()
