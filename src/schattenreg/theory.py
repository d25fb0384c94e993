"""Thermodynamic-limit test-error curves for the three estimators.

Two ensembles are covered.  Under spherical Gaussian features the error is an
integral against the Marchenko-Pastur law; under the diagonal/Stiefel
ensemble it is an integral against the chosen spectral density on [0, 1].
Quadrature is the primary route; the Spectral estimator additionally has an
elementary closed form and the Nuclear estimator a piecewise closed form
whose middle branch is built from partial MP moments expressed through the
two-variable Appell hypergeometric function F1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .ensembles import SpectralDensity
from .exceptions import DomainError, QuadratureFailure
from .spectrum import SchattenIndex

__all__ = [
    "MarchenkoPastur",
    "TheoryCurve",
    "appell_f1",
    "err_diagonal_quadrature",
    "err_nuclear_closed",
    "err_spectral_closed",
    "err_spherical_quadrature",
    "mp_cdf",
    "mp_partial_moment",
    "mp_pdf",
    "oracle_ridge_alpha",
    "spherical_error_fn",
    "diagonal_error_fn",
    "theory_curve",
]

_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class MarchenkoPastur:
    """MP law with aspect ratio lam = d/N in (0, 1); support [(1-sqrt)^2, (1+sqrt)^2]."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("aspect ratio must lie in (0, 1)")

    @property
    def support_lo(self) -> float:
        return (1.0 - np.sqrt(self.lam)) ** 2

    @property
    def support_hi(self) -> float:
        return (1.0 + np.sqrt(self.lam)) ** 2


def mp_pdf(mp: MarchenkoPastur, x) -> np.ndarray | float:
    """MP density sqrt((hi - x)(x - lo)) / (2 pi lam x), zero off support."""
    x = np.asarray(x, dtype=float)
    lo, hi = mp.support_lo, mp.support_hi
    inside = (x > lo) & (x < hi)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * np.pi * mp.lam * xi)
    return out if out.ndim else float(out)


def _mp_expect(mp: MarchenkoPastur, g, lo: float | None = None, hi: float | None = None,
               scale: float = 1.0) -> float:
    """Integral of g against the MP measure over [lo, hi] (defaults: support).

    Substituting x = lo + (hi - lo) sin^2(theta) removes the square-root
    endpoint singularities, leaving a smooth integrand in theta.  `scale` is
    the size of g; tolerances are relative to it (see `_quad_scaled`).
    """
    a, b = mp.support_lo, mp.support_hi
    lo = a if lo is None else max(lo, a)
    hi = b if hi is None else min(hi, b)
    if hi <= lo:
        return 0.0
    span = b - a

    def theta_of(x: float) -> float:
        return float(np.arcsin(np.sqrt(np.clip((x - a) / span, 0.0, 1.0))))

    def integrand(theta: float) -> float:
        s, c = np.sin(theta), np.cos(theta)
        x = a + span * s * s
        w = span * span * 2.0 * (s * c) ** 2 / (2.0 * np.pi * mp.lam * x)
        return g(x) * w

    return _quad_scaled(integrand, theta_of(lo), theta_of(hi), scale, "MP")


def _quad_scaled(f, a: float, b: float, scale: float, what: str, points=None) -> float:
    """Adaptive quadrature of an integrand of size `scale`.

    An error estimate above 1e-9 * scale raises QuadratureFailure.  Below
    scale 1 the absolute tolerance shrinks with the integrand, so accuracy
    stays relative; from scale 1 up the relative tolerance governs.
    """
    val, err = quad(f, a, b, epsabs=_QUAD_TOL * min(1.0, scale), epsrel=_QUAD_TOL,
                    limit=200, points=points)
    if err > 1e-9 * scale:
        raise QuadratureFailure(
            f"{what} quadrature error estimate {err:.2e} above {1e-9 * scale:.2e}")
    return val


def mp_cdf(mp: MarchenkoPastur, x: float) -> float:
    """CDF of the MP law, by adaptive quadrature of the density."""
    if x <= mp.support_lo:
        return 0.0
    if x >= mp.support_hi:
        return 1.0
    return _mp_expect(mp, lambda _: 1.0, hi=x)


def _spherical_integrand(p: SchattenIndex, alpha: float, beta: float, sigma: float):
    """x -> beta^2 (1 - x/f)^2 + sigma^2 x / f^2 with f = f_alpha(x), written
    per case to avoid indeterminate forms at x = 0."""
    b2, s2 = beta * beta, sigma * sigma
    if p is SchattenIndex.SPECTRAL:
        shrink = alpha / (1.0 + alpha)

        def h(x):
            return b2 * shrink * shrink + s2 / ((1.0 + alpha) ** 2 * x)
    elif p is SchattenIndex.FROBENIUS:

        def h(x):
            f = x + alpha
            return b2 * (alpha / f) ** 2 + s2 * x / (f * f)
    else:

        def h(x):
            if x >= alpha:
                return s2 / x
            return b2 * (1.0 - x / alpha) ** 2 + s2 * x / (alpha * alpha)

    return h


def err_spherical_quadrature(
    p: SchattenIndex, alpha: float, lam: float, beta: float, sigma: float
) -> float:
    """Average test error under the spherical Gaussian ensemble."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    mp = MarchenkoPastur(lam)
    if np.isinf(alpha):
        if p is SchattenIndex.SPECTRAL:
            return lam * beta * beta
        return lam * beta * beta  # filter kills the signal, OLS variance term -> 0
    h = _spherical_integrand(p, alpha, beta, sigma)
    scale = max(beta * beta, sigma * sigma)  # the error is quadratic in (beta, sigma)
    if p is SchattenIndex.NUCLEAR and mp.support_lo < alpha < mp.support_hi:
        # Kink of max(x, alpha) at x = alpha: integrate the two pieces separately.
        return lam * (_mp_expect(mp, h, hi=alpha, scale=scale)
                      + _mp_expect(mp, h, lo=alpha, scale=scale))
    return lam * _mp_expect(mp, h, scale=scale)


def err_spectral_closed(alpha: float, lam: float, beta: float, sigma: float) -> float:
    """Spectral-estimator error: (lam beta^2 alpha^2 + lam sigma^2/(1-lam)) / (1+alpha)^2."""
    MarchenkoPastur(lam)  # validates lam
    if np.isinf(alpha):
        return lam * beta * beta
    num = lam * beta * beta * alpha * alpha + lam * sigma * sigma / (1.0 - lam)
    return num / (1.0 + alpha) ** 2


def appell_f1(a: float, b: float, b_prime: float, c: float, x: float, y: float,
              tol: float = 1e-12) -> float:
    """Appell F1 via its one-dimensional Euler integral.

    F1 = Gamma(c) / (Gamma(a) Gamma(c-a)) *
         int_0^1 u^(a-1) (1-u)^(c-a-1) (1-ux)^(-b) (1-uy)^(-b') du,
    valid for a > 0 and c - a > 0; this also serves as the analytic
    continuation to x < -1 needed by the Nuclear error formula.
    """
    if a <= 0 or c - a <= 0:
        raise DomainError("Euler integral requires a > 0 and c - a > 0")
    if (x > 1 or (x == 1 and b > 0)) or (y > 1 or (y == 1 and b_prime > 0)):
        raise DomainError("integrand has a pole on the path for x or y >= 1")

    def integrand(u: float) -> float:
        return (
            u ** (a - 1.0)
            * (1.0 - u) ** (c - a - 1.0)
            * (1.0 - u * x) ** (-b)
            * (1.0 - u * y) ** (-b_prime)
        )

    val, err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=tol, limit=300)
    if val != 0.0 and err > 1e-10 * abs(val):
        raise QuadratureFailure(f"F1 quadrature relative error {err / abs(val):.2e}")
    coef = np.exp(gammaln(c) - gammaln(a) - gammaln(c - a))
    return float(coef * val)


def mp_partial_moment(mp: MarchenkoPastur, r: int, alpha: float) -> float:
    """I(r, alpha) = int_{lo}^{alpha} x^r dMP(x), via the F1 representation.

    Substituting u = (x - lo)/(alpha - lo) into the density integral gives a
    Beta-type kernel that is exactly the Euler integral of
    F1(3/2, 1-r, -1/2, 5/2; 1 - alpha/lo, (alpha - lo)/(hi - lo)).
    """
    lo, hi = mp.support_lo, mp.support_hi
    if alpha <= lo:
        return 0.0
    alpha = min(alpha, hi)
    f1 = appell_f1(1.5, 1.0 - r, -0.5, 2.5, 1.0 - alpha / lo, (alpha - lo) / (hi - lo))
    pref = (alpha - lo) ** 1.5 * lo ** (r - 1.0) * np.sqrt(hi - lo)
    # 2/3 = int_0^1 sqrt(u) du restores the Euler-integral normalization.
    return float(pref * (2.0 / 3.0) * f1 / (2.0 * np.pi * mp.lam))


def err_nuclear_closed(alpha: float, lam: float, beta: float, sigma: float) -> float:
    """Nuclear-estimator error, piecewise over the MP support.

    Below the support the filter is inactive and the error is the OLS value;
    above it the moments of the MP law give a rational expression; inside,
    partial moments I(r, alpha) for r in {-1, 1, 2} plus the MP CDF assemble
    the answer.
    """
    mp = MarchenkoPastur(lam)
    b2, s2 = beta * beta, sigma * sigma
    lo, hi = mp.support_lo, mp.support_hi
    if np.isinf(alpha):
        return lam * b2
    if alpha <= lo:
        return s2 * lam / (1.0 - lam)
    if alpha >= hi:
        # Full MP moments: m1 = 1, m2 = 1 + lam, m(-1) = 1/(1-lam).
        return lam * (
            b2 - 2.0 * b2 / alpha + (b2 * (1.0 + lam) + s2) / (alpha * alpha)
        )
    i1 = mp_partial_moment(mp, 1, alpha)
    i2 = mp_partial_moment(mp, 2, alpha)
    im1 = mp_partial_moment(mp, -1, alpha)
    cdf = mp_cdf(mp, alpha)
    return lam * (
        b2 * cdf
        + (s2 / alpha**2 - 2.0 * b2 / alpha) * i1
        + b2 / alpha**2 * i2
        + s2 * (1.0 / (1.0 - lam) - im1)
    )


def _diagonal_integrand(p: SchattenIndex, alpha: float, beta: float, sigma: float):
    """x -> beta^2 x (1 - x/f)^2 + sigma^2 x^2 / f^2 per estimator case."""
    b2, s2 = beta * beta, sigma * sigma
    if p is SchattenIndex.SPECTRAL:
        shrink = alpha / (1.0 + alpha)

        def h(x):
            return b2 * x * shrink * shrink + s2 / (1.0 + alpha) ** 2
    elif p is SchattenIndex.FROBENIUS:

        def h(x):
            f = x + alpha
            return b2 * x * (alpha / f) ** 2 + s2 * (x / f) ** 2
    else:

        def h(x):
            if x >= alpha:
                return s2
            return b2 * x * (1.0 - x / alpha) ** 2 + s2 * (x / alpha) ** 2

    return h


def err_diagonal_quadrature(
    p: SchattenIndex,
    alpha: float,
    lam: float,
    beta: float,
    sigma: float,
    density: SpectralDensity,
) -> float:
    """Average test error under the diagonal/Stiefel ensemble."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    h = _diagonal_integrand(p, alpha, beta, sigma)
    if np.isinf(alpha):
        if p is SchattenIndex.SPECTRAL:
            return lam * beta * beta * density.mean()
        h = lambda x: beta * beta * x  # noqa: E731 - filter kills the signal

    if density.kind == "tabulated":
        return lam * float(np.sum(density.weights * np.vectorize(h)(density.grid)))

    gamma = density.gamma

    def weighted(x: float) -> float:
        return h(x) * gamma * x ** (gamma - 1.0)

    points = None
    if p is SchattenIndex.NUCLEAR and not np.isinf(alpha) and 0.0 < alpha < 1.0:
        points = [alpha]
    return lam * _quad_scaled(weighted, 0.0, 1.0, max(beta * beta, sigma * sigma),
                              "diagonal", points=points)


def oracle_ridge_alpha(beta: float, sigma: float) -> float:
    """The oracle-optimal ridge strength sigma^2 / beta^2."""
    if beta == 0:
        raise ZeroDivisionError("oracle ridge strength undefined for beta = 0")
    return sigma * sigma / (beta * beta)


def spherical_error_fn(p: SchattenIndex, lam: float, beta: float, sigma: float):
    """Error curve alpha -> Err_p(alpha) for the spherical ensemble."""
    return lambda a: err_spherical_quadrature(p, a, lam, beta, sigma)


def diagonal_error_fn(
    p: SchattenIndex, lam: float, beta: float, sigma: float, density: SpectralDensity
):
    """Error curve alpha -> Err_p(alpha) for the diagonal ensemble."""
    return lambda a: err_diagonal_quadrature(p, a, lam, beta, sigma, density)


@dataclass(frozen=True)
class TheoryCurve:
    estimator: SchattenIndex
    ensemble: str  # "spherical" | "diagonal"
    alphas: np.ndarray
    errors: np.ndarray
    lam: float
    beta: float
    sigma: float
    gamma: float | None = None

    def __post_init__(self):
        if self.alphas.shape != self.errors.shape:
            raise ValueError("alphas and errors must have the same length")
        if np.any(self.errors < 0):
            raise ValueError("errors must be nonnegative")


def theory_curve(
    p: SchattenIndex,
    ensemble: str,
    alphas: np.ndarray,
    lam: float,
    beta: float,
    sigma: float,
    gamma: float | None = None,
) -> TheoryCurve:
    """Evaluate the predicted error on a grid of alpha values."""
    alphas = np.asarray(alphas, dtype=float)
    if ensemble == "spherical":
        fn = spherical_error_fn(p, lam, beta, sigma)
    elif ensemble == "diagonal":
        if gamma is None:
            raise ValueError("diagonal ensemble requires a power-law exponent")
        fn = diagonal_error_fn(p, lam, beta, sigma, SpectralDensity.power_law(gamma))
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    errors = np.array([fn(a) for a in alphas])
    return TheoryCurve(p, ensemble, alphas, errors, lam, beta, sigma, gamma)
