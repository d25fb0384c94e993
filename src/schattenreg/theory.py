"""Thermodynamic-limit test-error curves for the three estimators.

Two ensembles are covered.  For both, the error is lam times one integrand,
the test error carried by a covariance eigenvalue x,

    e(x) = beta^2 x q^2 + sigma^2 r^2,    (r, q) = SchattenIndex.shrinkage(x, alpha),

integrated against a spectral measure: x^-1 dMP(x) (Marchenko-Pastur) for
spherical Gaussian features, the chosen spectral density on [0, 1] for the
diagonal/Stiefel ensemble.  r = x / f_alpha(x) is the share of x that the
estimator keeps and q = 1 - r the share it drops; both are bounded and take
their limits at x = 0, so e stays finite there.

e is linear in (beta^2, sigma^2): lam beta^2 A(alpha) is the bias, with
integrand x q^2, and lam sigma^2 B(alpha) the variance, with integrand r^2.
The engine integrates A and B once per estimator, ensemble and alpha grid
(ErrorIntegrals); every (beta, sigma) is then a weighted sum of the two.

The integrals are fixed Gauss rules evaluated for a whole alpha grid at once,
as (n_alpha, n_nodes) arrays:

- Marchenko-Pastur: x = lo + (hi - lo) sin^2(theta) removes the square-root
  endpoint singularities.  A linear theta panel on [0, theta_e], with
  theta_e = min(pi/2, 4 sqrt(lo/(hi - lo))), resolves the 1/x scale near lo,
  which sharpens as lam -> 1; Gauss-Legendre in ln(theta) covers the rest.
  Both panels split at theta(alpha), the Nuclear kink and the Ridge
  transition.
- Power law gamma x^(gamma-1): Gauss-Radau for the weight s^(gamma-1) on
  [0, m], Gauss-Legendre in ln(x) on [m, 1], with m = min(alpha, 1) kept
  above the point below which the measure holds e^-50 of its mass.
- A tabulated density is the exact weighted sum over its atoms, except that
  an atom at x = 0 carries no error: the estimator gives its direction weight
  0, and its test features are 0 there too.

Each rule runs with n and 2n nodes per panel, for A and B alike.  Per
(beta, sigma) the 2n value of beta^2 A + sigma^2 B is returned, and its gap to
the n value above 1e-9 max(beta^2, sigma^2, |Q_2n|) raises QuadratureFailure:
the bound of a direct integral of e, checked on the combination and not on A
and B apart.
Every rule comes from one Golub-Welsch builder: the nodes are the eigenvalues
of the Jacobi matrix of the weight (1 - t)^a (1 + t)^b, the weights the
reciprocal Christoffel sums of its orthonormal polynomials.  Nothing here
needs scipy; appell_f1 alone imports scipy.integrate, when called.

The Spectral estimator additionally has an elementary closed form and the
Nuclear estimator a piecewise closed form whose middle branch is built from
partial MP moments expressed through the two-variable Appell hypergeometric
function F1; both are independent of the Gauss rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import SpectralDensity
from .exceptions import DomainError, QuadratureFailure
from .spectrum import SchattenIndex

__all__ = [
    "ErrorIntegrals",
    "MarchenkoPastur",
    "appell_f1",
    "err_diagonal_quadrature",
    "err_nuclear_closed",
    "err_spectral_closed",
    "err_spherical_quadrature",
    "error_integrals",
    "mp_cdf",
    "mp_partial_moment",
    "mp_pdf",
    "oracle_ridge_alpha",
]

# Gauss nodes per panel of the coarse rule; the fine rule uses twice as many.
_NODES = 32
# Alphas per block: bounds the (block, nodes) temporaries, and so peak memory.
# At 48 the largest, (48, 256) float64 of the 2n-node MP rule, is 96 KiB: below
# glibc's 128 KiB mmap threshold, so it is not mapped and page-faulted afresh.
_BLOCK = 48


@dataclass(frozen=True)
class MarchenkoPastur:
    """MP law with aspect ratio lam = d/N in (0, 1); support [(1-sqrt)^2, (1+sqrt)^2]."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("aspect ratio must lie in (0, 1)")

    @property
    def support_lo(self) -> float:
        # (1 - sqrt(lam))^2 without the cancellation of 1 - sqrt(lam) as lam -> 1.
        return ((1.0 - self.lam) / (1.0 + np.sqrt(self.lam))) ** 2

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


def mp_cdf(mp: MarchenkoPastur, x: float) -> float:
    """CDF of the MP law: the partial moment of order 0."""
    if x >= mp.support_hi:
        return 1.0
    return mp_partial_moment(mp, 0, x)


# ---------------------------------------------------------------------------
# Gauss-rule engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule for the weight (1 - t)^a (1 + t)^b on [-1, 1], a, b >= 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic recurrence.  Each weight is 1 / sum_k p_k(t)^2
    over the orthonormal polynomials p_0..p_(n-1): that keeps the tiny weights
    near t = +-1 accurate relative to their size (Legendre at n = 64: 4.5e-13
    from a 40-digit reference), where squared eigenvector components are
    accurate only to about eps absolute.
    """
    s = 2.0 * np.arange(n) + a + b
    k = np.arange(1, n)
    # s = 0 only at k = 0 with a = b = 0, where the diagonal's limit is 0.
    diag = (b - a) * (b + a) / np.where(s > 0, s * (s + 2.0), 1.0)
    sk = s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                  / (sk * sk * (sk + 1.0) * (sk - 1.0)))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    prev, cur = np.zeros(n), np.full(n, 1.0 / math.sqrt(mu0))
    total = cur * cur
    for j in range(n - 1):
        prev, cur = cur, ((t - diag[j]) * cur - (off[j - 1] if j else 0.0) * prev) / off[j]
        total += cur * cur
    return t, 1.0 / total


def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _gauss_jacobi(n, 0.0, 0.0)


@lru_cache(maxsize=64)
def _radau(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Radau rule for gamma s^(gamma-1) ds on [0, 1], fixed node
    at s = 0: the Gauss-Jacobi nodes of the weight s^gamma carry that rule's
    weights over s, and the endpoint takes the rest of the unit mass.

    scipy's Gauss-Jacobi rule for s^(gamma-1) itself is off by 7e-12 at
    gamma = 0.1, from its nodes near s = 0; this one stays within 1e-14.
    """
    y, w = _gauss_jacobi(n - 1, 0.0, gamma)
    w = gamma * 0.5 ** gamma * w / (1.0 + y)
    return np.append(0.0, 0.5 * (1.0 + y)), np.append(1.0 - w.sum(), w)


def _legendre_panel(a, b, n: int, log: bool):
    """n Gauss-Legendre nodes and weights on [a, b] for each row of the
    (k, 1) or scalar endpoints, uniform in ln(t) when `log` (then a > 0)."""
    t, w = _legendre(n)
    if log:
        a, b = np.log(a), np.log(b)
    half = 0.5 * (b - a)
    nodes = a + half * (1.0 + t)
    weights = half * w
    if log:
        nodes = np.exp(nodes)
        weights = weights * nodes
    return nodes, weights


def _mp_rule(mp: MarchenkoPastur, alpha: np.ndarray, n: int):
    """Nodes x and weights of the measure x^-1 dMP(x), per alpha row."""
    lo, span = mp.support_lo, mp.support_hi - mp.support_lo
    theta_e = min(0.5 * np.pi, 4.0 * np.sqrt(lo / span))
    theta_alpha = np.arcsin(np.sqrt(np.clip((alpha - lo) / span, 0.0, 1.0)))
    thetas, weights = [], []
    for a, b, log in ((0.0, theta_e, False), (theta_e, 0.5 * np.pi, True)):
        cut = np.clip(theta_alpha, a, b)
        for lo_, hi_ in ((a, cut), (cut, b)):
            th, w = _legendre_panel(lo_, hi_, n, log)
            thetas.append(th)
            weights.append(w)
    s, c = np.sin(np.hstack(thetas)), np.cos(np.hstack(thetas))
    x = lo + span * s * s
    # dMP = (hi - lo)^2 2 sin^2 cos^2 / (2 pi lam x) dtheta, times x^-1.
    w = np.hstack(weights) * span * span * (s * c) ** 2 / (np.pi * mp.lam * x * x)
    return x, w


def _density_rule(density: SpectralDensity, alpha: np.ndarray, n: int):
    """Nodes x and weights of the density's measure, per alpha row."""
    if density.kind == "tabulated":
        return density.grid, np.where(density.grid > 0.0, density.weights, 0.0)
    gamma = density.gamma
    # The split point m never drops below where the measure holds e^-50 of
    # its mass: a kink or transition under that cannot show, and x^gamma stays
    # smooth enough in ln(x) over [m, 1].  At alpha = 0 every filter is the
    # identity, so [0, 1] is one smooth panel.
    m = np.where(alpha > 0.0, np.clip(alpha, np.exp(-50.0 / gamma), 1.0), 1.0)
    s, ws = _radau(n, gamma)
    x_low, w_low = m * s, m ** gamma * ws
    x_high, w_high = _legendre_panel(m, 1.0, n, log=True)
    w_high = w_high * gamma * x_high ** (gamma - 1.0)
    return np.hstack([x_low, x_high]), np.hstack([w_low, w_high])


def _bias_variance(p: SchattenIndex, alpha: np.ndarray, x):
    """The integrands x q^2 of A and r^2 of B."""
    r, q = p.shrinkage(x, alpha)
    # Squared in place: each (block, nodes) temporary is a fresh allocation.
    return x * np.square(q, out=q), np.square(r, out=r)


@dataclass(frozen=True)
class ErrorIntegrals:
    """The bias and variance integrals of one estimator on one alpha grid.

    sums is (2, 2, n_alpha): [n nodes, 2n nodes] x [A, B] per panel.  The
    error at (beta, sigma) is lam (beta^2 A + sigma^2 B).
    """

    alphas: np.ndarray
    lam: float
    sums: np.ndarray
    what: str  # the rule's name in a QuadratureFailure

    def error(self, beta: float, sigma: float):
        """Error per alpha, the 2n-node value checked against the n-node one;
        a float for a scalar alpha grid."""
        b2, s2 = beta * beta, sigma * sigma
        coarse, fine = b2 * self.sums[:, 0] + s2 * self.sums[:, 1]
        # The error is quadratic in (beta, sigma), and the bound is relative to
        # the integral where that is larger: the spherical error grows like
        # sigma^2 / (1 - lam).
        gap = np.abs(fine - coarse)
        bound = 1e-9 * np.maximum(max(b2, s2), np.abs(fine))
        if np.any(gap > bound):
            k = int(np.argmax(gap - bound))
            raise QuadratureFailure(f"{self.what} quadrature error estimate {gap[k]:.2e} "
                                    f"above {bound[k]:.2e} at alpha = {self.alphas.flat[k]:g}")
        out = self.lam * fine
        return float(out[0]) if self.alphas.ndim == 0 else out.reshape(self.alphas.shape)


def _integrals(p, alpha, lam, rule, what) -> ErrorIntegrals:
    """A and B for each alpha against rule(alpha, n), with n and 2n nodes."""
    alpha = np.asarray(alpha, dtype=float)
    flat = alpha.ravel()
    sums = np.empty((2, 2, flat.size))
    for start in range(0, flat.size, _BLOCK):
        a = flat[start:start + _BLOCK, None]
        for i, n in enumerate((_NODES, 2 * _NODES)):
            x, w = rule(a, n)
            for j, f in enumerate(_bias_variance(p, a, x)):
                sums[i, j, start:start + _BLOCK] = np.sum(w * f, axis=1)
    return ErrorIntegrals(alpha, lam, sums, what)


def _spherical_integrals(p: SchattenIndex, alpha, lam: float) -> ErrorIntegrals:
    mp = MarchenkoPastur(lam)
    return _integrals(p, alpha, lam, lambda a, n: _mp_rule(mp, a, n), "MP")


def _diagonal_integrals(p: SchattenIndex, alpha, lam: float,
                        density: SpectralDensity) -> ErrorIntegrals:
    return _integrals(p, alpha, lam, lambda a, n: _density_rule(density, a, n), "diagonal")


def err_spherical_quadrature(p: SchattenIndex, alpha, lam: float, beta: float,
                             sigma: float):
    """Average test error under the spherical Gaussian ensemble, for a scalar
    or an array of alphas."""
    return _spherical_integrals(p, alpha, lam).error(beta, sigma)


def err_diagonal_quadrature(p: SchattenIndex, alpha, lam: float, beta: float,
                            sigma: float, density: SpectralDensity):
    """Average test error under the diagonal/Stiefel ensemble, for a scalar or
    an array of alphas."""
    return _diagonal_integrals(p, alpha, lam, density).error(beta, sigma)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def err_spectral_closed(alpha: float, lam: float, beta: float, sigma: float) -> float:
    """Spectral-estimator error: (lam beta^2 alpha^2 + lam sigma^2/(1-lam)) / (1+alpha)^2."""
    MarchenkoPastur(lam)  # validates lam
    if np.isinf(alpha):
        return lam * beta * beta
    num = lam * beta * beta * alpha * alpha + lam * sigma * sigma / (1.0 - lam)
    return num / (1.0 + alpha) ** 2


def appell_f1(a: float, b: float, b_prime: float, c: float, x: float, y: float) -> float:
    """Appell F1 via its one-dimensional Euler integral.

    F1 = Gamma(c) / (Gamma(a) Gamma(c-a)) *
         int_0^1 u^(a-1) (1-u)^(c-a-1) (1-ux)^(-b) (1-uy)^(-b') du,
    valid for a > 0 and c - a > 0; this also serves as the analytic
    continuation to x < -1 needed by the Nuclear error formula.  quad is asked
    for 1e-12 relative, and an error estimate above 1e-10 relative raises
    QuadratureFailure.
    """
    if a <= 0 or c - a <= 0:
        raise DomainError("Euler integral requires a > 0 and c - a > 0")
    if (x > 1 or (x == 1 and b > 0)) or (y > 1 or (y == 1 and b_prime > 0)):
        raise DomainError("integrand has a pole on the path for x or y >= 1")
    # Imported here, its only use, so that `import schattenreg` skips scipy.integrate.
    from scipy.integrate import quad

    def integrand(u: float) -> float:
        return (
            u ** (a - 1.0)
            * (1.0 - u) ** (c - a - 1.0)
            * (1.0 - u * x) ** (-b)
            * (1.0 - u * y) ** (-b_prime)
        )

    val, err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=300)
    if val != 0.0 and err > 1e-10 * abs(val):
        raise QuadratureFailure(f"F1 quadrature relative error {err / abs(val):.2e}")
    return math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a)) * val


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
    partial moments I(r, alpha) for r in {-1, 0, 1, 2} assemble the answer.
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
    i0, i1, i2, im1 = (mp_partial_moment(mp, r, alpha) for r in (0, 1, 2, -1))
    return lam * (
        b2 * i0
        + (s2 / alpha**2 - 2.0 * b2 / alpha) * i1
        + b2 / alpha**2 * i2
        + s2 * (1.0 / (1.0 - lam) - im1)
    )


def oracle_ridge_alpha(beta: float, sigma: float) -> float:
    """The oracle-optimal ridge strength sigma^2 / beta^2."""
    if beta == 0:
        raise ZeroDivisionError("oracle ridge strength undefined for beta = 0")
    return sigma * sigma / (beta * beta)


def error_integrals(p: SchattenIndex, ensemble: str, alphas, lam: float,
                    gamma: float | None = None) -> ErrorIntegrals:
    """The bias and variance integrals on a grid of alpha values: one pass
    that serves every (beta, sigma)."""
    if ensemble == "spherical":
        return _spherical_integrals(p, alphas, lam)
    if ensemble == "diagonal":
        if gamma is None:
            raise ValueError("diagonal ensemble requires gamma, a power-law exponent")
        return _diagonal_integrals(p, alphas, lam, SpectralDensity.power_law(gamma))
    raise ValueError(f"unknown ensemble {ensemble!r}")

