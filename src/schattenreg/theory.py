"""Thermodynamic-limit test-error curves for the three estimators.

The one entry point is error_integrals(models, measure, alphas, lam).  A
random-matrix ensemble enters the theory only through its limiting spectral
measure, passed as a value that owns its Gauss rule: MarchenkoPastur(lam) for
spherical Gaussian features, PowerLaw(gamma) or Atoms(grid, weights) on
[0, 1] for the diagonal/Stiefel ensemble.  The engine calls
measure.rule(alphas, n), so a new measure is a new rule, and asks its kind
only to check a MarchenkoPastur measure's lam.  Which ensemble takes which
measure is the caller's choice, and nothing here reads an ensemble's name.
lam = d/N is the error's prefactor, and the error is lam (beta^2 A + sigma^2 B),
the bias and the variance, one form summed over the nodes x of every rule:

    A = sum w_b q^2,    B = sum w_v r^2,    (r, q) = SchattenIndex.shrinkage(x, alpha).

r = x / f_alpha(x) is the share of x that the estimator keeps and q = 1 - r
the share it drops; both are bounded and take their limits at x = 0.  Each
rule states its bias and variance weights: dMP(x) and x^-1 dMP(x) for MP,
whose test covariance is I, and x mu(x) and mu(x) for a measure mu of the
diagonal ensemble, whose test covariance is diag(x).  One Gauss rule per
measure, alpha block and node count serves every estimator: its nodes and
weights never depend on p.  The engine integrates A and B of all of them
against it before the next block (one ErrorIntegrals each); every
(beta, sigma) is then a weighted sum of the two.

The engine checks the whole alpha grid once, with shrinkage's own check, and
each block then calls shrinkage's unchecked core; only a grid holding 0 or inf
enters NumPy's error state for the 0/0 and inf/inf quotients at those alphas.

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
  above the floor, the point below which the measure holds e^-50 of its mass.
  The Radau rule is built for gamma up to 1033, where the mass of its Jacobi
  weight still fits in a float; a larger gamma raises InvalidConfig.
- Atoms: the exact weighted sum over the atoms, except that an atom at x = 0
  carries no error: the estimator gives its direction weight 0, and its test
  features are 0 there too.

MP and the power law share one panel rule, _PanelRule, and declare only their
panels, their cut t(alpha) and the split of one panel at t.  Its edge rows, at
the first panel's start and the last panel's end, are cached read-only per
measure and node count; a row copies each panel that t does not cut from the
edge row on its side.  MP's t = theta(alpha) is 0 at alpha <= lo and pi/2 at
alpha >= hi (inf included); the power law's t = m is 1 at alpha >= 1 and at 0.
A block whose every t lies at one edge (16 of the 22 MP rules of a default
basin curve at lam 0.5) gets one writable (1, K) copy of that edge row, which
broadcasts against the (k, 1) alphas as Atoms' one row does.  This is exact:
each node and weight is computed element by element from its own panel's
endpoints, so a copied row is bit for bit the row built for it.

Each rule runs with n and 2n nodes per panel, for A and B alike.  Per
(beta, sigma) the 2n value of beta^2 A + sigma^2 B is returned, and its gap to
the n value above 1e-9 max(beta^2, sigma^2, |Q_2n|) raises QuadratureFailure:
the bound of a direct integral of the error, checked on the combination and
not on A and B apart.
Every Gauss rule comes from one Golub-Welsch builder: the nodes are the eigenvalues
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

from .exceptions import (DomainError, InvalidConfig, QuadratureFailure, _check_array, _check_reals,
                         _check_scales)
from .spectrum import SchattenIndex, _check_alpha, _check_models

__all__ = [
    "Atoms",
    "ErrorIntegrals",
    "MarchenkoPastur",
    "PowerLaw",
    "appell_f1",
    "err_nuclear_closed",
    "err_spectral_closed",
    "error_integrals",
    "mp_cdf",
    "mp_partial_moment",
    "mp_pdf",
    "oracle_ridge_alpha",
]

# Gauss nodes per panel of the coarse rule; the fine rule uses twice as many.
_NODES = 32
# Alphas per block: bounds the (block, nodes) temporaries, and so peak memory.
# Per node count a block allocates its rule (three (block, K) arrays, or one
# (3, 1, K) edge copy) and, per model, the filter's quotients r and q with the
# one or two (block, K) arrays behind them; each is squared and weighted in
# place, but for Spectral's (block, 1) r and q.  At 48 the largest, (48, 256)
# float64 of the 2n-node MP rule, is 96 KiB, below glibc's 128 KiB mmap
# threshold; glibc still trims the heap top as a block's temporaries are
# freed, so the next block faults some of them in again.
_BLOCK = 48
# The largest power-law exponent whose Gauss-Radau rule can be built: just
# above it (at 1033.014), the mass 2^(gamma+1) / (gamma+1) of the Jacobi
# weight (1 + t)^gamma overflows a float.
_GAMMA_MAX = 1033.0


class _PanelRule:
    """A Gauss rule of fixed panels, each split in two at the cut t(alpha).  A
    measure declares _panels(), tuples (start, end, ...); _cut(alpha), t per
    row of the (k, 1) alpha; and _split(panel, t, n), one panel's nodes x and
    bias and variance weights split at the (k, 1) t in it: (k, 2n) arrays."""

    @lru_cache(maxsize=64)
    def _edge_rows(self, n: int):
        """Nodes x and bias and variance weights of the rows at the first
        panel's start and the last panel's end, each panel split at its own
        start or end: a read-only (3, 2, 2n per panel) array."""
        parts = [self._split(p, np.array([[p[0]], [p[1]]]), n) for p in self._panels()]
        rows = np.array([np.hstack(a) for a in zip(*parts)])
        rows.flags.writeable = False
        return rows

    def rule(self, alpha: np.ndarray, n: int):
        """Nodes x and bias and variance weights per row of the (k, 1) alpha:
        writable (k, 2n per panel) arrays, or (1, 2n per panel) ones, which
        broadcast against alpha, when every t lies at one edge."""
        t, panels = self._cut(alpha), self._panels()
        edges = self._edge_rows(n)
        for side, at_edge in enumerate((t <= panels[0][0], t >= panels[-1][1])):
            if at_edge.all():
                return tuple(edges[:, side, None].copy())
        # A panel that t does not cut splits at its start or its end, as in the
        # edge row on that side: its columns are copied.
        high = t >= np.repeat([p[1] for p in panels], 2 * n)
        out = tuple(np.where(high, edge[1], edge[0]) for edge in edges)
        for i, panel in enumerate(panels):
            rows = np.flatnonzero((panel[0] < t) & (t < panel[1]))
            if rows.size:
                for a, cut in zip(out, self._split(panel, t[rows], n)):
                    a[rows, 2 * n * i:2 * n * (i + 1)] = cut
        return out


@dataclass(frozen=True)
class MarchenkoPastur(_PanelRule):
    """MP law with aspect ratio lam = d/N in (0, 1); support [(1-sqrt)^2, (1+sqrt)^2]."""

    lam: float
    label = "MP"  # the rule's name in a QuadratureFailure; unannotated, so not a field

    def __post_init__(self):
        _check_reals(self, "lam", admits=lambda v: 0.0 < v < 1.0, what="in (0, 1)")

    @property
    def support_lo(self) -> float:
        # (1 - sqrt(lam))^2 without the cancellation of 1 - sqrt(lam) as lam -> 1.
        return ((1.0 - self.lam) / (1.0 + np.sqrt(self.lam))) ** 2

    @property
    def support_hi(self) -> float:
        return (1.0 + np.sqrt(self.lam)) ** 2

    def _panels(self) -> tuple[tuple[float, float, bool], ...]:
        """The base theta panels (start, end, uniform in ln(theta)): linear on
        [0, theta_e], log on [theta_e, pi/2]."""
        lo, span = self.support_lo, self.support_hi - self.support_lo
        theta_e = min(0.5 * np.pi, 4.0 * np.sqrt(lo / span))
        return ((0.0, theta_e, False), (theta_e, 0.5 * np.pi, True))

    def _cut(self, alpha):
        """theta(alpha): 0 for every alpha <= lo, pi/2 for every alpha >= hi."""
        lo, span = self.support_lo, self.support_hi - self.support_lo
        return np.arcsin(np.sqrt(np.clip((alpha - lo) / span, 0.0, 1.0)))

    def _split(self, panel, theta, n: int):
        """Nodes x, bias weights dMP(x) and variance weights x^-1 dMP(x): one
        theta panel split at the (k, 1) theta into two n-node Legendre halves."""
        lo, span = self.support_lo, self.support_hi - self.support_lo
        a, b, log = panel
        thetas, weights = zip(*(_legendre_panel(p, q, n, log) for p, q in ((a, theta), (theta, b))))
        s, c = np.sin(np.hstack(thetas)), np.cos(np.hstack(thetas))
        x = lo + span * s * s
        # dMP = (hi - lo)^2 2 sin^2 cos^2 / (2 pi lam x) dtheta; x^-1 dMP for the variance.
        w_b = np.hstack(weights) * span * span * (s * c) ** 2 / (np.pi * self.lam * x)
        return x, w_b, w_b / x


@dataclass(frozen=True)
class PowerLaw(_PanelRule):
    """The measure gamma x^(gamma-1) dx on [0, 1], gamma > 0; its Gauss rule
    takes gamma up to _GAMMA_MAX, its sampler any gamma."""

    gamma: float
    label = "power-law"

    def __post_init__(self):
        _check_reals(self, "gamma", admits=lambda v: 0.0 < v < np.inf, what="finite and positive")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # Inverse CDF of gamma * x**(gamma-1) on [0, 1].
        return rng.uniform(size=size) ** (1.0 / self.gamma)

    def _panels(self) -> tuple[tuple[float, float], ...]:
        """The one panel of m, [floor, 1]: the measure holds e^-50 of its mass
        below the floor, kept normal, so that x^(gamma-1) stays finite there."""
        return ((max(np.exp(-50.0 / self.gamma), np.finfo(float).tiny), 1.0),)

    def _cut(self, alpha):
        """m(alpha): alpha clipped to the panel, and 1 at alpha = 0 and NaN."""
        # A kink or transition below the floor cannot show, and x^gamma stays
        # smooth enough in ln(x) over [m, 1].  At alpha = 0 every filter is
        # the identity, so [0, 1] is one smooth panel.
        ((lo, hi),) = self._panels()
        return np.where(alpha > 0.0, np.clip(alpha, lo, hi), hi)

    def _split(self, panel, m, n: int):
        """Nodes x and bias and variance weights x w and w, for w the measure's
        weights: Gauss-Radau on [0, m] and log-Legendre on [m, 1], per row of m."""
        s, ws = _radau(n, self.gamma)
        x_low, w_low = m * s, m ** self.gamma * ws
        x_high, w_high = _legendre_panel(m, panel[1], n, log=True)
        w_high = w_high * self.gamma * x_high ** (self.gamma - 1.0)
        x, w = np.hstack([x_low, x_high]), np.hstack([w_low, w_high])
        return x, x * w, w


@dataclass(frozen=True, eq=False)
class Atoms:
    """Atoms at grid points in [0, 1] with weights summing to 1, both stored
    as 1-D float arrays of one shape."""

    grid: np.ndarray
    weights: np.ndarray
    label = "atoms"

    def __post_init__(self):
        g = _check_array(self.grid, "grid", (None,))
        w = _check_array(self.weights, "weights", g.shape)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "weights", w)
        if not np.all(w >= 0):
            raise InvalidConfig("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-10:
            raise InvalidConfig("weights must sum to 1")
        if not np.all((g >= 0) & (g <= 1)):
            raise InvalidConfig("grid must lie in [0, 1]")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.grid[rng.choice(len(self.grid), size=size, p=self.weights)]

    def rule(self, alpha: np.ndarray, n: int):
        """The atoms x and bias and variance weights x w and w, the same for every
        alpha and n, so the sum is exact; an atom at x = 0 weighs 0 in both."""
        w = np.where(self.grid > 0.0, self.weights, 0.0)
        return self.grid, self.grid * w, w


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
    weights over s, and the endpoint takes the rest of the unit mass.  Raises
    InvalidConfig naming gamma above _GAMMA_MAX.

    scipy's Gauss-Jacobi rule for s^(gamma-1) itself is off by 7e-12 at
    gamma = 0.1, from its nodes near s = 0; this one stays within 1e-14.
    """
    _check_reals({"gamma": gamma}, admits=lambda v: v <= _GAMMA_MAX,
                 what=f"at most {_GAMMA_MAX:g} for the power law's Gauss rule")
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


@dataclass(frozen=True)
class ErrorIntegrals:
    """The bias and variance integrals of estimator p on one alpha grid.

    sums is (2, 2, n_alpha): [n nodes, 2n nodes] x [A, B] per panel.  The
    error at (beta, sigma) is lam (beta^2 A + sigma^2 B).
    """

    alphas: np.ndarray
    lam: float
    p: SchattenIndex
    sums: np.ndarray
    what: str  # the rule's name in a QuadratureFailure

    def error(self, beta: float, sigma: float):
        """Error per alpha, the 2n-node value checked against the n-node one;
        a float for a scalar alpha grid; beta and sigma as _check_scales
        admits them."""
        _check_scales({"beta": beta, "sigma": sigma})
        b2, s2 = beta * beta, sigma * sigma
        coarse, fine = b2 * self.sums[:, 0] + s2 * self.sums[:, 1]
        # The error is quadratic in (beta, sigma), and the bound is relative to
        # the integral where that is larger: the spherical error grows like
        # sigma^2 / (1 - lam).
        gap = np.abs(fine - coarse)
        bound = 1e-9 * np.maximum(max(b2, s2), np.abs(fine))
        # Written as the gaps it admits, so a NaN gap fails it.
        if not np.all(gap <= bound):
            k = int(np.argmax(gap - bound))
            raise QuadratureFailure(f"{self.p.name} {self.what} quadrature error estimate "
                                    f"{gap[k]:.2e} above {bound[k]:.2e} "
                                    f"at alpha = {self.alphas.flat[k]:g}")
        out = self.lam * fine
        return float(out[0]) if self.alphas.ndim == 0 else out.reshape(self.alphas.shape)


def error_integrals(models: tuple[SchattenIndex, ...],
                    measure: MarchenkoPastur | PowerLaw | Atoms, alphas,
                    lam: float) -> tuple[ErrorIntegrals, ...]:
    """The bias and variance integrals of each estimator in `models`, in order,
    on a scalar or an array of alphas, against measure.rule with n and 2n
    nodes: each rule is built once and serves every estimator, and the
    integrals every (beta, sigma).  lam = d/N in (0, 1] is the error's
    prefactor; a MarchenkoPastur measure must carry the same lam.  Raises
    ValueError, before any rule is built, unless every alpha >= 0."""
    _check_models(models)
    _check_reals({"lam": lam}, admits=lambda v: 0.0 < v <= 1.0, what="finite and in (0, 1]")
    if isinstance(measure, MarchenkoPastur) and lam != measure.lam:
        raise ValueError(f"lam {lam!r} differs from the MP law's {measure.lam!r}")
    alpha = np.asarray(alphas, dtype=float)
    flat = alpha.ravel()
    edge = _check_alpha(flat)
    sums = np.empty((len(models), 2, 2, flat.size))
    for start in range(0, flat.size, _BLOCK):
        a = flat[start:start + _BLOCK, None]
        for i, n in enumerate((_NODES, 2 * _NODES)):
            x, w_b, w_v = measure.rule(a, n)
            for m, p in enumerate(models):
                r, q = p._shrinkage(x, a, edge)
                for j, (w, f) in enumerate(((w_b, q), (w_v, r))):
                    # Squared and weighted in place, except Spectral's (k, 1) f.
                    f = np.square(f, out=f)
                    f = np.multiply(f, w, out=f if f.shape[-1] == w.shape[-1] else None)
                    sums[m, i, j, start:start + _BLOCK] = np.sum(f, axis=1)
    return tuple(ErrorIntegrals(alpha, lam, p, s, measure.label) for p, s in zip(models, sums))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _check_closed_alpha(alpha: float) -> None:
    """The closed forms' own alpha check, kept apart from
    SchattenIndex.shrinkage so they stay independent of the engine: alpha
    must be >= 0 (inf allowed), so NaN is rejected."""
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")


def err_spectral_closed(alpha: float, lam: float, beta: float, sigma: float) -> float:
    """Spectral-estimator error: (lam beta^2 alpha^2 + lam sigma^2/(1-lam)) / (1+alpha)^2."""
    MarchenkoPastur(lam)  # validates lam
    _check_closed_alpha(alpha)
    _check_scales({"beta": beta, "sigma": sigma})
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
    _check_closed_alpha(alpha)
    _check_scales({"beta": beta, "sigma": sigma})
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
    """The oracle-optimal ridge strength sigma^2 / beta^2, for beta > 0."""
    _check_scales({"beta": beta, "sigma": sigma})
    if beta == 0:
        raise ZeroDivisionError("oracle ridge strength undefined for beta = 0")
    return sigma * sigma / (beta * beta)
