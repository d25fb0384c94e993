"""Bias/variance frontier of the three bias-constrained estimators.

Sweeps the regularization strength for each Schatten index on a small fixed
design and prints the attained bias norm C = ||LX - I||_p next to the
variance proxy Tr(L L^T)/2.  The Nuclear estimator traces the lowest
variance at any given nuclear bias budget, and likewise for the other two
norms, which is the content of the extended Gauss-Markov theorem.
"""

import numpy as np

from schattenreg import (
    SchattenIndex,
    estimator_operator,
    operator_diagnostics,
)
from schattenreg.cv import MODEL_NAMES

X = np.diag(np.sqrt(np.arange(1.0, 11.0)))

print(f"{'alpha':>10} {'p':>9} {'bias C':>10} {'variance':>10}")
for p in SchattenIndex:
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0, 9.0):
        L = estimator_operator(X, p, alpha)
        c, var = operator_diagnostics(L, X, p)
        print(f"{alpha:>10.2f} {MODEL_NAMES[p]:>9} {c:>10.4f} {var:>10.4f}")
    print()

# At a matched nuclear bias budget, the nuclear estimator attains the lowest
# variance of the three, by construction.  For the other two estimators the
# strength whose bias has that nuclear norm is found by bisection.
from scipy.optimize import brentq

budget = 2.0


def nuclear_bias_at(p, alpha):
    L = estimator_operator(X, p, alpha)
    return operator_diagnostics(L, X, SchattenIndex.NUCLEAR)[0]


print(f"variance at nuclear bias C = {budget}:")
for p in SchattenIndex:
    alpha = brentq(lambda a: nuclear_bias_at(p, a) - budget, 1e-9, 1e6)
    L = estimator_operator(X, p, alpha)
    _, var = operator_diagnostics(L, X, p)
    print(f"  {MODEL_NAMES[p]:>9}: alpha {alpha:8.4f}, variance {var:.4f}")
