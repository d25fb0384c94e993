"""Schatten-norm bias-constrained linear estimators and their error theory.

Three estimators arise from bounding the Schatten-p norm of the bias
operator LX - I: Nuclear (p=1, eigenvalue clipping), Frobenius (p=2, ridge
regression), and Spectral (p=inf, scalar shrinkage).  The package provides
the closed-form fits, a numeric convex-optimization oracle, exact
generalization-error curves under two random-matrix ensembles, loss-basin
geometry analysis, and a reproducible cross-validation benchmark harness.

Each module's __all__ is the one list of its public names, and every name
in them is bound here; spectrum has no __all__, so its three are named.
"""

from .basin import *
from .cv import *
from .ensembles import *
from .estimators import *
from .oracle import *
from .rff import *
from .spectrum import GramSpectrum, SchattenIndex, gram_spectrum
from .theory import *

__version__ = "0.1.0"
