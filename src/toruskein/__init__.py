"""Exact computer algebra for the Kauffman bracket skein algebra of the torus.

Multicurve classes on the torus, Laurent-polynomial coefficients, the
product-to-sum multiplication in the Chebyshev basis, the oriented skein
algebra with its symmetrization isomorphism, a definitional smoothing oracle
that certifies the fast paths, and a planar PD-code bracket evaluator.
"""

from .bracket_planar import PDCode, kauffman_bracket, mirror
from .chebyshev import chebyshev_t, power_to_chebyshev
from .laurent import DELTA, LaurentPoly, ParseError
from .oriented import (
    AsymmetricElementError,
    OrientedElement,
    gamma_mul,
    psi,
    psi_chebyshev,
    psi_inverse,
)
from .skein import Basis, BasisMismatchError, SkeinElement, chebyshev_of
from .smoothing_oracle import (
    Arrangement,
    BudgetExceededError,
    build_arrangement,
    oriented_product,
    unoriented_product,
)
from .torus_curves import EMPTY, UnorientedClass, canonicalize, det2, split_signed

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "AsymmetricElementError",
    "Basis",
    "BasisMismatchError",
    "BudgetExceededError",
    "DELTA",
    "EMPTY",
    "LaurentPoly",
    "OrientedElement",
    "ParseError",
    "PDCode",
    "SkeinElement",
    "UnorientedClass",
    "build_arrangement",
    "canonicalize",
    "chebyshev_of",
    "chebyshev_t",
    "det2",
    "gamma_mul",
    "kauffman_bracket",
    "mirror",
    "oriented_product",
    "power_to_chebyshev",
    "psi",
    "psi_chebyshev",
    "psi_inverse",
    "split_signed",
    "unoriented_product",
]
