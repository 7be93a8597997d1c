"""The oriented skein algebra of the torus and its symmetrization map.

Basis monomials gamma_v, indexed by integer vectors v = n * (p, q) (n > 0,
(p, q) primitive), are n identically oriented parallel copies of the oriented
primitive curve; the key (0, 0) is the empty curve and the unit.  Superposition
smooths uniquely for oriented strands, so products of monomials are monomials:

    gamma_u * gamma_v = A^(-det2(u, v)) * gamma_(u+v),

the quantum-torus exchange rule.  In particular gamma_v and gamma_(-v) are
mutually inverse.  The orientation-reversal involution theta negates keys; the
symmetrization map psi sends an unoriented multicurve to the sum of all its
orientations and lands in the theta-fixed subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Mapping

from .laurent import LaurentPoly
from .skein import Basis, BasisMismatchError, SkeinElement, TermMap, format_terms
from .torus_curves import EMPTY, UnorientedClass, Vec2, canonicalize, det2, vec_from_json


class AsymmetricElementError(ValueError):
    """Raised when inverting psi on an element not fixed by theta."""

    def __init__(self, witness: Vec2):
        super().__init__(
            f"element is not orientation-symmetric: coefficient at {witness} "
            f"differs from its mirror"
        )
        self.witness = witness


def _key_sort(key: Vec2) -> tuple[int, int, int]:
    # Nonzero keys in lexicographic order, the unit key last.
    return (1, 0, 0) if key == (0, 0) else (0, key[0], key[1])


@dataclass(frozen=True, slots=True)
class OrientedElement(TermMap):
    """A finite R-linear combination of oriented monomials gamma_v."""

    _terms: tuple[tuple[Vec2, LaurentPoly], ...] = field(default=())

    _key_order = staticmethod(_key_sort)
    _normalize_key = staticmethod(lambda key: (int(key[0]), int(key[1])))
    _JSON_KEY = "gamma"
    _key_to_json = staticmethod(lambda key: [key[0], key[1]])
    _key_from_json = staticmethod(vec_from_json)

    @classmethod
    def make(
        cls, terms: Mapping[Vec2, LaurentPoly] | Iterable[tuple[Vec2, LaurentPoly]]
    ) -> "OrientedElement":
        return cls(cls._collect(terms))

    @classmethod
    def zero(cls) -> "OrientedElement":
        return cls(())

    @classmethod
    def unit(cls) -> "OrientedElement":
        return cls.make({(0, 0): LaurentPoly.one()})

    @classmethod
    def gamma(cls, key: Vec2) -> "OrientedElement":
        return cls.make({key: LaurentPoly.one()})

    # ----- algebra structure -----

    def __mul__(self, other: "OrientedElement") -> "OrientedElement":
        out: list[tuple[Vec2, LaurentPoly]] = []
        for u, cu in self._terms:
            for v, cv in other._terms:
                key = (u[0] + v[0], u[1] + v[1])
                out.append((key, (cu * cv).shifted(-det2(u, v))))
        return OrientedElement.make(out)

    def theta(self) -> "OrientedElement":
        """Reverse the orientation of every generator: key v -> -v."""
        return OrientedElement.make([((-k[0], -k[1]), c) for k, c in self._terms])

    def is_symmetric(self) -> bool:
        return self.theta() == self

    # ----- text and JSON forms -----

    def __str__(self) -> str:
        return format_terms(self._terms, key_str=lambda k: f"g({k[0]},{k[1]})")

    @classmethod
    def from_json(cls, data: Mapping) -> "OrientedElement":
        return cls.make(cls._json_terms(data))


def gamma_mul(u: Vec2, v: Vec2) -> OrientedElement:
    """Product of two oriented monomials: A^(-det2(u, v)) * gamma_(u+v)."""
    return OrientedElement.make(
        {(u[0] + v[0], u[1] + v[1]): LaurentPoly.monomial(1, -det2(u, v))}
    )


def psi(x: SkeinElement) -> OrientedElement:
    """Sum-of-all-orientations map on standard-basis elements.

    On the class of n parallel (p, q) curves the 2^n orientation choices
    reduce (opposite parallel pairs cancel at unit coefficient) to
    sum_k C(n, k) gamma_((2k-n)(p,q)); the empty class maps to the unit.
    The closed form is cross-checked against direct enumeration in the tests.
    """
    if x.basis != Basis.STANDARD:
        raise BasisMismatchError("psi expects a standard-basis element")
    out: list[tuple[Vec2, LaurentPoly]] = []
    for key, coeff in x.terms():
        if key.is_empty:
            out.append(((0, 0), coeff))
            continue
        n, prim = key.split()
        for k in range(n + 1):
            s = 2 * k - n
            out.append(((s * prim[0], s * prim[1]), coeff * comb(n, k)))
    return OrientedElement.make(out)


def psi_chebyshev(x: SkeinElement) -> OrientedElement:
    """psi on the Chebyshev basis: the generator at v maps to gamma_v + gamma_-v."""
    if x.basis != Basis.CHEBYSHEV:
        raise BasisMismatchError("psi_chebyshev expects a Chebyshev-basis element")
    out: list[tuple[Vec2, LaurentPoly]] = []
    for key, coeff in x.terms():
        if key.is_empty:
            out.append(((0, 0), coeff))
        else:
            v = key.vec
            out.append((v, coeff))
            out.append(((-v[0], -v[1]), coeff))
    return OrientedElement.make(out)


def psi_inverse(x: OrientedElement) -> SkeinElement:
    """Invert psi on a theta-symmetric element, landing in the Chebyshev basis.

    Each mirror pair {v, -v} with common coefficient c contributes c times the
    Chebyshev generator at the canonical representative; the unit coefficient
    passes to the empty class.  Raises AsymmetricElementError (with a witness
    key) if some mirror coefficient differs.
    """
    terms = dict(x.terms())
    out: list[tuple[UnorientedClass, LaurentPoly]] = []
    for key, coeff in x.terms():
        if key == (0, 0):
            out.append((EMPTY, coeff))
            continue
        mirror = (-key[0], -key[1])
        if terms.get(mirror, LaurentPoly.zero()) != coeff:
            raise AsymmetricElementError(key)
        canonical, flipped = canonicalize(key)
        if not flipped:  # emit each pair once, from its canonical member
            out.append((canonical, coeff))
    return SkeinElement.make(Basis.CHEBYSHEV, out)
