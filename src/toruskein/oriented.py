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
from typing import Iterable, Mapping

from .laurent import ONE, LaurentPoly, add_product, quoted
from .skein import Basis, BasisMismatchError, SkeinElement, TermMap, finish_terms, format_terms
from .torus_curves import EMPTY, UnorientedClass, Vec2, canonicalize, det2, vec_from_json


class AsymmetricElementError(ValueError):
    """Raised when inverting psi on an element not fixed by theta."""

    def __init__(self, witness: Vec2):
        super().__init__(
            f"element is not orientation-symmetric: coefficient at {quoted(witness)} "
            f"differs from its mirror"
        )
        self.witness = witness


@dataclass(frozen=True, slots=True)
class OrientedElement(TermMap):
    """A finite R-linear combination of oriented monomials gamma_v."""

    _terms: tuple[tuple[Vec2, LaurentPoly], ...] = field(default=())

    _UNIT = (0, 0)
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
        return cls((((0, 0), ONE),))

    @classmethod
    def gamma(cls, key: Vec2) -> "OrientedElement":
        return cls((((int(key[0]), int(key[1])), ONE),))

    # ----- algebra structure -----

    def __mul__(self, other: "OrientedElement") -> "OrientedElement":
        maps: dict[Vec2, dict[int, int]] = {}
        for (a, b), cu in self._terms:
            ut = cu._terms
            for (c, d), cv in other._terms:
                add_product(maps.setdefault((a + c, b + d), {}), ut, cv._terms, b * c - a * d)
        return OrientedElement(tuple(finish_terms(maps, (0, 0))))

    def theta(self) -> "OrientedElement":
        """Reverse the orientation of every generator: key v -> -v."""
        return OrientedElement.make([((-k[0], -k[1]), c) for k, c in self._terms])

    # ----- text and JSON forms -----

    def __str__(self) -> str:
        return format_terms(self._terms, self._UNIT, key_str=lambda k: f"g({k[0]},{k[1]})")

    @classmethod
    def from_json(cls, data: Mapping) -> "OrientedElement":
        return cls.make(cls._json_terms(data))


def gamma_mul(u: Vec2, v: Vec2) -> OrientedElement:
    """Product of two oriented monomials: A^(-det2(u, v)) * gamma_(u+v)."""
    return OrientedElement((((u[0] + v[0], u[1] + v[1]), LaurentPoly.monomial(1, -det2(u, v))),))


def psi(x: SkeinElement) -> OrientedElement:
    """Sum-of-all-orientations map on standard-basis elements.

    The n parallel (p, q) curves are X^n at the primitive class, and
    T_n(gamma + gamma^-1) = gamma^n + gamma^-n, so psi is ``psi_chebyshev``
    after ``to_chebyshev``; a product's kept Chebyshev form is read as it is.
    The tests cross-check it against the enumeration of all 2^n orientations.
    """
    if x.basis != Basis.STANDARD:
        raise BasisMismatchError("psi expects a standard-basis element")
    return psi_chebyshev(x.to_chebyshev())


def psi_chebyshev(x: SkeinElement) -> OrientedElement:
    """psi on the Chebyshev basis: the generator at v maps to gamma_v + gamma_-v.

    Distinct canonical classes give distinct keys, so nothing is merged.
    """
    if x.basis != Basis.CHEBYSHEV:
        raise BasisMismatchError("psi_chebyshev expects a Chebyshev-basis element")
    maps: dict = {}
    for key, coeff in x.terms():
        if key.is_empty:
            maps[(0, 0)] = coeff
        else:
            v = key.vec
            maps[v] = maps[(-v[0], -v[1])] = coeff
    return OrientedElement(tuple(finish_terms(maps, (0, 0))))


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
