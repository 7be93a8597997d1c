"""Elements of the Kauffman bracket skein module of the torus.

Two bases are supported.  In the standard basis, the class (a, b) is the
multicurve of gcd(a, b) parallel copies of the primitive (a/g, b/g) curve and
the empty curve is the unit.  In the Chebyshev basis, the generator indexed by
(a, b) is T_g evaluated at the primitive class (g = gcd), where powers of a
curve are parallel copies; the empty curve again plays the role of 1.

Multiplication of Chebyshev generators is the product-to-sum formula of
Frohman and Gelca,

    (a,b)_T * (c,d)_T = A^det (a-c, b-d)_T + A^-det (a+c, b+d)_T,

with det = a*d - b*c.  Output indices are canonicalized into the half-plane
(both orientations of a multicurve give the same unoriented class) and the
degenerate index (0, 0)_T stands for 2 * empty.  Standard-basis products are
computed by converting to the Chebyshev basis and back; each way checks
every degree it needs against chebyshev.MAX_DEGREE before it expands a class.

Products, like oriented products, add every term pair into one bare
{exponent: coeff} map per output key with laurent.add_product and wrap each
map in a LaurentPoly once, at the end.  Basis changes add whole
coefficients with laurent.accumulate: a coefficient that lands alone on its
key, unscaled, is passed through as the same object, which is every
primitive class's.  A standard-basis element made by ``to_standard`` keeps
the Chebyshev element it was expanded from, and ``to_chebyshev`` returns it,
so a chain of standard products, and psi of one, converts each operand once.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter

from . import chebyshev
from .laurent import (
    ONE, ZERO, LaurentPoly, accumulate, add_product, check_bound, join_signed, quoted, signed_monomial,
    wrap_nonzero,
)
from .torus_curves import EMPTY, UnorientedClass, Vec2, canonicalize


class Basis(str, Enum):
    STANDARD = "standard"
    CHEBYSHEV = "chebyshev"


class BasisMismatchError(ValueError):
    pass


class TermMap:
    """Shared core of SkeinElement and OrientedElement: a finite linear
    combination of keys with coefficients in Z[A, A^-1].

    Subclasses are frozen dataclasses whose ``_terms`` field holds (key,
    nonzero LaurentPoly) pairs as ``finish_terms`` leaves them: the keys in
    their own order and the unit key ``_UNIT`` last.  They also name the
    key's JSON field and forms.
    """

    __slots__ = ()

    @classmethod
    def _collect(cls, terms) -> tuple:
        """Merge equal keys (``accumulate``), then finish the terms.

        A key seen once keeps its coefficient as it is; a repeated key sums
        into a bare map.
        """
        acc: dict = {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if type(coeff) is not LaurentPoly:
                coeff = ZERO + coeff
            accumulate(acc, key, coeff)
        return tuple(finish_terms(acc, cls._UNIT))

    def _check_compatible(self, other) -> None:
        """Raise if ``other`` cannot be added to this element."""

    # ----- term access -----

    def terms(self) -> tuple:
        return self._terms

    def coefficient(self, key) -> LaurentPoly:
        terms, unit = self._terms, self._UNIT
        has_unit = bool(terms) and terms[-1][0] == unit
        if key == unit:
            return terms[-1][1] if has_unit else ZERO
        i = bisect_left(terms, key, 0, len(terms) - has_unit, key=itemgetter(0))
        if i < len(terms) and terms[i][0] == key:
            return terms[i][1]
        return ZERO

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> tuple:
        return tuple(k for k, _ in self._terms)

    # ----- module structure -----

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compatible(other)
        return replace(self, _terms=self._collect(self._terms + other._terms))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, factor: LaurentPoly | int):
        return self.map_coefficients(lambda c: c * factor)

    def map_coefficients(self, fn):
        """``fn`` applied to every coefficient; a key whose result is 0 goes.
        The keys stay distinct and sorted, so nothing is merged."""
        out = []
        for k, c in self._terms:
            c = fn(c)
            if type(c) is not LaurentPoly:
                c = ZERO + c
            if c:
                out.append((k, c))
        return replace(self, _terms=tuple(out))

    # ----- JSON form -----

    def to_json(self) -> dict:
        key_json = self._key_to_json
        return {"terms": [{self._JSON_KEY: key_json(k), "coeff": c.to_json()} for k, c in self._terms]}

    @classmethod
    def _json_terms(cls, data: object) -> list:
        """The (key, coeff) pairs of an element's JSON form, shape-checked."""
        return [
            (
                _json_field(t, cls._JSON_KEY, f"terms[{i}]", cls._key_from_json),
                _json_field(t, "coeff", f"terms[{i}]", LaurentPoly.from_json),
            )
            for i, t in enumerate(_json_field(data, "terms", "", _json_list))
        ]


def _json_list(data: object) -> list:
    if not isinstance(data, list):
        raise ValueError(f"expected a list, got {quoted(data)}")
    return data


def _json_field(data: object, name: str, path: str, parse):
    """``parse(data[name])``; a malformed part raises ValueError naming its
    path, such as ``terms[0].gamma``."""
    where = f"{path}.{name}" if path else name
    if not isinstance(data, Mapping):
        raise ValueError(f"{path or 'element'}: expected a JSON object, got {quoted(data)}")
    if name not in data:
        raise ValueError(f"{where}: missing")
    try:
        return parse(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True, slots=True)
class SkeinElement(TermMap):
    """A finite R-linear combination of curve classes, tagged with its basis."""

    basis: Basis
    _terms: tuple[tuple[UnorientedClass, LaurentPoly], ...] = field(default=())
    # Set once, by to_standard only: the Chebyshev element this one expands.
    _chebyshev: SkeinElement | None = field(default=None, init=False, compare=False, repr=False)

    _UNIT = EMPTY
    _JSON_KEY = "class"
    _key_to_json = staticmethod(UnorientedClass.to_json)
    _key_from_json = staticmethod(UnorientedClass.from_json)

    @classmethod
    def make(
        cls,
        basis: Basis,
        terms: Mapping[UnorientedClass, LaurentPoly] | Iterable[tuple[UnorientedClass, LaurentPoly]],
    ) -> "SkeinElement":
        return cls(Basis(basis), cls._collect(terms))

    @classmethod
    def zero(cls, basis: Basis) -> "SkeinElement":
        return cls(Basis(basis), ())

    @classmethod
    def unit(cls, basis: Basis) -> "SkeinElement":
        return cls(Basis(basis), ((EMPTY, ONE),))

    @classmethod
    def generator(cls, key: UnorientedClass, basis: Basis) -> "SkeinElement":
        return cls(Basis(basis), ((key, ONE),))

    def _check_compatible(self, other: "SkeinElement") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(f"cannot combine {self.basis.value} with {other.basis.value}")

    # ----- basis change -----

    def to_chebyshev(self) -> "SkeinElement":
        """Rewrite a standard-basis element over the Chebyshev generators."""
        if self.basis != Basis.STANDARD:
            raise BasisMismatchError("to_chebyshev expects a standard-basis element")
        if self._chebyshev is not None:
            return self._chebyshev
        for key, _ in self._terms:
            check_bound("multiplicity", key.multiplicity, limit=chebyshev.MAX_DEGREE, limit_name="Chebyshev degree limit")
        return self._expand(Basis.CHEBYSHEV, lambda n: chebyshev.power_to_chebyshev(n).items())

    def to_standard(self) -> "SkeinElement":
        """Expand Chebyshev generators into standard multicurve classes."""
        if self.basis != Basis.CHEBYSHEV:
            raise BasisMismatchError("to_standard expects a Chebyshev-basis element")
        for key, _ in self._terms:
            check_bound("Chebyshev index", key.multiplicity, limit=chebyshev.MAX_DEGREE, limit_name="Chebyshev degree limit")
        out = self._expand(Basis.STANDARD, lambda n: enumerate(chebyshev.chebyshev_t(n)))
        object.__setattr__(out, "_chebyshev", self)
        return out

    def _expand(self, target: Basis, expansion) -> "SkeinElement":
        # expansion(n) yields (j, c): the n-fold key is sum c * (j-fold key) in
        # the target basis, for the same primitive; the empty key is fixed.
        maps: dict = {}
        for key, coeff in self._terms:
            if key.is_empty:
                accumulate(maps, None, coeff)
                continue
            n, (p, q) = key.split()
            for j, c in expansion(n):
                if c:
                    accumulate(maps, (j * p, j * q) if j else None, coeff, c)
        return from_vec_maps(target, maps)

    # ----- multiplication -----

    def __mul__(self, other: "SkeinElement") -> "SkeinElement":
        self._check_compatible(other)
        if self.basis == Basis.CHEBYSHEV:
            return _mul_chebyshev(self, other)
        return _mul_chebyshev(self.to_chebyshev(), other.to_chebyshev()).to_standard()

    # ----- text and JSON forms -----

    def __str__(self) -> str:
        return format_terms(self._terms, self._UNIT, suffix="_T" if self.basis == Basis.CHEBYSHEV else "")

    def to_json(self) -> dict:
        return {"basis": self.basis.value, **TermMap.to_json(self)}

    @classmethod
    def from_json(cls, data: Mapping) -> "SkeinElement":
        return cls.make(_json_field(data, "basis", "", Basis), cls._json_terms(data))


def chebyshev_generator(vec: Vec2) -> SkeinElement:
    """The Chebyshev generator indexed by ``vec``; at (0, 0) it is T_0 = 2 * empty."""
    key = canonicalize(vec)[0]
    return SkeinElement(Basis.CHEBYSHEV, ((key, LaurentPoly.monomial(2 if vec == (0, 0) else 1, 0)),))


def chebyshev_of(vec: Vec2) -> SkeinElement:
    """Standard-basis expansion of the Chebyshev generator indexed by ``vec``."""
    return chebyshev_generator(vec).to_standard()


def _mul_chebyshev(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    # Keys are canonical vectors, None for the empty class.  Each pair's
    # coefficient product is added at A^det to (u - v) and at A^-det to
    # (u + v), straight from the two operands' maps; (0, 0)_T lands on the
    # empty class twice over.
    maps: dict = {}
    ys = [(k.vec, c._terms) for k, c in y._terms]
    for xkey, xc in x._terms:
        u, xt = xkey.vec, xc._terms
        for v, yt in ys:
            if u is None or v is None:  # the empty class is the unit
                add_product(maps.setdefault(v if u is None else u, {}), xt, yt)
                continue
            d = u[0] * v[1] - u[1] * v[0]
            for w, shift in (((u[0] - v[0], u[1] - v[1]), d), ((u[0] + v[0], u[1] + v[1]), -d)):
                scale = 1
                if w[0] < 0 or (w[0] == 0 and w[1] <= 0):
                    if w[0] or w[1]:
                        w = (-w[0], -w[1])
                    else:
                        w, scale = None, 2
                add_product(maps.setdefault(w, {}), xt, yt, shift, scale)
    return from_vec_maps(Basis.CHEBYSHEV, maps)


def from_vec_maps(basis: Basis, maps: dict) -> SkeinElement:
    """The element whose coefficients are the values of ``maps`` (bare maps or
    LaurentPolys), keyed by canonical vector (None: the empty class)."""
    terms = finish_terms(maps, None)
    return SkeinElement(basis, tuple([(EMPTY if v is None else UnorientedClass(v), c) for v, c in terms]))


def finish_terms(maps: dict, unit) -> list:
    """The (key, LaurentPoly) terms of ``maps``, whose values are LaurentPolys
    or bare maps (wrapped here): zero coefficients dropped, the keys in their
    own order and the ``unit`` key last.  Every element is finished here, so
    this is both elements' term order.  Takes the unit out of ``maps``."""
    last = maps.pop(unit, None)
    items = sorted(maps.items(), key=itemgetter(0))
    if last is not None:
        items.append((unit, last))
    out = []
    for key, c in items:
        if type(c) is dict:
            c = wrap_nonzero(c)
        if c:
            out.append((key, c))
    return out


def format_terms(terms, unit, suffix: str = "", key_str=str) -> str:
    """Shared pretty-printer: ``coeff key`` terms joined by signs.

    Single-term coefficients print bare (``A^-1 (1,1)``), multi-term ones are
    parenthesized; unit coefficients are dropped; the ``unit`` key prints as
    a constant term.
    """
    parts = []
    for key, coeff in terms:
        name = "" if key == unit else key_str(key) + suffix
        items = coeff.terms()
        if len(items) == 1:
            sign, body = signed_monomial(*items[0])
            if name:
                body = name if body == "1" else f"{body} {name}"
            parts.append((sign, body))
        else:
            body = f"({join_signed([signed_monomial(*item) for item in items])})"
            if name:
                body = f"{body} {name}"
            parts.append(("+", body))
    return join_signed(parts)
