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
computed by converting to the Chebyshev basis and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping

from . import chebyshev
from .laurent import ZERO, LaurentPoly
from .torus_curves import EMPTY, UnorientedClass, Vec2, canonicalize, det2


class Basis(str, Enum):
    STANDARD = "standard"
    CHEBYSHEV = "chebyshev"


class BasisMismatchError(ValueError):
    pass


class TermMap:
    """Shared core of SkeinElement and OrientedElement: a finite linear
    combination of keys with coefficients in Z[A, A^-1].

    Subclasses are frozen dataclasses whose ``_terms`` field holds (key,
    nonzero LaurentPoly) pairs sorted by ``_key_order``; they also name the
    key's JSON field and forms.
    """

    __slots__ = ()

    _normalize_key = None

    @classmethod
    def _collect(cls, terms) -> tuple:
        """Merge equal keys, drop zero coefficients and sort by key order."""
        acc: dict = {}
        normalize = cls._normalize_key
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if normalize is not None:
                key = normalize(key)
            c = acc.get(key, ZERO) + coeff
            if c.is_zero:
                acc.pop(key, None)
            else:
                acc[key] = c
        order = cls._key_order
        return tuple(sorted(acc.items(), key=lambda kv: order(kv[0])))

    def _like(self, terms):
        """An element of the same kind (and basis) with the given raw terms."""
        return replace(self, _terms=self._collect(terms))

    def _check_compatible(self, other) -> None:
        """Raise if ``other`` cannot be added to this element."""

    # ----- term access -----

    def terms(self) -> tuple:
        return self._terms

    def coefficient(self, key) -> LaurentPoly:
        for k, c in self._terms:
            if k == key:
                return c
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
        return self._like(self._terms + other._terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, factor: LaurentPoly | int):
        return self._like([(k, c * factor) for k, c in self._terms])

    def map_coefficients(self, fn):
        return self._like([(k, fn(c)) for k, c in self._terms])

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
        raise ValueError(f"expected a list, got {data!r}")
    return data


def _json_field(data: object, name: str, path: str, parse):
    """``parse(data[name])``; a malformed part raises ValueError naming its
    path, such as ``terms[0].gamma``."""
    where = f"{path}.{name}" if path else name
    if not isinstance(data, Mapping):
        raise ValueError(f"{path or 'element'}: expected a JSON object, got {data!r}")
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

    _key_order = staticmethod(UnorientedClass.sort_key)
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
        return cls.make(basis, {EMPTY: LaurentPoly.one()})

    @classmethod
    def generator(cls, key: UnorientedClass, basis: Basis) -> "SkeinElement":
        return cls.make(basis, {key: LaurentPoly.one()})

    def _check_compatible(self, other: "SkeinElement") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(f"cannot combine {self.basis.value} with {other.basis.value}")

    # ----- basis change -----

    def to_chebyshev(self) -> "SkeinElement":
        """Rewrite a standard-basis element over the Chebyshev generators."""
        if self.basis != Basis.STANDARD:
            raise BasisMismatchError("to_chebyshev expects a standard-basis element")
        return self._expand(Basis.CHEBYSHEV, lambda n: chebyshev.power_to_chebyshev(n).items())

    def to_standard(self) -> "SkeinElement":
        """Expand Chebyshev generators into standard multicurve classes."""
        if self.basis != Basis.CHEBYSHEV:
            raise BasisMismatchError("to_standard expects a Chebyshev-basis element")
        return self._expand(Basis.STANDARD, lambda n: enumerate(chebyshev.chebyshev_t(n)))

    def _expand(self, target: Basis, expansion) -> "SkeinElement":
        # expansion(n) yields (j, c): the n-fold key is sum c * (j-fold key) in
        # the target basis, for the same primitive; the empty key is fixed.
        out: list[tuple[UnorientedClass, LaurentPoly]] = []
        for key, coeff in self._terms:
            if key.is_empty:
                out.append((key, coeff))
                continue
            n, prim = key.split()
            for j, c in expansion(n):
                if c:
                    jkey = EMPTY if j == 0 else UnorientedClass((j * prim[0], j * prim[1]))
                    out.append((jkey, coeff * c))
        return SkeinElement.make(target, out)

    # ----- multiplication -----

    def __mul__(self, other: "SkeinElement") -> "SkeinElement":
        self._check_compatible(other)
        if self.basis == Basis.CHEBYSHEV:
            return _mul_chebyshev(self, other)
        return _mul_chebyshev(self.to_chebyshev(), other.to_chebyshev()).to_standard()

    # ----- text and JSON forms -----

    def __str__(self) -> str:
        return format_terms(self._terms, suffix="_T" if self.basis == Basis.CHEBYSHEV else "")

    def to_json(self) -> dict:
        return {"basis": self.basis.value, **TermMap.to_json(self)}

    @classmethod
    def from_json(cls, data: Mapping) -> "SkeinElement":
        return cls.make(_json_field(data, "basis", "", Basis), cls._json_terms(data))


def chebyshev_of(vec: Vec2) -> SkeinElement:
    """Standard-basis expansion of the Chebyshev generator indexed by ``vec``.

    (0, 0) is allowed and expands to T_0 at the degenerate class, i.e. 2 * empty.
    """
    if vec == (0, 0):
        return SkeinElement.unit(Basis.STANDARD).scaled(2)
    key = canonicalize(vec)[0]
    return SkeinElement.generator(key, Basis.CHEBYSHEV).to_standard()


def _generator_product(u: Vec2, v: Vec2) -> list[tuple[UnorientedClass, LaurentPoly]]:
    d = det2(u, v)
    out: list[tuple[UnorientedClass, LaurentPoly]] = []
    for sign, w in ((1, (u[0] - v[0], u[1] - v[1])), (-1, (u[0] + v[0], u[1] + v[1]))):
        coeff = LaurentPoly.monomial(1, sign * d)
        if w == (0, 0):
            out.append((EMPTY, coeff * 2))  # (0,0)_T stands for 2 * empty
        else:
            out.append((canonicalize(w)[0], coeff))
    return out


def _mul_chebyshev(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    out: list[tuple[UnorientedClass, LaurentPoly]] = []
    for xkey, xc in x.terms():
        for ykey, yc in y.terms():
            c = xc * yc
            if xkey.is_empty and ykey.is_empty:
                out.append((EMPTY, c))
            elif xkey.is_empty:
                out.append((ykey, c))
            elif ykey.is_empty:
                out.append((xkey, c))
            else:
                for key, factor in _generator_product(xkey.vec, ykey.vec):
                    out.append((key, c * factor))
    return SkeinElement.make(Basis.CHEBYSHEV, out)


def format_terms(terms, suffix: str = "", key_str=str) -> str:
    """Shared pretty-printer: ``coeff key`` terms joined by signs.

    Single-term coefficients print bare (``A^-1 (1,1)``), multi-term ones are
    parenthesized; unit coefficients are dropped; the empty/unit key prints as
    a constant term.
    """
    if not terms:
        return "0"
    parts = []
    for key, coeff in terms:
        is_unit_key = getattr(key, "is_empty", False) or key == (0, 0)
        name = "" if is_unit_key else key_str(key) + suffix
        items = coeff.terms()
        if len(items) == 1:
            exp, c = items[0]
            sign = "-" if c < 0 else "+"
            mono = "" if exp == 0 else ("A" if exp == 1 else f"A^{exp}")
            body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}{mono}")
            if name:
                body = name if body == "1" else f"{body} {name}"
            parts.append((sign, body))
        else:
            body = f"({coeff})"
            if name:
                body = f"{body} {name}"
            parts.append(("+", body))
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
