"""Exact arithmetic in the ring of integer Laurent polynomials Z[A, A^-1].

Every coefficient in this package -- skein elements, bracket values, oriented
monomials -- lives in this ring.  Values are immutable and hashable, the zero
polynomial is the empty term map, and no zero coefficient is ever stored, so
equality is plain term-map equality.

Text form: terms ``[sign] [coeff] ["A" ["^" [sign] exponent]]``, one ``_TERM``
each, numbers in ASCII digits.  Every term but the first has a sign, each has a
coefficient or an ``A``, and whitespace may sit between any two parts but not
inside a number.  Terms print in ascending exponent order (``"-A^-2 - A^2"`` is
the circle value delta).  JSON form: an object mapping exponent strings (ASCII
``-?[0-9]+``) to integer coefficients, e.g. ``{"-2": -1, "2": -1}``.

Polynomial ``+`` and ``*`` and the fast algebra accumulate into bare
{exponent: coeff} maps with one loop, ``add_product``, and turn each finished
map into a polynomial once with ``wrap_nonzero``, which drops its zeros.  The
smoothing oracle's two state sums add their own weights, A-shifted delta
powers from ``smoothing_oracle._DELTA_POWERS``, so they share no loop with
the fast algebra.  Sums of whole coefficients (basis changes, psi, merging
equal keys) go through ``accumulate``, which keeps a coefficient that lands
once, unscaled, as the same object and copies it only when a second one
lands on its key.

Every resource bound (crossing budgets, the dump limit, verify's coordinate
limit, Chebyshev degrees) is refused by one helper, ``check_bound``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

_TERM = re.compile(r"\s*([+-]?)\s*([0-9]*)\s*(?:(A)\s*(?:\^\s*([+-]?)\s*([0-9]*))?)?\s*")


class ParseError(ValueError):
    """Malformed polynomial text.  ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LaurentPoly:
    """An element of Z[A, A^-1] stored as one map exponent -> nonzero
    coefficient, in fill order; whatever shows an order sorts by exponent."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        for exp, coeff in items:
            acc[exp] = acc.get(exp, 0) + coeff
        self._terms = _nonzero(acc)

    # ----- constructors -----

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        """coeff * A^exp, or zero when coeff == 0."""
        return _wrap({exp: coeff}) if coeff else _ZERO

    @classmethod
    def delta(cls) -> "LaurentPoly":
        """The value of a trivial unoriented circle, -A^2 - A^-2."""
        return _DELTA

    # ----- ring structure -----

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        acc = dict(self._terms)
        add_product(acc, _coerce(other)._terms)
        return wrap_nonzero(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        acc: dict[int, int] = {}
        add_product(acc, self._terms, _coerce(other)._terms)
        return wrap_nonzero(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[A, A^-1]")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (negate every exponent)."""
        return _wrap({-e: c for e, c in self._terms.items()})

    # ----- queries -----

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return tuple(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int (see __eq__), so it must hash like one.
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return hash(frozenset(terms.items()))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms())

    # ----- text and JSON forms -----

    def __str__(self) -> str:
        return join_signed([signed_monomial(exp, coeff) for exp, coeff in self.terms()])

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the text grammar; raises ParseError with a position on bad input."""
        if not text.strip():
            raise ParseError("empty polynomial text", len(text))
        terms, i = [], 0
        while i < len(text):
            m = _TERM.match(text, i)
            sign, digits, a, exp_sign, exp = m.groups()
            if terms and not sign:
                raise ParseError("expected '+' or '-' between terms", i)
            if not (digits or a):
                raise ParseError("expected coefficient or 'A'", m.end())
            coeff = _signed(m, sign, 2) if digits else int(sign + "1")
            if exp == "":
                raise ParseError("expected exponent after '^'", m.start(5))
            terms.append((_signed(m, exp_sign, 5) if exp else 1 if a else 0, coeff))
            i = m.end()
        return cls(terms)

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self.terms()}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPoly":
        """Read the JSON form: keys ASCII ``-?[0-9]+``, values JSON integers;
        anything else raises ValueError naming the first bad entry."""
        if not isinstance(data, Mapping):
            raise ValueError(f"expected an object of exponent: coefficient, got {quoted(data)}")
        terms = {_exponent(e): json_int(c) for e, c in data.items()}
        if len(terms) == len(data):
            return wrap_nonzero(terms)
        return cls((int(e), c) for e, c in data.items())  # "1" and "01" add up


def _signed(m: re.Match, sign: str, group: int) -> int:
    try:  # the digits of group ``group`` of a _TERM match, ``sign`` in front
        return int(sign + m[group])
    except ValueError:  # more digits than int() converts
        raise ParseError("number has too many digits", m.start(group)) from None


def _exponent(key: str) -> int:
    # int() alone would also take " -2 ", "3_0" and "٣".
    if not (key.isascii() and key.removeprefix("-").isdigit()):
        raise ValueError(f"expected an integer exponent key, got {quoted(key)}")
    try:
        return int(key)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"exponent key has too many digits: {quoted(key)}") from None


def json_int(value: object) -> int:
    """A JSON integer as it is; a float, boolean or string raises ValueError."""
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ValueError(f"expected an integer, got {quoted(value)}")


_QUOTE_LIMIT = 60  # characters of user input an error message repeats


def quoted(value: object) -> str:
    """``repr(value)`` for an error message: past 60 characters only its
    start and its length, so a huge input gives a short message."""
    text = repr(value)
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


_SHOWN_DIGITS = 60  # an error message describes a longer number by its size


def shown_int(n: int) -> str:
    """``n`` in decimal for an error message, or ``"10^60 or more"`` /
    ``"-10^60 or less"`` past 60 digits.  Comparisons decide, with no decimal
    conversion, so a huge number gives a short message and never meets
    Python's int-to-str limit."""
    if abs(n) < 10**_SHOWN_DIGITS:
        return str(n)
    return f"10^{_SHOWN_DIGITS} or more" if n > 0 else f"-10^{_SHOWN_DIGITS} or less"


def check_bound(what: str, n: int, low: int | None = None, limit: int | None = None,
                limit_name: str = "limit", error: type[Exception] = ValueError) -> None:
    """Refuse a count ``n`` below ``low`` or above ``limit`` by raising
    ``error``: ``{what} must be at least {low}, got {n}`` or ``{what} {n}
    exceeds the {limit_name} of {limit}``, every number through ``shown_int``.
    The package's one check of a resource bound, made before any work."""
    if low is not None and n < low:
        raise error(f"{what} must be at least {shown_int(low)}, got {shown_int(n)}")
    if limit is not None and n > limit:
        raise error(f"{what} {shown_int(n)} exceeds the {limit_name} of {shown_int(limit)}")


def _coerce(value: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.monomial(value, 0)
    raise TypeError(f"cannot use {type(value).__name__} as a Laurent polynomial")


def _wrap(canonical: dict[int, int]) -> LaurentPoly:
    # Internal fast path: `canonical` must already be free of zero coefficients.
    poly = object.__new__(LaurentPoly)
    poly._terms = canonical
    return poly


def add_product(
    acc: dict[int, int], x: Mapping[int, int], y: Mapping[int, int] | None = None,
    shift: int = 0, scale: int = 1,
) -> None:
    """acc += scale * A^shift * x * y on bare {exponent: coeff} maps (no y: 1).

    This is the package's one accumulation loop: ``LaurentPoly``'s ``+`` and
    ``*`` and the fast algebra's products add into such maps, zero entries
    and all (``accumulate`` adds whole coefficients through it), and turn
    each finished map into a polynomial once.
    """
    if y is None:
        y = _ONE._terms
    for ey, cy in y.items():
        ey += shift
        cy *= scale
        for e, c in x.items():
            e += ey
            acc[e] = acc.get(e, 0) + c * cy


def accumulate(maps: dict, key, poly: LaurentPoly, scale: int = 1) -> None:
    """maps[key] += scale * poly, where the values of ``maps`` are LaurentPolys
    or bare {exponent: coeff} maps (the fast algebra's term maps).

    The first hit on a key at scale 1 stores ``poly`` itself; a repeat first
    copies it into a bare map, so no caller's polynomial is ever written into.
    """
    prev = maps.get(key)
    if prev is None:
        if scale == 1:
            maps[key] = poly
            return
        prev = maps[key] = {}
    elif type(prev) is not dict:
        prev = maps[key] = dict(prev._terms)
    add_product(prev, poly._terms, None, 0, scale)


def wrap_nonzero(acc: dict[int, int]) -> LaurentPoly:
    """The polynomial of a finished bare map, its zero entries dropped.

    The map becomes the polynomial's storage when it has no zero entry, so
    the caller must not touch it afterwards.
    """
    return _wrap(_nonzero(acc))


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    # The one place zero coefficients are dropped: ``terms`` itself when it
    # has none, else a filtered copy.
    if all(terms.values()):
        return terms
    return {e: c for e, c in terms.items() if c}


def signed_monomial(exp: int, coeff: int) -> tuple[str, str]:
    """("+" or "-", body) for coeff * A^exp; a unit coefficient prints only
    when exp == 0 (``A^-2``, ``3A``, ``1``)."""
    if exp == 0:
        body = str(abs(coeff))
    else:
        mono = "A" if exp == 1 else f"A^{exp}"
        body = mono if abs(coeff) == 1 else f"{abs(coeff)}{mono}"
    return ("-" if coeff < 0 else "+"), body


def join_signed(parts: list[tuple[str, str]]) -> str:
    """Join (sign, body) parts as ``a - b + c``; no parts print as ``0``."""
    if not parts:
        return "0"
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
_DELTA = LaurentPoly({2: -1, -2: -1})

ZERO = _ZERO
ONE = _ONE
A = LaurentPoly({1: 1})
DELTA = _DELTA
