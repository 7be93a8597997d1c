"""Exact arithmetic in the ring of integer Laurent polynomials Z[A, A^-1].

Every coefficient in this package -- skein elements, bracket values, oriented
monomials -- lives in this ring.  Values are immutable and hashable, the zero
polynomial is the empty term map, and no zero coefficient is ever stored, so
equality is plain term-map equality.

Text form: a sum of terms ``[sign] [coeff] ["A" ["^" exponent]]``, whitespace
insensitive, printed in ascending exponent order (``"-A^-2 - A^2"`` is the
circle value delta).  JSON form: an object mapping exponent strings to integer
coefficients, e.g. ``{"-2": -1, "2": -1}``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class ParseError(ValueError):
    """Malformed polynomial text.  ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LaurentPoly:
    """An element of Z[A, A^-1] stored as a map exponent -> nonzero coefficient."""

    __slots__ = ("_terms", "_items")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            c = acc.get(exp, 0) + coeff
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_items", tuple(sorted(acc.items())))

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
        return cls({exp: coeff}) if coeff else _ZERO

    @classmethod
    def delta(cls) -> "LaurentPoly":
        """The value of a trivial unoriented circle, -A^2 - A^-2."""
        return _DELTA

    # ----- ring structure -----

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            c = acc.get(exp, 0) + coeff
            if c:
                acc[exp] = c
            else:
                del acc[exp]
        return _wrap(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        if not self._terms or not other._terms:
            return _ZERO
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                c = acc.get(e, 0) + c1 * c2
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        return _wrap(acc)

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

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by A^exp (translate every exponent)."""
        if not exp:
            return self
        return _wrap({e + exp: c for e, c in self._terms.items()})

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
        return self._items

    def sole_exponent(self) -> int:
        """Exponent of a single-term polynomial; raises otherwise."""
        if len(self._items) != 1:
            raise ValueError(f"not a monomial: {self}")
        return self._items[0][0]

    def evaluate_at_one(self) -> int:
        """Value at A = 1, i.e. the sum of all coefficients."""
        return sum(self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._items)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._items)

    # ----- text and JSON forms -----

    def __str__(self) -> str:
        if not self._items:
            return "0"
        parts = []
        for exp, coeff in self._items:
            if exp == 0:
                body = str(abs(coeff))
            else:
                mono = "A" if exp == 1 else f"A^{exp}"
                body = mono if abs(coeff) == 1 else f"{abs(coeff)}{mono}"
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        out = body if sign == "+" else "-" + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self._items)!r})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the text grammar; raises ParseError with a position on bad input."""
        terms: list[tuple[int, int]] = []
        i, n = 0, len(text)

        def skip_ws(i: int) -> int:
            while i < n and text[i].isspace():
                i += 1
            return i

        def read_int(i: int, what: str) -> tuple[int, int]:
            sign = 1
            if i < n and text[i] in "+-":
                sign = -1 if text[i] == "-" else 1
                i = skip_ws(i + 1)
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i == start:
                raise ParseError(f"expected {what}", start)
            return sign * int(text[start:i]), i

        i = skip_ws(i)
        if i == n:
            raise ParseError("empty polynomial text", i)
        first = True
        while i < n:
            sign = 1
            if text[i] in "+-":
                sign = -1 if text[i] == "-" else 1
                i = skip_ws(i + 1)
            elif not first:
                raise ParseError("expected '+' or '-' between terms", i)
            coeff = None
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i > start:
                coeff = int(text[start:i])
            i = skip_ws(i)
            exp = 0
            if i < n and text[i] == "A":
                i = skip_ws(i + 1)
                exp = 1
                if i < n and text[i] == "^":
                    i = skip_ws(i + 1)
                    exp, i = read_int(i, "exponent after '^'")
            elif coeff is None:
                raise ParseError("expected coefficient or 'A'", i)
            terms.append((exp, sign * (1 if coeff is None else coeff)))
            i = skip_ws(i)
            first = False
        return cls(terms)

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in self._items}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPoly":
        if not isinstance(data, Mapping):
            raise ValueError(f"expected an object of exponent: coefficient, got {data!r}")
        return cls({int(e): int(c) for e, c in data.items()})


def _coerce(value: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.monomial(value, 0)
    raise TypeError(f"cannot use {type(value).__name__} as a Laurent polynomial")


def _wrap(canonical: dict[int, int]) -> LaurentPoly:
    # Internal fast path: `canonical` must already be free of zero coefficients.
    poly = object.__new__(LaurentPoly)
    object.__setattr__(poly, "_terms", canonical)
    object.__setattr__(poly, "_items", tuple(sorted(canonical.items())))
    return poly


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
_DELTA = LaurentPoly({2: -1, -2: -1})

ZERO = _ZERO
ONE = _ONE
A = LaurentPoly({1: 1})
DELTA = _DELTA
