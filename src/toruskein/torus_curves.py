"""Integer bookkeeping for isotopy classes of multicurves on the torus.

A class of curves is an integer vector (a, b) in the longitude/meridian
homology basis.  Unoriented classes are normalized to the half-plane
``a > 0 or (a == 0 and b > 0)``; the empty multicurve is its own class.  A
non-empty class splits uniquely as n * (p, q) with n = gcd(|a|, |b|) parallel
copies of the primitive embedded curve (p, q).

The generic-position crossing count of two classes is |det2(u, v)|.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

Vec2 = tuple[int, int]


def det2(u: Vec2, v: Vec2) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u[0] * v[1] - u[1] * v[0]


def is_half_plane(v: Vec2) -> bool:
    return v[0] > 0 or (v[0] == 0 and v[1] > 0)


def split_signed(v: Vec2) -> tuple[int, Vec2]:
    """Factor a nonzero vector as n * prim with n > 0 and prim primitive,
    keeping the direction of v."""
    if v == (0, 0):
        raise ValueError("the zero vector has no primitive part")
    n = math.gcd(v[0], v[1])
    return n, (v[0] // n, v[1] // n)


@dataclass(frozen=True, slots=True)
class UnorientedClass:
    """Canonical isotopy class of a toric multicurve, or the empty curve.

    ``vec`` is None for the empty class; otherwise it is a nonzero vector in
    the canonical half-plane.
    """

    vec: Vec2 | None

    def __post_init__(self) -> None:
        if self.vec is not None:
            if self.vec == (0, 0):
                raise ValueError("(0, 0) does not name a curve class; use EMPTY")
            if not is_half_plane(self.vec):
                raise ValueError(f"{self.vec} is not in the canonical half-plane")

    @property
    def is_empty(self) -> bool:
        return self.vec is None

    def split(self) -> tuple[int, Vec2]:
        """(multiplicity, primitive vector); errors on the empty class."""
        if self.vec is None:
            raise ValueError("the empty class has no primitive part")
        return split_signed(self.vec)

    @property
    def multiplicity(self) -> int:
        return 0 if self.vec is None else self.split()[0]

    def sort_key(self) -> tuple[int, int, int]:
        # Vector classes in lexicographic order, the empty class last.
        if self.vec is None:
            return (1, 0, 0)
        return (0, self.vec[0], self.vec[1])

    def __str__(self) -> str:
        if self.vec is None:
            return "empty"
        return f"({self.vec[0]},{self.vec[1]})"

    @classmethod
    def parse(cls, text: str) -> "UnorientedClass":
        """Parse "(a,b)" or "empty"; the vector is canonicalized."""
        if text.strip().lower() == "empty":
            return EMPTY
        return canonicalize(parse_vec(text))[0]

    def to_json(self) -> list[int] | str:
        return "empty" if self.vec is None else [self.vec[0], self.vec[1]]

    @classmethod
    def from_json(cls, data: object) -> "UnorientedClass":
        return EMPTY if data == "empty" or data is None else canonicalize(vec_from_json(data))[0]


EMPTY = UnorientedClass(None)


def canonicalize(v: Vec2) -> tuple[UnorientedClass, bool]:
    """Half-plane representative of {v, -v} plus whether negation was applied.

    (0, 0) maps to the empty class with flipped=False.
    """
    if v == (0, 0):
        return EMPTY, False
    if is_half_plane(v):
        return UnorientedClass(v), False
    return UnorientedClass((-v[0], -v[1])), True


def curve_class(v: Vec2) -> UnorientedClass:
    """Canonical class of a vector, discarding the orientation flag."""
    return canonicalize(v)[0]


def vec_from_json(data: object) -> Vec2:
    """Parse the JSON form [a, b]."""
    if not (isinstance(data, (list, tuple)) and len(data) == 2):
        raise ValueError(f"expected [a, b], got {data!r}")
    return (int(data[0]), int(data[1]))


_VEC_RE = re.compile(r"^\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def parse_vec(text: str) -> Vec2:
    """Parse the text form "(a,b)"."""
    m = _VEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"expected a pair like (a,b), got {text!r}")
    return (int(m.group(1)), int(m.group(2)))
