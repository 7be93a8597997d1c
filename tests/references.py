"""Test-only references: enumerations and random elements the runtime never needs.

``psi_oracle`` enumerates all 2^n orientations of a class, the definition
that ``oriented.psi`` must reproduce.
``mul_chebyshev``, ``to_chebyshev``, ``to_standard``, ``oriented_mul`` and
``psi`` are the fast algebra written term by term in LaurentPoly arithmetic,
merged with LaurentPoly addition: the formulas the bare-map accumulation of
``skein`` and ``oriented`` must reproduce.
``term_order`` is the order both elements keep their terms in, written
without the runtime's comparisons.
``evaluate_laurent`` substitutes a Laurent polynomial into an integer
polynomial.  ``shifted`` multiplies a polynomial by a power of A and
``is_symmetric`` asks whether theta fixes an oriented element.  ``rebuilt`` makes an element afresh, without the Chebyshev form
that ``to_standard`` keeps on its result, so that a round trip through it runs
``to_chebyshev``'s expansion.  ``roundtrip_sweep`` draws random elements and
checks that the basis changes and psi/psi_inverse are exact mutual inverses.
``BOUNDED`` and ``coeffs`` are the Hypothesis settings and coefficient
strategy the property tests share.  ``TOO_LONG`` is a number with more digits
than ``int()`` converts, for the tests marked ``needs_digit_limit``.
"""

from __future__ import annotations

import random
import sys
from math import comb, gcd

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from toruskein import chebyshev
from toruskein.chebyshev import IntPoly
from toruskein.laurent import ZERO, LaurentPoly
from toruskein.oriented import OrientedElement, psi_chebyshev, psi_inverse
from toruskein.skein import Basis, SkeinElement
from toruskein.torus_curves import EMPTY, UnorientedClass, Vec2, canonicalize, det2
from toruskein.verify import SweepResult

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True)

# From Python 3.11 on, int() refuses a number of more than this many digits (0: no limit).
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (_DIGIT_LIMIT + 100)
needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT, reason="int() converts any number of digits")

# Short coefficients over few exponents, so sums cancel often; zero included.
coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=3).map(LaurentPoly)


def term_order(key) -> tuple:
    """Sort key of a term's key: vectors in lexicographic order, then the
    unit key (the empty class, or the oriented (0, 0)) last."""
    if isinstance(key, UnorientedClass):
        return (key == EMPTY, key.vec)
    return (key == (0, 0), key)


def shifted(poly: LaurentPoly, exp: int) -> LaurentPoly:
    """``poly`` times A^exp: every exponent moved by ``exp``, in fill order."""
    return LaurentPoly({e + exp: c for e, c in poly._terms.items()})


def is_symmetric(x: OrientedElement) -> bool:
    """Whether reversing every orientation leaves ``x`` as it is."""
    return x.theta() == x


def psi_oracle(cls: UnorientedClass) -> OrientedElement:
    """Sum over all 2^n orientation assignments of the n parallel copies.

    Parallel copies have no crossings; each assignment reduces by canceling
    opposite pairs at unit coefficient, leaving the net signed count of
    copies.  It shares nothing with the program's psi, which goes through the
    Chebyshev basis, or with the binomial form ``psi`` below, so it certifies both.
    """
    if cls.is_empty:
        return OrientedElement.unit()
    n, prim = cls.split()
    terms: list[tuple[Vec2, LaurentPoly]] = []
    for assignment in range(1 << n):
        net = n - 2 * bin(assignment).count("1")
        terms.append(((net * prim[0], net * prim[1]), LaurentPoly.one()))
    return OrientedElement.make(terms)


def _merged(pairs) -> dict:
    """Sum equal keys with LaurentPoly addition and drop zero coefficients."""
    acc: dict = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, ZERO) + coeff
    return {key: coeff for key, coeff in acc.items() if not coeff.is_zero}


def mul_chebyshev(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    """The product-to-sum formula, one LaurentPoly product per term pair."""
    out: list[tuple[UnorientedClass, LaurentPoly]] = []
    for xkey, xc in x.terms():
        for ykey, yc in y.terms():
            c = xc * yc
            if xkey.is_empty or ykey.is_empty:
                out.append((ykey if xkey.is_empty else xkey, c))
                continue
            u, v = xkey.vec, ykey.vec
            d = det2(u, v)
            for sign, w in ((1, (u[0] - v[0], u[1] - v[1])), (-1, (u[0] + v[0], u[1] + v[1]))):
                factor = LaurentPoly.monomial(1, sign * d)
                if w == (0, 0):
                    out.append((EMPTY, c * factor * 2))  # (0,0)_T stands for 2 * empty
                else:
                    out.append((canonicalize(w)[0], c * factor))
    return SkeinElement.make(Basis.CHEBYSHEV, _merged(out))


def _expand(x: SkeinElement, target: Basis, expansion) -> SkeinElement:
    out: list[tuple[UnorientedClass, LaurentPoly]] = []
    for key, coeff in x.terms():
        if key.is_empty:
            out.append((key, coeff))
            continue
        n, prim = key.split()
        for j, c in expansion(n):
            if c:
                jkey = EMPTY if j == 0 else UnorientedClass((j * prim[0], j * prim[1]))
                out.append((jkey, coeff * c))
    return SkeinElement.make(target, _merged(out))


def to_chebyshev(x: SkeinElement) -> SkeinElement:
    return _expand(x, Basis.CHEBYSHEV, lambda n: chebyshev.power_to_chebyshev(n).items())


def to_standard(x: SkeinElement) -> SkeinElement:
    return _expand(x, Basis.STANDARD, lambda n: enumerate(chebyshev.chebyshev_t(n)))


def mul_standard(x: SkeinElement, y: SkeinElement) -> SkeinElement:
    return to_standard(mul_chebyshev(to_chebyshev(x), to_chebyshev(y)))


def oriented_mul(x: OrientedElement, y: OrientedElement) -> OrientedElement:
    """The quantum-torus rule, one LaurentPoly product per term pair."""
    out: list[tuple[Vec2, LaurentPoly]] = []
    for u, cu in x.terms():
        for v, cv in y.terms():
            out.append(((u[0] + v[0], u[1] + v[1]), shifted(cu * cv, -det2(u, v))))
    return OrientedElement.make(_merged(out))


def psi(x: SkeinElement) -> OrientedElement:
    """The binomial closed form of psi, one LaurentPoly product per orientation count."""
    out: list[tuple[Vec2, LaurentPoly]] = []
    for key, coeff in x.terms():
        if key.is_empty:
            out.append(((0, 0), coeff))
            continue
        n, prim = key.split()
        for k in range(n + 1):
            s = 2 * k - n
            out.append(((s * prim[0], s * prim[1]), coeff * comb(n, k)))
    return OrientedElement.make(_merged(out))


def evaluate_laurent(poly: IntPoly, value: LaurentPoly) -> LaurentPoly:
    """Substitute a Laurent polynomial for the indeterminate (Horner)."""
    result = LaurentPoly.zero()
    for coeff in reversed(poly):
        result = result * value + coeff
    return result


def random_laurent(rng: random.Random, max_exp: int = 5, max_coeff: int = 9) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    poly = LaurentPoly(terms)
    return poly if not poly.is_zero else LaurentPoly.one()


def random_class(rng: random.Random, max_coord: int = 6) -> UnorientedClass:
    while True:
        n = rng.randint(1, 4)  # the multiplicity
        p, q = rng.randint(-max_coord, max_coord), rng.randint(-max_coord, max_coord)
        if (p, q) == (0, 0):
            continue
        g = gcd(p, q)
        p, q = p // g, q // g
        if max(abs(n * p), abs(n * q)) <= max_coord:
            return canonicalize((n * p, n * q))[0]


def random_skein(rng: random.Random, basis: Basis, max_coord: int = 6) -> SkeinElement:
    terms = []
    for _ in range(rng.randint(1, 4)):
        key = EMPTY if rng.random() < 0.2 else random_class(rng, max_coord)
        terms.append((key, random_laurent(rng)))
    return SkeinElement.make(basis, terms)


def rebuilt(x: SkeinElement) -> SkeinElement:
    """``x`` made afresh from its terms, so it keeps no Chebyshev form."""
    return SkeinElement.make(x.basis, x.terms())


def roundtrip_sweep(count: int = 500, seed: int = 20250810) -> SweepResult:
    """Basis conversions and psi/psi_inverse as exact mutual inverses."""
    result = SweepResult("basis and psi round trips")
    rng = random.Random(seed)
    for _ in range(count):
        std = random_skein(rng, Basis.STANDARD)
        result.cases += 1
        if std.to_chebyshev().to_standard() != std:
            result.fail(f"standard -> chebyshev -> standard broke on {std}")
        che = random_skein(rng, Basis.CHEBYSHEV)
        if rebuilt(che.to_standard()).to_chebyshev() != che:
            result.fail(f"chebyshev -> standard -> chebyshev broke on {che}")
        sym = psi_chebyshev(che)
        if not is_symmetric(sym):
            result.fail(f"psi image not symmetric for {che}")
        if psi_inverse(sym) != che:
            result.fail(f"psi_inverse(psi({che})) != identity")
    return result
