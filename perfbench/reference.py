"""Independent reference arithmetic for checking the program's outputs.

Nothing here imports the program.  Values are plain dicts:

* a Laurent polynomial is ``{exponent: coefficient}`` with no zero entries;
* a skein element is ``{class: poly}``, where a class is a canonical vector
  ``(a, b)`` (``a > 0`` or ``a == 0 < b``) and ``None`` is the empty curve;
* an oriented element is ``{(a, b): poly}``, where ``(0, 0)`` is the unit.

The formulas are the textbook ones (Frohman-Gelca product-to-sum, binomial
basis change, quantum-torus exchange rule, bracket state sum), written out
again so that a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

from math import comb, gcd

DELTA = {2: -1, -2: -1}
ONE = {0: 1}


# ----- Laurent polynomials -----


def padd_into(acc: dict, poly: dict, scale: int = 1, shift: int = 0) -> dict:
    """acc += scale * A^shift * poly, in place."""
    for e, c in poly.items():
        e += shift
        s = acc.get(e, 0) + scale * c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    return acc


def pmul(p: dict, q: dict) -> dict:
    acc: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


def ppow(p: dict, n: int) -> dict:
    out = dict(ONE)
    for _ in range(n):
        out = pmul(out, p)
    return out


def pmirror(p: dict) -> dict:
    """A -> A^-1."""
    return {-e: c for e, c in p.items()}


# ----- skein elements (standard and Chebyshev bases) -----


def canon(v: tuple[int, int]) -> tuple[int, int] | None:
    if v == (0, 0):
        return None
    a, b = v
    return v if a > 0 or (a == 0 and b > 0) else (-a, -b)


def _split(v: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    g = gcd(v[0], v[1])
    return g, (v[0] // g, v[1] // g)


def _accumulate(elem: dict, key, poly: dict, scale: int = 1, shift: int = 0) -> None:
    bucket = padd_into(elem.setdefault(key, {}), poly, scale, shift)
    if not bucket:
        del elem[key]


def chebyshev_coeffs(n: int) -> list[int]:
    """T_0 = 2, T_1 = X, T_n = X T_(n-1) - T_(n-2); index = power of X."""
    prev, cur = [2], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def to_chebyshev(std: dict) -> dict:
    """X^g = sum_k C(g, (g-k)/2) T_k over k = g, g-2, ..., the middle term on 1."""
    out: dict = {}
    for key, poly in std.items():
        if key is None:
            _accumulate(out, None, poly)
            continue
        g, (p, q) = _split(key)
        for k in range(g, -1, -2):
            c = comb(g, (g - k) // 2)
            _accumulate(out, None if k == 0 else (k * p, k * q), poly, c)
    return out


def to_standard(che: dict) -> dict:
    out: dict = {}
    for key, poly in che.items():
        if key is None:
            _accumulate(out, None, poly)
            continue
        g, (p, q) = _split(key)
        for power, c in enumerate(chebyshev_coeffs(g)):
            if c:
                _accumulate(out, None if power == 0 else (power * p, power * q), poly, c)
    return out


def chebyshev_mul(x: dict, y: dict) -> dict:
    """(a,b)_T (c,d)_T = A^(ad-bc) (a-c,b-d)_T + A^(bc-ad) (a+c,b+d)_T."""
    out: dict = {}
    for kx, px in x.items():
        for ky, py in y.items():
            c = pmul(px, py)
            if kx is None or ky is None:
                _accumulate(out, ky if kx is None else kx, c)
                continue
            d = kx[0] * ky[1] - kx[1] * ky[0]
            for sign, w in ((1, (kx[0] - ky[0], kx[1] - ky[1])), (-1, (kx[0] + ky[0], kx[1] + ky[1]))):
                key = canon(w)
                _accumulate(out, key, c, 2 if key is None else 1, sign * d)
    return out


def standard_mul(x: dict, y: dict) -> dict:
    return to_standard(chebyshev_mul(to_chebyshev(x), to_chebyshev(y)))


# ----- oriented elements -----


def psi(std: dict) -> dict:
    """n parallel copies of (p, q) -> sum_k C(n, k) gamma_((2k - n)(p, q))."""
    out: dict = {}
    for key, poly in std.items():
        if key is None:
            _accumulate(out, (0, 0), poly)
            continue
        n, (p, q) = _split(key)
        for k in range(n + 1):
            s = 2 * k - n
            _accumulate(out, (s * p, s * q), poly, comb(n, k))
    return out


def oriented_mul(x: dict, y: dict) -> dict:
    """gamma_u gamma_v = A^(-det(u, v)) gamma_(u+v)."""
    out: dict = {}
    for u, pu in x.items():
        for v, pv in y.items():
            d = u[0] * v[1] - u[1] * v[0]
            _accumulate(out, (u[0] + v[0], u[1] + v[1]), pmul(pu, pv), 1, -d)
    return out


# ----- planar brackets -----


def torus_knot_bracket(n: int) -> dict:
    """<T(2, n)> for odd n on the standard closed 2-braid diagram.

    Smoothing every crossing of the twist region one way leaves two circles,
    and h >= 1 crossings smoothed the other way leave h circles, so
    <T(2, n)> = A^n (delta^2 - 1) + (A + A^-1 delta)^n
              = A^n (delta^2 - 1) + (-A^-3)^n.
    """
    if n % 2 == 0:
        raise ValueError("the closed form is for odd n (knots)")
    head = padd_into(pmul(DELTA, DELTA), ONE, -1)
    return padd_into({e + n: c for e, c in head.items()}, {-3 * n: (-1) ** n})


def bracket(crossings, free_loops: int = 0) -> dict:
    """Direct state sum for small diagrams: A-smoothing joins {a, d}, {b, c}."""
    k = len(crossings)
    acc: dict = {}
    for mask in range(1 << k):
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        circles = free_loops
        for i, (a, b, c, d) in enumerate(crossings):
            for x, y in ((a, b), (c, d)) if (mask >> i) & 1 else ((a, d), (b, c)):
                rx, ry = find(x), find(y)
                if rx == ry:
                    circles += 1
                else:
                    parent[rx] = ry
        padd_into(acc, ppow(DELTA, circles), 1, k - 2 * bin(mask).count("1"))
    return acc


# ----- text forms -----


def _mono(exp: int) -> str:
    return "" if exp == 0 else ("A" if exp == 1 else f"A^{exp}")


def _signed_join(parts: list[tuple[str, str]]) -> str:
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def format_poly(poly: dict) -> str:
    """``-A^-2 - A^2``: ascending exponents, unit coefficients dropped."""
    if not poly:
        return "0"
    parts = []
    for exp, c in sorted(poly.items()):
        mono = _mono(exp)
        body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}{mono}")
        parts.append(("-" if c < 0 else "+", body))
    return _signed_join(parts)


def format_element(elem: dict, suffix: str = "") -> str:
    """``A (1,-1)_T + (A^-2 + 2) (1,1)_T``: classes in order, empty last."""
    if not elem:
        return "0"
    parts = []
    for key in sorted(elem, key=lambda k: (1, 0, 0) if k is None else (0, k[0], k[1])):
        poly = elem[key]
        name = "" if key is None else f"({key[0]},{key[1]}){suffix}"
        if len(poly) == 1:
            ((exp, c),) = poly.items()
            mono = _mono(exp)
            body = str(abs(c)) if not mono else (mono if abs(c) == 1 else f"{abs(c)}{mono}")
            if name:
                body = name if body == "1" else f"{body} {name}"
            parts.append(("-" if c < 0 else "+", body))
        else:
            body = f"({format_poly(poly)})"
            parts.append(("+", f"{body} {name}" if name else body))
    return _signed_join(parts)
