"""Reference arrangement builder: the bounding-box scan in exact `Fraction`s.

This is the original construction that ``build_arrangement`` replaced with
integer arithmetic.  It solves every copy pair's line equations by scanning
the integer translates that can reach the unit parameter square, in
``(zx, zy)`` order, so its crossing indices define the order the integer
builder must reproduce.  It links the crossings along each copy by successor
and only at the end turns successors and displacements into the port table.
Tests compare the two field for field.
"""

from __future__ import annotations

import math
from fractions import Fraction

from toruskein.smoothing_oracle import (
    U_IN,
    U_OUT,
    V_IN,
    V_OUT,
    Arrangement,
    ArrangementError,
    _transversal,
)
from toruskein.torus_curves import Vec2, det2, split_signed


def copy_pair_crossings(
    pu: Vec2, pv: Vec2, ou: tuple[Fraction, Fraction], ov: tuple[Fraction, Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Curve parameters (t, w) of all crossings of one u copy with one v copy.

    Solves t*pu + ou = w*pv + ov (mod Z^2) for t, w in [0, 1).
    """
    d0 = det2(pu, pv)
    dx, dy = ov[0] - ou[0], ov[1] - ou[1]
    # e = t*pu - w*pv with t, w in [0, 1) lies in the parallelogram spanned by
    # pu and -pv; scan every integer translate z = e - d that can reach it.
    lo_x = math.floor(min(0, pu[0]) - max(0, pv[0]) - dx)
    hi_x = math.ceil(max(0, pu[0]) - min(0, pv[0]) - dx)
    lo_y = math.floor(min(0, pu[1]) - max(0, pv[1]) - dy)
    hi_y = math.ceil(max(0, pu[1]) - min(0, pv[1]) - dy)
    sols = []
    for zx in range(lo_x, hi_x + 1):
        for zy in range(lo_y, hi_y + 1):
            ex, ey = dx + zx, dy + zy
            t = Fraction(ex * pv[1] - ey * pv[0], d0)
            w = Fraction(pu[1] * ex - pu[0] * ey, d0)
            if 0 <= t < 1 and 0 <= w < 1:
                sols.append((t, w))
    if len(sols) != abs(d0):
        raise ArrangementError(
            f"copy pair produced {len(sols)} crossings, expected {abs(d0)}"
        )
    return sols


def scan_arrangement(u_vec: Vec2, v_vec: Vec2) -> Arrangement:
    """The scan builder for det2(u_vec, v_vec) != 0, without a budget."""
    k = abs(det2(u_vec, v_vec))
    n, pu = split_signed(u_vec)
    m, pv = split_signed(v_vec)
    d0 = det2(pu, pv)
    xi_u = _transversal(pu)
    xi_v = _transversal(pv)

    eps_u, eps_v = Fraction(1, n + 1), Fraction(1, m + 1)
    crossings: list[tuple[int, int, Fraction, Fraction]] = []
    points: list[tuple[Fraction, Fraction]] = []
    for j in range(n):
        ou = ((j + 1) * eps_u * xi_u[0], (j + 1) * eps_u * xi_u[1])
        for l in range(m):
            ov = ((l + 1) * eps_v * xi_v[0], (l + 1) * eps_v * xi_v[1])
            for t, w in copy_pair_crossings(pu, pv, ou, ov):
                pt = ((t * pu[0] + ou[0]) % 1, (t * pu[1] + ou[1]) % 1)
                if pt in points:
                    raise ArrangementError(f"two crossings at one point {pt}")
                points.append(pt)
                crossings.append((j, l, t, w))

    if len(crossings) != k:
        raise ArrangementError(f"built {len(crossings)} crossings, expected {k}")

    next_u = [-1] * k
    next_v = [-1] * k
    disp_u: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))] * k
    disp_v: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))] * k

    for family, copies, prim, nxt, disp, copy_idx, par_idx in (
        ("u", n, pu, next_u, disp_u, 0, 2),
        ("v", m, pv, next_v, disp_v, 1, 3),
    ):
        for copy in range(copies):
            on_copy = sorted(
                (cr[par_idx], ci) for ci, cr in enumerate(crossings) if cr[copy_idx] == copy
            )
            if len({t for t, _ in on_copy}) != len(on_copy):
                raise ArrangementError(f"parameter tie along {family} copy {copy}")
            total = (Fraction(0), Fraction(0))
            for pos, (t, ci) in enumerate(on_copy):
                t_next, ci_next = on_copy[(pos + 1) % len(on_copy)]
                gap = (t_next - t) % 1
                if gap == 0:
                    gap = Fraction(1)  # single crossing on this copy: full loop
                nxt[ci] = ci_next
                disp[ci] = (gap * prim[0], gap * prim[1])
                total = (total[0] + disp[ci][0], total[1] + disp[ci][1])
            if total != (Fraction(prim[0]), Fraction(prim[1])):
                raise ArrangementError(
                    f"arc displacements along {family} copy {copy} sum to {total}, "
                    f"expected {prim}"
                )

    denom = 1
    for dx, dy in list(disp_u) + list(disp_v):
        denom = math.lcm(denom, dx.denominator, dy.denominator)

    # Port 4*i + role: the arc from crossing i to its successor leaves at the
    # out-port and arrives at the successor's in-port, displaced the other way.
    arc_other = [-1] * (4 * k)
    disp: list[tuple[int, int]] = [(0, 0)] * (4 * k)
    for nxt, arcs, out_role, in_role in (
        (next_u, disp_u, U_OUT, U_IN),
        (next_v, disp_v, V_OUT, V_IN),
    ):
        for i, (dx, dy) in enumerate(arcs):
            p, q = 4 * i + out_role, 4 * nxt[i] + in_role
            arc_other[p], arc_other[q] = q, p
            disp[p] = (int(dx * denom), int(dy * denom))
            disp[q] = (-disp[p][0], -disp[p][1])

    # Each crossing's position minus crossing 0's, mod 1, must be whole in
    # units of 1/denom.
    point = []
    for px, py in points:
        x, y = (px - points[0][0]) % 1 * denom, (py - points[0][1]) % 1 * denom
        if x.denominator != 1 or y.denominator != 1:
            raise ArrangementError(f"crossing point {(px, py)} is not a multiple of 1/{denom}")
        point.append((int(x), int(y)))

    return Arrangement(
        d0=d0,
        crossing_count=k,
        arc_other=tuple(arc_other),
        disp=tuple(disp),
        denom=denom,
        point=tuple(point),
    )
