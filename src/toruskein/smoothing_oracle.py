"""Ground-truth products by explicit superposition, smoothing and tracing.

This module multiplies torus multicurves the slow, definitional way: put the
two families in generic position, resolve every crossing, trace the resulting
closed components, evaluate trivial circles, and collect the surviving class.
It is the independent check for the fast product-to-sum path and for the
oriented monomial rule, so it shares no code with either.

Combinatorial model
-------------------
Work on the flat torus R^2/Z^2.  The first family (drawn above the second) is
n parallel translates of the geodesic with primitive direction pu, the second
m translates of direction pv, with det2(pu, pv) = d0 != 0.  Translates are
offset by exact rational multiples of a transversal vector, so every crossing
is found by solving the two line equations exactly, in integers scaled by one
common denominator; no floating point appears anywhere.  Per copy pair there
are |d0| crossings and n*m*|d0| = |det2(u, v)| = k in total.

The unoriented product sums over all 2^k smoothing states without listing
them: the crossings are resolved one at a time, and partial states that agree
on their open paths and closed components are merged (frontier contraction).
A partial state is keyed by one integer per open port: the port at the other
end of its path plus the path's homology and turning, packed in balanced digits.
They are taken in a sweep along a shortest cut curve, the primitive class c
minimising |det2(c, u)| + |det2(c, v)|: by height det2(c, p) mod 1, then along
the level curve, so about 2(|det2(c, u)| + |det2(c, v)|) ports are open at once.
The planar bracket runs on the same kernel, ``contract``.  Listing every
state (``--dump-states``) takes the brute-force enumeration.

Each crossing has four ports: the over-strand enters at ``u_in`` and leaves at
``u_out``, the under-strand at ``v_in``/``v_out``.  The arrangement is one
port table: every port names the port at the other end of its arc (the arc
to the next crossing along its strand, or from the previous one) and the
arc's exact displacement leaving it.  Both the contraction and every walk
read that table.  The homology class of a traced component is the signed
sum of the arc displacements it traverses, and its turning number is
accumulated in quarter turns at the smoothed corners (arcs are geodesic
segments and contribute no turning); the pairings and turns at a corner
depend only on the sign of d0.
Essential components must have zero turning and trivial circles turning +-1;
violations raise ArrangementError, never a user error.

Resolution conventions (all signs downstream hang off one table):

* ``_CORNERS``, keyed by d0 > 0, lists the A- then B-resolution as the
  pairings ``contract`` takes; every walk reads it too.  Each A join from an
  over-port turns right and each B join left; d0's sign only decides whether
  A joins u_in to v_in (d0 > 0) or to v_out.  This is calibrated so that
  (1,0)*(0,1) = A*(1,-1) + A^-1*(1,1), and is applied uniformly (all
  crossings of the flat arrangement share one local frame).
* Oriented smoothing: the resolution joining u_in to v_out, the only
  orientation-compatible one, at every crossing, with its A-exponent shift:
  A when it is the A-resolution (d0 < 0) and A^-1 otherwise.

A counterclockwise trivial circle counts winding +1.  The oriented smoothing
of two transverse families closes no circle (``_classify`` raises on one), so
the product's A-exponent is the resolution's shift in ``_CORNERS`` times k.
The exponent is read, not traced: the walk traces only the homology, checked
against u + v.
Crossing-free products are not traced, in either oracle: the merge of
parallel copies and the cancellation of antiparallel ones (circles of winding
+1 and -1, coefficients -A^2 and -A^-2, product 1) are asserted.
"""

from __future__ import annotations

import math
from functools import cache
from operator import itemgetter
from typing import IO, Callable, Iterable, NamedTuple, Sequence

from .laurent import DELTA, LaurentPoly, shown_int
from .oriented import OrientedElement
from .skein import Basis, SkeinElement, from_vec_maps
from .torus_curves import EMPTY, UnorientedClass, Vec2, det2, split_signed

DEFAULT_BUDGET = 24
DUMP_LIMIT = 16  # most crossings the brute-force state sum (a dump) takes: 2^k states
# delta^n as (exponent, coefficient) pairs, the weights both state sums add: a crossing
# closes at most two circles, a state of k crossings at most k (one per over-strand out-port).
_DELTA_POWERS: tuple[tuple[tuple[int, int], ...], ...] = (((0, 1),),)
while len(_DELTA_POWERS) <= DUMP_LIMIT:
    _DELTA_POWERS += ((LaurentPoly(_DELTA_POWERS[-1]) * DELTA).terms(),)

# Port roles within a crossing: over-strand in/out, under-strand in/out.
U_IN, U_OUT, V_IN, V_OUT = 0, 1, 2, 3


class BudgetExceededError(RuntimeError):
    """The state sum would be too large; raise instead of hanging."""


class ArrangementError(RuntimeError):
    """Internal consistency failure while building or tracing an arrangement."""


class Arrangement(NamedTuple):
    """Generic-position superposition of two transverse multicurve families.

    Port 4*i + role belongs to crossing i.  ``arc_other[p]`` is the port at
    the other end of p's arc and ``disp[p]`` the arc's displacement leaving
    p (the two ends of an arc carry opposite ones); ``point[i]`` is crossing
    i's position minus crossing 0's, mod 1; both in units of 1/denom.
    """

    d0: int  # det2 of the two primitive directions, nonzero
    crossing_count: int
    arc_other: tuple[int, ...]
    disp: tuple[Vec2, ...]
    denom: int
    point: tuple[Vec2, ...]


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0, carried forward along
    Euclid's quotients (a, b) -> (b, a mod b), so chains of any length work."""
    x0, y0, x1, y1 = 1, 0, 0, 1  # a = x0*a_in + y0*b_in, b = x1*a_in + y1*b_in
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    sign = (a > 0) - (a < 0)
    return abs(a), sign * x0, sign * y0


@cache
def _transversal(prim: Vec2) -> Vec2:
    """A vector xi with det2(prim, xi) = 1; a pure table, as ``_walks`` is."""
    g, s, t = _extended_gcd(prim[0], prim[1])
    if g != 1:
        raise ValueError(f"{prim} is not primitive")
    return (-t, s)


def build_arrangement(u_vec: Vec2, v_vec: Vec2, budget: int = DEFAULT_BUDGET) -> Arrangement:
    """Lay out the two families in generic position and index their crossings.

    Requires det2(u_vec, v_vec) != 0 (parallel families have no crossings and
    are handled by the product operations directly) and a crossing count
    within the budget.  Copy j of the u family is offset by (j+1)/den_u * xi_u
    and copy l of the v family by (l+1)/den_v * xi_v, with den_u = n + 1 and
    den_v = m + 1.  The offsets of one family are distinct fractions in (0, 1),
    so its copies are disjoint; a point then lies on one copy of each family,
    and the |d0| crossings of each copy pair are distinct, so no two crossings
    coincide.  Every parameter and point is an integer in units of 1/size,
    size = |d0|*den_u*den_v.

    A copy pair's crossings solve t*pu + ou = w*pv + ov (mod Z^2) for curve
    parameters t, w in [0, 1), in units of 1/size; ``delta`` is
    scale*(ov - ou).  With e = t*pu - w*pv = ov - ou + z for a lattice
    translate z, det2(e, pv) = t*d0 and det2(z, pv) ranges over Z, so t runs
    over one residue modulo scale: t = (sign(d0)*det2(delta, pv) mod scale)
    + scale*r for r < |d0|.  For each t the point t*pu - (ov - ou) lies on
    the line z0 + R*pv with z0 = -i*xi_v, i = det2(t*pu - (ov - ou), pv); its
    position along pv, c/size, splits into an integer s and w in [0, 1), and
    z = z0 + s*pv.  Each pair's crossings are indexed in the order of their
    translates z.
    """
    d_full = u_vec[0] * v_vec[1] - u_vec[1] * v_vec[0]
    if d_full == 0:
        raise ValueError("parallel classes have no arrangement; det2 = 0")
    k = abs(d_full)
    if k > budget:
        raise BudgetExceededError(f"crossing count {shown_int(k)} exceeds the budget of {budget}")
    n, pu = split_signed(u_vec)
    m, pv = split_signed(v_vec)
    (ux, uy), (vx, vy) = pu, pv
    d0 = ux * vy - uy * vx
    ad0 = abs(d0)
    xux, xuy = _transversal(pu)
    xvx, xvy = _transversal(pv)

    den_u, den_v = n + 1, m + 1
    scale = den_u * den_v
    size = ad0 * scale
    u_xi = ux * xvy - uy * xvx  # det2(pu, xi_v); det2(t*pu - ad0*delta, w) is linear in t
    # (parameter, crossing) along each copy of each family, in crossing order.
    on_u: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    on_v: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    points: dict[Vec2, None] = {}  # in crossing order
    for j, on_j in enumerate(on_u, 1):
        ou_x, ou_y = ad0 * j * den_v * xux, ad0 * j * den_v * xuy
        for l, on_l in enumerate(on_v, 1):
            dx = l * den_u * xvx - j * den_v * xux
            dy = l * den_u * xvy - j * den_v * xuy
            delta_v = dx * vy - dy * vx
            e_v, e_xi, ex, ey = ad0 * delta_v, ad0 * (dx * xvy - dy * xvx), ad0 * dx, ad0 * dy
            sols = []  # (translate z, t, w), each checked against both line equations
            for t in range((delta_v if d0 > 0 else -delta_v) % scale, size, scale):
                i = (t * d0 - e_v) // size
                s, w = divmod(t * u_xi - e_xi, size)
                zx, zy = s * vx - i * xvx, s * vy - i * xvy
                if t * ux - w * vx == ex + size * zx and t * uy - w * vy == ey + size * zy:
                    sols.append((zx, zy, t, w))
            if len(sols) != ad0:
                raise ArrangementError(
                    f"copy pair produced {len(sols)} crossings, expected {ad0}"
                )
            sols.sort()  # t fixes z, so the translates are distinct
            for _zx, _zy, t, w in sols:
                pt = ((t * ux + ou_x) % size, (t * uy + ou_y) % size)
                if pt in points:
                    raise ArrangementError(f"two crossings at one point {pt}/{size}")
                on_j.append((t, len(points)))
                on_l.append((w, len(points)))
                points[pt] = None

    arc_other = [0] * (4 * k)
    gap = [0] * (4 * k)  # signed arc length leaving each port along its primitive, in 1/size
    for on_family, out_role, in_role in ((on_u, U_OUT, U_IN), (on_v, V_OUT, V_IN)):
        for on_copy in on_family:
            on_copy.sort()
            t_prev, c_prev = on_copy[-1][0] - size, on_copy[-1][1]  # the last crossing, a turn back
            for t, ci in on_copy:
                g = t - t_prev
                p, q = 4 * c_prev + out_role, 4 * ci + in_role
                arc_other[p], arc_other[q] = q, p
                gap[p], gap[q] = g, -g
                t_prev, c_prev = t, ci

    # The least common denominator of all displacements, so of point
    # differences; each gap times a primitive vector has content |gap|.
    unit = math.gcd(size, *gap)
    disp = [(g * x // unit, g * y // unit) for g, (x, y) in zip(gap, (pu, pu, pv, pv) * k)]
    x0, y0 = next(iter(points))
    point = tuple([((x - x0) % size // unit, (y - y0) % size // unit) for x, y in points])
    return Arrangement(d0, k, tuple(arc_other), tuple(disp), size // unit, point)  # keywords cost more


# A crossing's A- and B-resolution as ``contract`` takes them, keyed by d0 > 0:
# (A-exponent shift, joins (over-port, under-port, quarter turns, +1 left)).
# One local frame serves every crossing, so this is the whole A/B choice.
_CORNERS = {
    True: ((1, ((U_IN, V_IN, -1), (U_OUT, V_OUT, -1))), (-1, ((U_IN, V_OUT, 1), (U_OUT, V_IN, 1)))),
    False: ((1, ((U_IN, V_OUT, -1), (U_OUT, V_IN, -1))), (-1, ((U_IN, V_IN, 1), (U_OUT, V_OUT, 1)))),
}


@cache
def _walks(pairings: tuple) -> tuple[tuple, bool]:
    """Each slot's step (partner slot, quarter turns, negated from an under-port)
    under A and B, and whether B joins u_in to v_out: once per sign of d0."""
    steps = ([None] * 4, [None] * 4)
    for step, (_shift, joins) in zip(steps, pairings):
        for a, b, t in joins:
            step[a], step[b] = (b, t), (a, -t)
    return tuple(map(tuple, steps)), steps[1][U_IN][0] == V_OUT


def _components(arr: Arrangement, mask: int) -> list[tuple[int, int, int]]:
    """Walk one resolved state; bit i of ``mask`` B-resolves crossing i.

    Returns (homology_x, homology_y, winding) per component, as ``_whole``
    gives them.  Each walk starts at an over-strand out-port (every component
    alternates families, so it has one); under the orientation-compatible
    resolution it then runs every arc along its strand.  The unoriented
    ``_classify`` is blind to which way a walk runs.  At each port it takes
    the ``_walks`` step of its crossing's resolution.
    """
    arc_other, disp, denom = arr.arc_other, arr.disp, arr.denom
    steps = _walks(_CORNERS[arr.d0 > 0])[0]
    ports = 4 * arr.crossing_count
    seen = [False] * ports
    out = []
    for start in range(U_OUT, ports, 4):
        if seen[start]:
            continue
        p = start
        hx = hy = turns = 0
        while True:
            seen[p] = True
            dx, dy = disp[p]
            hx += dx
            hy += dy
            q = arc_other[p]
            seen[q] = True
            rt, t = steps[(mask >> (q >> 2)) & 1][q & 3]
            turns += t
            p = (q & ~3) | rt
            if p == start:
                break
        out.append(_whole(hx, hy, turns, denom))
    return out


def _whole(hx: int, hy: int, turns: int, denom: int) -> tuple[int, int, int]:
    """A closed walk's homology in lattice units and its winding in whole
    turns; raises ArrangementError unless both are whole."""
    if hx % denom or hy % denom:
        raise ArrangementError("component homology is not integral")
    if turns % 4:
        raise ArrangementError("component turning is not a whole number of turns")
    return hx // denom, hy // denom, turns // 4


def _classify(
    components: Iterable[tuple[int, int, int]],
    direction: Vec2 | None = None,
    oriented: bool = False,
) -> tuple[int, int, Vec2 | None]:
    """Check closed components and summarize them.

    ``components`` are (hx, hy, winding) triples, as ``_whole`` returns them.
    Returns (trivial circles, essential count, common primitive direction),
    the direction taken up to sign unless ``oriented``; ``direction`` is the
    one the state's earlier components already fixed.  Raises
    ArrangementError on a broken invariant: a trivial circle whose winding is
    not +-1 (or any trivial circle when ``oriented``), an essential component
    with nonzero winding or non-primitive homology, or essential components
    in two directions.
    """
    circles = count = 0
    for hx, hy, winding in components:
        if hx == 0 and hy == 0:
            if oriented:
                raise ArrangementError("trivial circle in an oriented smoothing")
            if winding not in (1, -1):
                raise ArrangementError(f"trivial circle with winding {winding}")
            circles += 1
            continue
        if winding != 0:
            raise ArrangementError(f"essential component with winding {winding}")
        if math.gcd(hx, hy) != 1:
            raise ArrangementError(f"essential component homology {(hx, hy)} not primitive")
        prim = (hx, hy) if oriented or hx > 0 or (hx == 0 and hy > 0) else (-hx, -hy)
        if direction is None:
            direction = prim
        elif direction != prim:
            raise ArrangementError("mixed primitive directions in one state")
        count += 1
    return circles, count, direction


# ----------------------------------------------------------------------
# Unoriented oracle product
# ----------------------------------------------------------------------

def _class(count: int, direction: Vec2 | None) -> UnorientedClass:
    """The residual class of ``count`` essential components along ``direction``."""
    return EMPTY if count == 0 else UnorientedClass((count * direction[0], count * direction[1]))


def _state_sum(arr: Arrangement, dump: IO[str] | None = None) -> dict[tuple, dict[int, int]]:
    """Brute force: trace each of the 2^k states, optionally listing them;
    keyed as ``contract`` keys its result.  Past ``DUMP_LIMIT`` crossings it
    raises BudgetExceededError before it traces any state."""
    k = arr.crossing_count
    if k > DUMP_LIMIT:
        raise BudgetExceededError(f"{k} crossings exceed the limit of {DUMP_LIMIT} for listing states")
    acc: dict[tuple, dict[int, int]] = {}
    for mask in range(1 << k):
        exponent = k - 2 * bin(mask).count("1")
        circles, ess_count, ess_dir = _classify(_components(arr, mask))
        bucket = acc.setdefault((ess_count, ess_dir), {})
        for de, dc in _DELTA_POWERS[circles]:
            de += exponent
            bucket[de] = bucket.get(de, 0) + dc
        if dump is not None:
            dump.write(f"{mask:0{k}b} {exponent} {circles} {_class(ess_count, ess_dir)}\n")
    return acc


def _shortest_cut(u: Vec2, v: Vec2) -> Vec2:
    """A primitive c minimising |det2(c, u)| + |det2(c, v)|, by Gauss-Lagrange
    reduction of that norm (Kaib-Schnorr 1996).  The norm of b - mu*a is convex
    and piecewise linear in mu, so the best integer step is next to a kink.

    Starting from the shorter of (1,0) and (0,1) is a tie-break, not dead
    code: without that first swap, about one pair in ten reduces to another
    cut of the same norm, and so to another sweep order.  (1,-1), (0,1) gets
    (0,1) with the swap and (-1,1) without it."""
    (ux, uy), (vx, vy) = u, v
    a, norm_a = (1, 0), abs(uy) + abs(vy)
    b, norm_b = (0, 1), abs(ux) + abs(vx)
    if norm_b < norm_a:
        a, norm_a, b = b, norm_b, a
    while True:
        (ax, ay), (bx, by) = a, b
        norm_b = None
        for wx, wy in u, v:
            da = ax * wy - ay * wx
            if da:
                q = (bx * wy - by * wx) // da
                for mu in q, q + 1:
                    cx, cy = bx - mu * ax, by - mu * ay
                    norm = abs(cx * uy - cy * ux) + abs(cx * vy - cy * vx)
                    if norm_b is None or norm < norm_b:
                        b, norm_b = (cx, cy), norm
        if norm_b >= norm_a:
            return a
        a, norm_a, b = b, norm_b, a


def _sweep_order(arr: Arrangement) -> list[int]:
    """Crossings by height along the shortest cut, then along its level curve.
    Each family's out-port displacements sum to its class times denom."""
    disp, denom = arr.disp, arr.denom
    ux, uy = map(sum, zip(*disp[U_OUT::4]))
    vx, vy = map(sum, zip(*disp[V_OUT::4]))
    cx, cy = _shortest_cut((ux // denom, uy // denom), (vx // denom, vy // denom))
    xx, xy = _transversal((cx, cy))
    height = [((cx * py - cy * px) % denom, (xx * py - xy * px) % denom) for px, py in arr.point]
    return sorted(range(arr.crossing_count), key=height.__getitem__)


def _reach(disp: Sequence[Vec2]) -> int:
    """The most |hx| or |hy| a path sums, walking each arc (listed twice) once."""
    return max(sum(abs(dx) for dx, _ in disp), sum(abs(dy) for _, dy in disp)) // 2


def _pack(hx: int, hy: int, turns: int, reach: int) -> int:
    """(hx, hy, turns) as balanced digits base 2*reach + 1, turns on top."""
    return hx + (2 * reach + 1) * (hy + (2 * reach + 1) * turns)


def _unpack(packed: int, reach: int) -> tuple[int, int, int]:
    """(hx, hy, turns) from ``_pack``, given |hx|, |hy| <= reach."""
    rest, hx = divmod(packed + reach, 2 * reach + 1)
    turns, hy = divmod(rest + reach, 2 * reach + 1)
    return hx - reach, hy - reach, turns


def contract(
    arc_other: Sequence[int], disp: Sequence[Vec2], denom: int, order: Iterable[int],
    pairings: Sequence[tuple[int, Sequence[tuple[int, int, int]]]], classify: Callable[..., tuple],
) -> dict[tuple, dict[int, int]]:
    """A state sum over four-port crossings, resolved one at a time in
    ``order`` (frontier contraction); the torus oracle and the planar bracket
    both run on it.

    Port 4*c + slot belongs to crossing c.  ``arc_other[p]`` is the port at
    the other end of p's arc and ``disp[p]`` the payload pair a path sums
    leaving p, in units of 1/``denom`` (negated at the arc's other end).
    ``pairings`` holds each resolution as (A-exponent shift, its two joins
    (a, b, t)): reach slot a, turn t quarter turns, leave by slot b.  The
    components one choice closes pass ``_whole``, then ``classify(closed,
    direction)`` returns (trivial circles, essential count added, direction),
    given the direction the state's earlier components fixed; both run once
    per distinct (closed paths' sums, direction) in a call.  Each trivial circle
    multiplies the coefficient by delta = -A^2 - A^-2.  Returns {(essential
    count, direction): {exponent: coeff}}.

    The open ports, ports of unresolved crossings whose arcs lead to resolved
    ones, depend only on the order, so all partial states share one layout.
    A state's key is the essential count and direction closed so far, then
    one int per open port, the path leaving it: far + (_pack(hx, hy, turns,
    reach) << B), its other end's port in the low B bits (B = the largest
    port's bit length) over its summed payload and quarter turns, balanced
    digits within ``_reach``.  Both ends hold the path, with opposite sums,
    so a join is integer adds; only a closed component's sums are unpacked.

    At each crossing, its own entries (from the key or its fresh arcs) go
    after the other open ports, then the ports its arcs open.  Each state
    joins the two port pairs, rewrites the joined paths' far ends, closes at
    most two components and drops the crossing's entries.  Exponents lack
    the last resolution's shift per crossing (the start state holds their
    total), so that resolution copies no polynomial.
    """
    bits = (len(arc_other) - 1).bit_length()  # an entry's low bits: the far port
    mask, reach = (1 << bits) - 1, _reach(disp)
    turn, step_y = _pack(0, 0, 1, reach) << bits, _pack(0, 1, 0, reach) << bits
    arcs = [q + (dx << bits) + step_y * dy for q, (dx, dy) in zip(arc_other, disp)]
    at = [0] * len(arc_other)  # each open port's key entry, 0 if not open
    layout: list[int] = []  # the open ports, after the key's count and direction
    last = pairings[-1][0]
    relative = [
        (shift - last, a, b, t * turn, a2, b2, t2 * turn) for shift, ((a, b, t), (a2, b2, t2)) in pairings
    ]
    order = list(order)
    closings: dict[tuple, tuple] = {}  # (closed paths' packed sums, direction) -> classify's answer
    states: dict[tuple, dict[int, int]] = {(0, None): {last * len(order): 1}}
    for c in order:
        c4 = 4 * c
        reads, fresh, opened = [], [], []
        for p in range(c4, c4 + 4):
            if at[p]:
                reads.append(p)
                layout.remove(p)
            else:
                fresh.append(p)
                if (q := arc_other[p]) >> 2 != c:
                    opened.append(q)
        # A state's other entries and c's read ones, then c's fresh arcs and
        # zeros for the opened ports, which every join rewrites; the opened
        # ports move down to ``cut`` once c's entries are dropped.
        gather = itemgetter(0, 1, *[at[p] for p in layout + reads])
        pad = [arcs[p] for p in fresh] + [0] * len(opened)
        cut = len(layout) + 2
        for i, p in enumerate(layout + reads + fresh + opened, 2):
            at[p] = i
        layout += opened
        # Each resolution's two joins (reach port a, turn, leave by port b),
        # each as the entries of a and b, b itself and the turn.
        choices = [
            (shift, at[c4 + a], at[c4 + b], c4 + b, t, at[c4 + a2], at[c4 + b2], c4 + b2, t2)
            for shift, a, b, t, a2, b2, t2 in relative
        ]
        nxt: dict[tuple, dict[int, int]] = {}
        for key, poly in states.items():
            base = [*gather(key), *pad]
            for shift, ia, ib, b, t, ia2, ib2, b2, t2 in choices:
                entries = base.copy()
                ea, eb = entries[ia], entries[ib]
                if (x := ea & mask) == b:  # a's path ends at b: it closes
                    closed = ((b - ea + t) >> bits,)
                else:
                    closed = ()
                    y = eb & mask
                    entries[at[x]] = eb - ea + x + t
                    entries[at[y]] = ea - eb + y - t
                ea, eb = entries[ia2], entries[ib2]
                if (x := ea & mask) == b2:
                    closed += ((b2 - ea + t2) >> bits,)
                else:
                    y = eb & mask
                    entries[at[x]] = eb - ea + x + t2
                    entries[at[y]] = ea - eb + y - t2
                del entries[cut:cut + 4]
                circles = 0
                if closed:
                    seen = closings.get(found := (closed, key[1]))
                    if seen is None:  # the first such closing in this call
                        whole = [_whole(*_unpack(sums, reach), denom) for sums in closed]
                        seen = closings[found] = classify(whole, key[1])
                    circles, added, entries[1] = seen
                    entries[0] = key[0] + added
                out = tuple(entries)
                acc = nxt.get(out)
                if acc is None:
                    if not (circles or shift):
                        # Only the last resolution has shift 0 (A's and B's shifts
                        # differ), and it reads ``poly`` last, so it may keep it.
                        nxt[out] = poly
                        continue
                    acc = nxt[out] = {}
                for de, dc in _DELTA_POWERS[circles]:
                    de += shift
                    for e, coeff in poly.items():
                        e += de
                        acc[e] = acc.get(e, 0) + coeff * dc
        for i, p in enumerate(opened, cut):
            at[p] = i
        states = nxt
    return states


def _contracted_sum(arr: Arrangement) -> dict[tuple, dict[int, int]]:
    """``contract`` along the shortest-cut sweep, each closed component checked
    as in the brute force."""
    return contract(arr.arc_other, arr.disp, arr.denom, _sweep_order(arr), _CORNERS[arr.d0 > 0], _classify)


def unoriented_product(
    x: UnorientedClass,
    y: UnorientedClass,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    dump: IO[str] | None = None,
) -> SkeinElement:
    """Superpose x over y, sum over all 2^k smoothing states, and reduce.

    The result is a standard-basis skein element.  The state sum is
    contracted crossing by crossing; a ``dump`` lists every state, so it
    takes the brute-force enumeration instead and at most ``DUMP_LIMIT``
    crossings.  ``workers`` has no effect: the contraction runs in one
    process, and the parameter stays only because existing callers (the
    benchmark scripts among them) still pass it.  Empty and parallel classes
    (det 0) take the crossing-free route: their primitives necessarily agree
    on the torus, and the product is the merged multicurve with added
    multiplicity; its one state is listed with the mask 0.
    """
    if x.is_empty or y.is_empty or det2(x.vec, y.vec) == 0:
        merged = y if x.is_empty else x
        if not (x.is_empty or y.is_empty):  # two canonical parallel classes: n*p and m*p
            merged = UnorientedClass((x.vec[0] + y.vec[0], x.vec[1] + y.vec[1]))
        if dump is not None:
            dump.write(f"0 0 0 {merged}\n")  # the listing's one line, as _state_sum writes it
        return SkeinElement.generator(merged, Basis.STANDARD)

    arr = build_arrangement(x.vec, y.vec, budget=budget)
    states = _contracted_sum(arr) if dump is None else _state_sum(arr, dump)  # one bucket per class
    return from_vec_maps(Basis.STANDARD, {
        (count * d[0], count * d[1]) if count else None: bucket for (count, d), bucket in states.items()
    })


# ----------------------------------------------------------------------
# Oriented oracle product
# ----------------------------------------------------------------------


def oriented_product(u: Vec2, v: Vec2, budget: int = DEFAULT_BUDGET) -> OrientedElement:
    """Oriented superposition product of gamma_u over gamma_v: a single
    monomial on the gamma key u + v."""
    if det2(u, v) == 0:
        # No crossings: an empty, parallel or antiparallel pair.  Antiparallel
        # copies cancel in pairs, each deleting circles of winding +1 and -1
        # (coefficients -A^2 and -A^-2, product 1); asserted, not traced.
        return OrientedElement.gamma((u[0] + v[0], u[1] + v[1]))

    arr = build_arrangement(u, v, budget=budget)
    k = arr.crossing_count
    # Every crossing takes the one orientation-compatible resolution, the one
    # joining u_in to v_out, and contributes its A-exponent shift.
    pairings = _CORNERS[arr.d0 > 0]
    is_b = _walks(pairings)[1]
    components = _components(arr, is_b * ((1 << k) - 1))
    _circles, count, direction = _classify(components, oriented=True)
    total = (count * direction[0], count * direction[1])
    if total != (u[0] + v[0], u[1] + v[1]):
        raise ArrangementError(
            f"oriented homology {total} does not match {u} + {v}"
        )
    return OrientedElement(((total, LaurentPoly.monomial(1, pairings[is_b][0] * k)),))


# The benchmark's tracer counts oriented oracle calls by this name, until
# ROADMAP item 1 points the tracer elsewhere.
oriented_product_with_ledger = oriented_product
