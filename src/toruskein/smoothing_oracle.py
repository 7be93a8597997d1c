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
is found by solving the two line equations in exact `Fraction` arithmetic; no
floating point appears anywhere.  Per copy pair there are |d0| crossings and
n*m*|d0| = |det2(u, v)| in total.

Each crossing has four ports: the over-strand enters at ``u_in`` and leaves at
``u_out``, the under-strand at ``v_in``/``v_out``.  Arcs between consecutive
crossings along a strand carry their exact displacement vectors; the homology
class of a traced component is the signed sum of the arc displacements it
traverses, and its turning number is accumulated in quarter turns at the
smoothed corners (arcs are geodesic segments and contribute no turning).
Essential components must have zero turning and trivial circles turning +-1;
violations raise ArrangementError, never a user error.

Resolution conventions (all signs downstream hang off these two choices):

* A-smoothing: joins u_in<->v_in and u_out<->v_out when d0 > 0, the other
  pairing when d0 < 0.  This is calibrated so that the product of the (1,0)
  and (0,1) classes is A*(1,-1) + A^-1*(1,1), and is applied uniformly (all
  crossings of the flat arrangement share one local frame).
* Oriented smoothing: the unique orientation-compatible pairing
  u_in<->v_out, u_out<->v_in, with coefficient A when that pairing is the
  A-smoothing (d0 < 0) and A^-1 otherwise.

A counterclockwise trivial circle counts winding +1.  In the oriented algebra
circles only ever appear in canceling pairs (coefficients -A^2 and -A^-2,
product 1), so each oriented product keeps a ledger of removed circles; the
ledger must balance exponent/2 against winding removal by removal.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable

from .laurent import LaurentPoly
from .oriented import OrientedElement
from .skein import Basis, SkeinElement
from .torus_curves import EMPTY, UnorientedClass, Vec2, det2, is_half_plane, split_signed

DEFAULT_BUDGET = 24

# Port roles within a crossing: over-strand in/out, under-strand in/out.
U_IN, U_OUT, V_IN, V_OUT = 0, 1, 2, 3


class BudgetExceededError(RuntimeError):
    """The state sum would be too large; raise instead of hanging."""


class ArrangementError(RuntimeError):
    """Internal consistency failure while building or tracing an arrangement."""


@dataclass(frozen=True, slots=True)
class SmoothingState:
    """One A/B choice per crossing; bit i set means crossing i is B-resolved."""

    mask: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.length):
            raise ValueError("state mask out of range")

    def is_b(self, crossing: int) -> bool:
        return bool((self.mask >> crossing) & 1)

    def __str__(self) -> str:
        return format(self.mask, f"0{self.length}b")


@dataclass(frozen=True, slots=True)
class TracedComponent:
    """One closed component of a resolved state."""

    homology: Vec2
    winding: int
    arc_count: int

    @property
    def is_trivial_circle(self) -> bool:
        return self.homology == (0, 0)


@dataclass(frozen=True, slots=True)
class Arrangement:
    """Generic-position superposition of two transverse multicurve families."""

    u_vec: Vec2
    v_vec: Vec2
    prim_u: Vec2
    prim_v: Vec2
    copies_u: int
    copies_v: int
    d0: int  # det2(prim_u, prim_v), nonzero
    crossing_count: int
    next_u: tuple[int, ...]  # successor crossing along the over-family
    next_v: tuple[int, ...]
    prev_u: tuple[int, ...]
    prev_v: tuple[int, ...]
    disp_u: tuple[tuple[int, int], ...]  # arc displacement numerators / denom
    disp_v: tuple[tuple[int, int], ...]
    denom: int
    copy_of: tuple[tuple[int, int], ...]  # (u copy, v copy) per crossing


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), (1 if a > 0 else -1) if a else 0, 0)
    g, x, y = _extended_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _transversal(prim: Vec2) -> Vec2:
    """A vector xi with det2(prim, xi) = 1."""
    g, s, t = _extended_gcd(prim[0], prim[1])
    if g != 1:
        raise ValueError(f"{prim} is not primitive")
    return (-t, s)


def _copy_pair_crossings(
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


_OFFSET_DENOMS = ((101, 103), (107, 109), (113, 127), (131, 137), (139, 149))


def build_arrangement(u_vec: Vec2, v_vec: Vec2, budget: int = DEFAULT_BUDGET) -> Arrangement:
    """Lay out the two families in generic position and index their crossings.

    Requires det2(u_vec, v_vec) != 0 (parallel families have no crossings and
    are handled by the product operations directly) and a crossing count
    within the budget.
    """
    d_full = det2(u_vec, v_vec)
    if d_full == 0:
        raise ValueError("parallel classes have no arrangement; det2 = 0")
    k = abs(d_full)
    if k > budget:
        raise BudgetExceededError(
            f"{k} crossings exceed the budget of {budget} (2^{k} states); "
            f"raise the budget to force the enumeration"
        )
    n, pu = split_signed(u_vec)
    m, pv = split_signed(v_vec)
    d0 = det2(pu, pv)
    if n * m * abs(d0) != k:
        raise ArrangementError("crossing count does not factor through the primitives")
    xi_u = _transversal(pu)
    xi_v = _transversal(pv)

    for den_u, den_v in _OFFSET_DENOMS:
        eps_u, eps_v = Fraction(1, den_u), Fraction(1, den_v)
        crossings: list[tuple[int, int, Fraction, Fraction]] = []
        points: set[tuple[Fraction, Fraction]] = set()
        degenerate = False
        for j in range(n):
            ou = ((j + 1) * eps_u * xi_u[0], (j + 1) * eps_u * xi_u[1])
            for l in range(m):
                ov = ((l + 1) * eps_v * xi_v[0], (l + 1) * eps_v * xi_v[1])
                for t, w in _copy_pair_crossings(pu, pv, ou, ov):
                    pt = ((t * pu[0] + ou[0]) % 1, (t * pu[1] + ou[1]) % 1)
                    if pt in points:
                        degenerate = True
                        break
                    points.add(pt)
                    crossings.append((j, l, t, w))
                if degenerate:
                    break
            if degenerate:
                break
        if not degenerate:
            break
    else:
        raise ArrangementError("could not find a non-degenerate offset assignment")

    if len(crossings) != k:
        raise ArrangementError(f"built {len(crossings)} crossings, expected {k}")

    next_u = [-1] * k
    next_v = [-1] * k
    prev_u = [-1] * k
    prev_v = [-1] * k
    disp_u: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))] * k
    disp_v: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))] * k

    for family, copies, prim, nxt, prv, disp, copy_idx, par_idx in (
        ("u", n, pu, next_u, prev_u, disp_u, 0, 2),
        ("v", m, pv, next_v, prev_v, disp_v, 1, 3),
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
                prv[ci_next] = ci
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

    def scale(pairs: list[tuple[Fraction, Fraction]]) -> tuple[tuple[int, int], ...]:
        return tuple((int(dx * denom), int(dy * denom)) for dx, dy in pairs)

    return Arrangement(
        u_vec=u_vec,
        v_vec=v_vec,
        prim_u=pu,
        prim_v=pv,
        copies_u=n,
        copies_v=m,
        d0=d0,
        crossing_count=k,
        next_u=tuple(next_u),
        next_v=tuple(next_v),
        prev_u=tuple(prev_u),
        prev_v=tuple(prev_v),
        disp_u=scale(disp_u),
        disp_v=scale(disp_v),
        denom=denom,
        copy_of=tuple((cr[0], cr[1]) for cr in crossings),
    )


class _Tracer:
    """Flattened port tables for walking resolved states of an arrangement."""

    def __init__(self, arr: Arrangement):
        k = arr.crossing_count
        self.k = k
        self.denom = arr.denom
        ports = 4 * k
        arc_other = [0] * ports
        disp_x = [0] * ports
        disp_y = [0] * ports
        for i in range(k):
            j = arr.next_u[i]
            arc_other[4 * i + U_OUT] = 4 * j + U_IN
            arc_other[4 * j + U_IN] = 4 * i + U_OUT
            disp_x[4 * i + U_OUT], disp_y[4 * i + U_OUT] = arr.disp_u[i]
            disp_x[4 * j + U_IN], disp_y[4 * j + U_IN] = -arr.disp_u[i][0], -arr.disp_u[i][1]
            j = arr.next_v[i]
            arc_other[4 * i + V_OUT] = 4 * j + V_IN
            arc_other[4 * j + V_IN] = 4 * i + V_OUT
            disp_x[4 * i + V_OUT], disp_y[4 * i + V_OUT] = arr.disp_v[i]
            disp_x[4 * j + V_IN], disp_y[4 * j + V_IN] = -arr.disp_v[i][0], -arr.disp_v[i][1]
        self.arc_other = arc_other
        self.disp_x = disp_x
        self.disp_y = disp_y

        if arr.d0 > 0:
            pair_a = (V_IN, V_OUT, U_IN, U_OUT)  # u_in<->v_in, u_out<->v_out
            arrive = (0, 2, 1, 3)  # quarter-turn headings E=0, N=1, W=2, S=3
            depart = (2, 0, 3, 1)
        else:
            pair_a = (V_OUT, V_IN, U_OUT, U_IN)  # u_in<->v_out, u_out<->v_in
            arrive = (0, 2, 3, 1)
            depart = (2, 0, 1, 3)
        # The B-pairing is the complementary matching of over- to under-ports:
        # flip the in/out bit of every A-partner.
        pair_b = tuple(pair_a[p] ^ 1 for p in range(4))
        self.pair_a = pair_a
        self.pair_b = pair_b
        turn = {}
        for q in range(4):
            for r in range(4):
                if (q < 2) == (r < 2):
                    continue  # smoothings only connect over-ports to under-ports
                diff = (depart[r] - arrive[q]) % 4
                if diff == 1:
                    turn[(q, r)] = 1
                elif diff == 3:
                    turn[(q, r)] = -1
                else:
                    raise ArrangementError("straight-through corner in turn table")
        self.turn = turn
        self._seen = [-1] * ports
        self._stamp = 0

    def components(self, mask: int, forward: bool = False) -> list[tuple[int, int, int, int]]:
        """Walk one resolved state.

        Returns (homology_x, homology_y, winding, arc_count) per component,
        homology in unscaled integer units.  With ``forward`` the walks start
        at over-strand out-ports, which under the orientation-compatible
        pairing traverses every arc in the direction of its strand (every
        component alternates families, so it contains such a port).
        """
        arc_other, disp_x, disp_y = self.arc_other, self.disp_x, self.disp_y
        pair_a, pair_b, turn, denom = self.pair_a, self.pair_b, self.turn, self.denom
        seen = self._seen
        self._stamp += 1
        stamp = self._stamp
        out = []
        starts = range(U_OUT, 4 * self.k, 4) if forward else range(4 * self.k)
        for start in starts:
            if seen[start] == stamp:
                continue
            p = start
            hx = hy = turns = arcs = 0
            while True:
                seen[p] = stamp
                hx += disp_x[p]
                hy += disp_y[p]
                arcs += 1
                q = arc_other[p]
                seen[q] = stamp
                qt = q & 3
                rt = (pair_b if (mask >> (q >> 2)) & 1 else pair_a)[qt]
                turns += turn[(qt, rt)]
                p = (q & ~3) | rt
                if p == start:
                    break
            if hx % denom or hy % denom:
                raise ArrangementError("component homology is not integral")
            if turns % 4:
                raise ArrangementError("component turning is not a whole number of turns")
            out.append((hx // denom, hy // denom, turns // 4, arcs))
        return out


def _classify(
    components: Iterable[tuple[int, int, int, int]], oriented: bool = False
) -> tuple[int, int, Vec2 | None]:
    """Check one resolved state's components and summarize them.

    ``components`` are the tracer's (hx, hy, winding, arcs) tuples.  Returns
    (trivial circles, essential count, common primitive direction), the
    direction taken up to sign unless ``oriented``.  Raises ArrangementError
    on a broken invariant: a trivial circle whose winding is not +-1 (or any
    trivial circle when ``oriented``), an essential component with nonzero
    winding or non-primitive homology, or essential components in two
    directions.
    """
    circles = count = 0
    direction: Vec2 | None = None
    for hx, hy, winding, _arcs in components:
        if hx == 0 and hy == 0:
            if oriented:
                raise ArrangementError("trivial circle in an oriented smoothing")
            if winding not in (1, -1):
                raise ArrangementError(f"trivial circle with winding {winding}")
            circles += 1
            continue
        if winding != 0:
            raise ArrangementError(f"essential component with winding {winding}")
        g, prim = split_signed((hx, hy))
        if g != 1:
            raise ArrangementError(f"essential component homology {(hx, hy)} not primitive")
        if not oriented and not is_half_plane(prim):
            prim = (-prim[0], -prim[1])
        if direction is None:
            direction = prim
        elif direction != prim:
            raise ArrangementError("mixed primitive directions in one state")
        count += 1
    return circles, count, direction


def trace(arr: Arrangement, state: SmoothingState) -> list[TracedComponent]:
    """Resolve one state and report its closed components, checked by
    ``_classify`` (the tracer itself checks that homology is integral)."""
    if state.length != arr.crossing_count:
        raise ValueError("state length does not match the arrangement")
    comps = _Tracer(arr).components(state.mask)
    _classify(comps)
    return [TracedComponent((hx, hy), winding, arcs) for hx, hy, winding, arcs in comps]


# ----------------------------------------------------------------------
# Unoriented oracle product
# ----------------------------------------------------------------------


def _delta_power_items(max_power: int) -> list[tuple[tuple[int, int], ...]]:
    powers = [LaurentPoly.one()]
    for _ in range(max_power):
        powers.append(powers[-1] * LaurentPoly.delta())
    return [p.terms() for p in powers]


def _state_sum(
    arr: Arrangement, start: int, step: int, dump: IO[str] | None = None
) -> dict[Vec2 | None, dict[int, int]]:
    """Accumulate the state sum over masks congruent to start modulo step."""
    tracer = _Tracer(arr)
    k = arr.crossing_count
    deltas = _delta_power_items(k)
    acc: dict[Vec2 | None, dict[int, int]] = {}
    for mask in range(start, 1 << k, step):
        exponent = k - 2 * bin(mask).count("1")
        circles, ess_count, ess_dir = _classify(tracer.components(mask))
        key = None if ess_count == 0 else (ess_count * ess_dir[0], ess_count * ess_dir[1])
        bucket = acc.setdefault(key, {})
        for exp, coeff in deltas[circles]:  # zeros are dropped by LaurentPoly
            bucket[exp + exponent] = bucket.get(exp + exponent, 0) + coeff
        if dump is not None:
            cls_text = "empty" if key is None else f"({key[0]},{key[1]})"
            dump.write(f"{mask:0{k}b} {exponent} {circles} {cls_text}\n")
    return acc


def _worker_count(requested: int, states: int) -> int:
    """Processes worth starting for ``states`` residues: at least 1, at most
    the CPU count and the number of states."""
    return max(1, min(requested, os.cpu_count() or 1, states))


def unoriented_product(
    x: UnorientedClass,
    y: UnorientedClass,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    dump: IO[str] | None = None,
) -> SkeinElement:
    """Superpose x over y, enumerate all 2^k smoothing states, and reduce.

    The result is a standard-basis skein element.  ``workers`` is clamped by
    ``_worker_count``; a ``dump`` of the states is written from one process.  Parallel classes (det 0)
    take the crossing-free route: their primitives necessarily agree on the
    torus, and the product is the merged multicurve with added multiplicity.
    """
    if x.is_empty:
        return SkeinElement.generator(y, Basis.STANDARD)
    if y.is_empty:
        return SkeinElement.generator(x, Basis.STANDARD)
    if det2(x.vec, y.vec) == 0:
        nx, px = x.split()
        ny, py = y.split()
        if px != py:
            raise ArrangementError("parallel non-trivial torus classes must share a primitive")
        merged = ((nx + ny) * px[0], (nx + ny) * px[1])
        return SkeinElement.generator(UnorientedClass(merged), Basis.STANDARD)

    arr = build_arrangement(x.vec, y.vec, budget=budget)
    workers = _worker_count(workers, 1 << arr.crossing_count)
    if workers > 1 and dump is None:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            parts = pool.starmap(_state_sum, [(arr, r, workers) for r in range(workers)])
    else:
        parts = [_state_sum(arr, 0, 1, dump=dump)]
    # make() adds up the residues' partial sums key by key.
    terms = [
        (EMPTY if key is None else UnorientedClass(key), LaurentPoly(bucket))
        for part in parts
        for key, bucket in part.items()
    ]
    return SkeinElement.make(Basis.STANDARD, terms)


# ----------------------------------------------------------------------
# Oriented oracle product
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GaussLedger:
    """Exponent/turning bookkeeping for one oriented product.

    ``smoothing_exponent`` is the total A-exponent contributed by crossing
    resolutions (one -sign(d0) per crossing).  ``removals`` records every
    deleted trivial circle as (exponent change, winding); a circle of winding
    w is deleted against the factor -A^(2w), so each entry must satisfy
    exponent change = 2 * winding.  For transverse families no circles appear
    at all; removals arise only when antiparallel curves cancel in pairs.
    """

    smoothing_exponent: int
    removals: tuple[tuple[int, int], ...] = ()

    @property
    def removal_exponent(self) -> int:
        return sum(de for de, _ in self.removals)

    @property
    def removed_winding(self) -> int:
        return sum(w for _, w in self.removals)

    @property
    def output_exponent(self) -> int:
        return self.smoothing_exponent + self.removal_exponent

    def relation_imbalance(self) -> int:
        """Sum of (exponent/2 - winding) over removals; zero when every circle
        deletion balances the grading."""
        return sum(de - 2 * w for de, w in self.removals) // 2


def oriented_product_with_ledger(
    u: Vec2, v: Vec2, budget: int = DEFAULT_BUDGET
) -> tuple[OrientedElement, GaussLedger]:
    """Oriented superposition product of gamma_u over gamma_v, with bookkeeping."""
    if u == (0, 0) or v == (0, 0):
        other = v if u == (0, 0) else u
        return OrientedElement.gamma(other), GaussLedger(0)
    d = det2(u, v)
    if d == 0:
        # Parallel families: no crossings.  Opposite orientations cancel in
        # pairs; each cancellation deletes circles of winding +1 and -1 with
        # coefficients -A^2 and -A^-2, total coefficient 1.
        nu, pu = split_signed(u)
        nv, pv = split_signed(v)
        if pu == pv:
            cancellations = 0
        else:
            if pv != (-pu[0], -pu[1]):
                raise ArrangementError("parallel oriented classes must be (anti)parallel")
            cancellations = min(nu, nv)
        removals = ((2, 1), (-2, -1)) * cancellations
        total = (u[0] + v[0], u[1] + v[1])
        return OrientedElement.gamma(total), GaussLedger(0, removals)

    arr = build_arrangement(u, v, budget=budget)
    k = arr.crossing_count
    sign = 1 if arr.d0 > 0 else -1
    # The orientation-compatible pairing is the A-smoothing exactly when
    # d0 < 0, so each crossing contributes A^(-sign(d0)).
    oriented_mask = 0 if arr.d0 < 0 else (1 << k) - 1
    components = _Tracer(arr).components(oriented_mask, forward=True)
    _circles, count, direction = _classify(components, oriented=True)
    total = (count * direction[0], count * direction[1])
    if total != (u[0] + v[0], u[1] + v[1]):
        raise ArrangementError(
            f"oriented homology {total} does not match {u} + {v}"
        )
    element = OrientedElement.make({total: LaurentPoly.monomial(1, -sign * k)})
    return element, GaussLedger(smoothing_exponent=-sign * k)


def oriented_product(u: Vec2, v: Vec2, budget: int = DEFAULT_BUDGET) -> OrientedElement:
    """Oriented superposition product; a single monomial on one gamma key."""
    return oriented_product_with_ledger(u, v, budget=budget)[0]


def psi_oracle(cls: UnorientedClass) -> OrientedElement:
    """Sum over all 2^n orientation assignments of the n parallel copies.

    Parallel copies have no crossings; each assignment reduces by canceling
    opposite pairs at unit coefficient, leaving the net signed count of
    copies.  This is the enumeration that certifies the binomial closed form
    used by the fast symmetrization map.
    """
    if cls.is_empty:
        return OrientedElement.unit()
    n, prim = cls.split()
    terms: list[tuple[Vec2, LaurentPoly]] = []
    for assignment in range(1 << n):
        net = n - 2 * bin(assignment).count("1")
        terms.append(((net * prim[0], net * prim[1]), LaurentPoly.one()))
    return OrientedElement.make(terms)
