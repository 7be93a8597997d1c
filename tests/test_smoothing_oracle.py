import io
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import BOUNDED, psi_oracle
from scan_arrangement import scan_arrangement

from toruskein.laurent import LaurentPoly
from toruskein.oriented import OrientedElement, gamma_mul
from toruskein.skein import Basis, SkeinElement
from toruskein import smoothing_oracle
from toruskein.smoothing_oracle import (
    U_IN,
    U_OUT,
    V_IN,
    V_OUT,
    ArrangementError,
    BudgetExceededError,
    build_arrangement,
    oriented_product,
    unoriented_product,
)
from toruskein.torus_curves import EMPTY, UnorientedClass, canonicalize, det2, split_signed
from toruskein.verify import canonical_classes


def cls(vec):
    return UnorientedClass(vec)


def std(vec):
    return SkeinElement.generator(cls(vec), Basis.STANDARD)


def _recursive_extended_gcd(a, b):
    """Euclid's back-substitution, one call per quotient: the reference for
    the Bezout pair the oracle's iterative form must return."""
    if b == 0:
        return (abs(a), (1 if a > 0 else -1) if a else 0, 0)
    g, x, y = _recursive_extended_gcd(b, a % b)
    return g, y, x - (a // b) * y


class TestExtendedGcd:
    @BOUNDED
    @given(
        st.one_of(st.integers(-60, 60), st.integers(-(10**12), 10**12)),
        st.one_of(st.integers(-60, 60), st.integers(-(10**12), 10**12)),
    )
    def test_matches_the_recursive_form(self, a, b):
        g, x, y = smoothing_oracle._extended_gcd(a, b)
        assert (g, x, y) == _recursive_extended_gcd(a, b)
        assert g == math.gcd(a, b) and x * a + y * b == g

    def test_small_square_exhaustively(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert smoothing_oracle._extended_gcd(a, b) == _recursive_extended_gcd(a, b)

    def test_chains_past_the_recursion_limit(self):
        fib = [0, 1]
        while len(fib) < 3000:
            fib.append(fib[-1] + fib[-2])
        g, x, y = smoothing_oracle._extended_gcd(fib[-1], fib[-2])
        assert g == 1 and x * fib[-1] + y * fib[-2] == 1
        xi = smoothing_oracle._transversal((fib[-1], fib[-2]))
        assert det2((fib[-1], fib[-2]), xi) == 1

    def test_a_transversal_of_a_multiple_is_refused(self):
        # No xi has det2((2, 4), xi) = 1, so the Bezout pair cannot give one.
        with pytest.raises(ValueError, match=r"^\(2, 4\) is not primitive$"):
            smoothing_oracle._transversal((2, 4))


def _successors(arr, family):
    """Successor crossing of each crossing along the u or v family, read from
    the port table; each arc must end at the successor's in-port."""
    out_role, in_role = (U_OUT, U_IN) if family == "u" else (V_OUT, V_IN)
    ends = [arr.arc_other[4 * i + out_role] for i in range(arr.crossing_count)]
    assert all(q & 3 == in_role for q in ends)
    return [q >> 2 for q in ends]


def _arcs(arr, family):
    """Displacement of each arc leaving a crossing along the u or v family."""
    out_role = U_OUT if family == "u" else V_OUT
    return [arr.disp[4 * i + out_role] for i in range(arr.crossing_count)]


def _cycles(successor):
    seen = set()
    count = 0
    for start in range(len(successor)):
        if start in seen:
            continue
        count += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = successor[i]
    return count


class TestBuildArrangement:
    def test_single_intersection(self):
        arr = build_arrangement((1, 0), (0, 1))
        assert arr.crossing_count == 1
        # each strand is one arc from the crossing's out-port back to its in-port
        assert arr.arc_other == (U_OUT, U_IN, V_OUT, V_IN)
        assert _successors(arr, "u") == [0] and _successors(arr, "v") == [0]
        assert _arcs(arr, "u") == [(1 * arr.denom, 0)]
        assert _arcs(arr, "v") == [(0, 1 * arr.denom)]

    def test_two_copies_give_two_crossings(self):
        arr = build_arrangement((2, 0), (0, 1))
        assert arr.crossing_count == 2
        # each over-copy is a one-arc component
        assert _cycles(_successors(arr, "u")) == 2
        assert _cycles(_successors(arr, "v")) == 1

    def test_three_crossings_with_fractional_arcs(self):
        arr = build_arrangement((1, 2), (2, 1))
        assert arr.crossing_count == 3
        assert _cycles(_successors(arr, "u")) == 1 and _cycles(_successors(arr, "v")) == 1
        # each of the three over-arcs advances by a third of the curve
        assert all(
            (dx * 3, dy * 3) == (1 * arr.denom, 2 * arr.denom) for dx, dy in _arcs(arr, "u")
        )

    def test_crossing_count_matches_determinant(self):
        for u in [(1, 0), (2, 0), (1, 2), (2, -2), (3, 1)]:
            for v in [(0, 1), (1, 1), (2, 1), (1, -2)]:
                d = det2(u, v)
                if d == 0 or abs(d) > 12:
                    continue
                arr = build_arrangement(u, v)
                assert arr.crossing_count == abs(d)
                assert _cycles(_successors(arr, "u")) == split_signed(u)[0]
                assert _cycles(_successors(arr, "v")) == split_signed(v)[0]
                # both ends of every arc: each names the other, displaced oppositely
                for p, q in enumerate(arr.arc_other):
                    assert arr.arc_other[q] == p
                    assert arr.disp[q] == (-arr.disp[p][0], -arr.disp[p][1])

    def test_matches_the_scan_builder(self):
        vecs = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
        pairs = [(u, v) for u in vecs for v in vecs if 0 < abs(det2(u, v)) <= 12]
        assert len(pairs) > 1500
        for u, v in pairs:
            assert build_arrangement(u, v) == scan_arrangement(u, v), (u, v)

    def test_parallel_classes_rejected(self):
        with pytest.raises(ValueError):
            build_arrangement((1, 1), (2, 2))

    def test_a_wrong_handed_transversal_finds_no_crossing(self, monkeypatch):
        # Offsets along -xi (det2(prim, -xi) = -1) break the line equations the
        # solutions are checked against, so the one copy pair finds none.
        transversal = smoothing_oracle._transversal
        monkeypatch.setattr(smoothing_oracle, "_transversal", lambda p: tuple(-c for c in transversal(p)))
        with pytest.raises(ArrangementError, match="^copy pair produced 0 crossings, expected 1$"):
            build_arrangement((1, 0), (0, 1))

    def test_copies_offset_by_nothing_cross_at_one_point(self, monkeypatch):
        # With a zero transversal the two (1, 0) copies lie on one line, so
        # both meet the (0, 1) curve at its origin.
        monkeypatch.setattr(smoothing_oracle, "_transversal", lambda p: (0, 0))
        with pytest.raises(ArrangementError, match=r"^two crossings at one point \(0, 0\)/6$"):
            build_arrangement((2, 0), (0, 1))

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match="^crossing count 25 exceeds the budget of 24$"):
            build_arrangement((5, 0), (0, 5), budget=24)
        assert build_arrangement((5, 0), (0, 5), budget=25).crossing_count == 25
        assert build_arrangement((4, 0), (0, 6)).crossing_count == 24  # the default budget admits 24


def _traced(arr, mask):
    """The (hx, hy, winding) components of one state, after the
    checks every walk passes."""
    comps = smoothing_oracle._components(arr, mask)
    smoothing_oracle._classify(comps)
    return comps


class TestTrace:
    def test_single_crossing_states(self):
        arr = build_arrangement((1, 0), (0, 1))
        homologies = []
        for mask in (0, 1):
            comps = _traced(arr, mask)
            assert len(comps) == 1
            hx, hy, winding = comps[0]
            assert winding == 0
            assert [len(arcs) for arcs in _component_arcs(arr, mask)] == [2]
            homologies.append((hx, hy))
        # the two smoothings produce the (1,1) and (1,-1) classes
        assert {(abs(hx), abs(hy)) for hx, hy in homologies} == {(1, 1)}
        assert {h in ((1, 1), (-1, -1)) for h in homologies} == {True, False}

    def test_trivial_circle_has_unit_winding(self):
        for u, v in ((1, 1), (1, -1)), ((1, -1), (1, 1)):  # d0 = -2 and +2
            arr = build_arrangement(u, v)
            windings = []
            for mask in range(4):
                for hx, hy, winding in _traced(arr, mask):
                    if (hx, hy) == (0, 0):
                        windings.append(winding)
            assert sorted(windings) == [-1, 1], (u, v)


class TestClassify:
    """Component invariants on synthetic (hx, hy, winding) triples."""

    @pytest.mark.parametrize(
        "components, oriented, message",
        [
            ([(0, 0, 0)], False, "trivial circle with winding 0"),
            ([(0, 0, 2)], False, "trivial circle with winding 2"),
            ([(1, 0, 1)], False, "essential component with winding 1"),
            ([(2, 0, 0)], False, "not primitive"),
            ([(1, 0, 0), (0, 1, 0)], False, "mixed primitive directions"),
            ([(0, 0, 1)], True, "trivial circle in an oriented smoothing"),
            ([(1, 2, 0), (-1, -2, 0)], True, "mixed primitive directions"),
        ],
    )
    def test_broken_invariant_raises(self, components, oriented, message):
        with pytest.raises(ArrangementError, match=message):
            smoothing_oracle._classify(components, oriented=oriented)

    def test_directions_agree_up_to_sign_when_unoriented(self):
        components = [(1, 2, 0), (-1, -2, 0), (0, 0, 1), (0, 0, -1)]
        assert smoothing_oracle._classify(components) == (2, 2, (1, 2))

    def test_oriented_direction_keeps_its_sign(self):
        components = [(-1, -2, 0), (-1, -2, 0)]
        assert smoothing_oracle._classify(components, oriented=True) == (0, 2, (-1, -2))


def _sum(acc):
    """A state sum without zero coefficients or empty buckets."""
    out = {key: {e: c for e, c in bucket.items() if c} for key, bucket in acc.items()}
    return {key: bucket for key, bucket in out.items() if bucket}


def _cut_cost(u, v):
    """Crossings of the two families with a shortest cut curve."""
    cut = smoothing_oracle._shortest_cut(u, v)
    return abs(det2(cut, u)) + abs(det2(cut, v))


def _peak_open_ports(arr):
    """The most ports open at once along the sweep: ports of unresolved
    crossings whose arcs lead to resolved ones."""
    resolved = set()
    open_ports = set()
    peak = 0
    for c in smoothing_oracle._sweep_order(arr):
        resolved.add(c)
        for p in range(4 * c, 4 * c + 4):
            open_ports.discard(p)
            if arr.arc_other[p] >> 2 not in resolved:
                open_ports.add(arr.arc_other[p])
        peak = max(peak, len(open_ports))
    return peak


def _assert_contraction_matches_enumeration(pairs):
    for u, v in pairs:
        arr = build_arrangement(u, v)
        contracted = smoothing_oracle._contracted_sum(arr)
        assert _sum(contracted) == _sum(smoothing_oracle._state_sum(arr)), (u, v)
        assert _peak_open_ports(arr) <= 2 * _cut_cost(u, v) + 2, (u, v)


class TestContraction:
    """The crossing-by-crossing state sum against the 2^k enumeration."""

    def test_matches_enumeration_on_small_pairs(self):
        classes = [c.vec for c in canonical_classes(3)]
        pairs = [(u, v) for u in classes for v in classes if 0 < abs(det2(u, v)) <= 12]
        assert len(pairs) > 400
        _assert_contraction_matches_enumeration(pairs)

    def test_matches_enumeration_with_copies(self):
        rng = random.Random(2014)
        pairs = []
        # n copies of pu over m copies of pv, k = n*m*|det2(pu, pv)| crossings.
        for k, n, m, wanted in ((13, 1, 1, 1), (14, 2, 7, 1), (15, 3, 5, 2)):
            found = 0
            while found < wanted:
                pu = (rng.randint(-3, 3), rng.randint(-3, 3))
                pv = (rng.randint(-3, 3), rng.randint(-3, 3))
                if n * m * abs(det2(pu, pv)) == k:
                    u, v = (n * pu[0], n * pu[1]), (m * pv[0], m * pv[1])
                    pairs.append((canonicalize(u)[0].vec, canonicalize(v)[0].vec))
                    found += 1
        assert [abs(det2(u, v)) for u, v in pairs] == [13, 14, 15, 15]
        _assert_contraction_matches_enumeration(pairs)

    def test_matches_enumeration_in_shuffled_orders(self, monkeypatch):
        # The sweep is one order of many: any order must give the same sum,
        # so the key's delete-and-append bookkeeping is checked off the sweep.
        rng = random.Random(13)
        classes = [c.vec for c in canonical_classes(3)]
        pairs = [(u, v) for u in classes for v in classes if 0 < abs(det2(u, v)) <= 10]
        for u, v in rng.sample(pairs, 80):
            arr = build_arrangement(u, v)
            order = list(range(arr.crossing_count))
            rng.shuffle(order)
            monkeypatch.setattr(smoothing_oracle, "_sweep_order", lambda _arr: order)
            contracted = smoothing_oracle._contracted_sum(arr)
            assert _sum(contracted) == _sum(smoothing_oracle._state_sum(arr)), (u, v, order)

    @pytest.mark.parametrize(
        "u, v, resolution, oriented",
        [
            ((2, 1), (1, -2), 0, True),  # d0 = -5: A joins u_in to v_out
            ((2, 1), (1, -2), 1, False),
            ((1, -2), (2, 1), 0, False),  # d0 = +5: B joins u_in to v_out
            ((1, -2), (2, 1), 1, True),
        ],
        ids=["neg-A", "neg-B", "pos-A", "pos-B"],
    )
    def test_tampered_turn_table_raises(self, monkeypatch, u, v, resolution, oriented):
        # One join turning the wrong way breaks every walk through it; the
        # oriented product walks only the orientation-compatible resolution.
        arr = build_arrangement(u, v)
        pairings = list(smoothing_oracle._CORNERS[arr.d0 > 0])
        shift, ((a, b, t), join) = pairings[resolution]
        pairings[resolution] = (shift, ((a, b, -t), join))
        monkeypatch.setitem(smoothing_oracle._CORNERS, arr.d0 > 0, tuple(pairings))
        with pytest.raises(ArrangementError, match="turn"):
            smoothing_oracle._contracted_sum(arr)
        with pytest.raises(ArrangementError, match="turn"):
            smoothing_oracle._state_sum(arr)
        if oriented:
            with pytest.raises(ArrangementError, match="turn"):
                oriented_product(u, v)
        else:
            assert oriented_product(u, v) == gamma_mul(u, v)

    def test_classify_runs_once_per_distinct_closing(self, monkeypatch):
        # Within one contraction a repeated (closed components, direction)
        # reuses its first answer; the sum still matches the enumeration.
        calls = []
        classify = smoothing_oracle._classify

        def counted(closed, direction):
            calls.append((tuple(closed), direction))
            return classify(closed, direction)

        for u, v in [((2, 1), (1, -2)), ((2, 2), (2, -2)), ((3, -6), (0, 4))]:
            arr = build_arrangement(u, v)
            expected = smoothing_oracle._state_sum(arr) if arr.crossing_count <= 8 else None
            calls.clear()
            monkeypatch.setattr(smoothing_oracle, "_classify", counted)
            contracted = smoothing_oracle._contracted_sum(arr)
            monkeypatch.undo()
            assert calls and len(set(calls)) == len(calls), (u, v)
            if expected is not None:
                assert _sum(contracted) == _sum(expected), (u, v)

    @pytest.mark.parametrize("u, v", [((2, 1), (1, -2)), ((2, 2), (2, -2))])
    def test_a_classify_error_raises_through_the_contraction(self, monkeypatch, u, v):
        # The component classified last in a clean run is refused by a stub:
        # the closing that holds it must still reach the stub and raise.  It is
        # refused up to sign: the enumeration, which takes products of at most
        # ENUMERATE_LIMIT crossings, walks a component from an over-strand
        # out-port, so it may run it the other way and see it negated.
        seen = []
        classify = smoothing_oracle._classify
        monkeypatch.setattr(
            smoothing_oracle, "_classify", lambda closed, d: seen.extend(closed) or classify(closed, d)
        )
        smoothing_oracle._contracted_sum(build_arrangement(u, v))
        refused = seen[-1]
        negated = tuple(-n for n in refused)

        def stub(closed, direction):
            if refused in closed or negated in closed:
                raise ArrangementError(f"stub refuses {refused}")
            return classify(closed, direction)

        monkeypatch.setattr(smoothing_oracle, "_classify", stub)
        with pytest.raises(ArrangementError, match="stub refuses"):
            smoothing_oracle._contracted_sum(build_arrangement(u, v))
        with pytest.raises(ArrangementError, match="stub refuses"):
            unoriented_product(cls(u), cls(v))

    @pytest.mark.parametrize("u, v", [((2, 1), (1, -2)), ((2, 0), (1, 3))], ids=["enumerated", "contracted"])
    def test_an_arc_off_the_lattice_raises_through_the_product(self, monkeypatch, u, v):
        # One arc moved by 1/denom along x (both ends, so the table stays
        # consistent): every state has a component through it, whose homology
        # is then no lattice vector.  Both engines check it in ``_whole``.
        build = smoothing_oracle.build_arrangement

        def tampered(*args, **kwargs):
            arr = build(*args, **kwargs)
            disp, q = list(arr.disp), arr.arc_other[U_OUT]
            dx, dy = disp[U_OUT]
            disp[U_OUT], disp[q] = (dx + 1, dy), (-dx - 1, -dy)
            return arr._replace(disp=tuple(disp))

        monkeypatch.setattr(smoothing_oracle, "build_arrangement", tampered)
        assert build(u, v).denom > 1
        with pytest.raises(ArrangementError, match="^component homology is not integral$"):
            unoriented_product(cls(u), cls(v))

    def test_twenty_six_crossings(self):
        x, y = cls((5, 1)), cls((1, -5))
        assert unoriented_product(x, y, budget=26) == std((5, 1)) * std((1, -5))

    @pytest.mark.parametrize("u, v", [((150, 0), (0, 1)), ((1, 0), (0, 150))])
    def test_one_hundred_fifty_parallel_copies(self, u, v):
        # More copies than any fixed offset denominator could keep apart.
        assert unoriented_product(cls(u), cls(v), budget=150) == std(u) * std(v)

    @pytest.mark.parametrize("u, v, width", [((1, 0), (3, 40), 8), ((3, 1), (1, -9), 8)])
    def test_one_long_winding_strand(self, u, v, width):
        # Forty and twenty-eight crossings, yet a cut curve meets only four
        # strands, so the sweep keeps at most eight ports open.
        assert _peak_open_ports(build_arrangement(u, v, budget=40)) == width
        start = time.process_time()
        assert unoriented_product(cls(u), cls(v), budget=40) == std(u) * std(v)
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize(
        "u, v, denom",
        [
            ((-8, -6), (-7, -7), 24),  # 2 copies over 7, d0 = -1: k = 14
            ((8, -6), (7, -7), 24),
            ((-8, -6), (-6, -3), 24),  # 2 copies over 3, d0 = -2: k = 12
            ((-8, -6), (-2, 0), 9),  # 2 copies over 2, d0 = 3: k = 12
        ],
    )
    def test_matches_enumeration_on_copy_pairs_with_negative_displacements(self, u, v, denom):
        # The largest denominators among copy pairs of at most 14 crossings
        # (coordinates within 8), so the payload digits are as wide as they get.
        arr = build_arrangement(u, v)
        assert arr.denom == denom
        assert any(d < 0 for p in (U_OUT, V_OUT) for d in arr.disp[p])
        _assert_contraction_matches_enumeration([(u, v)])


def _component_arcs(arr, mask):
    """Each component of one state as its arcs' displacements in walk order."""
    steps = smoothing_oracle._walks(smoothing_oracle._CORNERS[arr.d0 > 0])[0]
    seen, out = set(), []
    for start in range(U_OUT, 4 * arr.crossing_count, 4):
        if start in seen:
            continue
        p, arcs = start, []
        while not arcs or p != start:
            q = arr.arc_other[p]
            seen.update((p, q))
            arcs.append(arr.disp[p])
            p = (q & ~3) | steps[(mask >> (q >> 2)) & 1][q & 3][0]
        out.append(arcs)
    return out


PACKED_PAIRS = [((1, 0), (0, 1)), ((2, 1), (1, -2)), ((-2, -2), (-1, 1)), ((2, -2), (2, 2)), ((-4, -2), (1, -1))]


class TestPackedPaths:
    """``contract`` holds a path as its far port plus (hx, hy, turns) packed
    by ``_pack`` within the per-arrangement bound ``_reach``."""

    @pytest.mark.parametrize("u, v", PACKED_PAIRS)
    def test_reach_bounds_every_path(self, u, v):
        # An open path of a partial state is a run of consecutive arcs of a
        # component of every state completing it, so all runs of all states
        # bound what any path sums.
        arr = build_arrangement(u, v)
        reach = smoothing_oracle._reach(arr.disp)
        largest = 0
        for mask in range(1 << arr.crossing_count):
            for arcs in _component_arcs(arr, mask):
                for i in range(len(arcs)):
                    hx = hy = 0
                    for dx, dy in arcs[i:] + arcs[:i]:
                        hx, hy = hx + dx, hy + dy
                        largest = max(largest, abs(hx), abs(hy))
        assert 0 < largest <= reach

    @pytest.mark.parametrize("u, v", PACKED_PAIRS)
    def test_round_trip_at_the_corners_of_the_bound(self, u, v):
        arr = build_arrangement(u, v)
        reach, far = smoothing_oracle._reach(arr.disp), 4 * arr.crossing_count - 1
        bits = far.bit_length()
        for hx in (-reach, reach):
            for hy in (-reach, reach):
                for turns in (-reach, reach):
                    entry = far + (smoothing_oracle._pack(hx, hy, turns, reach) << bits)
                    assert entry & ((1 << bits) - 1) == far
                    assert smoothing_oracle._unpack(entry >> bits, reach) == (hx, hy, turns)

    @given(st.data())
    def test_round_trip(self, data):
        u, v = data.draw(st.sampled_from(PACKED_PAIRS))
        arr = build_arrangement(u, v)
        reach, bits = smoothing_oracle._reach(arr.disp), (4 * arr.crossing_count - 1).bit_length()
        digit = st.one_of(st.sampled_from([-reach, reach]), st.integers(-reach, reach))
        hx, hy, turns = data.draw(digit), data.draw(digit), data.draw(digit)
        far = data.draw(st.integers(0, 4 * arr.crossing_count - 1))
        entry = far + (smoothing_oracle._pack(hx, hy, turns, reach) << bits)
        assert entry & ((1 << bits) - 1) == far
        assert smoothing_oracle._unpack(entry >> bits, reach) == (hx, hy, turns)


class TestShortestCut:
    def test_reduction_finds_the_minimum(self):
        classes = [c.vec for c in canonical_classes(6)]
        pairs = [(u, v) for u in classes for v in classes if det2(u, v)]
        assert len(pairs) > 6000
        for u, v in pairs:
            def norm(c):
                return abs(det2(c, u)) + abs(det2(c, v))
            cut = smoothing_oracle._shortest_cut(u, v)
            assert math.gcd(*cut) == 1, (u, v)
            # Any c no longer than (1,0) or (0,1) lies in this box: the map
            # c -> (det2(c, u), det2(c, v)) has determinant det2(u, v), so its
            # inverse scales 1-norms by at most max|coord| / |det2(u, v)|.
            bound = max(map(abs, u + v)) * min(norm((1, 0)), norm((0, 1))) // abs(det2(u, v))
            box = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
            assert norm(cut) == min(norm(c) for c in box if c != (0, 0)), (u, v)

    def test_ties_go_to_the_shorter_starting_vector(self):
        # (0,1) and (-1,1) both have norm 1; starting from (0,1), the shorter
        # of (1,0) and (0,1), the reduction stops at once.  The cut fixes the
        # sweep order, so this pins the order too.
        assert smoothing_oracle._shortest_cut((1, -1), (0, 1)) == (0, 1)

    def test_points_are_offsets_from_crossing_zero(self):
        arr = build_arrangement((1, 2), (2, 1))
        assert arr.point[0] == (0, 0)
        assert len(set(arr.point)) == arr.crossing_count
        # crossing 0's successor along u lies one over-arc further on
        i = arr.arc_other[U_OUT] >> 2
        dx, dy = arr.disp[U_OUT]
        assert arr.point[i] == (dx % arr.denom, dy % arr.denom)


class TestUnorientedProduct:
    def test_chart_anchor(self):
        expected = SkeinElement.make(
            Basis.STANDARD,
            {cls((1, -1)): LaurentPoly.parse("A"), cls((1, 1)): LaurentPoly.parse("A^-1")},
        )
        assert unoriented_product(cls((1, 0)), cls((0, 1))) == expected

    def test_parallel_union(self):
        assert unoriented_product(cls((1, 0)), cls((1, 0))) == std((2, 0))
        assert unoriented_product(cls((2, 4)), cls((1, 2))) == std((3, 6))

    def test_every_parallel_pair_gives_the_fast_product(self):
        # Two canonical classes with det2 0 are multiples of one primitive, so
        # the crossing-free route only adds their multiplicities.
        classes = canonical_classes(8)
        pairs = [(x, y) for x in classes for y in classes if det2(x.vec, y.vec) == 0]
        assert len(pairs) == 448
        for x, y in pairs:
            product = unoriented_product(x, y)
            assert product == std(x.vec) * std(y.vec), (x, y)
            assert product.support() == (cls((x.vec[0] + y.vec[0], x.vec[1] + y.vec[1])),)

    def test_small_pairs_store_no_zero_coefficient(self):
        # The state sums' buckets do hold zero entries on these pairs, so each
        # must be wrapped with its zeros dropped.
        classes = [c.vec for c in canonical_classes(3)]
        pairs = [(u, v) for u in classes for v in classes if 0 < det2(u, v) <= 12]
        assert len(pairs) > 200
        for i, (u, v) in enumerate(pairs):
            dump = io.StringIO() if i % 16 == 0 else None  # the brute force too
            product = unoriented_product(cls(u), cls(v), dump=dump)
            for _, coeff in product.terms():
                assert coeff and all(coeff._terms.values()), (u, v, coeff._terms)
            assert product == std(u) * std(v), (u, v)

    def test_empty_operands(self):
        assert unoriented_product(EMPTY, cls((2, 1))) == std((2, 1))
        assert unoriented_product(cls((2, 1)), EMPTY) == std((2, 1))
        assert unoriented_product(EMPTY, EMPTY) == SkeinElement.unit(Basis.STANDARD)

    def test_full_value_with_trivial_circles(self):
        # 2^2 states; the mixed states each contribute a circle factor.
        expected = SkeinElement.make(
            Basis.STANDARD,
            {
                cls((2, 0)): LaurentPoly.parse("A^2"),
                cls((0, 2)): LaurentPoly.parse("A^-2"),
                EMPTY: LaurentPoly.delta() * 2,
            },
        )
        result = unoriented_product(cls((1, 1)), cls((1, -1)))
        assert result == expected
        fast = std((1, 1)) * std((1, -1))
        assert result == fast

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            unoriented_product(cls((4, 0)), cls((0, 7)), budget=24)

    def test_workers_do_not_change_the_result(self):
        x, y = cls((2, 1)), cls((1, -2))
        assert unoriented_product(x, y, workers=2) == unoriented_product(x, y)

    def test_each_product_builds_its_arrangement_once(self, monkeypatch):
        calls = []
        build = smoothing_oracle.build_arrangement
        monkeypatch.setattr(
            smoothing_oracle, "build_arrangement", lambda *a, **kw: calls.append(a) or build(*a, **kw)
        )
        unoriented_product(cls((2, 1)), cls((1, -2)))
        unoriented_product(cls((1, 1)), cls((1, -1)), dump=io.StringIO())
        oriented_product((2, 1), (1, -2))
        assert calls == [((2, 1), (1, -2)), ((1, 1), (1, -1)), ((2, 1), (1, -2))]

    def test_products_of_at_most_five_crossings_are_enumerated(self, monkeypatch):
        # The engine is chosen by crossing count: the k = 5 product never
        # reaches the contraction, and the k = 6 one does.
        assert smoothing_oracle.ENUMERATE_LIMIT == 5

        def contract(*args, **kwargs):
            raise AssertionError("contracted")

        monkeypatch.setattr(smoothing_oracle, "contract", contract)
        assert unoriented_product(cls((2, 1)), cls((1, -2))) == std((2, 1)) * std((1, -2))
        with pytest.raises(AssertionError, match="^contracted$"):
            unoriented_product(cls((2, 0)), cls((1, 3)))

    def test_state_dump_lists_every_state(self):
        buffer = io.StringIO()
        unoriented_product(cls((1, 1)), cls((1, -1)), dump=buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 4  # exactly 2^k states
        records = [line.split() for line in lines]
        assert [r[0] for r in records] == ["00", "01", "10", "11"]
        for mask, exponent, circles, residual in records:
            assert int(exponent) == 2 - 2 * mask.count("1")
            assert residual == "empty" or residual.startswith("(")
        assert sum(int(r[2]) for r in records) == 2  # the two mixed states

    def test_state_sum_refuses_past_the_dump_limit_before_tracing(self, monkeypatch):
        # The limit is checked from |det2| before any work: the arrangement is not even built.
        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built

        monkeypatch.setattr(smoothing_oracle, "build_arrangement", build)
        with pytest.raises(BudgetExceededError, match="^crossing count 17 exceeds the dump limit of 16$"):
            unoriented_product(cls((17, 0)), cls((0, 1)), budget=40, dump=io.StringIO())
        with pytest.raises(Built):  # 16 crossings pass the limit and go on to the build
            unoriented_product(cls((16, 0)), cls((0, 1)), dump=io.StringIO())

    def test_delta_powers_cover_every_state_the_brute_force_takes(self):
        # A state of k crossings closes at most k circles, one per over-strand out-port.
        powers = smoothing_oracle._DELTA_POWERS
        assert len(powers) == smoothing_oracle.DUMP_LIMIT + 1
        for n, terms in enumerate(powers):
            assert LaurentPoly(terms) == LaurentPoly.delta() ** n
        # (4,0) over (0,4) is a 4x4 grid, whose checkerboard states close 8 circles.
        dump = io.StringIO()
        assert unoriented_product(cls((4, 0)), cls((0, 4)), dump=dump) == std((4, 0)) * std((0, 4))
        assert max(int(line.split()[2]) for line in dump.getvalue().splitlines()) == 8


class TestOrientedProduct:
    def test_chart_anchor(self):
        assert oriented_product((1, 0), (0, 1)) == OrientedElement.make(
            {(1, 1): LaurentPoly.parse("A^-1")}
        )

    def test_inverse_pair(self):
        assert oriented_product((1, 0), (-1, 0)) == OrientedElement.unit()

    def test_determinant_minus_two(self):
        assert oriented_product((1, 1), (1, -1)) == OrientedElement.make(
            {(2, 0): LaurentPoly.parse("A^2")}
        )

    def test_unit_operands(self):
        assert oriented_product((0, 0), (2, -3)) == OrientedElement.gamma((2, -3))
        assert oriented_product((2, -3), (0, 0)) == OrientedElement.gamma((2, -3))

    def test_matches_monomial_rule_with_multiplicities(self):
        for u in [(2, 0), (1, 2), (-2, 2), (3, -1)]:
            for v in [(0, 1), (2, 2), (-1, -2)]:
                if abs(det2(u, v)) > 12:
                    continue
                assert oriented_product(u, v) == gamma_mul(u, v)

    def test_ledger_for_transverse_families(self):
        # The exponent read from _CORNERS: one A^(-sign(d0)) per crossing, here 3 of them.
        u, v = (1, 2), (2, 1)
        assert -det2(u, v) == 3
        assert oriented_product(u, v) == OrientedElement.make({(3, 3): LaurentPoly.parse("A^3")})

    def test_a_walk_against_the_orientation_raises(self, monkeypatch):
        # Components traced backwards sum to -(u + v), which the product refuses.
        components = smoothing_oracle._components
        monkeypatch.setattr(
            smoothing_oracle, "_components",
            lambda arr, mask: [(-hx, -hy, -w) for hx, hy, w in components(arr, mask)],
        )
        message = r"^oriented homology \(-3, 1\) does not match \(2, 1\) \+ \(1, -2\)$"
        with pytest.raises(ArrangementError, match=message):
            oriented_product((2, 1), (1, -2))

    def test_ledger_for_cancelling_pairs(self):
        # No crossings, so nothing is traced: the cancellation is asserted.
        assert oriented_product((2, 0), (-3, 0)) == OrientedElement.gamma((-1, 0))


class TestPsiOracle:
    def test_two_orientations(self):
        assert psi_oracle(cls((1, 0))) == OrientedElement.make(
            {(1, 0): LaurentPoly.one(), (-1, 0): LaurentPoly.one()}
        )

    def test_four_assignments(self):
        expected = OrientedElement.make(
            {
                (2, 0): LaurentPoly.one(),
                (-2, 0): LaurentPoly.one(),
                (0, 0): LaurentPoly.monomial(2, 0),
            }
        )
        assert psi_oracle(cls((2, 0))) == expected

    def test_empty(self):
        assert psi_oracle(EMPTY) == OrientedElement.unit()
