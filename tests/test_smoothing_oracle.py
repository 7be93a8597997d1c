import io

import pytest

from toruskein.laurent import LaurentPoly
from toruskein.oriented import OrientedElement, gamma_mul
from toruskein.skein import Basis, SkeinElement
from toruskein import smoothing_oracle
from toruskein.smoothing_oracle import (
    ArrangementError,
    BudgetExceededError,
    SmoothingState,
    build_arrangement,
    oriented_product,
    oriented_product_with_ledger,
    psi_oracle,
    trace,
    unoriented_product,
)
from toruskein.torus_curves import EMPTY, UnorientedClass, det2


def cls(vec):
    return UnorientedClass(vec)


def std(vec):
    return SkeinElement.generator(cls(vec), Basis.STANDARD)


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
        assert arr.next_u == (0,) and arr.next_v == (0,)
        assert arr.disp_u[0] == (1 * arr.denom, 0)
        assert arr.disp_v[0] == (0, 1 * arr.denom)

    def test_two_copies_give_two_crossings(self):
        arr = build_arrangement((2, 0), (0, 1))
        assert arr.crossing_count == 2
        assert arr.copies_u == 2 and arr.copies_v == 1
        # each over-copy is a one-arc component
        assert _cycles(arr.next_u) == 2
        assert _cycles(arr.next_v) == 1

    def test_three_crossings_with_fractional_arcs(self):
        arr = build_arrangement((1, 2), (2, 1))
        assert arr.crossing_count == 3
        assert _cycles(arr.next_u) == 1 and _cycles(arr.next_v) == 1
        # each of the three over-arcs advances by a third of the curve
        assert all(
            (dx * 3, dy * 3) == (1 * arr.denom, 2 * arr.denom) for dx, dy in arr.disp_u
        )

    def test_crossing_count_matches_determinant(self):
        for u in [(1, 0), (2, 0), (1, 2), (2, -2), (3, 1)]:
            for v in [(0, 1), (1, 1), (2, 1), (1, -2)]:
                d = det2(u, v)
                if d == 0 or abs(d) > 12:
                    continue
                arr = build_arrangement(u, v)
                assert arr.crossing_count == abs(d)
                assert _cycles(arr.next_u) == arr.copies_u
                assert _cycles(arr.next_v) == arr.copies_v

    def test_parallel_classes_rejected(self):
        with pytest.raises(ValueError):
            build_arrangement((1, 1), (2, 2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_arrangement((5, 0), (0, 5), budget=24)
        assert build_arrangement((5, 0), (0, 5), budget=25).crossing_count == 25


class TestTrace:
    def test_single_crossing_states(self):
        arr = build_arrangement((1, 0), (0, 1))
        homologies = set()
        for mask in (0, 1):
            comps = trace(arr, SmoothingState(mask, 1))
            assert len(comps) == 1
            comp = comps[0]
            assert comp.winding == 0
            assert comp.arc_count == 2
            homologies.add(tuple(map(abs, comp.homology)))
        # the two smoothings produce the (1,1) and (1,-1) classes
        assert homologies == {(1, 1)}
        all_classes = {
            trace(arr, SmoothingState(m, 1))[0].homology in ((1, 1), (-1, -1)) for m in (0, 1)
        }
        assert all_classes == {True, False}

    def test_trivial_circle_has_unit_winding(self):
        arr = build_arrangement((1, 1), (1, -1))
        windings = []
        for mask in range(4):
            for comp in trace(arr, SmoothingState(mask, 2)):
                if comp.is_trivial_circle:
                    windings.append(comp.winding)
        assert sorted(windings) == [-1, 1]

    def test_state_length_checked(self):
        arr = build_arrangement((1, 0), (0, 1))
        with pytest.raises(ValueError):
            trace(arr, SmoothingState(0, 2))

    def test_state_mask_range_checked(self):
        with pytest.raises(ValueError):
            SmoothingState(4, 2)


class TestClassify:
    """Component invariants on synthetic (hx, hy, winding, arcs) tuples."""

    @pytest.mark.parametrize(
        "components, oriented, message",
        [
            ([(0, 0, 0, 4)], False, "trivial circle with winding 0"),
            ([(0, 0, 2, 4)], False, "trivial circle with winding 2"),
            ([(1, 0, 1, 2)], False, "essential component with winding 1"),
            ([(2, 0, 0, 2)], False, "not primitive"),
            ([(1, 0, 0, 2), (0, 1, 0, 2)], False, "mixed primitive directions"),
            ([(0, 0, 1, 4)], True, "trivial circle in an oriented smoothing"),
            ([(1, 2, 0, 2), (-1, -2, 0, 2)], True, "mixed primitive directions"),
        ],
    )
    def test_broken_invariant_raises(self, components, oriented, message):
        with pytest.raises(ArrangementError, match=message):
            smoothing_oracle._classify(components, oriented=oriented)

    def test_directions_agree_up_to_sign_when_unoriented(self):
        components = [(1, 2, 0, 2), (-1, -2, 0, 2), (0, 0, 1, 4), (0, 0, -1, 4)]
        assert smoothing_oracle._classify(components) == (2, 2, (1, 2))

    def test_oriented_direction_keeps_its_sign(self):
        components = [(-1, -2, 0, 2), (-1, -2, 0, 2)]
        assert smoothing_oracle._classify(components, oriented=True) == (0, 2, (-1, -2))


class TestWorkerCount:
    """The clamp is a pure computation; no process is started here."""

    @pytest.mark.parametrize(
        "requested, states, cpus, expected",
        [
            (1, 1024, 2, 1),
            (0, 1024, 2, 1),
            (-5, 1024, 2, 1),
            (2, 1024, 2, 2),
            (10**9, 1024, 2, 2),
            (10**9, 1024, 64, 64),
            (10**9, 4, 64, 4),
            (3, 2, None, 1),
        ],
    )
    def test_clamp(self, monkeypatch, requested, states, cpus, expected):
        monkeypatch.setattr(smoothing_oracle.os, "cpu_count", lambda: cpus)
        assert smoothing_oracle._worker_count(requested, states) == expected


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
        _, ledger = oriented_product_with_ledger((1, 2), (2, 1))
        assert ledger.smoothing_exponent == -det2((1, 2), (2, 1))
        assert ledger.removals == ()
        assert ledger.output_exponent == 3

    def test_ledger_for_cancelling_pairs(self):
        element, ledger = oriented_product_with_ledger((2, 0), (-3, 0))
        assert element == OrientedElement.gamma((-1, 0))
        assert ledger.smoothing_exponent == 0
        # two cancellations, each deleting a +1 and a -1 circle
        assert ledger.removals == ((2, 1), (-2, -1), (2, 1), (-2, -1))
        assert ledger.relation_imbalance() == 0
        assert ledger.output_exponent == 0 and ledger.removed_winding == 0


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
