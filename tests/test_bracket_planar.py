import pytest
from brute_bracket import brute_bracket, disjoint_union, kauffman_bracket_recursive
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskein.bracket_planar import (
    CINQUEFOIL,
    FIGURE_EIGHT,
    HOPF_LINK,
    KINK_NEGATIVE,
    KINK_POSITIVE,
    SOLOMON_LINK,
    TREFOIL,
    UNKNOT,
    UNLINK_2,
    PDCode,
    add_reidemeister_ii,
    kauffman_bracket,
    mirror,
)
from toruskein.laurent import DELTA, LaurentPoly
from toruskein.smoothing_oracle import BudgetExceededError

CORPUS = [
    UNKNOT,
    UNLINK_2,
    HOPF_LINK,
    mirror(HOPF_LINK),
    TREFOIL,
    mirror(TREFOIL),
    FIGURE_EIGHT,
    KINK_POSITIVE,
    KINK_NEGATIVE,
    SOLOMON_LINK,
    CINQUEFOIL,
    disjoint_union(HOPF_LINK, UNKNOT),
]


class TestBracketValues:
    def test_hopf_link(self):
        assert kauffman_bracket(HOPF_LINK) == LaurentPoly.parse("A^-6 + A^-2 + A^2 + A^6")

    def test_kinks_carry_framing_factors(self):
        # One crossing: the state sum collapses to (-A^3) * delta or
        # (-A^-3) * delta depending on the kink sign.
        assert kauffman_bracket(KINK_POSITIVE) == DELTA * LaurentPoly.monomial(-1, 3)
        assert kauffman_bracket(KINK_NEGATIVE) == DELTA * LaurentPoly.monomial(-1, -3)

    def test_crossingless_diagrams(self):
        assert kauffman_bracket(UNLINK_2) == DELTA * DELTA
        assert kauffman_bracket(UNKNOT) == DELTA
        assert kauffman_bracket(PDCode(())) == LaurentPoly.one()

    def test_unknotted_clasp_resolves_to_circles(self):
        # Sanity against an independent expansion path on every corpus entry.
        for pd in CORPUS:
            assert kauffman_bracket(pd) == kauffman_bracket_recursive(pd)


class TestValidation:
    def test_edge_multiplicity_enforced(self):
        with pytest.raises(ValueError, match="exactly twice"):
            PDCode(((1, 2, 3, 4),))
        with pytest.raises(ValueError, match="exactly twice"):
            PDCode(((1, 1, 1, 1), (2, 2, 3, 3)))

    def test_crossing_arity_enforced(self):
        with pytest.raises(ValueError, match=r"crossing \(1, 2, 3\) is not a 4-tuple"):
            PDCode(((1, 2, 3),))

    def test_free_loops_nonnegative(self):
        with pytest.raises(ValueError):
            PDCode((), free_loops=-1)

    def test_crossings_canonical_up_to_half_rotation(self):
        # re-reading a crossing from its outgoing under-strand names the same
        # unoriented crossing
        assert PDCode(((1, 2, 2, 1),)).crossings == PDCode(((2, 1, 1, 2),)).crossings
        assert HOPF_LINK == PDCode(((2, 4, 1, 3), (4, 2, 3, 1)))


class TestTextAndJson:
    def test_parse_and_str(self):
        pd = PDCode.parse("X(1,3,2,4) X(3,1,4,2) O")
        assert pd.crossing_count == 2 and pd.free_loops == 1
        assert PDCode.parse(str(pd)) == pd

    def test_parse_error(self):
        with pytest.raises(ValueError, match="bad PD token"):
            PDCode.parse("X(1,2,3)")


class TestMirror:
    def test_involution(self):
        for pd in CORPUS:
            assert mirror(mirror(pd)) == pd

    def test_bracket_mirror_symmetry(self):
        for pd in CORPUS:
            assert kauffman_bracket(mirror(pd)) == kauffman_bracket(pd).mirror()

    def test_hopf_mirror_is_opposite_clasp(self):
        assert mirror(HOPF_LINK) != HOPF_LINK
        # the Hopf bracket happens to be mirror-symmetric as a polynomial
        assert kauffman_bracket(mirror(HOPF_LINK)) == kauffman_bracket(HOPF_LINK)


class TestReidemeisterII:
    def test_invariance_across_corpus(self):
        for pd in CORPUS:
            edges = sorted(pd.edges())
            if len(edges) < 2:
                continue
            value = kauffman_bracket(pd)
            pairs = [(edges[0], edges[1]), (edges[-1], edges[0]), (edges[1], edges[-1])]
            for over, under in pairs:
                if over == under:
                    continue
                poked = add_reidemeister_ii(pd, over, under)
                assert poked.crossing_count == pd.crossing_count + 2
                assert kauffman_bracket(poked) == value

    def test_double_poke(self):
        poked = add_reidemeister_ii(add_reidemeister_ii(TREFOIL, 1, 4), 2, 5)
        assert kauffman_bracket(poked) == kauffman_bracket(TREFOIL)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            add_reidemeister_ii(HOPF_LINK, 1, 1)
        with pytest.raises(ValueError):
            add_reidemeister_ii(HOPF_LINK, 1, 99)


class TestDisjointUnion:
    def test_multiplicative(self):
        for left in (HOPF_LINK, TREFOIL, UNKNOT):
            for right in (KINK_POSITIVE, UNLINK_2, FIGURE_EIGHT):
                union = disjoint_union(left, right)
                assert kauffman_bracket(union) == kauffman_bracket(left) * kauffman_bracket(right)

    def test_relabels_to_keep_edges_unique(self):
        union = disjoint_union(HOPF_LINK, HOPF_LINK)
        assert union.crossing_count == 4


def test_budget_guard():
    big = TREFOIL
    for _ in range(12):
        big = disjoint_union(big, TREFOIL)
    with pytest.raises(BudgetExceededError):
        kauffman_bracket(big)
    with pytest.raises(BudgetExceededError):
        kauffman_bracket_recursive(big)


def test_free_loops_count_against_the_budget():
    with pytest.raises(BudgetExceededError, match="^crossing and free loop count 25 exceeds the budget of 24$"):
        kauffman_bracket(PDCode(HOPF_LINK.crossings, 23))
    assert kauffman_bracket(PDCode(HOPF_LINK.crossings, 22)) == kauffman_bracket(HOPF_LINK) * DELTA**22
    # A code without free loops keeps the crossings-only message.
    with pytest.raises(BudgetExceededError, match="^crossing count 3 exceeds the budget of 2$"):
        kauffman_bracket(TREFOIL, budget=2)


def test_split_kinks_have_more_circles_than_crossings():
    # The all-B state of two negative kinks side by side has four circles.
    two_kinks = disjoint_union(KINK_NEGATIVE, KINK_NEGATIVE)
    expected = (DELTA * LaurentPoly.monomial(-1, -3)) ** 2
    assert kauffman_bracket(two_kinks) == expected
    assert brute_bracket(two_kinks) == expected
    assert kauffman_bracket_recursive(two_kinks) == expected


# ----- the contraction against the 2^k state sum -----


def torus_knot(n: int) -> PDCode:
    """The closed 2-braid T(2, n) for odd n: X(a, a+n, a+1, a+n+1) mod 2n, a odd."""
    m = 2 * n

    def lab(x: int) -> int:
        return (x - 1) % m + 1

    return PDCode(tuple((lab(a), lab(a + n), lab(a + 1), lab(a + n + 1)) for a in range(1, m, 2)))


@st.composite
def random_pd_codes(draw, max_crossings: int = 12) -> PDCode:
    """A valid PD code made by pairing the 4k slots at random: kinks, labels
    repeated within a crossing and non-planar pairings all occur."""
    k = draw(st.integers(0, max_crossings))
    slots = draw(st.permutations(range(4 * k)))
    labels = [0] * (4 * k)
    for label in range(2 * k):
        labels[slots[2 * label]] = labels[slots[2 * label + 1]] = label + 1
    crossings = tuple(tuple(labels[4 * i : 4 * i + 4]) for i in range(k))
    return PDCode(crossings, draw(st.integers(0, 2)))


BOUNDED = settings(max_examples=40, deadline=None, derandomize=True)


class TestContraction:
    @BOUNDED
    @given(random_pd_codes())
    def test_matches_state_sum_and_recursion(self, pd):
        value = kauffman_bracket(pd)
        assert value == brute_bracket(pd)
        assert value == kauffman_bracket_recursive(pd)

    @BOUNDED
    @given(st.data())
    def test_crossing_order_does_not_matter(self, data):
        pd = data.draw(random_pd_codes(max_crossings=16))
        order = data.draw(st.permutations(pd.crossings))
        assert kauffman_bracket(PDCode(tuple(order), pd.free_loops)) == kauffman_bracket(pd)

    def test_six_disjoint_cinquefoils(self):
        six = CINQUEFOIL
        for _ in range(5):
            six = disjoint_union(six, CINQUEFOIL)
        assert six.crossing_count == 30
        assert kauffman_bracket(six, budget=30) == kauffman_bracket(CINQUEFOIL) ** 6

    def test_torus_knot_closed_form(self):
        # Resolving one crossing of the twist region: the A-smoothing leaves
        # the twist with n - 1 crossings, the B-smoothing opens it into a
        # circle with n - 1 kinks, each worth A + A^-1 delta = -A^-3.  With
        # no crossings the closed braid is two circles.
        a, a_inv, kink = LaurentPoly.monomial(1, 1), LaurentPoly.monomial(1, -1), LaurentPoly.monomial(-1, -3)
        closed_form = [DELTA * DELTA]
        for n in range(1, 32):
            closed_form.append(a * closed_form[n - 1] + a_inv * DELTA * kink ** (n - 1))
        for n in (1, 3, 5, 7):
            assert brute_bracket(torus_knot(n)) == closed_form[n]
        assert kauffman_bracket(torus_knot(31), budget=31) == closed_form[31]

    def test_forty_crossing_mirror(self):
        pd = disjoint_union(torus_knot(17), add_reidemeister_ii(disjoint_union(torus_knot(15), FIGURE_EIGHT), 3, 20))
        pd = add_reidemeister_ii(pd, 1, 9)
        assert pd.crossing_count == 40
        assert kauffman_bracket(mirror(pd), budget=40) == kauffman_bracket(pd, budget=40).mirror()
