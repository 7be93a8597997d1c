import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from references import BOUNDED, coeffs, random_skein, rebuilt, shifted

from toruskein.laurent import ZERO, LaurentPoly
from toruskein.oriented import OrientedElement
from toruskein.skein import Basis, BasisMismatchError, SkeinElement, chebyshev_of
from toruskein.torus_curves import EMPTY, UnorientedClass, canonicalize
from toruskein.verify import canonical_classes

vecs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
classes = vecs.map(lambda v: canonicalize(v)[0])  # (0, 0) gives the empty class
skein_elements = st.builds(SkeinElement.make, st.sampled_from(Basis), st.lists(st.tuples(classes, coeffs), max_size=8))
oriented_elements = st.builds(OrientedElement.make, st.lists(st.tuples(vecs, coeffs), max_size=8))


def std(vec):
    return SkeinElement.generator(UnorientedClass(vec), Basis.STANDARD)


def cheb(vec):
    return SkeinElement.generator(UnorientedClass(vec), Basis.CHEBYSHEV)


def elem(basis, mapping):
    return SkeinElement.make(basis, {k: LaurentPoly.parse(v) for k, v in mapping.items()})


class TestChebyshevOf:
    def test_multiplicity_two(self):
        # T_2 at the primitive (1,-1): the double curve minus twice the empty curve.
        expected = elem(Basis.STANDARD, {UnorientedClass((2, -2)): "1", EMPTY: "-2"})
        assert chebyshev_of((2, -2)) == expected

    def test_primitive_is_itself(self):
        assert chebyshev_of((1, -1)) == std((1, -1))

    def test_multiplicity_three(self):
        # T_3 = X^3 - 3X at (1,0); powers are parallel copies.
        expected = elem(
            Basis.STANDARD, {UnorientedClass((3, 0)): "1", UnorientedClass((1, 0)): "-3"}
        )
        assert chebyshev_of((3, 0)) == expected

    def test_degenerate_index(self):
        assert chebyshev_of((0, 0)) == SkeinElement.unit(Basis.STANDARD).scaled(2)


class TestBasisChange:
    def test_standard_to_chebyshev(self):
        expected = elem(Basis.CHEBYSHEV, {UnorientedClass((2, 0)): "1", EMPTY: "2"})
        assert std((2, 0)).to_chebyshev() == expected

    def test_chebyshev_to_standard(self):
        expected = elem(Basis.STANDARD, {UnorientedClass((2, 0)): "1", EMPTY: "-2"})
        assert cheb((2, 0)).to_standard() == expected

    def test_unit_is_shared(self):
        assert SkeinElement.unit(Basis.STANDARD).to_chebyshev() == SkeinElement.unit(Basis.CHEBYSHEV)
        assert SkeinElement.unit(Basis.CHEBYSHEV).to_standard() == SkeinElement.unit(Basis.STANDARD)

    def test_wrong_basis_rejected(self):
        with pytest.raises(BasisMismatchError):
            cheb((1, 0)).to_chebyshev()
        with pytest.raises(BasisMismatchError):
            std((1, 0)).to_standard()

    def test_roundtrips_random(self):
        rng = random.Random(5)
        for _ in range(200):
            x = random_skein(rng, Basis.STANDARD)
            assert x.to_chebyshev().to_standard() == x
            y = random_skein(rng, Basis.CHEBYSHEV)
            assert rebuilt(y.to_standard()).to_chebyshev() == y


class TestChebyshevProduct:
    def test_product_to_sum_unit_determinant(self):
        expected = elem(
            Basis.CHEBYSHEV, {UnorientedClass((1, -1)): "A", UnorientedClass((1, 1)): "A^-1"}
        )
        assert cheb((1, 0)) * cheb((0, 1)) == expected

    def test_square_hits_degenerate_index(self):
        # determinant 0; the (0,0) index stands for 2 * empty.
        expected = elem(Basis.CHEBYSHEV, {UnorientedClass((2, 0)): "1", EMPTY: "2"})
        assert cheb((1, 0)) * cheb((1, 0)) == expected

    def test_determinant_minus_two(self):
        # (1,1) then (1,-1): determinant -2 puts A^-2 on the difference index.
        expected = elem(
            Basis.CHEBYSHEV, {UnorientedClass((0, 2)): "A^-2", UnorientedClass((2, 0)): "A^2"}
        )
        assert cheb((1, 1)) * cheb((1, -1)) == expected

    def test_determinant_plus_two(self):
        # Swapped factors mirror the coefficients; (0,-2) canonicalizes to (0,2).
        expected = elem(
            Basis.CHEBYSHEV, {UnorientedClass((0, 2)): "A^2", UnorientedClass((2, 0)): "A^-2"}
        )
        assert cheb((1, -1)) * cheb((1, 1)) == expected

    def test_unit_generator(self):
        one = SkeinElement.unit(Basis.CHEBYSHEV)
        assert one * cheb((2, 3)) == cheb((2, 3))


class TestStandardProduct:
    def test_unit_determinant(self):
        expected = elem(
            Basis.STANDARD, {UnorientedClass((1, -1)): "A", UnorientedClass((1, 1)): "A^-1"}
        )
        assert std((1, 0)) * std((0, 1)) == expected

    def test_empty_is_unit(self):
        x = elem(Basis.STANDARD, {UnorientedClass((2, 1)): "A^3", EMPTY: "-1"})
        assert SkeinElement.unit(Basis.STANDARD) * x == x

    def test_parallel_copies_merge(self):
        assert std((1, 0)) * std((1, 0)) == std((2, 0))

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            std((1, 0)) * cheb((1, 0))

    def test_associative_on_small_generators(self):
        classes = [c for c in canonical_classes(2) if max(map(abs, c.vec)) <= 2]
        rng = random.Random(23)
        for _ in range(60):
            x, y, z = (std(rng.choice(classes).vec) for _ in range(3))
            assert (x * y) * z == x * (y * z) == rebuilt(x * y) * z == x * rebuilt(y * z)

    def test_noncommutativity_witness(self):
        assert std((1, 0)) * std((0, 1)) != std((0, 1)) * std((1, 0))

    def test_swap_mirror_symmetry(self):
        x, y = cheb((2, 1)), cheb((1, -1))
        assert y * x == (x * y).map_coefficients(lambda c: c.mirror())

    def test_a_cancelled_class_above_the_degree_limit_is_not_refused(self):
        # (512,1)*(514,-1) and (513,0)*(513,0) both reach (1026,0), past
        # chebyshev.MAX_DEGREE, with coefficients A^1026 and -A^1026.
        x = elem(Basis.CHEBYSHEV, {UnorientedClass((512, 1)): "1", UnorientedClass((513, 0)): "-A^1026"})
        y = elem(Basis.CHEBYSHEV, {UnorientedClass((514, -1)): "1", UnorientedClass((513, 0)): "1"})
        product = rebuilt(x.to_standard()) * rebuilt(y.to_standard())
        assert product == (x * y).to_standard()
        assert max(key.multiplicity for key in product.support()) == 2


class TestSerialization:
    def test_str_matches_documented_form(self):
        assert str(cheb((1, 0)) * cheb((0, 1))) == "A (1,-1)_T + A^-1 (1,1)_T"
        assert str(std((2, 0)).to_chebyshev()) == "(2,0)_T + 2"
        assert str(SkeinElement.zero(Basis.STANDARD)) == "0"

    def test_json_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            x = random_skein(rng, rng.choice([Basis.STANDARD, Basis.CHEBYSHEV]))
            assert SkeinElement.from_json(x.to_json()) == x

    def test_non_dict_mapping_makes_the_same_element(self):
        terms = {UnorientedClass((1, 0)): LaurentPoly.parse("A^2"), EMPTY: LaurentPoly.parse("-1")}
        expected = SkeinElement.make(Basis.STANDARD, terms)
        assert SkeinElement.make(Basis.STANDARD, types.MappingProxyType(terms)) == expected
        assert SkeinElement.make(Basis.STANDARD, list(terms.items())) == expected

    def test_zero_coefficients_never_stored(self):
        x = std((1, 0)) - std((1, 0))
        assert x.terms() == ()
        y = std((1, 0)) + std((0, 1)).scaled(0)
        assert y.support() == (UnorientedClass((1, 0)),)


def linear_scan(element, key):
    return next((c for k, c in element.terms() if k == key), ZERO)


class TestCoefficient:
    def test_every_stored_key_is_found(self):
        x = elem(Basis.STANDARD, {UnorientedClass((v, 1)): f"A^{v}" for v in range(1, 40)})
        for key, coeff in x.terms():
            assert x.coefficient(key) is coeff

    def test_misses_before_between_and_after_the_keys(self):
        x = elem(Basis.CHEBYSHEV, {UnorientedClass((1, 0)): "1", UnorientedClass((3, 0)): "A"})
        for vec in ((0, 1), (2, 0), (3, -1), (4, 0)):
            assert x.coefficient(UnorientedClass(vec)) == ZERO
        assert x.coefficient(EMPTY) == ZERO
        assert SkeinElement.zero(Basis.STANDARD).coefficient(UnorientedClass((1, 0))) == ZERO

    def test_the_empty_class_sorts_last(self):
        x = elem(Basis.STANDARD, {EMPTY: "-2", UnorientedClass((5, 7)): "A", UnorientedClass((0, 1)): "3"})
        assert x.support()[-1] == EMPTY
        assert x.coefficient(EMPTY) == LaurentPoly.parse("-2")
        assert x.coefficient(UnorientedClass((5, 7))) == LaurentPoly.parse("A")

    def test_the_oriented_unit_key_sorts_last(self):
        x = OrientedElement.make({(0, 0): LaurentPoly.parse("A"), (-1, 5): LaurentPoly.one(), (2, -3): LaurentPoly.parse("2")})
        assert x.support()[-1] == (0, 0)
        assert x.coefficient((0, 0)) == LaurentPoly.parse("A")
        assert x.coefficient((-1, 5)) == LaurentPoly.one()
        assert x.coefficient((1, 5)) == ZERO
        assert OrientedElement.gamma((1, 0)).coefficient((0, 0)) == ZERO

    @BOUNDED
    @given(skein_elements, classes)
    def test_skein_lookup_matches_a_linear_scan(self, x, key):
        assert x.coefficient(key) == linear_scan(x, key)
        for k, _ in x.terms():
            assert x.coefficient(k) is linear_scan(x, k)

    @BOUNDED
    @given(oriented_elements, vecs)
    def test_oriented_lookup_matches_a_linear_scan(self, x, key):
        assert x.coefficient(key) == linear_scan(x, key)
        for k, _ in x.terms():
            assert x.coefficient(k) is linear_scan(x, k)


class TestScaling:
    @BOUNDED
    @given(st.one_of(skein_elements, oriented_elements))
    def test_scaling_by_zero_gives_zero(self, x):
        assert x.scaled(0).is_zero
        assert x.scaled(ZERO).is_zero

    @BOUNDED
    @given(st.one_of(skein_elements, oriented_elements), st.one_of(st.integers(-3, 3), coeffs))
    def test_results_equal_the_make_route(self, x, factor):
        before = x.to_json()
        negated = x.scaled(-1)
        assert negated == x.map_coefficients(lambda c: -c) == _remade(x, [(k, -c) for k, c in x.terms()])
        assert (x + negated).is_zero and (x - x).is_zero
        scaled, remade = x.scaled(factor), _remade(x, [(k, c * factor) for k, c in x.terms()])
        assert scaled == remade and scaled.to_json() == remade.to_json()
        assert x.to_json() == before

    @BOUNDED
    @given(skein_elements, skein_elements)
    def test_subtraction_equals_the_make_route(self, x, y):
        if x.basis != y.basis:
            y = SkeinElement.make(x.basis, y.terms())
        before = (x.to_json(), y.to_json())
        assert x - y == SkeinElement.make(x.basis, list(x.terms()) + [(k, -c) for k, c in y.terms()])
        assert (x.to_json(), y.to_json()) == before

    def test_a_zero_result_drops_its_key(self):
        x = elem(Basis.STANDARD, {UnorientedClass((1, 0)): "A", UnorientedClass((0, 1)): "2", EMPTY: "A - 1"})
        kept = x.map_coefficients(lambda c: 0 if c == LaurentPoly.parse("A") else shifted(c, 1))
        assert kept.terms() == (
            (UnorientedClass((0, 1)), LaurentPoly.parse("2A")),
            (EMPTY, LaurentPoly.parse("A^2 - A")),
        )
        assert x.map_coefficients(lambda c: ZERO).terms() == ()
        assert x.map_coefficients(lambda c: 3).coefficient(EMPTY) == LaurentPoly.parse("3")

    def test_a_non_ring_factor_is_refused(self):
        with pytest.raises(TypeError):
            std((1, 0)).scaled(1.5)


def _remade(x, terms):
    if isinstance(x, SkeinElement):
        return SkeinElement.make(x.basis, terms)
    return OrientedElement.make(terms)
