import random

import pytest

import references
from references import is_symmetric, psi_oracle, random_skein

from toruskein.laurent import LaurentPoly
from toruskein.oriented import (
    AsymmetricElementError,
    OrientedElement,
    gamma_mul,
    psi,
    psi_chebyshev,
    psi_inverse,
)
from toruskein.skein import Basis, BasisMismatchError, SkeinElement
from toruskein.torus_curves import UnorientedClass, det2
from toruskein.verify import canonical_classes


def gam(*keys):
    return OrientedElement.make({k: LaurentPoly.one() for k in keys})


def one_term(key, text):
    return OrientedElement.make({key: LaurentPoly.parse(text)})


class TestGammaMul:
    def test_unit_determinant(self):
        assert gamma_mul((1, 0), (0, 1)) == one_term((1, 1), "A^-1")

    def test_opposite_curves_are_inverse(self):
        assert gamma_mul((1, 0), (-1, 0)) == OrientedElement.unit()

    def test_unit_key(self):
        assert gamma_mul((0, 0), (3, -2)) == gam((3, -2))

    def test_parallel_copies(self):
        assert gamma_mul((1, 0), (1, 0)) == gam((2, 0))


class TestMul:
    def test_symmetrized_product_to_sum(self):
        lhs = gam((1, 0), (-1, 0)) * gam((0, 1), (0, -1))
        a = LaurentPoly.parse("A")
        rhs = gam((1, -1), (-1, 1)).scaled(a) + gam((1, 1), (-1, -1)).scaled(a.mirror())
        assert lhs == rhs

    def test_unit_element(self):
        x = one_term((2, 3), "A^4 - 1")
        assert x * OrientedElement.unit() == x

    def test_exchange_relation(self):
        rng = random.Random(3)
        for _ in range(200):
            u = (rng.randint(-4, 4), rng.randint(-4, 4))
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            lhs = OrientedElement.gamma(u) * OrientedElement.gamma(v)
            rhs = (OrientedElement.gamma(v) * OrientedElement.gamma(u)).scaled(
                LaurentPoly.monomial(1, -2 * det2(u, v))
            )
            assert lhs == rhs


class TestTheta:
    def test_reverses_keys(self):
        assert gam((2, 3)).theta() == gam((-2, -3))

    def test_fixes_unit(self):
        assert OrientedElement.unit().theta() == OrientedElement.unit()

    def test_symmetric_element_fixed(self):
        x = gam((1, 0), (-1, 0))
        assert x.theta() == x

    def test_involution_and_algebra_map(self):
        rng = random.Random(41)
        for _ in range(100):
            x = _random_oriented(rng)
            y = _random_oriented(rng)
            assert x.theta().theta() == x
            assert (x * y).theta() == x.theta() * y.theta()


class TestIsSymmetric:
    def test_examples(self):
        assert is_symmetric(gam((1, 1), (-1, -1)))
        assert not is_symmetric(gam((1, 1)))
        assert is_symmetric(OrientedElement.unit().scaled(LaurentPoly.parse("A^2")))


class TestPsi:
    def test_connected_curve_two_orientations(self):
        assert psi(_std((1, 0))) == gam((1, 0), (-1, 0))

    def test_two_parallel_copies(self):
        # 4 orientation assignments; the two mixed ones cancel to the unit.
        expected = gam((2, 0), (-2, 0)) + OrientedElement.unit().scaled(2)
        assert psi(_std((2, 0))) == expected

    def test_empty(self):
        assert psi(SkeinElement.unit(Basis.STANDARD)) == OrientedElement.unit()

    def test_wrong_basis(self):
        with pytest.raises(BasisMismatchError):
            psi(SkeinElement.generator(UnorientedClass((1, 0)), Basis.CHEBYSHEV))

    @pytest.mark.parametrize("prim", [(1, 0), (0, 1), (1, -1), (2, 1), (3, -2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_binomial_form_matches_enumeration(self, prim, n):
        # psi through the Chebyshev basis is only trusted because this enumeration
        # gate passes; the test's own binomial form must match the same gate.
        cls = UnorientedClass((n * prim[0], n * prim[1]))
        assert psi(_std(cls.vec)) == references.psi(_std(cls.vec)) == psi_oracle(cls)

    def test_agrees_with_chebyshev_route(self):
        # Multi-term Chebyshev-basis input against the binomial form, which
        # expands (gamma + gamma^-1)^n with no Chebyshev polynomial.
        rng = random.Random(13)
        for _ in range(100):
            x = random_skein(rng, Basis.CHEBYSHEV)
            assert psi_chebyshev(x) == references.psi(x.to_standard())

    def test_algebra_map_on_fast_products(self):
        classes = canonical_classes(2)
        for x in classes:
            for y in classes:
                if abs(det2(x.vec, y.vec)) > 6:
                    continue
                sx = SkeinElement.generator(x, Basis.STANDARD)
                sy = SkeinElement.generator(y, Basis.STANDARD)
                assert psi(sx * sy) == psi(sx) * psi(sy)


class TestPsiChebyshev:
    def test_generator_maps_to_orientation_pair(self):
        x = SkeinElement.generator(UnorientedClass((1, -1)), Basis.CHEBYSHEV)
        assert psi_chebyshev(x) == gam((1, -1), (-1, 1))

    def test_multiplicity_two_generator(self):
        x = SkeinElement.generator(UnorientedClass((2, 0)), Basis.CHEBYSHEV)
        assert psi_chebyshev(x) == gam((2, 0), (-2, 0))

    def test_empty(self):
        assert psi_chebyshev(SkeinElement.unit(Basis.CHEBYSHEV)) == OrientedElement.unit()

    def test_standard_basis_input_is_refused(self):
        # A standard-basis generator would read as the Chebyshev one at its class.
        x = SkeinElement.generator(UnorientedClass((2, 0)), Basis.STANDARD)
        with pytest.raises(BasisMismatchError, match="^psi_chebyshev expects a Chebyshev-basis element$"):
            psi_chebyshev(x)

    def test_image_is_symmetric(self):
        rng = random.Random(29)
        for _ in range(100):
            x = random_skein(rng, Basis.CHEBYSHEV)
            assert is_symmetric(psi_chebyshev(x))


class TestPsiInverse:
    def test_mirror_pair(self):
        x = gam((1, 1), (-1, -1))
        assert psi_inverse(x) == SkeinElement.generator(UnorientedClass((1, 1)), Basis.CHEBYSHEV)

    def test_linearity_over_coefficients(self):
        x = gam((2, 0), (-2, 0)).scaled(LaurentPoly.parse("A^3"))
        expected = SkeinElement.generator(UnorientedClass((2, 0)), Basis.CHEBYSHEV).scaled(
            LaurentPoly.parse("A^3")
        )
        assert psi_inverse(x) == expected

    def test_asymmetric_input_reports_witness(self):
        with pytest.raises(AsymmetricElementError) as info:
            psi_inverse(gam((1, 0)))
        assert info.value.witness == (1, 0)

    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(200):
            x = random_skein(rng, Basis.CHEBYSHEV)
            assert psi_inverse(psi_chebyshev(x)) == x


class TestSerialization:
    def test_str(self):
        assert str(gamma_mul((1, 0), (0, 1))) == "A^-1 g(1,1)"
        assert str(OrientedElement.unit()) == "1"
        assert str(OrientedElement.zero()) == "0"

    def test_json_roundtrip(self):
        rng = random.Random(37)
        for _ in range(50):
            x = _random_oriented(rng)
            assert OrientedElement.from_json(x.to_json()) == x


def _std(vec):
    return SkeinElement.generator(UnorientedClass(vec), Basis.STANDARD)


def _random_oriented(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(-4, 4), rng.randint(-4, 4))
        terms[key] = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5)})
    return OrientedElement.make(terms)
