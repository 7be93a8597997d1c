import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toruskein.torus_curves import (
    EMPTY,
    UnorientedClass,
    canonicalize,
    det2,
    parse_vec,
    split_signed,
)
from toruskein.verify import canonical_classes

ints = st.integers(-50, 50)


class TestDet2:
    def test_identity_matrix(self):
        assert det2((1, 0), (0, 1)) == 1

    def test_scales_with_multiplicities(self):
        # n*m times the primitive determinant: 2 * 2 * det((1,0),(0,1)).
        assert det2((2, 0), (0, 2)) == 4

    def test_parallel_classes(self):
        assert det2((1, 2), (2, 4)) == 0

    @given(ints, ints, ints, ints)
    def test_antisymmetry(self, a, b, c, d):
        assert det2((a, b), (c, d)) == -det2((c, d), (a, b))

    @given(ints, ints, ints, ints, st.integers(-9, 9), st.integers(-9, 9))
    def test_bilinear_over_scaling(self, a, b, c, d, s, t):
        assert det2((s * a, s * b), (t * c, t * d)) == s * t * det2((a, b), (c, d))


class TestCanonicalize:
    def test_sign_normalization(self):
        assert canonicalize((-1, 1)) == (UnorientedClass((1, -1)), True)

    def test_boundary_ray(self):
        assert canonicalize((0, -3)) == (UnorientedClass((0, 3)), True)

    def test_already_canonical(self):
        assert canonicalize((2, 4)) == (UnorientedClass((2, 4)), False)

    def test_zero_maps_to_empty(self):
        assert canonicalize((0, 0)) == (EMPTY, False)

    def test_idempotent_and_unique(self):
        rng = random.Random(11)
        for _ in range(300):
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            if v == (0, 0):
                continue
            cls, _ = canonicalize(v)
            again, flipped = canonicalize(cls.vec)
            assert again == cls and not flipped
            neg = (-v[0], -v[1])
            # exactly one of {v, -v} is the canonical representative
            assert (canonicalize(v)[1] != canonicalize(neg)[1]) or cls.vec in (v, neg)
            assert canonicalize(neg)[0] == cls


class TestSplit:
    def test_multiplicity_two(self):
        assert UnorientedClass((2, -2)).split() == (2, (1, -1))

    def test_primitive(self):
        assert UnorientedClass((1, 0)).split() == (1, (1, 0))

    def test_gcd_of_coordinates(self):
        assert UnorientedClass((6, 4)).split() == (2, (3, 2))

    def test_empty_class_errors(self):
        with pytest.raises(ValueError):
            EMPTY.split()

    def test_split_signed_keeps_direction(self):
        assert split_signed((-2, 4)) == (2, (-1, 2))
        with pytest.raises(ValueError):
            split_signed((0, 0))


class TestClassValidation:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            UnorientedClass((0, 0))

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            UnorientedClass((-1, 2))
        with pytest.raises(ValueError):
            UnorientedClass((0, -1))

    def test_multiplicity(self):
        assert UnorientedClass((4, 6)).multiplicity == 2
        assert EMPTY.multiplicity == 0

    def test_classes_order_by_vector(self):
        classes = canonical_classes(3)
        shuffled = random.Random(0).sample(classes, len(classes))
        assert sorted(shuffled) == sorted(classes, key=lambda c: c.vec)


class TestTextAndJson:
    def test_str(self):
        assert str(UnorientedClass((2, -1))) == "(2,-1)"
        assert str(EMPTY) == "empty"

    def test_parse(self):
        assert UnorientedClass.parse(" ( 2 , -1 ) ") == UnorientedClass((2, -1))
        assert UnorientedClass.parse("empty") == EMPTY
        assert UnorientedClass.parse("(-1,2)") == UnorientedClass((1, -2))
        assert UnorientedClass.parse("(0,0)") == EMPTY
        with pytest.raises(ValueError):
            UnorientedClass.parse("(1,2")

    def test_parse_vec(self):
        assert parse_vec("(-3, 4)") == (-3, 4)

    def test_json_roundtrip(self):
        for cls in (EMPTY, UnorientedClass((3, -2))):
            assert UnorientedClass.from_json(cls.to_json()) == cls
        assert UnorientedClass.from_json([-1, 2]) == UnorientedClass((1, -2))
