import random
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import BOUNDED, TOO_LONG, coeffs, needs_digit_limit, shifted

from toruskein.laurent import A, DELTA, ONE, ZERO, LaurentPoly, ParseError, shown_int


def mono(c, e):
    return LaurentPoly.monomial(c, e)


class TestAdd:
    def test_disjoint_supports(self):
        assert mono(1, 2) + mono(1, -2) == LaurentPoly({2: 1, -2: 1})

    def test_cancellation_to_zero(self):
        result = mono(1, 2) + mono(-1, 2)
        assert result == ZERO
        assert result.terms() == ()

    def test_doubling_delta(self):
        assert DELTA + DELTA == LaurentPoly({2: -2, -2: -2})


class TestMul:
    def test_unit_exponent_cancellation(self):
        assert A * mono(1, -1) == ONE

    def test_delta_squared(self):
        # Expand (-A^2 - A^-2)^2 by hand: A^4 + 2 + A^-4.
        assert DELTA * DELTA == LaurentPoly({4: 1, 0: 2, -4: 1})

    def test_annihilation(self):
        assert DELTA * ZERO == ZERO

    def test_int_coercion(self):
        assert DELTA * 2 == DELTA + DELTA
        assert 1 + ZERO == ONE


class TestMonomial:
    def test_basic(self):
        assert mono(1, 4) == LaurentPoly({4: 1})
        assert mono(-1, -2) == LaurentPoly({-2: -1})

    def test_zero_coefficient_is_canonical_zero(self):
        assert mono(0, 7) == ZERO
        assert mono(0, 7).terms() == ()


class TestDelta:
    def test_value(self):
        assert DELTA == LaurentPoly({2: -1, -2: -1})
        assert LaurentPoly.delta() is DELTA

    def test_negation(self):
        assert DELTA * mono(-1, 0) == LaurentPoly({2: 1, -2: 1})


# (text, message, position): every ParseError the grammar raises.
PARSE_ERRORS = [
    ("A^", "expected exponent after '^'", 2),
    ("", "empty polynomial text", 0),
    ("3A 4", "expected '+' or '-' between terms", 3),
    ("^2", "expected coefficient or 'A'", 0),
    ("A^-", "expected exponent after '^'", 3),
    ("x", "expected coefficient or 'A'", 0),
    ("\u0663A", "expected coefficient or 'A'", 0),
    ("A^\u0663", "expected exponent after '^'", 2),
    (" \t\u3000", "empty polynomial text", 3),
    ("+ ", "expected coefficient or 'A'", 2),
    ("A - ^2", "expected coefficient or 'A'", 4),
    ("A^ - x", "expected exponent after '^'", 5),
    ("A^+-3", "expected exponent after '^'", 3),
    ("1 2", "expected '+' or '-' between terms", 2),
    ("A A", "expected '+' or '-' between terms", 2),
    ("A^2A", "expected '+' or '-' between terms", 3),
    ("-2A^1 0", "expected '+' or '-' between terms", 6),
    (" A^2 3", "expected '+' or '-' between terms", 5),
]
# A number with more digits than int() converts, at the number's position.
TOO_LONG_ERRORS = [
    pytest.param(text, "number has too many digits", position, id=name, marks=needs_digit_limit)
    for name, text, position in [
        ("long-coefficient", TOO_LONG + "A", 0),
        ("long-exponent", "A^- " + TOO_LONG, 4),
        ("long-second-term", "1 + " + TOO_LONG, 4),
        ("long-before-a-missing-exponent", TOO_LONG + "A^", 0),
    ]
]
WHITESPACE = st.text(st.sampled_from(list(" \t\n\u00a0\u3000")), max_size=2)


class TestFormatParse:
    def test_format_ascending(self):
        poly = LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})
        assert str(poly) == "A^-6 + A^-2 + A^2 + A^6"

    def test_parse_delta(self):
        assert LaurentPoly.parse("-A^2 - A^-2") == DELTA

    def test_parse_whitespace_insensitive(self):
        assert LaurentPoly.parse(" - A ^ 2-A^ -2 ") == DELTA
        assert LaurentPoly.parse("3") == mono(3, 0)
        assert LaurentPoly.parse("-2A") == mono(-2, 1)
        assert LaurentPoly.parse("+4A^0") == mono(4, 0)

    def test_parse_merges_like_terms(self):
        assert LaurentPoly.parse("A + A - 2A") == ZERO

    @pytest.mark.parametrize(
        "bad, message, position", [pytest.param(*case, id=case[0]) for case in PARSE_ERRORS] + TOO_LONG_ERRORS
    )
    def test_parse_errors_carry_position(self, bad, message, position):
        with pytest.raises(ParseError) as info:
            LaurentPoly.parse(bad)
        assert (str(info.value), info.value.position) == (f"{message} (at position {position})", position)

    @BOUNDED
    @given(st.dictionaries(st.integers(-9, 9), st.integers(-99, 99), max_size=6), st.data())
    def test_parse_reads_str_with_whitespace_between_tokens(self, terms, data):
        poly = LaurentPoly(terms)
        tokens = re.findall(r"[0-9]+|\S", str(poly))  # a number is one token
        text = "".join(data.draw(WHITESPACE) + token for token in tokens) + data.draw(WHITESPACE)
        assert LaurentPoly.parse(text) == poly

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(st.sampled_from(list("0123456789+-A^ \t\u00a0\u3000\u0663x")), max_size=12))
    def test_parse_returns_a_value_or_raises_parse_error(self, text):
        try:
            poly = LaurentPoly.parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
        else:
            assert LaurentPoly.parse(str(poly)) == poly

    def test_zero_formats_as_zero(self):
        assert str(ZERO) == "0"

    @given(st.dictionaries(st.integers(-9, 9), st.integers(-99, 99), max_size=6))
    def test_parse_format_roundtrip(self, terms):
        poly = LaurentPoly(terms)
        assert LaurentPoly.parse(str(poly)) == poly

    @given(st.dictionaries(st.integers(-9, 9), st.integers(-99, 99), max_size=6))
    def test_json_roundtrip(self, terms):
        poly = LaurentPoly(terms)
        assert LaurentPoly.from_json(poly.to_json()) == poly


def _random_poly(rng):
    return LaurentPoly({rng.randint(-8, 8): rng.randint(-40, 40) for _ in range(rng.randint(0, 5))})


def test_ring_axioms_on_random_triples():
    rng = random.Random(97)
    for _ in range(1000):
        x, y, z = (_random_poly(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        for result in (x + y, x * y, x - y):
            assert all(c != 0 for _, c in result.terms())


def test_mirror_and_shift():
    poly = LaurentPoly({3: 2, -1: -5})
    assert poly.mirror() == LaurentPoly({-3: 2, 1: -5})
    assert poly.mirror().mirror() == poly
    assert shifted(poly, 2) == LaurentPoly({5: 2, 1: -5})
    assert (A + A.mirror()) ** 2 == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        A ** -1


@pytest.mark.parametrize(
    "n, shown",
    [(10**60 - 1, "9" * 60), (10**60, "10^60 or more"), (1 - 10**60, "-" + "9" * 60), (-(10**60), "-10^60 or less")],
)
def test_shown_int_names_a_number_past_60_digits_by_its_bound(n, shown):
    assert shown_int(n) == shown


def test_hash_consistency():
    assert hash(LaurentPoly({1: 1})) == hash(A)
    assert len({DELTA, LaurentPoly({2: -1, -2: -1})}) == 1


def test_constants_hash_like_ints():
    # Equal objects hash equally, and a constant polynomial equals its int.
    assert LaurentPoly({0: 5}) == 5 and hash(LaurentPoly({0: 5})) == hash(5)
    assert 5 in {LaurentPoly({0: 5})}
    assert LaurentPoly({0: 5}) in {5}
    assert 0 in {LaurentPoly.zero()}
    assert -1 in {LaurentPoly.one() - 2}
    # A non-constant polynomial still hashes its term set, whatever the fill order.
    poly = LaurentPoly({0: 7, 2: -1})
    assert hash(poly) == hash(frozenset({(0, 7), (2, -1)}))
    assert hash(poly) == hash(LaurentPoly([(2, -1), (0, 7)]))


def test_non_dict_mappings_and_pairs_construct_the_same_poly():
    expected = LaurentPoly({2: 1, -1: 3})
    assert LaurentPoly(types.MappingProxyType({2: 1, -1: 3})) == expected
    assert LaurentPoly([(2, 1), (-1, 3)]) == expected
    assert LaurentPoly(types.MappingProxyType({2: 1})) == LaurentPoly({2: 1})


class TestStoredOrder:
    """Term maps are stored in fill order; every observed order is ascending."""

    def test_unsorted_fills_are_observed_in_ascending_order(self):
        expected = LaurentPoly({-3: 2, 0: 7, 1: -5, 4: 1})
        polys = [
            LaurentPoly([(4, 1), (1, -5), (0, 7), (-3, 2)]),
            LaurentPoly({-4: 1, -1: -5, 0: 7, 3: 2}).mirror(),
            shifted(LaurentPoly({2: 1, -1: -5, -2: 7, -5: 2}), 2),
            LaurentPoly({3: 1, 0: -5, -1: 7, -4: 2}) * A,
        ]
        for poly in polys:
            assert list(poly._terms) != sorted(poly._terms)  # really stored unsorted
            assert poly == expected
            assert poly.terms() == ((-3, 2), (0, 7), (1, -5), (4, 1))
            assert list(poly) == list(expected.terms())
            assert str(poly) == "2A^-3 + 7 - 5A + A^4"
            assert list(poly.to_json().items()) == [("-3", 2), ("0", 7), ("1", -5), ("4", 1)]
            assert repr(poly) == "LaurentPoly({-3: 2, 0: 7, 1: -5, 4: 1})"
            assert hash(poly) == hash(expected)


# ----- one product loop: ring operations against plain-dict references -----

operands = st.one_of(coeffs, st.integers(-2, 2))


def _dict_of(value):
    return dict(value._terms) if isinstance(value, LaurentPoly) else ({0: value} if value else {})


def _ref_sum(pairs):
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


def _ref_add(x, y):
    return _ref_sum([*_dict_of(x).items(), *_dict_of(y).items()])


def _ref_mul(x, y):
    return _ref_sum((ex + ey, cx * cy) for ex, cx in _dict_of(x).items() for ey, cy in _dict_of(y).items())


def assert_stored(poly, expected):
    assert type(poly) is LaurentPoly
    assert all(poly._terms.values()), poly._terms  # no zero coefficient is stored
    assert poly._terms == expected


@BOUNDED
@given(operands, operands)
def test_add_sub_mul_match_the_dict_reference_and_leave_operands_alone(x, y):
    before = (_dict_of(x), _dict_of(y))
    negated_y = {e: -c for e, c in _dict_of(y).items()}
    if isinstance(x, LaurentPoly) or isinstance(y, LaurentPoly):
        assert_stored(x + y, _ref_add(x, y))
        assert_stored(x - y, _ref_sum([*_dict_of(x).items(), *negated_y.items()]))
        assert_stored(x * y, _ref_mul(x, y))
    assert (_dict_of(x), _dict_of(y)) == before


@BOUNDED
@given(coeffs, st.integers(0, 4))
def test_pow_matches_repeated_dict_products(x, n):
    expected = {0: 1}
    for _ in range(n):
        expected = _ref_mul(LaurentPoly(expected), x)
    before = dict(x._terms)
    assert_stored(x**n, expected)
    assert x._terms == before


@BOUNDED
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8))
def test_constructor_sums_repeated_exponents_and_drops_cancelled_ones(pairs):
    assert_stored(LaurentPoly(pairs), _ref_sum(pairs))
    assert_stored(LaurentPoly(pairs + [(e, -c) for e, c in pairs]), {})
    given_map = dict(pairs)
    assert_stored(LaurentPoly(given_map), _ref_sum(given_map.items()))
    assert given_map == dict(pairs)  # the caller's map is read, not kept or filtered


@BOUNDED
@given(st.dictionaries(st.sampled_from(["0", "00", "1", "01", "001", "-1", "-01", "2"]), st.integers(-2, 2)))
def test_from_json_adds_equal_exponents_and_drops_zeros(data):
    assert_stored(LaurentPoly.from_json(data), _ref_sum((int(e), c) for e, c in data.items()))


@pytest.mark.parametrize("poly", [LaurentPoly({0: 1}), DELTA, LaurentPoly({-1: 3, 0: -2, 4: 1})])
def test_zero_and_one_operands_leave_both_sides_alone(poly):
    before = dict(poly._terms)
    for result in (ZERO + poly, poly + ZERO, poly + 0, 0 + poly, poly * 1, 1 * poly, poly * ONE, poly - 0):
        assert_stored(result, before)
    for result in (poly - poly, poly * 0, poly * ZERO, ZERO * poly):
        assert_stored(result, {})
    assert poly._terms == before
    assert (ZERO._terms, ONE._terms, DELTA._terms) == ({}, {0: 1}, {2: -1, -2: -1})
