"""The bare-map accumulation of the fast algebra against the term-by-term
LaurentPoly formulas in ``references``: products in both bases, both basis
changes, oriented products and psi, on elements whose coefficients cancel.
Also the one step that finishes every element, ``finish_terms``, against
the reference term order, through ``make`` and on vector-keyed output maps,
and the two ways the accumulation avoids copies: a coefficient
that lands alone on its key passes through as the same object and is never
written into, and a standard-basis element made by ``to_standard`` keeps its
Chebyshev form."""

import json

from hypothesis import given
from hypothesis import strategies as st

import references as ref
from references import BOUNDED, coeffs

from toruskein.laurent import LaurentPoly, accumulate
from toruskein.oriented import OrientedElement, psi
from toruskein.skein import Basis, SkeinElement, finish_terms, from_vec_maps
from toruskein.torus_curves import EMPTY, UnorientedClass, canonicalize

# Small classes, so u == v (a (0,0)_T hit) and coinciding outputs are common.
classes = st.one_of(
    st.just(EMPTY),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    .filter(lambda v: v != (0, 0))
    .map(lambda v: canonicalize(v)[0]),
)
# Repeated keys merge, and may cancel, when the element is made.
skein_terms = st.lists(st.tuples(classes, coeffs), max_size=5)
oriented_terms = st.lists(st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeffs), max_size=5)


def assert_stored_nonzero(element) -> None:
    for _key, coeff in element.terms():
        assert isinstance(coeff, LaurentPoly) and coeff
        assert all(c for _e, c in coeff.terms())


def assert_same(fast, slow) -> None:
    assert fast == slow
    assert fast.to_json() == slow.to_json()
    assert_stored_nonzero(fast)


@BOUNDED
@given(skein_terms, skein_terms, st.sampled_from(Basis))
def test_products_match_the_term_by_term_formula(xs, ys, basis):
    x, y = SkeinElement.make(basis, xs), SkeinElement.make(basis, ys)
    before = (x.to_json(), y.to_json())
    mul = ref.mul_chebyshev if basis == Basis.CHEBYSHEV else ref.mul_standard
    fast, slow = x * y, mul(x, y)
    assert_same(fast, slow)
    assert (x.to_json(), y.to_json()) == before  # no operand map was written into
    assert_same(fast * x, mul(slow, x))  # a product's maps serve as an operand
    assert (x.to_json(), y.to_json(), fast.to_json()) == (*before, slow.to_json())


@BOUNDED
@given(skein_terms)
def test_basis_changes_match_the_term_by_term_expansion(ts):
    std, che = SkeinElement.make(Basis.STANDARD, ts), SkeinElement.make(Basis.CHEBYSHEV, ts)
    before = (std.to_json(), che.to_json())
    assert_same(std.to_chebyshev(), ref.to_chebyshev(std))
    assert_same(che.to_standard(), ref.to_standard(che))
    assert (std.to_json(), che.to_json()) == before


@BOUNDED
@given(oriented_terms, oriented_terms)
def test_oriented_products_match_the_quantum_torus_rule(xs, ys):
    x, y = OrientedElement.make(xs), OrientedElement.make(ys)
    before = (x.to_json(), y.to_json())
    assert_same(x * y, ref.oriented_mul(x, y))
    assert (x.to_json(), y.to_json()) == before


@BOUNDED
@given(skein_terms)
def test_psi_matches_the_binomial_form(ts):
    x = SkeinElement.make(Basis.STANDARD, ts)
    before = x.to_json()
    assert_same(psi(x), ref.psi(x))
    assert x.to_json() == before


# A fast algebra's finished output: vector keys (None or (0, 0) for the unit),
# each value a LaurentPoly or a bare map, zero coefficients and entries included.
bare_maps = st.dictionaries(st.integers(-2, 2), st.integers(-1, 1), max_size=3)
values = st.one_of(coeffs, bare_maps)
vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
skein_vec_maps = st.dictionaries(
    st.one_of(st.none(), vectors.filter(lambda v: v != (0, 0)).map(lambda v: canonicalize(v)[0].vec)),
    values,
    max_size=6,
)
oriented_vec_maps = st.dictionaries(st.one_of(st.just((0, 0)), vectors), values, max_size=6)


def _poly(value) -> LaurentPoly:
    return value if isinstance(value, LaurentPoly) else LaurentPoly(value)


def assert_finished_like_make(finished, made, coefficients: dict) -> None:
    """Both elements hold the nonzero ``coefficients`` in the reference order."""
    expected = sorted([(k, c) for k, c in coefficients.items() if c], key=lambda kc: ref.term_order(kc[0]))
    assert finished.terms() == made.terms() == tuple(expected)
    assert_stored_nonzero(finished)
    for key, coeff in expected:
        assert finished.coefficient(key) == coeff  # bisect finds every key


@BOUNDED
@given(skein_vec_maps)
def test_finishing_vector_maps_gives_what_make_gives(maps):
    coefficients = {(EMPTY if v is None else UnorientedClass(v)): _poly(c) for v, c in maps.items()}
    made = SkeinElement.make(Basis.CHEBYSHEV, coefficients)
    finished = from_vec_maps(Basis.CHEBYSHEV, {v: dict(c) if type(c) is dict else c for v, c in maps.items()})
    assert_finished_like_make(finished, made, coefficients)
    if None not in maps:
        assert finished.coefficient(EMPTY) == 0


@BOUNDED
@given(oriented_vec_maps)
def test_finishing_oriented_vector_maps_gives_what_make_gives(maps):
    coefficients = {v: _poly(c) for v, c in maps.items()}
    made = OrientedElement.make(coefficients)
    terms = finish_terms({v: dict(c) if type(c) is dict else c for v, c in maps.items()}, (0, 0))
    assert_finished_like_make(OrientedElement(tuple(terms)), made, coefficients)
    if (0, 0) not in maps:
        assert OrientedElement(tuple(terms)).coefficient((0, 0)) == 0


# Repeated keys, int and zero coefficients, in any order: what ``make`` takes.
int_coeffs = st.one_of(coeffs, st.integers(-2, 2))
oriented_keys = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def assert_made_in_the_reference_order(make, terms, shuffled) -> None:
    x = make(terms)
    merged = ref._merged((k, c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})) for k, c in terms)
    assert x.terms() == tuple(sorted(merged.items(), key=lambda kc: ref.term_order(kc[0])))
    assert_stored_nonzero(x)
    y = make(shuffled)
    assert (str(y), json.dumps(y.to_json())) == (str(x), json.dumps(x.to_json()))


@BOUNDED
@given(st.lists(st.tuples(classes, int_coeffs), max_size=8), st.randoms(use_true_random=False))
def test_make_keeps_skein_terms_in_the_reference_order(terms, rnd):
    shuffled = rnd.sample(terms, len(terms))
    for basis in Basis:
        assert_made_in_the_reference_order(lambda ts: SkeinElement.make(basis, ts), terms, shuffled)


@BOUNDED
@given(st.lists(st.tuples(oriented_keys, int_coeffs), max_size=8), st.randoms(use_true_random=False))
def test_make_keeps_oriented_terms_in_the_reference_order(terms, rnd):
    assert_made_in_the_reference_order(OrientedElement.make, terms, rnd.sample(terms, len(terms)))


def cheb(terms: dict) -> SkeinElement:
    return SkeinElement.make(
        Basis.CHEBYSHEV,
        {(EMPTY if k is None else UnorientedClass(k)): LaurentPoly.parse(c) for k, c in terms.items()},
    )


def test_an_empty_class_hit_that_cancels():
    # (1,0)_T^2 = 2 + (2,0)_T; with the empty terms the empty class sums to 0.
    x, y = cheb({(1, 0): "1", None: "1"}), cheb({(1, 0): "1", None: "-2"})
    product = x * y
    assert product == cheb({(2, 0): "1", (1, 0): "-1"}) == ref.mul_chebyshev(x, y)
    assert EMPTY not in product.support()


def test_an_output_that_cancels_leaves_no_key():
    # (1,0)_T (3,0)_T puts -(2,0)_T over the +(2,0)_T of (1,0)_T^2.
    x, y = cheb({(1, 0): "1", (3, 0): "-1"}), cheb({(1, 0): "1"})
    assert x * y == cheb({None: "2", (4, 0): "-1"}) == ref.mul_chebyshev(x, y)


def test_repeated_keys_keep_their_operands_unchanged():
    a, b = LaurentPoly.parse("A + 2"), LaurentPoly.parse("-A")
    key = UnorientedClass((1, 0))
    merged = SkeinElement.make(Basis.STANDARD, [(key, a), (key, b), (key, a)])
    assert merged.coefficient(key) == LaurentPoly.parse("A + 4")
    assert (a.to_json(), b.to_json()) == ({"0": 2, "1": 1}, {"1": -1})
    once = SkeinElement.make(Basis.STANDARD, [(key, a)])
    assert once.coefficient(key) is a  # a key seen once keeps its coefficient


def std(terms: dict) -> SkeinElement:
    return SkeinElement.make(Basis.STANDARD, {UnorientedClass(k): LaurentPoly.parse(c) for k, c in terms.items()})


def test_accumulate_stores_a_lone_unscaled_hit_and_copies_on_a_repeat():
    a, b = LaurentPoly.parse("A + 2"), LaurentPoly.parse("-A")
    maps: dict = {}
    accumulate(maps, "k", a)
    assert maps["k"] is a
    accumulate(maps, "k", b, 3)
    assert maps["k"] == {1: -2, 0: 2} and type(maps["k"]) is dict
    accumulate(maps, "j", b, 2)
    assert maps["j"] == {1: -2}
    assert (a.to_json(), b.to_json()) == ({"0": 2, "1": 1}, {"1": -1})


# ----- pass-through -----


def test_a_primitive_coefficient_passes_through_as_the_same_object():
    a, b, e = LaurentPoly.parse("A + 2"), LaurentPoly.parse("-A^3"), LaurentPoly.parse("A^-1")
    terms = {UnorientedClass((1, 0)): a, UnorientedClass((2, 3)): b, EMPTY: e}
    x, xt = SkeinElement.make(Basis.STANDARD, terms), SkeinElement.make(Basis.CHEBYSHEV, terms)
    for image in (x.to_chebyshev(), xt.to_standard()):
        assert all(image.coefficient(k) is c for k, c in terms.items())
    image = psi(x)
    for key, c in (((1, 0), a), ((-1, 0), a), ((2, 3), b), ((-2, -3), b), ((0, 0), e)):
        assert image.coefficient(key) is c


def test_a_later_hit_on_a_passed_through_key_copies_it():
    # X^3 = T_3 + 3 T_1, T_3 = X^3 - 3X and psi of (3,0) is g(3,0) + 3 g(1,0) + ...:
    # the (3,0) term lands on the key (1,0) after (1,0)'s own coefficient.
    a, b = LaurentPoly.parse("A + 2"), LaurentPoly.parse("-A^2 + 1")
    terms = [(UnorientedClass((1, 0)), a), (UnorientedClass((3, 0)), b)]
    x, xt = SkeinElement.make(Basis.STANDARD, terms), SkeinElement.make(Basis.CHEBYSHEV, terms)
    before = (a.to_json(), b.to_json(), x.to_json(), xt.to_json())
    assert_same(x.to_chebyshev(), ref.to_chebyshev(x))
    assert_same(xt.to_standard(), ref.to_standard(xt))
    assert_same(psi(x), ref.psi(x))
    assert x.to_chebyshev().coefficient(UnorientedClass((1, 0))) == a + 3 * b
    assert (a.to_json(), b.to_json(), x.to_json(), xt.to_json()) == before


@BOUNDED
@given(skein_terms)
def test_no_operand_is_written_into_by_a_chain_of_basis_changes(ts):
    x = SkeinElement.make(Basis.STANDARD, ts)
    coeffs_before = [c.to_json() for _k, c in x.terms()]
    c = x.to_chebyshev()
    s = c.to_standard()
    p = psi(s)
    assert s == x
    assert c == ref.to_chebyshev(x)
    assert p == ref.psi(x)
    assert [coeff.to_json() for _k, coeff in x.terms()] == coeffs_before


# ----- the retained Chebyshev form -----


@BOUNDED
@given(skein_terms)
def test_to_chebyshev_returns_the_element_to_standard_expanded(ts):
    c = SkeinElement.make(Basis.CHEBYSHEV, ts)
    assert c.to_standard().to_chebyshev() is c


def test_no_other_operation_keeps_the_chebyshev_form():
    c = cheb({(1, 0): "A", (2, 1): "-1", None: "2"})
    s = c.to_standard()
    assert s._chebyshev is c
    made = (
        s + s, s - s, s.scaled(2), s.scaled(1), s.scaled(LaurentPoly.parse("A")),
        s.map_coefficients(lambda k: k), SkeinElement.make(Basis.STANDARD, s.terms()),
        SkeinElement.from_json(s.to_json()), s.to_chebyshev(), std({(1, 0): "A"}).to_chebyshev(),
    )
    assert [m._chebyshev for m in made] == [None] * len(made)


def test_the_kept_form_is_invisible():
    s = cheb({(1, 0): "A", (2, 1): "-1", None: "2"}).to_standard()
    plain = SkeinElement.make(Basis.STANDARD, s.terms())
    assert plain._chebyshev is None
    assert s == plain and not s != plain
    assert (hash(s), repr(s), str(s), s.to_json()) == (hash(plain), repr(plain), str(plain), plain.to_json())
    assert {s: 1}[plain] == 1


@BOUNDED
@given(skein_terms, skein_terms)
def test_psi_of_a_product_reads_its_kept_form(xs, ys):
    xy = SkeinElement.make(Basis.STANDARD, xs) * SkeinElement.make(Basis.STANDARD, ys)
    plain = ref.rebuilt(xy)
    assert xy._chebyshev is not None and plain._chebyshev is None
    assert_same(psi(xy), psi(plain))
    assert_same(psi(xy), ref.psi(plain))


@BOUNDED
@given(skein_terms, skein_terms, skein_terms)
def test_standard_chains_match_the_term_by_term_formula(xs, ys, zs):
    x, y, z = (SkeinElement.make(Basis.STANDARD, ts) for ts in (xs, ys, zs))
    before = (x.to_json(), y.to_json(), z.to_json())
    xy = x * y
    slow = ref.mul_standard(x, y)
    assert_same(xy.to_chebyshev(), ref.to_chebyshev(slow))
    assert_same(ref.rebuilt(xy).to_chebyshev(), ref.to_chebyshev(slow))
    assert_same(xy * z, ref.mul_standard(slow, z))
    assert_same(z * xy, ref.mul_standard(z, slow))
    assert (x.to_json(), y.to_json(), z.to_json()) == before
