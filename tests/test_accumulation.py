"""The bare-map accumulation of the fast algebra against the term-by-term
LaurentPoly formulas in ``references``: products in both bases, both basis
changes, oriented products and psi, on elements whose coefficients cancel."""

from hypothesis import given, settings
from hypothesis import strategies as st

import references as ref

from toruskein.laurent import LaurentPoly
from toruskein.oriented import OrientedElement, psi
from toruskein.skein import Basis, SkeinElement
from toruskein.torus_curves import EMPTY, UnorientedClass, canonicalize

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True)

# Short coefficients over few exponents, so sums cancel often; zero included.
coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=3).map(LaurentPoly)
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
