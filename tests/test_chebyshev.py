import time

import pytest

from references import evaluate_laurent

from toruskein.chebyshev import MAX_DEGREE, chebyshev_t, power_to_chebyshev
from toruskein.laurent import A, LaurentPoly


class TestChebyshevT:
    def test_degree_zero_is_two(self):
        assert chebyshev_t(0) == (2,)

    def test_degree_two(self):
        assert chebyshev_t(2) == (-2, 0, 1)  # X^2 - 2

    def test_degree_five(self):
        # Three more recursion steps from T_2: X^5 - 5X^3 + 5X.
        assert chebyshev_t(5) == (0, 5, 0, -5, 0, 1)

    def test_monic_of_exact_degree(self):
        for n in range(1, 40):
            poly = chebyshev_t(n)
            assert len(poly) == n + 1
            assert poly[-1] == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_t(-1)

    def test_degree_limit(self):
        assert MAX_DEGREE >= 16 * 64  # far above the degree-64 acceptance check
        assert len(chebyshev_t(MAX_DEGREE)) == MAX_DEGREE + 1
        with pytest.raises(ValueError, match="limit"):
            chebyshev_t(MAX_DEGREE + 1)


    def test_table_fills_in_any_order(self):
        expected = [[2], [0, 1]]
        for _ in range(2, 402):  # T_n = X T_(n-1) - T_(n-2), on lists
            prev, cur = expected[-2], expected[-1]
            expected.append([0, *cur])
            for i, c in enumerate(prev):
                expected[-1][i] -= c
        for order in ([400, 0, 1, 401, 7], [1, 3, 0, 250, 2, 400], [399]):
            chebyshev_t.cache_clear()  # each order starts cold and must recompute
            for n in order:
                assert chebyshev_t(n) == tuple(expected[n])
            assert all(chebyshev_t(n) == tuple(expected[n]) for n in range(402))

    def test_cold_table_is_quadratic(self):
        chebyshev_t.cache_clear()
        start = time.process_time()
        chebyshev_t(MAX_DEGREE)  # a deep recursion would fail, a cubic fill take seconds
        assert time.process_time() - start < 2.0
        assert chebyshev_t.cache_info().misses == MAX_DEGREE + 1  # each degree computed once


class TestPowerToChebyshev:
    def test_power_one(self):
        assert power_to_chebyshev(1) == {1: 1}

    def test_power_two(self):
        # Substitute T_2 = X^2 - 2: X^2 = T_2 + 2 * 1.
        assert power_to_chebyshev(2) == {2: 1, 0: 2}

    def test_power_three(self):
        # (x + 1/x)^3 = (x^3 + x^-3) + 3(x + x^-1).
        assert power_to_chebyshev(3) == {3: 1, 1: 3}

    def test_power_zero(self):
        assert power_to_chebyshev(0) == {0: 1}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power_to_chebyshev(-2)

    def test_degree_limit(self):
        assert power_to_chebyshev(MAX_DEGREE)[MAX_DEGREE] == 1
        with pytest.raises(ValueError, match="limit"):
            power_to_chebyshev(MAX_DEGREE + 1)


def _poly_add(p, q):
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _poly_scale(p, c):
    return tuple(c * x for x in p)


def test_roundtrip_against_recursion():
    # The closed-form binomials and the recursion are independent paths;
    # expanding X^n back through T_k must be exact for all n <= 64.
    for n in range(65):
        acc = ()
        for k, c in power_to_chebyshev(n).items():
            base = chebyshev_t(k) if k else (1,)
            acc = _poly_add(acc, _poly_scale(base, c))
        expected = (0,) * n + (1,)
        trimmed = acc[: len(expected)] + (0,) * max(0, len(expected) - len(acc))
        assert trimmed == expected and all(x == 0 for x in acc[len(expected):])


def test_two_sided_power_sum_identity():
    # T_n at A + A^-1 equals A^n + A^-n, exactly, for all n <= 64.
    x = A + A.mirror()
    for n in range(65):
        expected = LaurentPoly({n: 1, -n: 1}) if n else LaurentPoly({0: 2})
        assert evaluate_laurent(chebyshev_t(n), x) == expected


def test_evaluate_laurent_on_plain_poly():
    # (X^2 - 2) at delta: delta^2 - 2.
    delta = LaurentPoly.delta()
    assert evaluate_laurent((-2, 0, 1), delta) == delta * delta - 2
