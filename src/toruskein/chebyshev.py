"""Chebyshev polynomials of the first kind and the power <-> T-basis conversion.

The normalization used throughout is T_0 = 2, T_1 = X, T_n = X*T_{n-1} - T_{n-2}
(monic for n >= 1), which is the one satisfying T_n(x + x^-1) = x^n + x^-n.
Conversions keep integer coefficients by expressing the constant part against
the generator 1 rather than T_0 = 2.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import sub

from .laurent import shown_int

IntPoly = tuple[int, ...]  # coefficients, index = power of the indeterminate

# Largest degree the conversions (and so psi and products) accept.  T_0..T_n
# cost O(n^2) bigint work and stay in the cache (about 25 MiB at this limit),
# so larger degrees are refused before any work starts.
MAX_DEGREE = 1024


def check_degree(n: int, what: str) -> None:
    """Refuse a negative degree or one above MAX_DEGREE with ValueError."""
    if n < 0:
        raise ValueError(f"{what} must be >= 0")
    if n > MAX_DEGREE:
        raise ValueError(f"{what} {shown_int(n)} exceeds the limit of {MAX_DEGREE} on Chebyshev degrees")


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> IntPoly:
    """Coefficient tuple of the n-th first-kind Chebyshev polynomial.

    Each degree is one recurrence step from the two cached degrees below it.
    The cache always holds the degrees 2..m (and maybe 0 and 1), so a call
    first fills the missing degrees below n in ascending order, from just
    under the cache size up: no call nests more than two deep, a cold T_n
    costs O(n^2) and each new degree O(n).
    """
    check_degree(n, "Chebyshev index")
    if n < 2:
        return ((2,), (0, 1))[n]
    for k in range(max(2, _t_cache_info().currsize - 1), n - 1):
        chebyshev_t(k)
    prev, cur = chebyshev_t(n - 2), chebyshev_t(n - 1)
    return tuple(map(sub, (0,) + cur, prev + (0, 0)))  # X*T_(n-1) - T_(n-2)


_t_cache_info = chebyshev_t.cache_info  # bound to the cache, whatever wraps the name later


def power_to_chebyshev(n: int) -> dict[int, int]:
    """Integer coefficients c with X^n = sum_{k>=1} c[k]*T_k + c[0]*1.

    Regrouping the binomial expansion of (x + x^-1)^n by the pairs
    x^k + x^-k gives c[k] = C(n, (n-k)/2) for k >= 1 with k = n (mod 2), and
    c[0] = C(n, n/2) for even n (the unpaired middle term, counted against 1).
    """
    check_degree(n, "power")
    out: dict[int, int] = {}
    for k in range(n, 0, -2):
        out[k] = comb(n, (n - k) // 2)
    if n % 2 == 0:
        out[0] = comb(n, n // 2)
    return out
