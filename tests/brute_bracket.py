"""Reference bracket: the direct sum over all 2^k states.

This is the original evaluator that ``kauffman_bracket`` replaced with a
frontier contraction.  Every state gets a fresh union-find over the edge
labels; each union of two already joined labels closes a circle.  Tests
compare the two on random diagrams.
"""

from __future__ import annotations

from toruskein.bracket_planar import PDCode, _UnionFind
from toruskein.laurent import LaurentPoly


def brute_bracket(pd: PDCode) -> LaurentPoly:
    """Sum A^(#A - #B) * delta^circles over every state of ``pd``."""
    k = pd.crossing_count
    # A state has at most one circle per edge label (2k of them) plus the
    # free loops: two negative kinks side by side already have 4 circles.
    deltas = [LaurentPoly.one()]
    for _ in range(2 * k + pd.free_loops):
        deltas.append(deltas[-1] * LaurentPoly.delta())
    acc: dict[int, int] = {}
    for mask in range(1 << k):
        uf = _UnionFind()
        closed = 0
        for i, (a, b, c, d) in enumerate(pd.crossings):
            if (mask >> i) & 1:  # B-smoothing
                pairs = ((a, b), (c, d))
            else:  # A-smoothing
                pairs = ((a, d), (b, c))
            for x, y in pairs:
                if uf.union(x, y):
                    closed += 1
        # Each label is visited at two slots, so every class closes into a
        # circle; circles = closures counted above.
        circles = closed + pd.free_loops
        exponent = k - 2 * bin(mask).count("1")
        for e, c in deltas[circles].terms():
            s = acc.get(e + exponent, 0) + c
            if s:
                acc[e + exponent] = s
            else:
                del acc[e + exponent]
    return LaurentPoly(acc)
