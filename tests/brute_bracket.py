"""Reference brackets: the direct sum over all 2^k states and recursive splicing.

``brute_bracket`` is the original evaluator that ``kauffman_bracket``
replaced with a frontier contraction.  Every state gets a fresh union-find
over the edge labels; each union of two already joined labels closes a
circle.  ``kauffman_bracket_recursive`` resolves the first crossing both ways
and splices the rest, an independent second path.  Tests compare all three
on random diagrams.  ``disjoint_union`` places two diagrams side by side, for
the multiplicativity checks.
"""

from __future__ import annotations

from references import shifted

from toruskein.bracket_planar import Crossing, PDCode
from toruskein.laurent import LaurentPoly
from toruskein.smoothing_oracle import DEFAULT_BUDGET, BudgetExceededError


def disjoint_union(first: PDCode, second: PDCode) -> PDCode:
    """Place two diagrams side by side, relabeling the second to keep labels unique."""
    offset = max(first.edges(), default=0)
    shifted = tuple(tuple(e + offset for e in t) for t in second.crossings)
    return PDCode(first.crossings + shifted, first.free_loops + second.free_loops)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Join two classes; returns True when they were already joined
        (a circle has been closed)."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return True
        self.parent[rx] = ry
        return False


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


def kauffman_bracket_recursive(pd: PDCode, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """Same value by recursive crossing resolution; an independent code path
    used to cross-check the state sum."""
    if pd.crossing_count > budget:
        raise BudgetExceededError(
            f"{pd.crossing_count} crossings exceed the budget of {budget}"
        )

    def splice(crossings: tuple[Crossing, ...], pairs, loops: int) -> tuple[tuple[Crossing, ...], int]:
        uf = _UnionFind()
        for x, y in pairs:
            if uf.union(x, y):
                loops += 1
        renamed = tuple(
            tuple(uf.find(e) for e in t) for t in crossings
        )
        return renamed, loops

    def go(crossings: tuple[Crossing, ...], loops: int) -> LaurentPoly:
        if not crossings:
            return LaurentPoly.delta() ** loops
        (a, b, c, d), rest = crossings[0], crossings[1:]
        rest_a, loops_a = splice(rest, ((a, d), (b, c)), loops)
        rest_b, loops_b = splice(rest, ((a, b), (c, d)), loops)
        return shifted(go(rest_a, loops_a), 1) + shifted(go(rest_b, loops_b), -1)

    return go(pd.crossings, pd.free_loops)
