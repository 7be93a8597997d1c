"""Kauffman bracket state sums over planar PD codes.

A diagram is a list of crossings, each a 4-tuple of edge labels read
counterclockwise starting from the incoming under-strand; the under-strand
runs from slot 0 to slot 2 and the over-strand occupies slots 1 and 3.  Every
edge label must occur exactly twice, which forces the edges to close into
loops.  ``free_loops`` counts extra crossing-free circles (a plain 4-tuple
encoding cannot express them).

Resolution convention: for a crossing (a, b, c, d) the A-smoothing joins
{a, d} and {b, c}, the B-smoothing joins {a, b} and {c, d}.  Every closed
circle of a state -- including the last one -- evaluates to
delta = -A^2 - A^-2 and the empty diagram evaluates to 1, so the two-crossing
clasp of two circles comes out to A^6 + A^2 + A^-2 + A^-6 exactly.

The bracket is the sum of A^(#A - #B) * delta^circles over all 2^k states.
``kauffman_bracket`` evaluates it on the torus oracle's frontier-contraction
kernel, ``smoothing_oracle.contract``: slot s of crossing i is port 4i+s,
each edge label is an arc between its two occurrences, and every arc
carries the payload (0, 0), so every closed component is a circle.  The
test suite keeps two independent references: the direct 2^k sum and a
recursive splicing evaluator.

Tuples are stored canonically up to rotation by two (the same unoriented
crossing re-read from the outgoing under-strand), which makes the over/under
mirror a literal involution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .laurent import LaurentPoly, check_bound, quoted
from .smoothing_oracle import BudgetExceededError, DEFAULT_BUDGET, contract

Crossing = tuple[int, int, int, int]


def _canonical_crossing(t: Crossing) -> Crossing:
    rotated = (t[2], t[3], t[0], t[1])
    return min(t, rotated)


@dataclass(frozen=True, slots=True)
class PDCode:
    """A planar link diagram as crossing tuples plus crossing-free circles."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def __post_init__(self) -> None:
        check_bound("free_loops", self.free_loops, low=0)
        canon = []
        counts: dict[int, int] = {}
        for t in self.crossings:
            if len(t) != 4:
                raise ValueError(f"crossing {t!r} is not a 4-tuple")
            canon.append(_canonical_crossing(tuple(int(e) for e in t)))
            for e in t:
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, c in counts.items() if c != 2)
        if bad:
            raise ValueError(f"edge labels must occur exactly twice; bad labels: {quoted(bad)}")
        object.__setattr__(self, "crossings", tuple(canon))

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def edges(self) -> set[int]:
        return {e for t in self.crossings for e in t}

    def __str__(self) -> str:
        parts = [f"X({a},{b},{c},{d})" for a, b, c, d in self.crossings]
        parts.extend("O" for _ in range(self.free_loops))
        return " ".join(parts) if parts else "(empty)"

    @classmethod
    def parse(cls, text: str) -> "PDCode":
        """Parse the text form, e.g. ``"X(1,3,2,4) X(3,1,4,2) O"``."""
        crossings = []
        loops = 0
        pos = 0 if text.strip() else len(text)  # whitespace alone is the empty diagram
        token = re.compile(r"\s*(X\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)|O)\s*")
        while pos < len(text):
            m = token.match(text, pos)
            if not m:
                raise ValueError(f"bad PD token at position {pos}: {text[pos:pos + 12]!r}")
            if m.group(1) == "O":
                loops += 1
            else:
                try:
                    crossings.append(tuple(int(m.group(i)) for i in range(2, 6)))
                except ValueError:  # more digits than int() converts
                    raise ValueError(f"a PD label has too many digits: {quoted(text)}") from None
            pos = m.end()
        return cls(tuple(crossings), loops)


def mirror(pd: PDCode) -> PDCode:
    """Swap over and under at every crossing."""
    return PDCode(tuple((b, c, d, a) for a, b, c, d in pd.crossings), pd.free_loops)


def _crossing_order(crossings: tuple[Crossing, ...]) -> list[int]:
    """Greedy resolution order: next is the crossing that leaves the fewest
    open labels, the lowest index on ties."""
    singles = [frozenset(e for e in t if t.count(e) == 1) for t in crossings]
    open_labels: frozenset[int] = frozenset()
    left = list(range(len(crossings)))
    order = []
    while left:
        best = min(left, key=lambda i: (len(singles[i]) - 2 * len(singles[i] & open_labels), i))
        left.remove(best)
        order.append(best)
        open_labels ^= singles[best]
    return order


# Slots (a, b, c, d) of a crossing: the A-smoothing joins {a, d} and {b, c},
# the B-smoothing {a, b} and {c, d}, and no join turns.
_PAIRINGS = ((1, ((0, 3, 0), (1, 2, 0))), (-1, ((0, 1, 0), (2, 3, 0))))


def _circles(closed: list, direction: None) -> tuple[int, int, None]:
    """Every closed component of a planar state is a circle."""
    return len(closed), 0, None


def kauffman_bracket(pd: PDCode, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """The bracket: the sum of A^(#A - #B) * delta^circles over all states,
    evaluated by ``contract`` in the greedy order.  Partial states that join
    their open ports the same way are merged, so the cost follows the number
    of ways to join the frontier, not 2^k.  Free loops count against the
    budget as crossings do: each multiplies the value by delta."""
    k = pd.crossing_count
    what = "crossing and free loop count" if pd.free_loops else "crossing count"
    check_bound(what, k + pd.free_loops, limit=budget, limit_name="budget", error=BudgetExceededError)
    # Port 4i+s is slot s of crossing i; its arc leads to its label's other port.
    labels = [e for t in pd.crossings for e in t]
    last = {e: p for p, e in enumerate(labels)}
    first = {e: p for p, e in reversed(list(enumerate(labels)))}
    arc_other = [first[e] if p == last[e] else last[e] for p, e in enumerate(labels)]
    states = contract(arc_other, [(0, 0)] * (4 * k), 1, _crossing_order(pd.crossings), _PAIRINGS, _circles)
    # Every component is a circle, so the one state left has no essential ones.
    return LaurentPoly(states[(0, None)]) * LaurentPoly.delta() ** pd.free_loops


def add_reidemeister_ii(pd: PDCode, over_edge: int, under_edge: int) -> PDCode:
    """Poke the strand carrying ``over_edge`` across the one carrying
    ``under_edge``, adding a canceling pair of crossings.

    The bracket is invariant under this move; the property suite exercises it
    across the diagram corpus.
    """
    if over_edge == under_edge:
        raise ValueError("Reidemeister II needs two distinct edges")
    edges = pd.edges()
    if over_edge not in edges or under_edge not in edges:
        raise ValueError("both edges must occur in the diagram")
    fresh = max(edges) + 1
    m_mid, m_tail, n_mid, n_tail = fresh, fresh + 1, fresh + 2, fresh + 3

    def relabel_second(crossings: list[list[int]], old: int, new: int) -> None:
        seen = 0
        for t in crossings:
            for i, e in enumerate(t):
                if e == old:
                    seen += 1
                    if seen == 2:
                        t[i] = new
                        return
        raise ValueError(f"edge {old} does not occur twice")

    crossings = [list(t) for t in pd.crossings]
    relabel_second(crossings, over_edge, m_tail)
    relabel_second(crossings, under_edge, n_tail)
    crossings.append([under_edge, over_edge, n_mid, m_mid])
    crossings.append([n_mid, m_tail, n_tail, m_mid])
    return PDCode(tuple(tuple(t) for t in crossings), pd.free_loops)


# Small ready-made diagrams for tests and demos.

HOPF_LINK = PDCode(((1, 3, 2, 4), (3, 1, 4, 2)))
TREFOIL = PDCode(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))
FIGURE_EIGHT = PDCode(((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)))
UNKNOT = PDCode((), free_loops=1)
UNLINK_2 = PDCode((), free_loops=2)
KINK_POSITIVE = PDCode(((1, 2, 2, 1),))
KINK_NEGATIVE = PDCode(((1, 1, 2, 2),))
SOLOMON_LINK = PDCode(((1, 5, 2, 6), (5, 3, 6, 4), (3, 7, 4, 8), (7, 1, 8, 2)))
CINQUEFOIL = PDCode(((1, 6, 2, 7), (3, 8, 4, 9), (5, 10, 6, 1), (7, 2, 8, 3), (9, 4, 10, 5)))
