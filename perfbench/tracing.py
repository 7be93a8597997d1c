"""Spans recorded by the benchmark around calls into the program's modules.

The program is not edited.  For the traced pass the benchmark replaces each
public function or method named in ``TARGETS`` at every place a caller looks
it up (a module attribute, an imported name or a class attribute) with a
wrapper that records a span, and puts the originals back afterwards.

A span has a name, a start, an end, a parent span and an op id.  Spans are
kept in memory, in flat arrays, until the run ends.  A span's self time is
its duration minus the durations of its direct children; no traced name calls
itself, so a name's inclusive time is the sum of its spans' durations.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager


def _oracle_states(args, result) -> int:
    x, y = args[0], args[1]
    if x.vec is None or y.vec is None:
        return 0
    k = abs(x.vec[0] * y.vec[1] - x.vec[1] * y.vec[0])
    return 1 << k if k else 0


def _bracket_states(args, result) -> int:
    return 1 << args[0].crossing_count


def _terms_out(args, result) -> int:
    return len(result.terms())


def _cases(args, result) -> int:
    sweep = result[0] if isinstance(result, tuple) else result  # the oriented sweep adds totals
    return sweep.cases


# (module, class or None, attribute, span name, counter).  The counter turns a
# call's arguments and result into an integer added to the span name's count.
TARGETS = (
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul", None),
    ("laurent", "LaurentPoly", "__rmul__", "laurent.mul", None),
    ("laurent", "LaurentPoly", "__add__", "laurent.add", None),
    ("laurent", "LaurentPoly", "__radd__", "laurent.add", None),
    ("chebyshev", None, "chebyshev_t", "chebyshev.t", None),
    ("chebyshev", None, "power_to_chebyshev", "chebyshev.power", None),
    ("skein", "SkeinElement", "__mul__", "skein.mul", _terms_out),
    ("skein", "SkeinElement", "to_chebyshev", "skein.basis_change", None),
    ("skein", "SkeinElement", "to_standard", "skein.basis_change", None),
    ("skein", "SkeinElement", "coefficient", "skein.coefficient", None),
    ("oriented", "OrientedElement", "__mul__", "oriented.mul", None),
    ("oriented", None, "psi", "oriented.psi", None),
    ("verify", None, "psi", "oriented.psi", None),
    ("cli", None, "psi", "oriented.psi", None),
    ("oriented", None, "psi_inverse", "oriented.psi_inverse", None),
    ("verify", None, "psi_inverse", "oriented.psi_inverse", None),
    ("cli", None, "psi_inverse", "oriented.psi_inverse", None),
    ("oriented", None, "psi_chebyshev", "oriented.psi_chebyshev", None),
    ("verify", None, "psi_chebyshev", "oriented.psi_chebyshev", None),
    ("oriented", None, "gamma_mul", "oriented.gamma_mul", None),
    ("verify", None, "gamma_mul", "oriented.gamma_mul", None),
    ("cli", None, "gamma_mul", "oriented.gamma_mul", None),
    ("smoothing_oracle", None, "build_arrangement", "smoothing_oracle.build", None),
    ("smoothing_oracle", None, "unoriented_product", "smoothing_oracle.unoriented", _oracle_states),
    ("cli", None, "unoriented_product", "smoothing_oracle.unoriented", _oracle_states),
    ("smoothing_oracle", None, "oriented_product_with_ledger", "smoothing_oracle.oriented", None),
    ("cli", None, "oriented_product_with_ledger", "smoothing_oracle.oriented", None),
    ("bracket_planar", None, "kauffman_bracket", "bracket_planar.bracket", _bracket_states),
    ("cli", None, "kauffman_bracket", "bracket_planar.bracket", _bracket_states),
    ("verify", None, "fg_vs_oracle_sweep", "verify.fg", _cases),
    ("verify", None, "oriented_monomial_sweep", "verify.oriented", _cases),
    ("verify", None, "psi_homomorphism_sweep", "verify.psi", _cases),
    ("verify", None, "swap_symmetry_sweep", "verify.swap", _cases),
    ("cli", None, "run", "cli.run", None),
)


class Spans:
    """In-memory span store; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack = [-1]
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack,
        )
        counts = self.counts
        spans = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(spans.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[name] = counts.get(name, 0) + counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, prog):
        """Wrap every target found in ``prog``; restore the originals on exit."""
        undo = []
        try:
            for module, cls, attr, name, counter in TARGETS:
                owner = getattr(prog, module)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                    continue
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original, counter))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def by_op(self, name: str) -> dict[int, float]:
        """Inclusive seconds of ``name``'s spans, per op id."""
        nid = self._ids.get(name)
        out: dict[int, float] = {}
        for i in range(len(self.start)):
            if self.name[i] == nid:
                out[self.op[i]] = out.get(self.op[i], 0.0) + self.end[i] - self.start[i]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds, self seconds, counted work."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for name, c in self.counts.items():
            out[name]["count"] = c
        return out

