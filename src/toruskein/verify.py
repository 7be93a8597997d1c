"""Exhaustive desk-scale sweeps pitting the fast paths against the oracle.

Each row is a check that ``_sweep`` runs on every pair of a list, keeping each
counterexample line; the oracle's budget is max_det, the bound on every |det2|.
The benchmark's tracer counts the row functions' cases by name, so an oracle memo
for the fg and psi rows waits until the benchmark counts distinct products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import smoothing_oracle as oracle
from .laurent import check_bound
from .oriented import gamma_mul, psi
from .skein import Basis, SkeinElement
from .torus_curves import UnorientedClass, det2, is_half_plane


@dataclass
class SweepResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < 8:  # keep reports short; the first one matters
            self.failures.append(message)

    def summary(self) -> str:
        if self.ok:
            return f"ok   {self.name}: {self.cases} cases"
        return f"FAIL {self.name}: {self.cases} cases, e.g. {self.failures[0]}"


def canonical_classes(max_coord: int) -> list[UnorientedClass]:
    """All non-empty canonical classes with |a|, |b| <= max_coord."""
    return [
        UnorientedClass((a, b))
        for a in range(max_coord + 1)
        for b in range(-max_coord, max_coord + 1)
        if is_half_plane((a, b))
    ]


def class_pairs(max_coord: int, max_det: int) -> list[tuple[UnorientedClass, UnorientedClass]]:
    """The ordered pairs of canonical classes that meet in at most ``max_det`` crossings."""
    classes = canonical_classes(max_coord)
    return [(x, y) for x in classes for y in classes if abs(det2(x.vec, y.vec)) <= max_det]


def _sweep(name: str, pairs: list, check: Callable[..., str | None]) -> SweepResult:
    """Count every pair as a case and keep each counterexample line ``check`` returns."""
    result = SweepResult(name, cases=len(pairs))
    for x, y in pairs:
        if (failure := check(x, y)) is not None:
            result.fail(failure)
    return result


def fg_vs_oracle_sweep(max_coord: int, max_det: int) -> SweepResult:
    """Fast product-to-sum multiplication against the smoothing state sum."""
    gens = {x: SkeinElement.generator(x, Basis.STANDARD) for x in canonical_classes(max_coord)}

    def check(x, y):
        fast = gens[x] * gens[y]
        slow = oracle.unoriented_product(x, y, budget=max_det)
        return None if fast == slow else f"{x} * {y}: fast = {fast}; oracle = {slow}"

    return _sweep("product-to-sum vs smoothing oracle", class_pairs(max_coord, max_det), check)


def oriented_monomial_sweep(max_coord: int, max_det: int) -> tuple[SweepResult, int]:
    """Monomial rule vs the oriented oracle, over every ordered vector pair.

    Also returns the sum over the sweep of the A-exponents of the oracle's
    monomials.  A correct oracle's is -det2(u, v) and the sweep holds each
    pair both ways round, so the sum is 0; it is 0 too for a ``_CORNERS``
    whose two entries mirror each other, or for any error antisymmetric in
    (u, v).  The monomial row checks each exponent, so the grading row can
    fail only together with it.
    """
    total_exponent = 0

    def check(u, v):
        nonlocal total_exponent
        fast = gamma_mul(u, v)
        slow = oracle.oriented_product_with_ledger(u, v, budget=max_det)
        total_exponent += sum(exp for _gamma, coeff in slow.terms() for exp in coeff._terms)
        return None if fast == slow else f"gamma{u} * gamma{v}: fast = {fast}; oracle = {slow}"

    vecs = [(a, b) for a in range(-max_coord, max_coord + 1) for b in range(-max_coord, max_coord + 1)]
    pairs = [(u, v) for u in vecs for v in vecs if abs(det2(u, v)) <= max_det]
    return _sweep("oriented monomial rule vs oriented oracle", pairs, check), total_exponent


def psi_homomorphism_sweep(max_coord: int, max_det: int) -> SweepResult:
    """psi(oracle product) against the product of images in the oriented algebra."""
    images = {x: psi(SkeinElement.generator(x, Basis.STANDARD)) for x in canonical_classes(max_coord)}

    def check(x, y):
        via_skein = psi(oracle.unoriented_product(x, y, budget=max_det))
        return None if via_skein == images[x] * images[y] else f"psi({x} * {y}) != psi({x}) psi({y})"

    return _sweep("psi homomorphism vs oracle", class_pairs(max_coord, max_det), check)


def swap_symmetry_sweep(max_coord: int, max_det: int) -> SweepResult:
    """mul(y, x) must equal mul(x, y) with A -> A^-1 on the coefficients."""
    gens = {x: SkeinElement.generator(x, Basis.CHEBYSHEV) for x in canonical_classes(max_coord)}

    def check(x, y):
        mirrored = (gens[x] * gens[y]).map_coefficients(lambda c: c.mirror())
        return None if gens[y] * gens[x] == mirrored else f"{x}_T * {y}_T is not mirror-symmetric under swapping"

    return _sweep("swap symmetry of the product-to-sum formula", class_pairs(max_coord, max_det), check)


MAX_COORD = 16  # the sweeps visit pairs of up to (2*MAX_COORD + 1)^2 classes


def run_all(max_coord: int = 3, max_det: int = 10, budget: int = oracle.DEFAULT_BUDGET) -> list[SweepResult]:
    # Checked before any class is listed: at max_coord 0 no class is swept.
    check_bound("max_coord", max_coord, low=1, limit=MAX_COORD)
    check_bound("max_det", max_det, low=0)
    # The oriented sweep's vectors are these classes up to sign, so no pair reaches more crossings.
    largest = max(abs(det2(x.vec, y.vec)) for x, y in class_pairs(max_coord, max_det))
    check_bound("largest swept crossing count", largest, limit=budget, limit_name="budget")
    monomial, total_exp = oriented_monomial_sweep(max_coord, max_det)
    grading = SweepResult("aggregate Gauss grading over the oriented sweep", cases=monomial.cases)
    if total_exp != 0:
        grading.fail(
            f"the oracle's exponents sum to {total_exp}, not 0 "
            "(an error antisymmetric in (u, v) would still pass)"
        )
    return [
        fg_vs_oracle_sweep(max_coord, max_det),
        monomial,
        grading,
        psi_homomorphism_sweep(max_coord, max_det),
        swap_symmetry_sweep(max_coord, max_det),
    ]
