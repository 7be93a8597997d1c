"""Exhaustive desk-scale sweeps pitting the fast paths against the oracle.

Each sweep returns a SweepResult with the number of cases checked and any
counterexamples found (as printable strings).  These functions back both the
``verify`` CLI subcommand and the acceptance test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import smoothing_oracle as oracle
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


def fg_vs_oracle_sweep(max_coord: int, max_det: int, budget: int = oracle.DEFAULT_BUDGET) -> SweepResult:
    """Fast product-to-sum multiplication against the smoothing state sum."""
    result = SweepResult("product-to-sum vs smoothing oracle")
    for x, y in class_pairs(max_coord, max_det):
        result.cases += 1
        fast = SkeinElement.generator(x, Basis.STANDARD) * SkeinElement.generator(y, Basis.STANDARD)
        slow = oracle.unoriented_product(x, y, budget=budget)
        if fast != slow:
            result.fail(f"{x} * {y}: fast = {fast}; oracle = {slow}")
    return result


def oriented_monomial_sweep(
    max_coord: int, max_det: int, budget: int = oracle.DEFAULT_BUDGET
) -> tuple[SweepResult, int]:
    """Monomial rule vs the oriented oracle, over every ordered vector pair.

    Also returns the sum over the sweep of the A-exponents of the oracle's
    monomials.  A correct oracle's is -det2(u, v) and the sweep holds each
    pair both ways round, so the sum is 0; it is 0 too for a ``_CORNERS``
    whose two entries mirror each other, or for any error antisymmetric in
    (u, v).  The monomial row checks each exponent, so the grading row can
    fail only together with it.
    """
    result = SweepResult("oriented monomial rule vs oriented oracle")
    total_exponent = 0
    vecs = [
        (a, b) for a in range(-max_coord, max_coord + 1) for b in range(-max_coord, max_coord + 1)
    ]
    for u in vecs:
        for v in vecs:
            if abs(det2(u, v)) > max_det:
                continue
            result.cases += 1
            fast = gamma_mul(u, v)
            slow = oracle.oriented_product_with_ledger(u, v, budget=budget)
            if fast != slow:
                result.fail(f"gamma{u} * gamma{v}: fast = {fast}; oracle = {slow}")
            total_exponent += sum(exp for _gamma, coeff in slow.terms() for exp in coeff._terms)
    return result, total_exponent


def psi_homomorphism_sweep(max_coord: int, max_det: int, budget: int = oracle.DEFAULT_BUDGET) -> SweepResult:
    """psi(oracle product) against the product of images in the oriented algebra."""
    result = SweepResult("psi homomorphism vs oracle")
    pairs = class_pairs(max_coord, max_det)
    # Every swept class pairs with itself (det 0), so these are all the classes.
    images = {x: psi(SkeinElement.generator(x, Basis.STANDARD)) for x, y in pairs if x == y}
    for x, y in pairs:
        result.cases += 1
        via_skein = psi(oracle.unoriented_product(x, y, budget=budget))
        via_oriented = images[x] * images[y]
        if via_skein != via_oriented:
            result.fail(f"psi({x} * {y}) != psi({x}) psi({y})")
    return result


def swap_symmetry_sweep(max_coord: int, max_det: int) -> SweepResult:
    """mul(y, x) must equal mul(x, y) with A -> A^-1 on the coefficients."""
    result = SweepResult("swap symmetry of the product-to-sum formula")
    pairs = class_pairs(max_coord, max_det)
    gens = {x: SkeinElement.generator(x, Basis.CHEBYSHEV) for x, y in pairs if x == y}
    for x, y in pairs:
        result.cases += 1
        forward = gens[x] * gens[y]
        backward = gens[y] * gens[x]
        if backward != forward.map_coefficients(lambda c: c.mirror()):
            result.fail(f"{x}_T * {y}_T is not mirror-symmetric under swapping")
    return result


MAX_COORD = 16  # the sweeps visit pairs of up to (2*MAX_COORD + 1)^2 classes


def run_all(max_coord: int = 3, max_det: int = 10, budget: int = oracle.DEFAULT_BUDGET) -> list[SweepResult]:
    # Checked before any class is listed; a negative bound, or a zero
    # coordinate bound, would leave sweeps with no case.
    for name, bound in ("max_coord", max_coord), ("max_det", max_det):
        if bound < 0:
            raise ValueError(f"{name} must be at least 0, got {bound}")
        if bound == 0 and name == "max_coord":
            raise ValueError("max_coord must be at least 1: at 0 no class is swept")
    if max_coord > MAX_COORD:
        raise ValueError(f"max coordinate {max_coord} exceeds the limit of {MAX_COORD}")
    # The oriented sweep's vectors are these classes up to sign, so no pair reaches more crossings.
    largest = max(abs(det2(x.vec, y.vec)) for x, y in class_pairs(max_coord, max_det))
    if largest > budget:
        raise ValueError(f"the sweeps reach {largest} crossings, over the budget of {budget}")
    monomial, total_exp = oriented_monomial_sweep(max_coord, max_det, budget)
    grading = SweepResult("aggregate Gauss grading over the oriented sweep", cases=monomial.cases)
    if total_exp != 0:
        grading.fail(
            f"the oracle's exponents sum to {total_exp}, not 0 "
            "(an error antisymmetric in (u, v) would still pass)"
        )
    return [
        fg_vs_oracle_sweep(max_coord, max_det, budget),
        monomial,
        grading,
        psi_homomorphism_sweep(max_coord, max_det, budget),
        swap_symmetry_sweep(max_coord, max_det),
    ]
