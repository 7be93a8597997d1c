"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report inline.  Every check is exact; the only tolerances are runtime caps.
"""

import time

from references import evaluate_laurent, roundtrip_sweep

from toruskein import verify
from toruskein.bracket_planar import PDCode, kauffman_bracket
from toruskein.chebyshev import chebyshev_t
from toruskein.laurent import A, LaurentPoly
from toruskein.skein import Basis, SkeinElement
from toruskein.torus_curves import UnorientedClass


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_hopf_bracket():
    start = time.perf_counter()
    value = kauffman_bracket(PDCode.parse("X(1,3,2,4) X(3,1,4,2)"))
    elapsed = time.perf_counter() - start
    expected = LaurentPoly.parse("A^6 + A^2 + A^-2 + A^-6")
    report(
        "1 (clasp bracket)",
        value == expected and elapsed < 1.0,
        f"value = {value}, {elapsed:.3f}s",
    )


def test_criterion_2_product_to_sum_vs_oracle():
    start = time.perf_counter()
    result = verify.fg_vs_oracle_sweep(max_coord=3, max_det=10)
    elapsed = time.perf_counter() - start
    report(
        "2 (fast product vs state sum)",
        result.ok and elapsed < 120.0,
        f"{result.cases} class pairs, {elapsed:.1f}s"
        + (f"; first failure: {result.failures[0]}" if result.failures else ""),
    )


def _oriented_sweep_cached():
    if not hasattr(_oriented_sweep_cached, "value"):
        start = time.perf_counter()
        sweep, total_exp = verify.oriented_monomial_sweep(max_coord=3, max_det=12)
        _oriented_sweep_cached.value = (sweep, total_exp, time.perf_counter() - start)
    return _oriented_sweep_cached.value


def test_criterion_3_oriented_monomial_rule():
    sweep, _, elapsed = _oriented_sweep_cached()
    report(
        "3 (oriented monomial rule vs oracle)",
        sweep.ok and elapsed < 120.0,
        f"{sweep.cases} vector pairs, {elapsed:.1f}s"
        + (f"; first failure: {sweep.failures[0]}" if sweep.failures else ""),
    )


def test_criterion_4_psi_homomorphism():
    start = time.perf_counter()
    result = verify.psi_homomorphism_sweep(max_coord=6, max_det=8)
    elapsed = time.perf_counter() - start
    report(
        "4 (psi is an algebra map against the oracle)",
        result.ok and elapsed < 120.0,
        f"{result.cases} basis pairs, {elapsed:.1f}s"
        + (f"; first failure: {result.failures[0]}" if result.failures else ""),
    )


def test_criterion_5_chebyshev_identity():
    start = time.perf_counter()
    x = A + A.mirror()
    bad = [
        n
        for n in range(65)
        if evaluate_laurent(chebyshev_t(n), x)
        != (LaurentPoly({n: 1, -n: 1}) if n else LaurentPoly({0: 2}))
    ]
    elapsed = time.perf_counter() - start
    report(
        "5 (T_n at A + A^-1 equals A^n + A^-n, n <= 64)",
        not bad and elapsed < 1.0,
        f"65 degrees, {elapsed:.3f}s" + (f"; failing n = {bad[:3]}" if bad else ""),
    )


def test_criterion_6_roundtrips():
    start = time.perf_counter()
    result = roundtrip_sweep(count=500)
    elapsed = time.perf_counter() - start
    report(
        "6 (basis and psi round trips, 500 random elements)",
        result.ok,
        f"{result.cases} elements, {elapsed:.1f}s"
        + (f"; first failure: {result.failures[0]}" if result.failures else ""),
    )


def test_criterion_7_gauss_grading():
    # Each oracle product's A-exponent, -det2(u, v), is read from _CORNERS, not
    # traced; criterion 3's sweep holds every ordered pair both ways round, so
    # the exponents sum to 0.  An error antisymmetric in (u, v) would sum to 0 as
    # well; criterion 3 compares each product on its own.
    sweep, total_exp, _ = _oriented_sweep_cached()
    report(
        "7 (Gauss grading over criterion 3's sweep)",
        total_exp == 0,
        f"{sweep.cases} products; sum of the oracle's exponents = {total_exp}",
    )


def test_criterion_8_swap_symmetry():
    start = time.perf_counter()
    result = verify.swap_symmetry_sweep(max_coord=3, max_det=10)
    elapsed = time.perf_counter() - start
    x = SkeinElement.generator(UnorientedClass((1, 0)), Basis.STANDARD)
    y = SkeinElement.generator(UnorientedClass((0, 1)), Basis.STANDARD)
    witness = (x * y) != (y * x)
    report(
        "8 (swap symmetry and noncommutativity witness)",
        result.ok and witness,
        f"{result.cases} generator pairs, {elapsed:.1f}s; (1,0)*(0,1) != (0,1)*(1,0): {witness}",
    )


def test_criterion_9_planar_property_suite():
    from brute_bracket import disjoint_union
    from test_bracket_planar import CORPUS
    from toruskein.bracket_planar import add_reidemeister_ii, mirror

    start = time.perf_counter()
    failures = []
    assert len(CORPUS) >= 10
    assert all(pd.crossing_count <= 8 for pd in CORPUS)
    for pd in CORPUS:
        value = kauffman_bracket(pd)
        if kauffman_bracket(mirror(pd)) != value.mirror():
            failures.append(f"mirror symmetry broke on {pd}")
        edges = sorted(pd.edges())
        if len(edges) >= 2:
            poked = add_reidemeister_ii(pd, edges[0], edges[-1])
            if kauffman_bracket(poked) != value:
                failures.append(f"R-II invariance broke on {pd}")
    for left in CORPUS[:4]:
        for right in CORPUS[:4]:
            union = disjoint_union(left, right)
            if kauffman_bracket(union) != kauffman_bracket(left) * kauffman_bracket(right):
                failures.append(f"disjoint union broke on {left} | {right}")
    elapsed = time.perf_counter() - start
    report(
        "9 (planar property suite on the diagram corpus)",
        not failures and elapsed < 60.0,
        f"{len(CORPUS)} diagrams, {elapsed:.1f}s"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )
