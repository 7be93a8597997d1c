"""Layer microbenchmarks on fixed inputs, independent of the workload seed.

These are the rows of the ROADMAP baseline table (LaurentPoly multiply and
add, a fast product of two generators, a Chebyshev power of degree 8,
``build_arrangement`` per call) plus the cold Chebyshev table, coefficient
lookup on a large element and the worker-pool split of one oracle product.
Each time is the median over a few repeats of a timed loop.
"""

from __future__ import annotations

import os
import random
import statistics
import time

REPEATS = 5


def per_call(fn, loops: int, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` loops of ``loops`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def run(prog, scale: str) -> tuple[dict[str, float], list[str]]:
    """Metrics by name, and a list of mismatches found along the way."""
    full = scale == "full"
    rng = random.Random(1403)
    L = prog.laurent.LaurentPoly
    sk = prog.skein
    cls = prog.torus_curves.UnorientedClass
    CHE, STD = sk.Basis.CHEBYSHEV, sk.Basis.STANDARD
    out: dict[str, float] = {}
    problems: list[str] = []

    # LaurentPoly: two 21-term polynomials.
    p = L({e: rng.choice((-5, -3, -1, 1, 2, 4)) for e in range(-20, 21, 2)})
    q = L({e: rng.choice((-5, -3, -1, 1, 2, 4)) for e in range(-19, 22, 2)})
    out["laurent.mul_us"] = per_call(lambda: p * q, 200 if full else 10) * 1e6
    out["laurent.add_us"] = per_call(lambda: p + q, 2000 if full else 10) * 1e6

    # Fast product of two standard generators with several copies each.
    gx, gy = sk.SkeinElement.generator(cls((2, 2)), STD), sk.SkeinElement.generator(cls((3, -1)), STD)
    out["skein.generator_product_us"] = per_call(lambda: gx * gy, 200 if full else 5) * 1e6

    # Chebyshev-basis power of degree 8 of x = (1,0) + (0,1) + (1,1).
    x = sk.SkeinElement.make(CHE, [(cls(v), L.one()) for v in ((1, 0), (0, 1), (1, 1))])

    def power8():
        y = x
        for _ in range(7):
            y = y * x
        return y

    out["skein.cheb_power8_ms"] = per_call(power8, 3 if full else 1) * 1e3

    # Coefficient lookup on a 409-term element, half hits and half misses.
    keys = [(a, b) for a in range(1, 40) for b in range(-5, 6)][:409]
    big = sk.SkeinElement.make(CHE, [(cls(k), L.one()) for k in keys])
    probes = [cls(k) for k in keys[::9]] + [cls((50 + i, 1)) for i in range(len(keys[::9]))]

    def lookups():
        for k in probes:
            big.coefficient(k)

    out["skein.coefficient_us"] = per_call(lookups, 20 if full else 1) / len(probes) * 1e6

    # Chebyshev table from a cold cache.
    cheb = prog.chebyshev.chebyshev_t
    cold = []
    for _ in range(REPEATS):
        cheb.cache_clear()
        start = time.perf_counter()
        cheb(64)
        cold.append(time.perf_counter() - start)
    out["chebyshev.t_cold_ms"] = statistics.median(cold) * 1e3

    # build_arrangement per call on a 13-crossing pair.
    so = prog.smoothing_oracle
    out["smoothing_oracle.build_arrangement_ms"] = (
        per_call(lambda: so.build_arrangement((3, 2), (2, -3)), 20 if full else 1) * 1e3
    )

    # One k=16 product at 1 worker and at 2 workers (never more than nproc).
    workers = min(2, os.cpu_count() or 1)
    u, v = (cls((4, 0)), cls((1, 4))) if full else (cls((2, 0)), cls((1, 3)))
    start = time.perf_counter()
    one = so.unoriented_product(u, v, budget=24, workers=1)
    out["smoothing_oracle.pool_w1_s"] = time.perf_counter() - start
    start = time.perf_counter()
    two = so.unoriented_product(u, v, budget=24, workers=workers)
    out["smoothing_oracle.pool_w2_s"] = time.perf_counter() - start
    out["smoothing_oracle.pool_speedup"] = out["smoothing_oracle.pool_w1_s"] / out["smoothing_oracle.pool_w2_s"]
    if one != two:
        problems.append(f"pool product at {workers} workers differs from 1 worker")
    return out, problems
