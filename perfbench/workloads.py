"""The two workloads: seeded inputs, the ops of one pass, and their checks.

Each ``make_*`` function builds a ``Case`` from the imported program, a seed
and a scale (``full`` for measurement, ``smoke`` for the benchmark's own
tests); a workload joins the cases of one side of the program.  An op is a callable taking the pass's scratch dict; it looks the
program up through module and class attributes at call time, so the traced
pass sees the wrapped functions.  Expected values are plain data from
``reference`` (or, for the oracle, from the program's fast product) and are
computed outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from itertools import combinations_with_replacement
from math import gcd

import reference as ref


class Raised:
    """The result of an op that raised; it never matches an expected value."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text})"


class Case:
    """One workload's inputs and how to check a pass over them."""

    def __init__(self, name: str):
        self.name = name
        self.labels: list[str] = []
        self.ops: list = []
        self.weights: list[int] = []  # ops each call counts as
        self.groups: list[str] = []  # which part of the workload each op belongs to
        self.judges: list = []  # per op: failures(result, expected) -> int, or None
        self.states = 0  # sum of 2^k over unoriented oracle products and brackets
        self.expected_counts: dict[str, int] = {}  # traced counts the inputs fix
        self.warm_up = lambda: None
        self.references = lambda: []  # expected value per op, computed untimed

    def add(self, label: str, op, weight: int = 1, judge=None) -> None:
        self.labels.append(label)
        self.ops.append(op)
        self.weights.append(weight)
        self.groups.append(self.name)
        self.judges.append(judge)

    @property
    def op_count(self) -> int:
        return sum(self.weights)

    def failures(self, index: int, result, expected) -> int:
        """How many of op ``index``'s weight failed."""
        if isinstance(result, Raised):
            return self.weights[index]
        if self.judges[index] is not None:
            return self.judges[index](result, expected)
        return 0 if plain(result) == expected else self.weights[index]


def joined(name: str, *parts: Case) -> Case:
    """One case running the parts' ops in turn; their counts add up."""
    case = Case(name)
    for part in parts:
        for attr in ("labels", "ops", "weights", "groups", "judges"):
            getattr(case, attr).extend(getattr(part, attr))
        case.states += part.states
        for key, n in part.expected_counts.items():
            case.expected_counts[key] = case.expected_counts.get(key, 0) + n
    case.warm_up = lambda: [part.warm_up() for part in parts]
    case.references = lambda: [value for part in parts for value in part.references()]
    return case


# ----- conversions between the program's values and plain data -----


def plain(value):
    """The program's value as reference data (dicts, ints, strings)."""
    kind = type(value).__name__
    if kind == "SkeinElement":
        return {k.vec: dict(c.terms()) for k, c in value.terms()}
    if kind == "OrientedElement":
        return {k: dict(c.terms()) for k, c in value.terms()}
    if kind == "LaurentPoly":
        return dict(value.terms())
    return value


def digest(value) -> str:
    """sha256 of a result's text and JSON forms, as the CLI prints them."""
    if isinstance(value, tuple):  # (exit code, stdout, stderr) of a CLI call
        text = "\n".join(str(v) for v in value)
    elif hasattr(value, "to_json"):
        text = str(value) + "\n" + json.dumps(value.to_json(), sort_keys=True)
    else:
        text = repr(value)
    return hashlib.sha256(text.encode()).hexdigest()


def _skein(prog, basis, data: dict):
    tc = prog.torus_curves
    return prog.skein.SkeinElement.make(
        basis,
        [
            (tc.EMPTY if k is None else tc.UnorientedClass(k), prog.laurent.LaurentPoly(p))
            for k, p in data.items()
        ],
    )


def _cls(prog, vec):
    return prog.torus_curves.UnorientedClass(vec)


def _canonical_classes(max_coord: int, max_mult: int | None = None) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(0, max_coord + 1)
        for b in range(-max_coord, max_coord + 1)
        if ref.canon((a, b)) == (a, b) and (max_mult is None or gcd(a, b) <= max_mult)
    ]


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _cli_call(prog, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# ----- certify: the verify command at fixed bounds -----

SWEEP_NAMES = (
    "product-to-sum vs smoothing oracle",
    "oriented monomial rule vs oriented oracle",
    "aggregate Gauss grading over the oriented sweep",
    "psi homomorphism vs oracle",
    "swap symmetry of the product-to-sum formula",
)


def make_certify(prog, seed: int, scale: str) -> Case:
    """``toruskein verify --json`` at fixed bounds; the seed is unused."""
    max_coord, max_det, max_mult = (2, 8, 3) if scale == "full" else (2, 4, 3)
    argv = ["verify", "--json", "--max-coord", str(max_coord), "--max-det", str(max_det)]

    classes = _canonical_classes(max_coord)
    fg_pairs = [(x, y) for x in classes for y in classes if abs(_det(x, y)) <= max_det]
    vecs = [(a, b) for a in range(-max_coord, max_coord + 1) for b in range(-max_coord, max_coord + 1)]
    ori_pairs = [(u, v) for u in vecs for v in vecs if abs(_det(u, v)) <= max_det]
    psi_classes = _canonical_classes(max_coord, max_mult)
    psi_pairs = [(x, y) for x in psi_classes for y in psi_classes if abs(_det(x, y)) <= max_det]
    cases = {"fg": len(fg_pairs), "oriented": len(ori_pairs), "psi": len(psi_pairs), "swap": len(fg_pairs)}
    rows = [cases["fg"], cases["oriented"], cases["oriented"], cases["psi"], cases["swap"]]
    expected_out = json.dumps(
        [{"cases": n, "failures": [], "name": name} for n, name in zip(rows, SWEEP_NAMES)],
        sort_keys=True,
    ) + "\n"

    def nonzero(pairs):
        return [abs(_det(x, y)) for x, y in pairs if _det(x, y)]

    case = Case("certify")
    case.states = sum(1 << k for k in nonzero(fg_pairs) + nonzero(psi_pairs))
    case.expected_counts = {
        "smoothing_oracle.states": case.states,
        "smoothing_oracle.build_calls": len(nonzero(fg_pairs) + nonzero(ori_pairs) + nonzero(psi_pairs)),
        "smoothing_oracle.oriented_calls": len(ori_pairs),
        "bracket_planar.states": 0,
        **{f"verify.{k}_cases": n for k, n in cases.items()},
    }
    case.warm_up = lambda: _cli_call(prog, ["verify", "--json", "--max-coord", "1", "--max-det", "2"])
    case.references = lambda: [(0, expected_out, "")]

    def failures(result, expected):
        weight = case.weights[0]
        if result == expected:
            return 0
        try:
            got = json.loads(result[1])
        except ValueError:
            return weight
        want = json.loads(expected[1])
        if not isinstance(got, list) or len(got) != len(want):
            return weight
        failed = 0
        for row, exp in zip(got, want):
            if not isinstance(row, dict) or row.get("name") != exp["name"] or row.get("cases") != exp["cases"]:
                failed += exp["cases"]
            else:
                failed += len(row.get("failures") or [])
        return min(weight, max(failed, 1))

    case.add(" ".join(argv), lambda st: _cli_call(prog, argv), weight=sum(cases.values()), judge=failures)
    return case


# ----- oracle_deep: a few large unoriented oracle products -----


def _oracle_slots(scale: str):
    # (crossings, multiplicity rule): "one" = several copies on exactly one
    # side, "both" = several copies on both sides, "any" = no rule.
    if scale == "full":
        return ((15, "any"), (14, "one"), (12, "both"), (15, "any"))
    return ((5, "any"), (6, "one"), (6, "both"), (7, "any"))


def oracle_pairs(seed: int, scale: str, max_coord: int = 6) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    rng = random.Random(seed)
    classes = _canonical_classes(max_coord)
    chosen = []
    for k, rule in _oracle_slots(scale):
        cands = []
        for x in classes:
            for y in classes:
                if abs(_det(x, y)) != k:
                    continue
                multi = (gcd(*x) > 1) + (gcd(*y) > 1)
                if rule == "any" or (rule == "one" and multi == 1) or (rule == "both" and multi == 2):
                    cands.append((x, y))
        chosen.append(rng.choice(cands))
    return chosen


def make_oracle_deep(prog, seed: int, scale: str) -> Case:
    pairs = oracle_pairs(seed, scale)
    case = Case("oracle_deep")
    for x, y in pairs:
        cx, cy = _cls(prog, x), _cls(prog, y)
        case.add(
            f"oracle {x}*{y}",
            lambda st, cx=cx, cy=cy: prog.smoothing_oracle.unoriented_product(cx, cy, budget=24, workers=1),
        )
    case.states = sum(1 << abs(_det(x, y)) for x, y in pairs)
    case.expected_counts = {
        "smoothing_oracle.states": case.states,
        "smoothing_oracle.build_calls": len(pairs),
        "smoothing_oracle.oriented_calls": 0,
        "bracket_planar.states": 0,
    }
    case.warm_up = lambda: prog.smoothing_oracle.unoriented_product(_cls(prog, (2, 1)), _cls(prog, (1, -3)))

    def references():
        std = prog.skein.Basis.STANDARD
        gen = prog.skein.SkeinElement.generator
        return [plain(gen(_cls(prog, x), std) * gen(_cls(prog, y), std)) for x, y in pairs]

    case.references = references
    return case


# ----- planar_bracket: generated PD codes of 11 to 14 crossings -----


def torus_knot(n: int) -> list[tuple[int, int, int, int]]:
    """The closed 2-braid T(2, n): X(a, a+n, a+1, a+n+1) mod 2n, a odd."""
    m = 2 * n

    def lab(x):
        return (x - 1) % m + 1

    return [(lab(a), lab(a + n), lab(a + 1), lab(a + n + 1)) for a in range(1, m, 2)]


def pd_mirror(crossings):
    return [(b, c, d, a) for a, b, c, d in crossings]


def pd_union(*parts):
    out, offset = [], 0
    for part in parts:
        out.extend(tuple(e + offset for e in t) for t in part)
        offset = max((e for t in out for e in t), default=0)
    return out


def pd_poke(crossings, over_edge: int, under_edge: int):
    """Reidemeister II: push the strand on ``over_edge`` across ``under_edge``."""
    fresh = max(e for t in crossings for e in t) + 1
    m_mid, m_tail, n_mid, n_tail = fresh, fresh + 1, fresh + 2, fresh + 3
    out = [list(t) for t in crossings]
    for old, new in ((over_edge, m_tail), (under_edge, n_tail)):
        seen = 0
        for t in out:
            hits = [i for i, e in enumerate(t) if e == old]
            if seen + len(hits) >= 2:
                t[hits[1 - seen]] = new
                break
            seen += len(hits)
    out.append([under_edge, over_edge, n_mid, m_mid])
    out.append([n_mid, m_tail, n_tail, m_mid])
    return [tuple(t) for t in out]


def _edges(crossings):
    return sorted({e for t in crossings for e in t})


def planar_inputs(prog, seed: int, scale: str):
    """(label, crossings, expected bracket) for each diagram of one pass."""
    rng = random.Random(seed)
    bp = prog.bracket_planar
    builtins = {
        "trefoil": list(bp.TREFOIL.crossings),
        "figure_eight": list(bp.FIGURE_EIGHT.crossings),
        "cinquefoil": list(bp.CINQUEFOIL.crossings),
        "hopf": list(bp.HOPF_LINK.crossings),
        "solomon": list(bp.SOLOMON_LINK.crossings),
    }
    torus_n, union_total, poke_n, pair_total = (11, 12, 11, 12) if scale == "full" else (5, 6, 5, 6)

    def maybe_mirror(crossings, value):
        if rng.random() < 0.5:
            return pd_mirror(crossings), ref.pmirror(value), "mirror "
        return crossings, value, ""

    def poke(crossings):
        over, under = rng.sample(_edges(crossings), 2)
        return pd_poke(crossings, over, under), f" poked({over},{under})"

    out = []
    # A torus knot, against its closed form.
    pd, value, tag = maybe_mirror(torus_knot(torus_n), ref.torus_knot_bracket(torus_n))
    out.append((f"{tag}T(2,{torus_n})", pd, value))
    # A disjoint union of built-in diagrams, against the product of their brackets.
    combos = [
        c
        for r in range(2, 5)
        for c in combinations_with_replacement(sorted(builtins), r)
        if sum(len(builtins[n]) for n in c) == union_total
    ]
    parts, value, names = [], dict(ref.ONE), []
    for name in rng.choice(combos):
        part, part_value, tag = maybe_mirror(builtins[name], ref.bracket(builtins[name]))
        parts.append(part)
        value = ref.pmul(value, part_value)
        names.append(tag + name)
    out.append((" + ".join(names), pd_union(*parts), value))
    # A Reidemeister-II poke of a torus knot, against the unpoked closed form.
    pd, value, tag = maybe_mirror(torus_knot(poke_n), ref.torus_knot_bracket(poke_n))
    pd, ptag = poke(pd)
    out.append((f"{tag}T(2,{poke_n}){ptag}", pd, value))
    # Two torus knots side by side, poked: product of closed forms.
    a = rng.choice([n for n in (3, 5, 7) if n < pair_total - 1])
    pd_a, val_a, tag_a = maybe_mirror(torus_knot(a), ref.torus_knot_bracket(a))
    pd_b, val_b, tag_b = maybe_mirror(torus_knot(pair_total - a), ref.torus_knot_bracket(pair_total - a))
    pd, ptag = poke(pd_union(pd_a, pd_b))
    out.append((f"{tag_a}T(2,{a}) + {tag_b}T(2,{pair_total - a}){ptag}", pd, ref.pmul(val_a, val_b)))
    return out


def make_planar_bracket(prog, seed: int, scale: str) -> Case:
    inputs = planar_inputs(prog, seed, scale)
    case = Case("planar_bracket")
    for label, crossings, _value in inputs:
        pd = prog.bracket_planar.PDCode(tuple(crossings))
        case.add(label, lambda st, pd=pd: prog.bracket_planar.kauffman_bracket(pd, budget=24))
    case.states = sum(1 << len(c) for _l, c, _v in inputs)
    case.expected_counts = {
        "bracket_planar.states": case.states,
        "smoothing_oracle.states": 0,
        "smoothing_oracle.build_calls": 0,
        "smoothing_oracle.oriented_calls": 0,
    }
    case.warm_up = lambda: prog.bracket_planar.kauffman_bracket(prog.bracket_planar.TREFOIL)
    case.references = lambda: [value for _l, _c, value in inputs]
    return case


# ----- fast_algebra: products, basis changes, psi and reads, no oracle -----


def _rand_poly(rng) -> dict:
    exps = rng.sample(range(-4, 5), 3)
    return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exps}


def rand_element(rng, terms: int, max_coord: int = 4) -> dict:
    """A plain skein element with exactly ``terms`` classes (maybe the empty one)."""
    out: dict = {}
    while len(out) < terms:
        key = None if rng.random() < 0.1 else ref.canon((rng.randint(-max_coord, max_coord), rng.randint(-max_coord, max_coord)))
        if key not in out:
            out[key] = _rand_poly(rng)
    return out


def json_form(data: dict, basis: str) -> str:
    """The documented JSON form of a plain skein element."""
    order = sorted(data, key=lambda k: (1, 0, 0) if k is None else (0, k[0], k[1]))
    terms = [
        {"class": "empty" if k is None else [k[0], k[1]], "coeff": {str(e): c for e, c in sorted(data[k].items())}}
        for k in order
    ]
    return json.dumps({"basis": basis, "terms": terms}, sort_keys=True)


def _put(scratch: dict, key: str, value):
    scratch[key] = value
    return value


X3 = {(1, 0): dict(ref.ONE), (0, 1): dict(ref.ONE), (1, 1): dict(ref.ONE)}


def make_fast_algebra(prog, seed: int, scale: str) -> Case:
    degree, cheb_pairs, std_pairs, size, reads = (12, 24, 8, 6, 200) if scale == "full" else (5, 4, 2, 3, 20)
    rng = random.Random(seed)
    sk = prog.skein
    CHE, STD = sk.Basis.CHEBYSHEV, sk.Basis.STANDARD
    case = Case("fast_algebra")
    thunks: list = []  # expected value per op, evaluated only by references()

    def add(label, op, expect):
        case.add(label, op)
        thunks.append(expect)

    @functools.cache
    def powers() -> list:
        """x_T^n for n = 0..degree by the reference product (index 0 unused)."""
        out = [None, X3]
        for _ in range(2, degree + 1):
            out.append(ref.chebyshev_mul(out[-1], X3))
        return out

    # Powers of x = (1,0) + (0,1) + (1,1) along both routes.
    x_che, x_std = _skein(prog, CHE, X3), _skein(prog, STD, X3)
    add("x_T^2", lambda st: _put(st, "cp", x_che * x_che), lambda: powers()[2])
    add("x^2", lambda st: _put(st, "sp", x_std * x_std), lambda: ref.to_standard(powers()[2]))
    for n in range(3, degree + 1):
        add(f"x_T^{n}", lambda st: _put(st, "cp", st["cp"] * x_che), lambda n=n: powers()[n])
        add(f"x^{n}", lambda st: _put(st, "sp", st["sp"] * x_std), lambda n=n: ref.to_standard(powers()[n]))
    add("x^d to chebyshev", lambda st: st["sp"].to_chebyshev(), lambda: powers()[degree])
    add("x^d == x_T^d", lambda st: st["sp"].to_chebyshev() == st["cp"], lambda: True)

    # Dense random products in both bases.
    for i in range(cheb_pairs):
        a, b = rand_element(rng, size), rand_element(rng, size)
        ea, eb = _skein(prog, CHE, a), _skein(prog, CHE, b)
        add(f"cheb product {i}", lambda st, ea=ea, eb=eb: ea * eb, lambda a=a, b=b: ref.chebyshev_mul(a, b))
    for i in range(std_pairs):
        a, b = rand_element(rng, size), rand_element(rng, size)
        ea, eb = _skein(prog, STD, a), _skein(prog, STD, b)
        k = f"s{i}"
        add(f"std product {i}", lambda st, ea=ea, eb=eb, k=k: _put(st, k, ea * eb),
            lambda a=a, b=b: ref.standard_mul(a, b))
        # psi(x*y) == psi(x) psi(y) and psi_inverse(psi(x)) == x.to_chebyshev().
        add(f"psi(x{i})", lambda st, ea=ea, k=k: _put(st, k + "a", prog.oriented.psi(ea)), lambda a=a: ref.psi(a))
        add(f"psi(y{i})", lambda st, eb=eb, k=k: _put(st, k + "b", prog.oriented.psi(eb)), lambda b=b: ref.psi(b))
        add(f"psi(x{i}) psi(y{i})", lambda st, k=k: st[k + "a"] * st[k + "b"],
            lambda a=a, b=b: ref.oriented_mul(ref.psi(a), ref.psi(b)))
        add(f"psi(x{i} y{i})", lambda st, k=k: prog.oriented.psi(st[k]),
            lambda a=a, b=b: ref.psi(ref.standard_mul(a, b)))
        add(f"psi hom {i}", lambda st, k=k: prog.oriented.psi(st[k]) == st[k + "a"] * st[k + "b"], lambda: True)
        add(f"psi_inverse(psi(x{i}))", lambda st, k=k: prog.oriented.psi_inverse(st[k + "a"]),
            lambda a=a: ref.to_chebyshev(a))
        add(f"x{i} to chebyshev", lambda st, ea=ea: ea.to_chebyshev(), lambda a=a: ref.to_chebyshev(a))

    # Reads on the top power: coefficient lookups (hits and misses), equality,
    # JSON and text forms.
    for _ in range(reads):
        key = ref.canon((rng.randint(0, degree), rng.randint(1, degree) * rng.choice((-1, 1))))
        cls = _cls(prog, key)
        add(f"coefficient {key}", lambda st, cls=cls: st["cp"].coefficient(cls),
            lambda key=key: powers()[degree].get(key, {}))
    add("json form", lambda st: json.dumps(st["cp"].to_json(), sort_keys=True),
        lambda: json_form(powers()[degree], "chebyshev"))
    add("from json", lambda st: sk.SkeinElement.from_json(st["cp"].to_json()), lambda: powers()[degree])
    add("round trip equality", lambda st: sk.SkeinElement.from_json(st["cp"].to_json()) == st["cp"], lambda: True)
    add("text form", lambda st: str(st["cp"]), lambda: ref.format_element(powers()[degree], "_T"))

    case.warm_up = lambda: x_std * x_std  # the standard route also fills the Chebyshev table
    case.references = lambda: [expect() for expect in thunks]
    return case


def make_torus(prog, seed: int, scale: str) -> Case:
    """The torus side: the verify sweeps, then four deep oracle products."""
    return joined("torus", make_certify(prog, seed, scale), make_oracle_deep(prog, seed, scale))


def make_planar_algebra(prog, seed: int, scale: str) -> Case:
    """No torus oracle: planar brackets, then the fast algebra and its reads."""
    return joined("planar_algebra", make_planar_bracket(prog, seed, scale), make_fast_algebra(prog, seed, scale))


WORKLOADS = {
    "torus": make_torus,
    "planar_algebra": make_planar_algebra,
}
