"""Fuzzed command lines: every verb answers with exit code 0 or 1, never a traceback.

Arguments are drawn near the valid forms (vectors, budgets, element JSON,
PD codes) and from arbitrary text, with sizes kept small enough that every
accepted input finishes quickly; inputs past a resource bound must be
refused with exit code 1.  Standard input is fuzzed too, for ``-``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from brute_bracket import disjoint_union
from test_bracket_planar import torus_knot

from toruskein import bracket_planar as bp
from toruskein.cli import run

coord = st.one_of(st.integers(-6, 6), st.integers(-40, 40), st.sampled_from([10**6, -(10**9)]))
vec = st.one_of(
    st.builds("({},{})".format, coord, coord),
    st.sampled_from(["empty", "(0,0)", "( 1 , -2 )", "(1,2,3)", "-"]),
    st.text(max_size=10),
)
number = st.one_of(st.integers(-3, 10).map(str), st.text(max_size=4))
json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(
            st.one_of(
                st.sampled_from(["terms", "gamma", "class", "coeff", "basis", "0", "1", "-2"]),
                st.text(max_size=3),
            ),
            children,
            max_size=3,
        ),
    ),
    max_leaves=12,
)
term = st.fixed_dictionaries(
    {"coeff": st.dictionaries(st.integers(-4, 4).map(str), st.integers(-3, 3), max_size=3)},
    optional={
        "gamma": st.lists(coord, min_size=1, max_size=3),
        "class": st.one_of(st.just("empty"), st.lists(coord, min_size=1, max_size=3)),
    },
)
element = st.one_of(
    st.builds(
        lambda basis, terms: {"basis": basis, "terms": terms},
        st.sampled_from(["standard", "chebyshev", "x"]),
        st.lists(term, max_size=3),
    ),
    st.builds(lambda terms: {"terms": terms}, st.lists(term, max_size=3)),
    json_value,
).map(json.dumps)
element_or_text = st.one_of(element, vec, st.text(max_size=12))
pd_code = st.one_of(
    st.lists(
        st.one_of(
            st.sampled_from(["X(1,3,2,4)", "X(3,1,4,2)", "O", "X(1,2,3)", "X(1,1,2,2)"]),
            st.builds("X({},{},{},{})".format, *[st.integers(-1, 6)] * 4),
        ),
        max_size=5,
    ).map(" ".join),
    st.text(max_size=12),
)

BUILT_IN = [bp.KINK_POSITIVE, bp.KINK_NEGATIVE, bp.HOPF_LINK, bp.TREFOIL, bp.FIGURE_EIGHT,
            bp.SOLOMON_LINK, bp.CINQUEFOIL]


@st.composite
def large_pd_code(draw):
    """A valid diagram of 15 to 30 crossings: twist knots and built-in
    diagrams side by side, Reidemeister II pokes and mirrors, with the
    crossings in shuffled order."""
    target = draw(st.integers(15, 30))
    pd = bp.PDCode(())
    while pd.crossing_count < target:
        room = target - pd.crossing_count
        parts = [torus_knot(n) for n in range(3, room + 1, 2)]
        parts += [part for part in BUILT_IN if part.crossing_count <= room]
        grown = [disjoint_union(pd, part) for part in parts]
        if room >= 2 and pd.crossing_count:
            over, under = draw(st.lists(st.sampled_from(sorted(pd.edges())), min_size=2, max_size=2,
                                        unique=True))
            grown.append(bp.add_reidemeister_ii(pd, over, under))
        pd = draw(st.sampled_from(grown))
    if draw(st.booleans()):
        pd = bp.mirror(pd)
    order = draw(st.permutations(pd.crossings))
    return str(bp.PDCode(tuple(order), draw(st.integers(0, 2))))


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def argv(verb, *parts):
    """[verb, *options and positionals, maybe --json]."""
    return st.tuples(*parts, st.booleans()).map(
        lambda drawn: [verb]
        + [a for part in drawn[:-1] for a in (part if isinstance(part, list) else [part])]
        + (["--json"] if drawn[-1] else [])
    )


budget = flag("--budget", number)
VERBS = {
    "mul": argv("mul", flag("--basis", st.sampled_from(["standard", "chebyshev", "b"])), vec, vec),
    "oracle-mul": argv(
        "oracle-mul",
        budget,
        flag("--dump-states", st.just("DUMP")),
        vec,
        vec,
    ),
    "gamma-mul": argv("gamma-mul", st.sampled_from([[], ["--oracle"]]), budget, vec, vec),
    "cheb": argv("cheb", vec),
    "convert": argv(
        "convert", flag("--to", st.sampled_from(["standard", "chebyshev", "t"])), element_or_text
    ),
    "psi": argv("psi", element_or_text),
    "psi-inv": argv("psi-inv", element_or_text),
    "bracket": argv("bracket", flag("--pd", pd_code), budget),
    "verify": argv(  # always bounded: the default sweeps take seconds
        "verify",
        st.integers(-1, 1).map(lambda n: ["--max-coord", str(n)]),
        st.integers(-1, 3).map(lambda n: ["--max-det", str(n)]),
        budget,
    ),
    "any": st.lists(
        st.one_of(st.sampled_from(["-", "--json", "--budget", "-h"]), st.text(max_size=6)),
        max_size=5,
    ),
}


def run_quietly(args, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(args)
            except SystemExit as exc:  # argparse --help exits 0 after printing
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(
    max_examples=40,
    deadline=3000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_verb_exits_0_or_1(verb, data):
    args = data.draw(VERBS[verb], label="argv")
    stdin_text = data.draw(element_or_text, label="stdin")
    with tempfile.TemporaryDirectory() as tmp:
        args = [str(Path(tmp) / "states.txt") if a == "DUMP" else a for a in args]
        code, out, err = run_quietly(args, stdin_text)
    assert code in (0, 1), (args, code, err)
    assert "Traceback" not in out + err
    if code == 1:
        assert "error:" in err, err


@settings(max_examples=40, deadline=3000, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(pd=large_pd_code(), as_json=st.booleans())
def test_large_brackets_run_under_a_raised_budget(pd, as_json):
    args = ["bracket", "--pd", pd, "--budget", "40"] + (["--json"] if as_json else [])
    code, out, err = run_quietly(args, "")
    assert code == 0, (args, err)
    assert out and "Traceback" not in out + err


@st.composite
def long_strand_pair(draw):
    """Two classes with 20 to 60 crossings that one curve c meets at most
    four times in all.  In a basis c, xi with det2(c, xi) = 1, the class
    a*c + b*xi meets c |b| times."""
    s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    c, xi = (1, s), (t, 1 + s * t)
    b1 = draw(st.integers(-4, 4))
    b2 = draw(st.integers(abs(b1) - 4, 4 - abs(b1)))
    a1, a2 = draw(st.integers(-60, 60)), draw(st.integers(-60, 60))
    u = (a1 * c[0] + b1 * xi[0], a1 * c[1] + b1 * xi[1])
    v = (a2 * c[0] + b2 * xi[0], a2 * c[1] + b2 * xi[1])
    assume(20 <= abs(a1 * b2 - b1 * a2) <= 60)  # det2(u, v) = det2(a1, b1; a2, b2)
    if draw(st.booleans()):  # reflect both classes in the diagonal
        u, v = u[::-1], v[::-1]
    return u, v


@settings(max_examples=40, deadline=3000, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(pair=long_strand_pair(), as_json=st.booleans())
def test_long_strand_products_run_under_a_raised_budget(pair, as_json):
    x, y = ("({},{})".format(*w) for w in pair)
    flags = ["--json"] if as_json else []
    code, out, err = run_quietly(["oracle-mul", "--budget", "60", x, y] + flags, "")
    assert code == 0, (x, y, err)
    assert out == run_quietly(["mul", x, y] + flags, "")[1]


@pytest.mark.parametrize(
    "args",
    [["psi", "-"], ["psi-inv", "-"], ["convert", "--to", "standard", "-"], ["convert", "--to", "chebyshev", "-"]],
    ids=" ".join,
)
@pytest.mark.parametrize(
    "nested", ['{"terms": ' + "[" * 50_000, '{"a": ' * 50_000], ids=["arrays", "objects"]
)
def test_deeply_nested_json_is_a_user_error(args, nested):
    code, out, err = run_quietly(args, nested)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def _consecutive_fibonacci_classes(n):
    """(F(n+1), F(n)) and (F(n), F(n-1)): det2 is +-1, one crossing, and
    Euclid's algorithm on either takes about n steps."""
    fib = [0, 1]
    while len(fib) <= n + 1:
        fib.append(fib[-1] + fib[-2])
    return f"({fib[n + 1]},{fib[n]})", f"({fib[n]},{fib[n - 1]})"


@pytest.mark.parametrize("n", [900, 1500])
def test_long_euclid_chains_run_through_the_oracles(n):
    x, y = _consecutive_fibonacci_classes(n)
    code, out, err = run_quietly(["oracle-mul", x, y], "")
    assert code == 0, err
    assert out == run_quietly(["mul", x, y], "")[1]
    code, out, err = run_quietly(["gamma-mul", "--oracle", x, y], "")
    assert code == 0, err
    assert out == run_quietly(["gamma-mul", x, y], "")[1]
