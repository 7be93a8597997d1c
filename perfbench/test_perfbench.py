"""The benchmark's own tests: smoke runs, the gate, counts and references.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(w["name"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def prog():
    return run.import_program()


def test_workloads_match_the_spec():
    assert NAMES == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct(workload, trace):
    record = run.measure(workload, seed=7, seconds=0.01, trace=trace, scale="smoke")
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["error_rate"] == 0
    assert record["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    for metric in SPEC[kind]:
        assert isinstance(record["metrics"][metric["name"]], (int, float)), metric["name"]
    if not trace:
        assert all(v > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_reference_is_caught(workload):
    record = run.measure(workload, seed=7, seconds=0.01, trace=False, scale="smoke", corrupt=True)
    assert not record["correct"]
    assert record["failed"] >= 1 and record["error_rate"] > 0


def test_corrupted_reference_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "planar_algebra", "--seed", "1",
         "--seconds", "0.01", "--scale", "smoke", "--corrupt-reference", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_traced_counts_repeat_and_split_the_layers(tmp_path):
    records = {w: run.measure(w, seed=3, seconds=0.01, trace=True, scale="smoke") for w in NAMES}
    again = run.measure("planar_algebra", seed=3, seconds=0.01, trace=True, scale="smoke")
    for name in run.EXACT_COUNTS:
        assert isinstance(again["metrics"][name], int)
        assert again["metrics"][name] == records["planar_algebra"]["metrics"][name], name
    planar, torus = records["planar_algebra"]["metrics"], records["torus"]["metrics"]
    assert planar["smoothing_oracle.build_calls"] == planar["smoothing_oracle.oriented_calls"] == 0
    assert planar["smoothing_oracle.states"] == 0 and planar["bracket_planar.states"] > 0
    assert planar["laurent.mul_calls"] > 0 and planar["skein.mul_calls"] > 0
    assert torus["bracket_planar.states"] == 0 and torus["smoothing_oracle.states"] > 0
    assert torus["verify.fg_cases"] > 0
    assert 0 < torus["smoothing_oracle.build_share_products"] < 1 and 0 < torus["smoothing_oracle.build_share_verify"] < 1

    # A count that does not repeat between runs of one seed is a failure.
    record = records["torus"]
    record.update(tree_sha256="t")
    path = tmp_path / "previous.json"
    previous = json.loads(json.dumps(record))
    previous["metrics"]["smoothing_oracle.states"] += 1
    path.write_text(json.dumps(previous))
    run.check_repeat(record, path)
    assert not record["correct"]


def test_same_seed_same_inputs_other_seed_other_inputs(prog):
    for name in NAMES:
        a, b = wl.WORKLOADS[name](prog, 5, "full"), wl.WORKLOADS[name](prog, 5, "full")
        assert a.labels == b.labels and a.states == b.states
    assert wl.oracle_pairs(1, "full") != wl.oracle_pairs(2, "full")
    assert [i[0] for i in wl.planar_inputs(prog, 1, "full")] != [i[0] for i in wl.planar_inputs(prog, 2, "full")]


def test_oracle_pairs_have_the_stated_shapes():
    for seed in range(5):
        pairs = wl.oracle_pairs(seed, "full")
        dets = [abs(wl._det(x, y)) for x, y in pairs]
        assert dets == [15, 14, 12, 15]
        copies = [(ref._split(x)[0] > 1) + (ref._split(y)[0] > 1) for x, y in pairs]
        assert copies[1] == 1 and copies[2] == 2


def test_work_per_pass_does_not_depend_on_the_seed(prog):
    for name in NAMES:
        cases = [wl.WORKLOADS[name](prog, seed, "full") for seed in (1, 2, 3)]
        assert len({c.states for c in cases}) == 1 and len({c.op_count for c in cases}) == 1, name


def test_no_program_means_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----- the references against the program -----


def test_torus_knot_family_reproduces_the_builtins(prog):
    bp = prog.bracket_planar
    assert bp.PDCode(tuple(wl.torus_knot(3))) == bp.TREFOIL
    assert bp.PDCode(tuple(wl.torus_knot(5))) == bp.CINQUEFOIL
    for n in (1, 3, 5, 7):
        value = bp.kauffman_bracket(bp.PDCode(tuple(wl.torus_knot(n))))
        assert dict(value.terms()) == ref.torus_knot_bracket(n)
        assert dict(value.terms()) == ref.bracket(wl.torus_knot(n))


def test_planar_helpers_match_the_program(prog):
    bp = prog.bracket_planar
    rng = random.Random(0)
    for _ in range(10):
        base = wl.pd_union(wl.torus_knot(3), list(bp.FIGURE_EIGHT.crossings))
        over, under = rng.sample(wl._edges(base), 2)
        poked = wl.pd_poke(base, over, under)
        assert bp.PDCode(tuple(poked)) == bp.add_reidemeister_ii(bp.PDCode(tuple(base)), over, under)
        assert ref.bracket(poked) == ref.bracket(base)
    assert bp.PDCode(tuple(wl.pd_mirror(wl.torus_knot(3)))) == bp.mirror(bp.TREFOIL)


def test_reference_algebra_matches_the_program(prog):
    rng = random.Random(4)
    sk = prog.skein
    for _ in range(20):
        a, b = wl.rand_element(rng, 4), wl.rand_element(rng, 4)
        for basis, mul in ((sk.Basis.CHEBYSHEV, ref.chebyshev_mul), (sk.Basis.STANDARD, ref.standard_mul)):
            x, y = wl._skein(prog, basis, a), wl._skein(prog, basis, b)
            assert wl.plain(x * y) == mul(a, b)
            assert str(x * y) == ref.format_element(mul(a, b), "_T" if basis == sk.Basis.CHEBYSHEV else "")
            assert json.dumps((x * y).to_json(), sort_keys=True) == wl.json_form(mul(a, b), basis.value)
        x = wl._skein(prog, sk.Basis.STANDARD, a)
        assert wl.plain(prog.oriented.psi(x)) == ref.psi(a)
        assert wl.plain(x.to_chebyshev()) == ref.to_chebyshev(a)
        assert ref.to_standard(ref.to_chebyshev(a)) == a
