import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from references import TOO_LONG, needs_digit_limit

import toruskein
from toruskein import chebyshev, smoothing_oracle, verify
from toruskein.cli import run
from toruskein.laurent import A
from toruskein.oriented import OrientedElement, psi
from toruskein.skein import Basis, SkeinElement
from toruskein.torus_curves import UnorientedClass


_N, _M = "9" * 4000, "7" * 2100  # det2((M,1), (1,M)) = M^2 - 1 has more digits than N


def _standard(vec):
    return SkeinElement.generator(UnorientedClass(vec), Basis.STANDARD)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMul:
    def test_chebyshev_product_text(self, capsys):
        code, out, _ = invoke(capsys, "mul", "--basis", "chebyshev", "(1,0)", "(0,1)")
        assert code == 0
        assert out.strip() == "A (1,-1)_T + A^-1 (1,1)_T"

    def test_standard_product_json_roundtrip(self, capsys):
        code, out, _ = invoke(capsys, "mul", "--json", "(1,0)", "(0,1)")
        assert code == 0
        parsed = SkeinElement.from_json(json.loads(out))
        expected = SkeinElement.generator(
            UnorientedClass((1, 0)), Basis.STANDARD
        ) * SkeinElement.generator(UnorientedClass((0, 1)), Basis.STANDARD)
        assert parsed == expected


class TestBracket:
    def test_hopf_example(self, capsys):
        code, out, _ = invoke(capsys, "bracket", "--pd", "X(1,3,2,4) X(3,1,4,2)")
        assert code == 0
        assert out.strip() == "A^-6 + A^-2 + A^2 + A^6"

    def test_free_loop_token(self, capsys):
        code, out, _ = invoke(capsys, "bracket", "--pd", "O O")
        assert code == 0
        assert out.strip() == "A^-4 + 2 + A^4"

    def test_free_loops_count_against_the_budget(self, capsys):
        from toruskein.laurent import LaurentPoly

        loops = " ".join(["O"] * 25)
        code, out, err = invoke(capsys, "bracket", "--pd", loops)
        assert (code, out, err) == (1, "", "error: crossing and free loop count 25 exceeds the budget of 24\n")
        code, out, _ = invoke(capsys, "bracket", "--budget", "25", "--pd", loops)
        assert code == 0 and LaurentPoly.parse(out) == LaurentPoly.delta() ** 25

    def test_bad_pd_is_user_error(self, capsys):
        code, _, err = invoke(capsys, "bracket", "--pd", "X(1,2,3)")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("pd", ["", " ", " \t\n "], ids=["empty", "space", "whitespace"])
    def test_whitespace_alone_is_the_empty_diagram(self, capsys, pd):
        assert invoke(capsys, "bracket", "--pd", pd) == (0, "1\n", "")

    @pytest.mark.parametrize("pd, position", [(" Z", 0), ("O  Z", 3)])
    def test_bad_token_position_counts_from_the_text_start(self, capsys, pd, position):
        message = f"error: bad PD token at position {position}: {pd[position:]!r}\n"
        assert invoke(capsys, "bracket", "--pd", pd) == (1, "", message)

    def test_json_reparses(self, capsys):
        from toruskein.laurent import LaurentPoly

        code, out, _ = invoke(capsys, "bracket", "--json", "--pd", "X(1,3,2,4) X(3,1,4,2)")
        assert code == 0
        assert LaurentPoly.from_json(json.loads(out)) == LaurentPoly.parse(
            "A^-6 + A^-2 + A^2 + A^6"
        )


class TestOracleMul:
    def test_matches_fast_path(self, capsys):
        code, out, _ = invoke(capsys, "oracle-mul", "--json", "(1,1)", "(1,-1)")
        assert code == 0
        parsed = SkeinElement.from_json(json.loads(out))
        expected = SkeinElement.generator(
            UnorientedClass((1, 1)), Basis.STANDARD
        ) * SkeinElement.generator(UnorientedClass((1, -1)), Basis.STANDARD)
        assert parsed == expected

    def test_dump_states(self, capsys, tmp_path):
        dump = tmp_path / "states.txt"
        code, _, _ = invoke(capsys, "oracle-mul", "--dump-states", str(dump), "(1,1)", "(1,-1)")
        assert code == 0
        assert len(dump.read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "x, y, name",
        [
            ("(1,1)", "(1,-1)", "1_1__1_-1"),
            ("(2,1)", "(1,-2)", "2_1__1_-2"),
            ("(4,-4)", "(3,0)", "4_-4__3_0"),
            ("(2,0)", "(2,-3)", "2_0__2_-3"),
        ],
    )
    def test_dump_states_replays_byte_for_byte(self, capsys, tmp_path, x, y, name):
        # The first three were captured before the state sum was contracted;
        # --dump-states must not change.  (2,0)*(2,-3), two copies with
        # |d0| = 3, was captured once copies were equally spaced: spacing
        # them moved its lines to other mask bits, with the same lines.
        expected = Path(__file__).with_name("dump_states") / name
        dump = tmp_path / "states.txt"
        code, out, _ = invoke(capsys, "oracle-mul", "--dump-states", str(dump), x, y)
        assert code == 0
        assert out == expected.with_suffix(".out").read_text()
        assert dump.read_bytes() == expected.with_suffix(".txt").read_bytes()

    def test_one_hundred_fifty_copies_print_the_fast_product(self, capsys):
        code, out, _ = invoke(capsys, "oracle-mul", "--budget", "400", "(150,0)", "(0,1)")
        assert (code, out) == invoke(capsys, "mul", "(150,0)", "(0,1)")[:2]

    def test_budget_exceeded_is_user_error(self, capsys):
        code, _, err = invoke(capsys, "oracle-mul", "--budget", "3", "(3,0)", "(0,3)")
        assert code == 1 and "budget" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--budget", "3", "(3,0)", "(0,3)"], "crossing count 9 exceeds the budget of 3"),
            (["(17,0)", "(0,1)"], "crossing count 17 exceeds the dump limit of 16"),
        ],
        ids=["budget", "dump-limit"],
    )
    def test_refused_dump_leaves_the_file_alone(self, capsys, tmp_path, argv, message):
        dump = tmp_path / "states.txt"
        dump.write_text("kept\n")
        start = time.process_time()
        code, out, err = invoke(capsys, "oracle-mul", "--dump-states", str(dump), *argv)
        assert (code, out) == (1, "") and message in err
        assert dump.read_text() == "kept\n"
        assert time.process_time() - start < 1.0

    def test_refused_dump_builds_no_arrangement(self, capsys, tmp_path, monkeypatch):
        # 999999 crossings: building the arrangement alone would take seconds and over 1 GiB.
        monkeypatch.setattr(smoothing_oracle, "build_arrangement", lambda *_, **__: pytest.fail("built"))
        argv = ["--budget", "2000000", "--dump-states", str(tmp_path / "states.txt"), "(1000,1)", "(1,1000)"]
        code, out, err = invoke(capsys, "oracle-mul", *argv)
        assert (code, out, err) == (1, "", "error: crossing count 999999 exceeds the dump limit of 16\n")
        assert not (tmp_path / "states.txt").exists()

    def test_empty_dump_path_is_refused(self, capsys):
        # An empty path is a path, not "no dump": open refuses it.
        code, out, err = invoke(capsys, "oracle-mul", "--dump-states", "", "(1,0)", "(0,1)")
        assert (code, out, err) == (1, "", "error: [Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize(
        "x, y", [("(1,1)", "(1,-1)"), ("(2,1)", "(1,-2)"), ("(4,-4)", "(3,0)"), ("(16,0)", "(0,1)")]
    )
    def test_dump_leaves_stdout_as_it_is(self, capsys, tmp_path, x, y):
        # Without a dump the state sum is contracted; with one it is the brute force's own.
        contracted = invoke(capsys, "oracle-mul", x, y)
        assert contracted[0] == 0
        assert invoke(capsys, "oracle-mul", "--dump-states", str(tmp_path / "states.txt"), x, y) == contracted

    def test_dump_at_the_limit_lists_every_state(self, capsys, tmp_path):
        dump = tmp_path / "states.txt"
        code, _, _ = invoke(capsys, "oracle-mul", "--dump-states", str(dump), "(16,0)", "(0,1)")
        assert code == 0
        assert len(dump.read_text().splitlines()) == 1 << 16

    @pytest.mark.parametrize(
        "x, y, product, line",
        [
            ("(1,0)", "(2,0)", "(3,0)", "0 0 0 (3,0)"),
            ("(1,0)", "empty", "(1,0)", "0 0 0 (1,0)"),
            ("empty", "empty", "1", "0 0 0 empty"),
        ],
        ids=["parallel", "empty", "both-empty"],
    )
    def test_crossing_free_dump_lists_its_one_state(self, capsys, tmp_path, x, y, product, line):
        # No crossings: one state, listed with the mask 0, exponent 0 and no circles.
        dump = tmp_path / "states.txt"
        code, out, _ = invoke(capsys, "oracle-mul", "--dump-states", str(dump), x, y)
        assert (code, out) == (0, product + "\n")
        assert dump.read_text() == line + "\n"


class TestGammaMul:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "gamma-mul", "(1,0)", "(0,1)")
        assert code == 0
        assert out.strip() == "A^-1 g(1,1)"

    def test_oracle_check(self, capsys):
        code, out, _ = invoke(capsys, "gamma-mul", "--oracle", "(2,1)", "(-1,2)")
        assert code == 0 and out.strip()

    def test_oracle_mismatch_exits_2(self, capsys, monkeypatch):
        # The oracle's product without its A-exponent, -det2((1,0), (0,1)) = -1.
        monkeypatch.setattr("toruskein.cli.oriented_product", lambda u, v, budget: OrientedElement.gamma((1, 1)))
        code, out, err = invoke(capsys, "gamma-mul", "--oracle", "(1,0)", "(0,1)")
        assert (code, out, err) == (2, "", "MISMATCH: fast = A^-1 g(1,1); oracle = g(1,1)\n")

    def test_json_reparses(self, capsys):
        from toruskein.oriented import OrientedElement, gamma_mul

        code, out, _ = invoke(capsys, "gamma-mul", "--json", "(2,1)", "(-1,2)")
        assert code == 0
        assert OrientedElement.from_json(json.loads(out)) == gamma_mul((2, 1), (-1, 2))


class TestChebAndConvert:
    def test_cheb_expansion(self, capsys):
        code, out, _ = invoke(capsys, "cheb", "(2,-2)")
        assert code == 0
        assert out.strip() == "(2,-2) - 2"

    def test_convert_generator(self, capsys):
        code, out, _ = invoke(capsys, "convert", "--to", "chebyshev", "(2,0)")
        assert code == 0
        assert out.strip() == "(2,0)_T + 2"

    def test_convert_json_element_roundtrip(self, capsys):
        element = SkeinElement.generator(UnorientedClass((2, 0)), Basis.STANDARD)
        code, out, _ = invoke(
            capsys, "convert", "--to", "chebyshev", json.dumps(element.to_json()), "--json"
        )
        assert code == 0
        converted = SkeinElement.from_json(json.loads(out))
        assert converted.to_standard() == element

    def test_convert_rejects_wrong_basis_json(self, capsys):
        element = SkeinElement.generator(UnorientedClass((2, 0)), Basis.CHEBYSHEV)
        code, _, err = invoke(
            capsys, "convert", "--to", "chebyshev", json.dumps(element.to_json())
        )
        assert code == 1 and "expected a standard-basis element" in err


class TestChebyshevZeroGenerator:
    """A Chebyshev-basis generator "(0,0)" is T_0 = 2 * empty in every verb;
    "empty" is 1, and the JSON class [0,0] the empty class."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["cheb", "(0,0)"], "2"),
            (["convert", "--to", "standard", "(0,0)"], "2"),
            (["mul", "--basis", "chebyshev", "(0,0)", "(1,0)"], "2 (1,0)_T"),
            (["mul", "--basis", "chebyshev", "(0,0)", "(0,0)"], "4"),
            (["cheb", "empty"], "1"),
            (["convert", "--to", "standard", "empty"], "1"),
            (["mul", "--basis", "chebyshev", "empty", "(1,0)"], "(1,0)_T"),
            (["mul", "(0,0)", "(1,0)"], "(1,0)"),
            (["convert", "--to", "standard", '{"basis":"chebyshev","terms":[{"class":[0,0],"coeff":{"0":1}}]}'],
             "1"),
        ],
        ids=["cheb", "convert", "mul", "mul-twice", "cheb-empty", "convert-empty", "mul-empty",
             "standard-mul", "json-class"],
    )
    def test_zero_generator(self, capsys, argv, line):
        assert invoke(capsys, *argv) == (0, line + "\n", "")


class TestPsiCommands:
    def test_psi_generator(self, capsys):
        code, out, _ = invoke(capsys, "psi", "(1,0)")
        assert code == 0
        assert out.strip() == "g(-1,0) + g(1,0)"

    def test_psi_inv_roundtrip(self, capsys):
        element = SkeinElement.generator(UnorientedClass((2, -2)), Basis.CHEBYSHEV)
        image = psi(element.to_standard())
        code, out, _ = invoke(capsys, "psi-inv", json.dumps(image.to_json()), "--json")
        assert code == 0
        recovered = SkeinElement.from_json(json.loads(out))
        assert recovered.to_standard() == element.to_standard()

    def test_psi_inv_asymmetric_is_user_error(self, capsys):
        bad = OrientedElement.gamma((1, 0))
        code, _, err = invoke(capsys, "psi-inv", json.dumps(bad.to_json()))
        assert code == 1 and "not orientation-symmetric" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-coord", "1", "--max-det", "2")
        assert code == 0
        assert out.count("ok") == 5

    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--json", "--max-coord", "1", "--max-det", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert all(r["failures"] == [] for r in report)

    def test_coordinate_bound_is_checked_first(self, capsys, monkeypatch):
        start = time.process_time()
        code, out, err = invoke(capsys, "verify", "--max-coord", str(verify.MAX_COORD + 1))
        assert (code, out) == (1, "")
        assert err == f"error: max_coord {verify.MAX_COORD + 1} exceeds the limit of {verify.MAX_COORD}\n"
        assert time.process_time() - start < 1.0
        # The limit itself is admitted: listing the classes is the first work after the checks.
        class Listed(Exception):
            pass

        def class_pairs(*args):
            raise Listed

        monkeypatch.setattr(verify, "class_pairs", class_pairs)
        with pytest.raises(Listed):
            verify.run_all(max_coord=verify.MAX_COORD)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-coord", "-1"], "max_coord must be at least 1, got -1"),
            (["--max-det", "-5"], "max_det must be at least 0, got -5"),
            (["--max-det", "-1"], "max_det must be at least 0, got -1"),
        ],
        ids=["max-coord", "max-det", "max-det-edge"],
    )
    def test_negative_bound_is_rejected(self, capsys, argv, message):
        # A negative bound lists no case, so it must not report "ok ... 0 cases".
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--max-coord", "0"], "max_coord must be at least 1, got 0"),
            (["--max-coord", "0", "--max-det", "0"], "max_coord must be at least 1, got 0"),
        ],
        ids=["max-coord", "all"],
    )
    def test_zero_bound_is_rejected(self, capsys, argv, message):
        # A zero coordinate bound lists no class.
        code, out, err = invoke(capsys, "verify", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.fixture
    def no_arrangement(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an arrangement was built before the budget check")

        monkeypatch.setattr(smoothing_oracle, "build_arrangement", refuse)

    def test_crossing_budget_is_checked_before_any_sweep(self, capsys, no_arrangement):
        # |det2((4,4), (-3,4))| = 28 is the largest det up to 30 at coordinate 4.
        code, out, err = invoke(capsys, "verify", "--max-coord", "4", "--max-det", "30")
        assert (code, out) == (1, "")
        assert err == "error: largest swept crossing count 28 exceeds the budget of 24\n"

    @pytest.mark.parametrize("max_coord", range(1, 6))
    def test_crossing_budget_names_the_largest_swept_det(self, max_coord, no_arrangement):
        # Brute force over every vector pair of the oriented sweep, (0,0) and signs included.
        box = range(-max_coord, max_coord + 1)
        vecs = [(a, b) for a in box for b in box]
        dets = {abs(u[0] * v[1] - u[1] * v[0]) for u in vecs for v in vecs}
        for max_det in range(2 * max_coord**2 + 1):
            largest = max(d for d in dets if d <= max_det)
            with pytest.raises(ValueError) as info:
                verify.run_all(max_coord=max_coord, max_det=max_det, budget=largest - 1)
            assert str(info.value) == f"largest swept crossing count {largest} exceeds the budget of {largest - 1}"

    def test_crossing_budget_admits_the_largest_reachable_det(self, capsys):
        # At coordinate 2 no pair has more than 8 crossings, whatever --max-det says.
        code, out, _ = invoke(capsys, "verify", "--max-coord", "2", "--max-det", "30", "--budget", "8")
        assert code == 0 and out.count("ok") == 5

    def test_zero_det_bound_keeps_every_sweep_nonempty(self):
        # The pairs (x, x) have det 0, so max_det = 0 stays a valid bound.
        results = verify.run_all(max_coord=1, max_det=0)
        assert all(r.ok and r.cases > 0 for r in results), [r.summary() for r in results]

    def test_grading_row_fails_when_one_exponent_is_off(self, monkeypatch):
        # The grading row reads each exponent from the oracle's own monomial,
        # so it fails only together with the monomial row.
        traced = smoothing_oracle.oriented_product

        def skewed(u, v, budget=smoothing_oracle.DEFAULT_BUDGET):
            element = traced(u, v, budget=budget)
            return element.map_coefficients(lambda c: c * A) if (u, v) == ((1, 0), (0, 1)) else element

        monkeypatch.setattr(smoothing_oracle, "oriented_product_with_ledger", skewed)
        results = verify.run_all(max_coord=1, max_det=2)
        assert [r.name for r in results if not r.ok] == [
            "oriented monomial rule vs oriented oracle",
            "aggregate Gauss grading over the oriented sweep",
        ]
        assert results[2].summary().startswith(
            "FAIL aggregate Gauss grading over the oriented sweep: 81 cases, "
            "e.g. the oracle's exponents sum to 1, not 0"
        )

    @pytest.mark.parametrize(
        "row, owner, name, hit, message",
        [
            (
                0, SkeinElement, "__mul__",
                lambda x, y: x.basis == Basis.STANDARD and (x, y) == (_standard((1, 0)), _standard((0, 1))),
                "(1,0) * (0,1): fast = A^2 (1,-1) + (1,1); oracle = A (1,-1) + A^-1 (1,1)",
            ),
            (
                1, verify, "gamma_mul",
                lambda u, v: (u, v) == ((1, 0), (0, 1)),
                "gamma(1, 0) * gamma(0, 1): fast = g(1,1); oracle = A^-1 g(1,1)",
            ),
            (
                3, verify, "psi",
                lambda x: x == _standard((1, 0)) * _standard((0, 1)),
                "psi((1,0) * (0,1)) != psi((1,0)) psi((0,1))",
            ),
            (
                4, SkeinElement, "__mul__",
                lambda x, y: x.basis == Basis.CHEBYSHEV and x == y == SkeinElement.generator(
                    UnorientedClass((1, 0)), Basis.CHEBYSHEV
                ),
                "(1,0)_T * (1,0)_T is not mirror-symmetric under swapping",
            ),
        ],
        ids=["fg", "oriented", "psi", "swap"],
    )
    def test_each_row_reports_its_one_failing_pair(self, capsys, monkeypatch, row, owner, name, hit, message):
        # The call the row's sweep makes returns A times its result for one
        # pair, so that row alone fails, on that pair alone.
        original = getattr(owner, name)

        def skewed(*args):
            result = original(*args)
            return result.map_coefficients(lambda c: c * A) if hit(*args) else result

        monkeypatch.setattr(owner, name, skewed)
        argv = ["verify", "--max-coord", "1", "--max-det", "2"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 2
        code, json_out, _ = invoke(capsys, *argv, "--json")
        assert code == 2
        report = json.loads(json_out)
        assert [r["failures"] for r in report] == [[message] if i == row else [] for i in range(5)]
        assert out.splitlines()[row] == f"FAIL {report[row]['name']}: {report[row]['cases']} cases, e.g. {message}"
        if row == 0:  # the counterexample pastes into oracle-mul
            x, y = message.split(":")[0].split(" * ")
            assert (UnorientedClass.parse(x), UnorientedClass.parse(y)) == (
                UnorientedClass((1, 0)), UnorientedClass((0, 1))
            )

    @pytest.mark.parametrize(
        "row, owner, name, hit",
        [
            (0, SkeinElement, "__mul__", lambda x, y: x.basis == Basis.STANDARD),
            (1, verify, "gamma_mul", lambda u, v: True),
            (3, verify, "psi", lambda x: True),
            (4, SkeinElement, "__mul__", lambda x, y: x.basis == Basis.CHEBYSHEV),
        ],
        ids=["fg", "oriented", "psi", "swap"],
    )
    def test_a_row_keeps_eight_failures_and_counts_every_case(self, capsys, monkeypatch, row, owner, name, hit):
        # Every result of the call the row's check makes is off by A, so each of the row's pairs fails.
        original = getattr(owner, name)

        def skewed(*args):
            result = original(*args)
            return result.map_coefficients(lambda c: c * A) if hit(*args) else result

        monkeypatch.setattr(owner, name, skewed)
        code, out, _ = invoke(capsys, "verify", "--json", "--max-coord", "1", "--max-det", "2")
        assert code == 2
        report = json.loads(out)
        assert [r["cases"] for r in report] == [16, 81, 81, 16, 16]
        assert [len(r["failures"]) for r in report] == [8 if i == row else 0 for i in range(5)]

    def test_one_skewed_exchange_rule_fails_the_oriented_and_psi_rows(self, capsys, monkeypatch):
        # gamma_mul multiplies two gammas, so the oriented row runs the psi row's
        # exchange rule and a wrong rule fails both.
        original = OrientedElement.__mul__
        monkeypatch.setattr(OrientedElement, "__mul__", lambda x, y: original(x, y).map_coefficients(lambda c: c * A))
        code, out, _ = invoke(capsys, "verify", "--json", "--max-coord", "1", "--max-det", "2")
        assert code == 2
        report = json.loads(out)
        assert [r["cases"] for r in report] == [16, 81, 81, 16, 16]
        assert [len(r["failures"]) for r in report] == [0, 8, 0, 8, 0]

    def test_a_broken_oracle_invariant_fails_its_pair_and_every_row_reports(self, capsys, monkeypatch):
        # The oracle refuses (1,0) * (0,1) as if an invariant broke.  The fg,
        # oriented and psi rows each reach that pair and fail it; the grading
        # row misses its exponent, -1, so the sum reads 1; the swap row runs
        # no oracle.  The run still prints every row and exits 2.
        build = smoothing_oracle.build_arrangement

        def refuse(u, v, budget=smoothing_oracle.DEFAULT_BUDGET):
            if (u, v) == ((1, 0), (0, 1)):
                raise smoothing_oracle.ArrangementError("stub refuses this pair")
            return build(u, v, budget=budget)

        monkeypatch.setattr(smoothing_oracle, "build_arrangement", refuse)
        code, out, err = invoke(capsys, "verify", "--json", "--max-coord", "1", "--max-det", "2")
        assert (code, err) == (2, "")
        report = json.loads(out)
        assert [r["cases"] for r in report] == [16, 81, 81, 16, 16]
        assert [r["failures"] for r in report] == [
            ["(1,0) * (0,1): oracle invariant broken: stub refuses this pair"],
            ["(1, 0) * (0, 1): oracle invariant broken: stub refuses this pair"],
            ["the oracle's exponents sum to 1, not 0 (an error antisymmetric in (u, v) would still pass)"],
            ["(1,0) * (0,1): oracle invariant broken: stub refuses this pair"],
            [],
        ]
        code, out, err = invoke(capsys, "verify", "--max-coord", "1", "--max-det", "2")
        assert (code, err) == (2, "")
        assert [line.split()[0] for line in out.splitlines()] == ["FAIL"] * 4 + ["ok"]

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = verify.SweepResult("stub", cases=1, failures=["counterexample"])
        monkeypatch.setattr(verify, "run_all", lambda **kw: [broken])
        code, out, _ = invoke(capsys, "verify")
        assert code == 2
        assert "FAIL" in out


class TestErrors:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cheb", "(6000,0)"],
            ["convert", "--to", "chebyshev", "(6000,0)"],
            ["mul", "(3000,0)", "(1,0)"],
            ["psi", "(6000,0)"],
        ],
        ids=["cheb", "convert", "mul", "psi"],
    )
    def test_chebyshev_degree_limit(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "limit" in err

    def test_psi_and_conversion_share_one_refusal(self, capsys):
        message = "error: multiplicity 6000 exceeds the Chebyshev degree limit of 1024\n"
        for argv in (["psi", "(6000,0)"], ["convert", "--to", "chebyshev", "(6000,0)"]):
            assert invoke(capsys, *argv) == (1, "", message)

    def test_degree_limit_is_checked_before_the_product(self, capsys):
        start = time.process_time()
        code, out, err = invoke(capsys, "mul", "(1024,0)", "(2,0)")
        assert (code, out) == (1, "")
        assert err == "error: Chebyshev index 1026 exceeds the Chebyshev degree limit of 1024\n"
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize(
        "x, y",
        [(f"({'7' * 3000},1)", f"(1,{'7' * 3000})"), (f"({'9' * 4300},1)", f"({'9' * 4300},-1)")],
        ids=["index-of-3001-digits", "index-of-4301-digits"],
    )
    def test_long_degree_is_refused_without_printing_it(self, capsys, x, y):
        message = "error: Chebyshev index 10^60 or more exceeds the Chebyshev degree limit of 1024\n"
        assert invoke(capsys, "mul", x, y) == (1, "", message)

    def test_degree_limit_is_checked_before_the_expansion(self, capsys):
        big = {"basis": "chebyshev", "terms": [{"class": [1, 0], "coeff": {"0": 1}},
                                               {"class": [1025, 0], "coeff": {"0": 1}}]}
        code, out, err = invoke(capsys, "convert", "--to", "standard", json.dumps(big))
        assert (code, out) == (1, "")
        assert "Chebyshev index 1025 exceeds the Chebyshev degree limit of 1024" in err

    def test_large_degrees_below_the_limit_are_cheap(self, capsys):
        chebyshev.chebyshev_t.cache_clear()  # T_0 .. T_1002 from cold
        start = time.process_time()
        code, out, _ = invoke(capsys, "mul", "(1000,0)", "(2,0)")
        assert (code, out) == (0, "(1002,0)\n")
        assert time.process_time() - start < 3.0

    def test_bad_vector(self, capsys):
        code, _, err = invoke(capsys, "mul", "(1,0)", "nonsense")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "(\u0663,0)", "(0,1)"],
            ["bracket", "--pd", "X(\u0661,3,2,4) X(3,1,4,2)"],
            ["oracle-mul", "--budget", "\u0663", "(3,0)", "(0,1)"],
            ["verify", "--max-coord", "\u0661", "--max-det", "\u0662"],
            ["oracle-mul", "--budget", "1_0", "(3,0)", "(0,1)"],
        ],
        ids=["class", "pd", "budget", "verify-bounds", "underscore"],
    )
    def test_non_ascii_digits_are_refused(self, capsys, argv):
        # The text grammars and integer flags are ASCII, like the JSON ones;
        # int() alone takes Arabic-Indic digits and underscores.
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:")

    @pytest.mark.parametrize(
        "stdin, start, length",
        [
            ("[" * 50_000, "error: expected a pair like (a,b), got '[[[", 50_002),
            (
                json.dumps({"basis": "standard", "terms": [{"class": [0] * 20_000, "coeff": {"0": 1}}]}),
                "error: terms[0].class: expected [a, b], got [0, 0, ",
                60_000,
            ),
        ],
        ids=["text", "json"],
    )
    def test_long_input_is_quoted_by_a_prefix(self, capsys, monkeypatch, stdin, start, length):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = invoke(capsys, "psi", "-")
        assert (code, out) == (1, "")
        assert err.startswith(start) and err.endswith(f"... ({length} characters)\n")
        assert len(err) < 150

    def test_integer_flag_past_the_digit_limit_is_quoted_by_a_prefix(self, capsys):
        code, out, err = invoke(capsys, "verify", "--max-det", "9" * 5000)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --max-det: expected an integer, got '999")
        assert err.endswith("... (5002 characters)\n")

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mul", f"({TOO_LONG},1)", "(1,0)"], "a coordinate has too many digits: '("),
            (["bracket", "--pd", f"X({TOO_LONG},3,2,4) X(3,1,4,2)"], "a PD label has too many digits: 'X("),
            (["psi", '{"basis":"standard","terms":[{"class":[%s,0],"coeff":{"0":1}}]}' % TOO_LONG],
             "a JSON number has too many digits: '{"),
            (["psi", '{"basis":"standard","terms":[{"class":[1,0],"coeff":{"%s":1}}]}' % TOO_LONG],
             "terms[0].coeff: exponent key has too many digits: '999"),
        ],
        ids=["class", "pd-label", "json-number", "json-exponent-key"],
    )
    def test_number_longer_than_int_converts_is_refused_by_name(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.endswith(" characters)\n")
        assert "Traceback" not in err and "set_int_max_str_digits" not in err

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma-mul", "(N,1)", "(1,N)"],
            ["gamma-mul", "--json", "(N,1)", "(1,N)"],
            ["mul", "--basis", "chebyshev", "(N,1)", "(1,N)"],
            ["mul", "(N,1)", "(1,N+1)"],
        ],
        ids=["gamma-mul", "gamma-mul-json", "mul-chebyshev", "mul-standard"],
    )
    def test_result_past_the_digit_limit_is_refused_by_name(self, capsys, argv):
        # N has half as many digits as TOO_LONG, so det2((N,1), (1,N)) = N^2 - 1,
        # the product's A-exponent, has more than str() converts.
        n = int("7" * (len(TOO_LONG) // 2))
        argv = [a.replace("N+1", str(n + 1)).replace("N", str(n)) for a in argv]
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (1, "", "error: the result has a number too long to print\n")

    @pytest.mark.parametrize("digits", [40, 2200])
    @pytest.mark.parametrize("verb", [["oracle-mul"], ["gamma-mul", "--oracle"]], ids=["oracle-mul", "gamma-mul"])
    def test_long_crossing_count_is_refused_without_printing_it(self, capsys, verb, digits):
        # det2((N,1), (1,N)) = N^2 - 1 has twice N's digits.
        n = "7" * digits
        code, out, err = invoke(capsys, *verb, f"({n},1)", f"(1,{n})")
        assert (code, out) == (1, "")
        assert err == "error: crossing count 10^60 or more exceeds the budget of 24\n"

    @pytest.mark.parametrize(
        "verb, text, where",
        [
            ("psi-inv", "{not json", ""),
            ("psi-inv", "{}", "terms: missing"),
            ("psi-inv", '{"terms":[{"gamma":[1]}]}', "terms[0].gamma:"),
            ("psi", '{"basis":"standard"}', "terms: missing"),
            ("psi", '{"basis":"standard","terms":[{"class":[1.9,0],"coeff":{"0":2.7}}]}',
             "terms[0].class: expected an integer, got 1.9"),
            ("psi-inv", '{"terms":[{"gamma":[true,0],"coeff":{"0":1}}]}',
             "terms[0].gamma: expected an integer, got True"),
            ("psi", '{"basis":"standard","terms":[{"class":[1,0],"coeff":{"0":"5"}}]}',
             "terms[0].coeff: expected an integer, got '5'"),
            ("psi", '{"basis":"standard","terms":[{"class":[1,0],"coeff":{"3_0":1}}]}',
             "terms[0].coeff: expected an integer exponent key, got '3_0'"),
            ("psi", '{"basis":"standard","terms":[{"class":[1,0],"coeff":{" -2 ":1}}]}',
             "terms[0].coeff: expected an integer exponent key, got ' -2 '"),
            ("psi-inv", '{"terms":[{"gamma":[1,0],"coeff":{"\u0663":1}}]}',
             "terms[0].coeff: expected an integer exponent key, got '\u0663'"),
            ("psi", '{"basis":"standard","terms":[{"class":[1,0],"coeff":{"-":1,"3":1}}]}',
             "terms[0].coeff: expected an integer exponent key, got '-'"),
            ("psi", '{"basis":"standard","terms":[{"class":[1,0],"coeff":{"2":1,"":1}}]}',
             "terms[0].coeff: expected an integer exponent key, got ''"),
            ("psi", '{"basis":"standard","terms":5}', "error: terms: expected a list, got 5\n"),
            ("psi-inv", '{"terms":[1]}', "error: terms[0]: expected a JSON object, got 1\n"),
            ("convert --to chebyshev", '{"basis":"standard","terms":[{"class":[1,0],"coeff":[1]}]}',
             "error: terms[0].coeff: expected an object of exponent: coefficient, got [1]\n"),
            ("psi", '{"basis":"standard","terms":[{"class":null,"coeff":{"0":1}}]}',
             "error: terms[0].class: expected [a, b], got None\n"),
        ],
        ids=["not-json", "no-terms", "short-gamma", "standard-no-terms", "float-class",
             "bool-gamma", "string-coeff", "underscore-exponent", "spaced-exponent",
             "non-ascii-exponent", "bare-minus-exponent", "empty-exponent", "terms-not-a-list",
             "term-not-an-object", "coeff-not-an-object", "null-class"],
    )
    def test_bad_json(self, capsys, verb, text, where):
        code, out, err = invoke(capsys, *verb.split(), text)
        assert code == 1 and out == ""
        assert err.startswith("error:") and where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-mul", "--budget", "-1", "(1,0)", "(0,1)"],
            ["gamma-mul", "--budget", "-3", "(1,0)", "(0,1)"],
            ["bracket", "--budget", "-1", "--pd", "O"],
            ["verify", "--budget", "-1", "--max-coord", "1", "--max-det", "1"],
        ],
    )
    def test_negative_budget_is_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "error: --budget must be at least 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle-mul", "--budget", _N, f"({_M},1)", f"(1,{_M})"],
            ["oracle-mul", "--budget", f"-{_N}", "(1,0)", "(0,1)"],
            ["gamma-mul", "--oracle", "--budget", _N, f"({_M},1)", f"(1,{_M})"],
            ["gamma-mul", "--oracle", "--budget", f"-{_N}", "(1,0)", "(0,1)"],
            ["bracket", "--budget", _N, "--pd", f"X({_N},1,1,2)"],
            ["bracket", "--budget", f"-{_N}", "--pd", "O"],
            ["verify", "--budget", _N, "--max-coord", "17"],
            ["verify", "--budget", f"-{_N}"],
            ["verify", "--max-coord", _N],
            ["verify", "--max-coord", f"-{_N}"],
            ["verify", "--max-det", _N, "--budget", "0"],
            ["verify", "--max-det", f"-{_N}"],
            ["psi-inv", json.dumps({"terms": [{"gamma": [int(_N), 0], "coeff": {"0": 1}}]})],
            ["bracket", "--pd", " ".join(f"X({4 * i + 1},{4 * i + 2},{4 * i + 3},{4 * i + 4})" for i in range(5000))],
        ],
        ids=["oracle-mul+N", "oracle-mul-N", "gamma-mul+N", "gamma-mul-N", "bracket+N", "bracket-N",
             "verify-budget+N", "verify-budget-N", "max-coord+N", "max-coord-N", "max-det+N", "max-det-N",
             "psi-inv-long-key", "bracket-5000-bad-crossings"],
    )
    def test_refused_numbers_stay_short(self, capsys, argv):
        # N has 4000 digits, under Python's int-to-str limit, so only the messages decide.
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200 and "set_int_max_str_digits" not in err


# One element in two term orders: a repeated key in the first, and the empty
# class (the oriented (0,0)) first in one and last in the other.
_STANDARD_X = ('{"basis":"standard","terms":[{"class":"empty","coeff":{"0":2}},{"class":[2,0],"coeff":{"1":1}},'
               '{"class":[1,0],"coeff":{"-1":3}},{"class":[2,0],"coeff":{"0":-1}}]}')
_STANDARD_Y = ('{"basis":"standard","terms":[{"class":[1,0],"coeff":{"-1":3}},{"class":[2,0],"coeff":{"0":-1,"1":1}},'
               '{"class":"empty","coeff":{"0":2}}]}')
_ORIENTED_X = ('{"terms":[{"gamma":[0,0],"coeff":{"0":2}},{"gamma":[1,-2],"coeff":{"1":1}},'
               '{"gamma":[-1,2],"coeff":{"1":1}},{"gamma":[-3,0],"coeff":{"-2":1}},{"gamma":[3,0],"coeff":{"-2":1}}]}')
_ORIENTED_Y = ('{"terms":[{"gamma":[3,0],"coeff":{"-2":1}},{"gamma":[-1,2],"coeff":{"1":1}},'
               '{"gamma":[-3,0],"coeff":{"-2":1}},{"gamma":[1,-2],"coeff":{"1":1}},{"gamma":[0,0],"coeff":{"0":2}}]}')


@pytest.mark.parametrize(
    "first, second",
    [
        # The contraction at 15 crossings, and at 12 with copies on both sides (3 over 4).
        (["oracle-mul", "(2,-1)", "(3,6)"], ["mul", "(2,-1)", "(3,6)"]),
        (["oracle-mul", "(3,-6)", "(0,4)"], ["mul", "(3,-6)", "(0,4)"]),
        # Either side of the enumeration limit: 5 crossings listed, 6 contracted.
        (["oracle-mul", "(2,1)", "(1,-2)"], ["mul", "(2,1)", "(1,-2)"]),
        (["oracle-mul", "(2,0)", "(1,3)"], ["mul", "(2,0)", "(1,3)"]),
        # The oriented oracle without crossings.
        (["gamma-mul", "--oracle", "(2,0)", "(-3,0)"], ["gamma-mul", "(2,0)", "(-3,0)"]),
        (["convert", "--to", "chebyshev", _STANDARD_X], ["convert", "--to", "chebyshev", _STANDARD_Y]),
        (["psi", "--json", _STANDARD_X], ["psi", "--json", _STANDARD_Y]),
        (["psi-inv", _ORIENTED_X], ["psi-inv", _ORIENTED_Y]),
    ],
    ids=["oracle-k15", "oracle-k12", "oracle-k5", "oracle-k6", "gamma-oracle-parallel", "convert-term-order",
         "psi-term-order", "psi-inv-term-order"],
)
def test_two_argvs_print_the_same(capsys, first, second):
    printed = invoke(capsys, *first)[:2]
    assert printed[0] == 0 and printed[1]
    assert invoke(capsys, *second)[:2] == printed


class TestOneProcess:
    def test_successive_runs_match_separate_processes(self, capsys):
        # run builds its parser once per process; no run may see an earlier
        # one's verb, flags or usage error.  The separate processes treat
        # warnings as errors, as the suite does.
        argvs = [
            ["mul", "--basis", "chebyshev", "(1,0)", "(0,1)"],
            ["mul", "--basis", "nope", "(1,0)", "(0,1)"],
            ["bracket", "--json", "--pd", "X(1,3,2,4) X(3,1,4,2)"],
            ["mul", "(2,1)", "(1,0)"],
        ]
        in_process = [invoke(capsys, *argv)[:2] for argv in argvs]
        src = str(Path(toruskein.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        separate = []
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-W", "error", "-m", "toruskein", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            separate.append((done.returncode, done.stdout))
        assert in_process == separate
        assert [code for code, _ in separate] == [0, 1, 0, 0]
