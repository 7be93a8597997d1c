import json

import pytest

from toruskein import verify
from toruskein.cli import run
from toruskein.oriented import OrientedElement, psi
from toruskein.skein import Basis, SkeinElement
from toruskein.torus_curves import UnorientedClass


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

    def test_bad_pd_is_user_error(self, capsys):
        code, _, err = invoke(capsys, "bracket", "--pd", "X(1,2,3)")
        assert code == 1 and "error:" in err

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

    def test_dump_states_notes_that_workers_are_not_used(self, capsys, tmp_path):
        dump = tmp_path / "states.txt"
        argv = ["oracle-mul", "--dump-states", str(dump), "(1,1)", "(1,-1)"]
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        code_w, out_w, err_w = invoke(capsys, *argv[:1], "--workers", "4", *argv[1:])
        assert code_w == 0 and out_w == out
        assert err_w == "note: --dump-states enumerates in one process\n"

    def test_workers(self, capsys):
        code, out, _ = invoke(capsys, "oracle-mul", "--workers", "2", "(2,1)", "(1,-1)")
        assert code == 0 and out.strip()

    def test_budget_exceeded_is_user_error(self, capsys):
        code, _, err = invoke(capsys, "oracle-mul", "--budget", "3", "(3,0)", "(0,3)")
        assert code == 1 and "budget" in err


class TestGammaMul:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "gamma-mul", "(1,0)", "(0,1)")
        assert code == 0
        assert out.strip() == "A^-1 g(1,1)"

    def test_oracle_check(self, capsys):
        code, out, _ = invoke(capsys, "gamma-mul", "--oracle", "(2,1)", "(-1,2)")
        assert code == 0 and out.strip()

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
        code, out, _ = invoke(
            capsys, "verify", "--max-coord", "1", "--max-det", "2", "--max-mult", "2"
        )
        assert code == 0
        assert out.count("ok") == 5

    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--json", "--max-coord", "1", "--max-det", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert all(r["failures"] == [] for r in report)

    def test_worker_count_does_not_change_the_report(self, capsys):
        args = ["verify", "--max-coord", "1", "--max-det", "2", "--max-mult", "2"]
        code_a, out_a, _ = invoke(capsys, *args)
        code_b, out_b, _ = invoke(capsys, *args, "--workers", "2")
        assert code_a == code_b == 0
        assert out_a == out_b

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

    def test_bad_vector(self, capsys):
        code, _, err = invoke(capsys, "mul", "(1,0)", "nonsense")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "verb, text, where",
        [
            ("psi-inv", "{not json", ""),
            ("psi-inv", "{}", "terms: missing"),
            ("psi-inv", '{"terms":[{"gamma":[1]}]}', "terms[0].gamma:"),
            ("psi", '{"basis":"standard"}', "terms: missing"),
        ],
        ids=["not-json", "no-terms", "short-gamma", "standard-no-terms"],
    )
    def test_bad_json(self, capsys, verb, text, where):
        code, out, err = invoke(capsys, verb, text)
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
