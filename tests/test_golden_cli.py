"""Replay the golden CLI corpus byte for byte.

``golden_cli.json`` holds the exact stdout and exit code of every verb, in
text and ``--json`` form, over a fixed set of inputs: the empty class,
multiplicity > 1, both bases, an asymmetric ``psi-inv`` and a small
``verify``.  Any refactor must leave every entry unchanged.  Regenerate the
file only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from toruskein.cli import run

CORPUS = Path(__file__).with_name("golden_cli.json")

_SYMMETRIC = '{"terms": [{"coeff": {"0": 1}, "gamma": [-2, 2]}, {"coeff": {"0": 2}, "gamma": [0, 0]}, {"coeff": {"0": 1}, "gamma": [2, -2]}]}'
_ASYMMETRIC = '{"terms": [{"coeff": {"0": 1}, "gamma": [1, 0]}, {"coeff": {"1": 1}, "gamma": [-1, 0]}]}'
_STANDARD = '{"basis": "standard", "terms": [{"class": [2, 0], "coeff": {"-1": 1, "1": 1}}, {"class": "empty", "coeff": {"0": 3}}]}'
_CHEBYSHEV = '{"basis": "chebyshev", "terms": [{"class": [3, 0], "coeff": {"0": 1}}, {"class": [1, -1], "coeff": {"2": -2}}]}'

_BASE_CASES = [
    ["mul", "(1,0)", "(0,1)"],
    ["mul", "--basis", "chebyshev", "(1,0)", "(0,1)"],
    ["mul", "(2,0)", "(0,1)"],
    ["mul", "--basis", "chebyshev", "(2,2)", "(1,-1)"],
    ["mul", "empty", "(1,1)"],
    ["mul", "(1,1)", "(1,1)"],
    ["mul", "(1,0)", "bogus"],
    ["oracle-mul", "(1,1)", "(1,-1)"],
    ["oracle-mul", "(2,0)", "(0,1)"],
    ["oracle-mul", "(2,1)", "(1,-1)"],
    ["oracle-mul", "empty", "(1,0)"],
    ["oracle-mul", "(1,0)", "(2,0)"],
    ["oracle-mul", "--budget", "3", "(3,0)", "(0,3)"],
    ["gamma-mul", "(1,0)", "(0,1)"],
    ["gamma-mul", "--oracle", "(2,1)", "(-1,2)"],
    ["gamma-mul", "(0,0)", "(1,1)"],
    ["gamma-mul", "--oracle", "(2,0)", "(-1,0)"],
    ["cheb", "(2,-2)"],
    ["cheb", "(0,0)"],
    ["cheb", "(3,0)"],
    ["convert", "--to", "chebyshev", "(2,0)"],
    ["convert", "--to", "standard", "(3,0)"],
    ["convert", "--to", "chebyshev", "empty"],
    ["convert", "--to", "chebyshev", _STANDARD],
    ["convert", "--to", "standard", _CHEBYSHEV],
    ["convert", "--to", "chebyshev", _CHEBYSHEV],
    ["psi", "(1,0)"],
    ["psi", "(3,0)"],
    ["psi", "empty"],
    ["psi", _STANDARD],
    ["psi-inv", _SYMMETRIC],
    ["psi-inv", _ASYMMETRIC],
    ["bracket", "--pd", "X(1,3,2,4) X(3,1,4,2)"],
    ["bracket", "--pd", "O"],
    ["bracket", "--pd", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"],
    ["verify", "--max-coord", "1", "--max-det", "2"],
]
CASES = [argv + extra for argv in _BASE_CASES for extra in ([], ["--json"])]


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def corpus() -> list[dict]:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_case(corpus):
    assert [entry["argv"] for entry in corpus] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=lambda i: " ".join(CASES[i])[:60])
def test_replay(corpus, index):
    assert capture(CASES[index]) == corpus[index]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([capture(argv) for argv in CASES], indent=1) + "\n")
    sys.exit(0)
