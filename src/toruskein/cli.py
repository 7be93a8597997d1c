"""Command-line front-end: products, conversions, oracles, bracket, verify.

One verb per construct so the tool stays scriptable:

  mul        fast product of two generators (standard or Chebyshev basis)
  oracle-mul smoothing-oracle product of two classes (state sum)
  gamma-mul  oriented monomial product (optionally checked against the oracle)
  cheb       expand a Chebyshev generator into standard multicurves
  convert    change of basis for a generator or a JSON element
  psi        symmetrization of a standard element into the oriented algebra
  psi-inv    inverse symmetrization of a symmetric oriented element
  bracket    planar Kauffman bracket of a PD code
  verify     fast-path vs oracle sweeps; exits 2 on the first counterexample

Exit codes: 0 success, 1 user error (message on stderr), 2 verification
failure.  ``--json`` switches output to the documented JSON forms.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import re
import sys
from typing import Sequence

from . import verify as verify_mod
from .bracket_planar import PDCode, kauffman_bracket
from .laurent import check_bound, quoted
from .oriented import OrientedElement, gamma_mul, psi, psi_inverse
from .skein import Basis, SkeinElement, chebyshev_generator
from .smoothing_oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    oriented_product,
    unoriented_product,
)
from .torus_curves import UnorientedClass, parse_vec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def _integer(text: str) -> int:
    """An integer flag's value: an optional minus, then ASCII digits, as in "(a,b)"."""
    try:
        if re.fullmatch(r"-?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {quoted(text)}")


@functools.cache  # parse_args leaves the parser as it was, so one serves every run
def _build_parser() -> _Parser:
    parser = _Parser(prog="toruskein", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    p = add("mul", "fast product of two basis generators")
    p.add_argument("--basis", choices=[b.value for b in Basis], default=Basis.STANDARD.value)
    p.add_argument("x")
    p.add_argument("y")

    p = add("oracle-mul", "smoothing-oracle product of two classes (state sum)")
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.add_argument("--dump-states", metavar="PATH", default=None)
    p.add_argument("x")
    p.add_argument("y")

    p = add("gamma-mul", "oriented monomial product")
    p.add_argument("--oracle", action="store_true", help="also run the oriented oracle and compare")
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)
    p.add_argument("u")
    p.add_argument("v")

    p = add("cheb", "expand a Chebyshev generator into standard classes")
    p.add_argument("vec")

    p = add("convert", "change of basis")
    p.add_argument("--to", dest="target", choices=[b.value for b in Basis], required=True)
    p.add_argument("input", help='generator "(a,b)" in the other basis, element JSON, or - for stdin')

    p = add("psi", "sum-of-orientations map on a standard element")
    p.add_argument("input", help='generator "(a,b)", element JSON, or - for stdin')

    p = add("psi-inv", "inverse symmetrization of an oriented element")
    p.add_argument("input", help="oriented element JSON, or - for stdin")

    p = add("bracket", "planar Kauffman bracket of a PD code")
    p.add_argument("--pd", required=True, help='e.g. "X(1,3,2,4) X(3,1,4,2)"; O adds a free loop')
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)

    p = add("verify", "sweep fast paths against the oracles")
    p.add_argument("--max-coord", type=_integer, default=3)
    p.add_argument("--max-det", type=_integer, default=10)
    p.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)

    return parser


def _read_input(text: str) -> str:
    return sys.stdin.read() if text.strip() == "-" else text


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # json.loads recurses once per nesting level
        raise _UsageError("JSON input is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # a number with more digits than int() converts
        raise _UsageError(f"a JSON number has too many digits: {quoted(text)}") from None


def _skein_argument(text: str, basis: Basis) -> SkeinElement:
    text = _read_input(text)
    if text.lstrip().startswith("{"):
        element = SkeinElement.from_json(_load_json(text))
        if element.basis != basis:
            raise _UsageError(f"expected a {basis.value}-basis element, got {element.basis.value}")
        return element
    return _generator(text, basis)


def _generator(text: str, basis: Basis) -> SkeinElement:
    """A generator argument, "(a,b)" or "empty" (1 in either basis).  In the
    Chebyshev basis "(0,0)" is T_0 = 2 * empty, as in the product-to-sum formula."""
    if basis == Basis.STANDARD or text.strip().lower() == "empty":
        return SkeinElement.generator(UnorientedClass.parse(text), basis)
    return chebyshev_generator(parse_vec(text))


def _oriented_argument(text: str) -> OrientedElement:
    text = _read_input(text)
    if not text.lstrip().startswith("{"):
        raise _UsageError("psi-inv expects an oriented element as JSON")
    return OrientedElement.from_json(_load_json(text))


def _emit(obj, as_json: bool) -> None:
    try:
        text = json.dumps(obj.to_json(), sort_keys=True) if as_json else str(obj)
    except ValueError:  # a number with more digits than str() converts
        raise _UsageError("the result has a number too long to print") from None
    print(text)


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        check_bound("--budget", getattr(args, "budget", 0), low=0)
        command = args.command

        if command == "mul":
            basis = Basis(args.basis)
            _emit(_generator(args.x, basis) * _generator(args.y, basis), args.json)
        elif command == "oracle-mul":
            x = UnorientedClass.parse(args.x)
            y = UnorientedClass.parse(args.y)
            dump = io.StringIO() if args.dump_states is not None else None
            product = unoriented_product(x, y, budget=args.budget, dump=dump)
            if dump is not None:
                # Open the file only once the product is done, so a refused dump clobbers nothing.
                with open(args.dump_states, "w") as out:
                    out.write(dump.getvalue())
            _emit(product, args.json)
        elif command == "gamma-mul":
            u, v = parse_vec(args.u), parse_vec(args.v)
            fast = gamma_mul(u, v)
            if args.oracle:
                slow = oriented_product(u, v, budget=args.budget)
                if fast != slow:
                    print(f"MISMATCH: fast = {fast}; oracle = {slow}", file=sys.stderr)
                    return 2
            _emit(fast, args.json)
        elif command == "cheb":
            _emit(_generator(args.vec, Basis.CHEBYSHEV).to_standard(), args.json)
        elif command == "convert":
            target = Basis(args.target)
            source = Basis.STANDARD if target == Basis.CHEBYSHEV else Basis.CHEBYSHEV
            element = _skein_argument(args.input, source)
            converted = element.to_chebyshev() if target == Basis.CHEBYSHEV else element.to_standard()
            _emit(converted, args.json)
        elif command == "psi":
            _emit(psi(_skein_argument(args.input, Basis.STANDARD)), args.json)
        elif command == "psi-inv":
            _emit(psi_inverse(_oriented_argument(args.input)), args.json)
        elif command == "bracket":
            value = kauffman_bracket(PDCode.parse(args.pd), budget=args.budget)
            _emit(value, args.json)
        elif command == "verify":
            results = verify_mod.run_all(max_coord=args.max_coord, max_det=args.max_det, budget=args.budget)
            if args.json:
                print(json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True))
            else:
                for r in results:
                    print(r.summary())
            if any(not r.ok for r in results):
                return 2
        return 0
    except (_UsageError, ValueError, BudgetExceededError, OSError) as exc:  # ParseError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
