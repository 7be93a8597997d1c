"""The smoothing oracle certifies the product-to-sum path, so it must not
compute with that path's arithmetic.  This reads the oracle's source and
fails if it imports from the Chebyshev module or names the fast product's
kernels, and imports and runs the oracle with ``laurent.add_product``
disabled.  It also reads every module of the package and fails if one
imports anything outside the standard library and the package itself, and
reads the planar bracket's source to check that it runs on the oracle's
contraction kernel rather than a state loop of its own."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import toruskein
from toruskein import bracket_planar, smoothing_oracle
from toruskein.torus_curves import UnorientedClass

# The fast product's kernels and the accumulation loops it runs on; the oracle
# adds its own state weights.
FAST_PATH_NAMES = {
    "_mul_chebyshev", "gamma_mul", "power_to_chebyshev", "add_product", "accumulate", "circle_step",
}


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(), module.__file__)


def _oracle_tree() -> ast.Module:
    return _tree(smoothing_oracle)


def _imported_modules(tree: ast.Module) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    return modules


def _names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
    return names


def test_oracle_runs_with_add_product_disabled():
    # The package's modules load without its __init__, with laurent.add_product
    # replaced before the oracle (and the modules it imports) is imported.
    script = textwrap.dedent("""
        import sys, types
        package = types.ModuleType("toruskein")
        package.__path__ = [sys.argv[1]]
        sys.modules["toruskein"] = package
        from toruskein import laurent

        def add_product(*args, **kwargs):
            raise AssertionError("add_product ran")

        laurent.add_product = add_product
        from toruskein import smoothing_oracle
        from toruskein.torus_curves import UnorientedClass
        print(smoothing_oracle.unoriented_product(UnorientedClass((1, 1)), UnorientedClass((1, -1))))
        print(smoothing_oracle.oriented_product((2, 1), (1, -2)))
    """)
    package_dir = str(Path(toruskein.__file__).parent)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, package_dir], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    unoriented = smoothing_oracle.unoriented_product(UnorientedClass((1, 1)), UnorientedClass((1, -1)))
    oriented = smoothing_oracle.oriented_product((2, 1), (1, -2))
    assert run.stdout == f"{unoriented}\n{oriented}\n"


def test_oracle_imports_nothing_from_chebyshev():
    modules = _imported_modules(_oracle_tree())
    assert ".laurent" in modules  # the walk sees the oracle's relative imports
    assert not {m for m in modules if m.split(".")[-1] == "chebyshev"}


def test_oracle_names_no_fast_product_kernel():
    names = _names(_oracle_tree())
    assert "build_arrangement" in names  # the walk sees the oracle's own names
    assert not names & FAST_PATH_NAMES


def test_bracket_runs_on_the_oracle_kernel():
    # A second contraction loop would accumulate polynomials itself.
    names = _names(_tree(bracket_planar))
    assert "contract" in names
    assert not names & {"circle_step", "add_product"}


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(toruskein.__file__).parent.glob("*.py"))
    assert len(sources) > 5 and smoothing_oracle.__file__ in map(str, sources)
    for source in sources:
        modules = _imported_modules(ast.parse(source.read_text(), str(source)))
        outside = {
            m for m in modules
            if not m.startswith(".") and m.split(".")[0] not in sys.stdlib_module_names | {"toruskein"}
        }
        assert not outside, (source.name, outside)
