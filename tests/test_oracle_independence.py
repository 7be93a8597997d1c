"""The smoothing oracle certifies the product-to-sum path, so it must not
compute with that path's arithmetic.  This reads the oracle's source and
fails if it imports from the Chebyshev module or names the fast product's
kernels."""

import ast
from pathlib import Path

from toruskein import smoothing_oracle

FAST_PATH_NAMES = {"_mul_chebyshev", "_generator_product", "gamma_mul", "power_to_chebyshev"}


def _oracle_tree() -> ast.Module:
    return ast.parse(Path(smoothing_oracle.__file__).read_text(), smoothing_oracle.__file__)


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


def test_oracle_imports_nothing_from_chebyshev():
    modules = _imported_modules(_oracle_tree())
    assert ".laurent" in modules  # the walk sees the oracle's relative imports
    assert not {m for m in modules if m.split(".")[-1] == "chebyshev"}


def test_oracle_names_no_fast_product_kernel():
    names = _names(_oracle_tree())
    assert "build_arrangement" in names  # the walk sees the oracle's own names
    assert not names & FAST_PATH_NAMES
