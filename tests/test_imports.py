"""Every name a module of the package imports is used in it, and the package
exports exactly the names its __init__ imports."""

import ast
from pathlib import Path

import pytest

import ncfree

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncfree").glob("*.py"))


def imported_names(tree):
    """Every name bound by an import, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def used_names(tree):
    """Every name read in the tree, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= used_names(ast.parse(hint.value, mode="eval"))
    return names


def exported_names(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    unused = imported_names(tree) - used_names(tree) - exported_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(ncfree.__file__).read_text())
    assert exported_names(tree) == imported_names(tree)
    assert len(ncfree.__all__) == len(set(ncfree.__all__))
    for name in ncfree.__all__:
        assert hasattr(ncfree, name), f"ncfree.__all__ lists {name}, which does not resolve"
