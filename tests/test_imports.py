"""Every name a module of the package imports is used in it, the package
exports exactly the names its __init__ imports, and every public function or
class has a caller."""

import ast
from pathlib import Path

import pytest

import ncfree

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ncfree").glob("*.py"))


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


def referenced_names(node):
    """Every name or attribute read in the tree, quoted annotations included."""
    return used_names(node) | {
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    }


def test_every_public_name_has_a_caller():
    # A name counts as called when another top-level statement of src/ names
    # it (the package's __init__ re-exports aside), or perfbench/ or the
    # acceptance suite does.  `main` finds the cmd_* handlers by name.
    callers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    named = set()
    for path in callers:
        named |= referenced_names(ast.parse(path.read_text()))
    public = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            named |= referenced_names(node) - {own}
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not own.startswith("_")
                and not own.startswith("cmd_")
            ):
                public[own] = path.name
    uncalled = sorted(f"{module}:{name}" for name, module in public.items() if name not in named)
    assert not uncalled, f"public names that nothing calls: {uncalled}"
