"""Every name a module of the package imports is used in it, the package
exports exactly the names its __init__ imports, every public function, class
or method has a caller, and no module but the CLI keeps process state."""

import ast
from pathlib import Path

import pytest

import ncfree

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ncfree").glob("*.py"))
#: the modules of the library proper: every one but the CLI
LIBRARY = [path for path in MODULES if path.name != "cli.py"]


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


def string_constants(tree):
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_public_name_has_a_caller():
    # A function, class or method counts as called when another definition of
    # src/ names it (the package's __init__ re-exports aside; each method of a
    # class is a definition of its own), or perfbench/ or the acceptance suite
    # does.  perfbench/tracer.py plans methods by name, so a string constant
    # there counts too.  `main` finds the cmd_* handlers by name.
    named = referenced_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        named |= referenced_names(tree) | string_constants(tree)
    public = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                for method in methods:
                    named |= referenced_names(method) - {method.name}
                    if not method.name.startswith("_"):
                        public[f"{path.name}:{own}.{method.name}"] = method.name
                rest = [item for item in node.body if item not in methods]
                for item in rest + node.bases + node.decorator_list:
                    named |= referenced_names(item)
            else:
                named |= referenced_names(node) - {own}
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not own.startswith("_")
                and not own.startswith("cmd_")
            ):
                public[f"{path.name}:{own}"] = own
    uncalled = sorted(label for label, name in public.items() if name not in named)
    assert not uncalled, f"public names that nothing calls: {uncalled}"


def process_state(tree):
    """Module-level dict, list or set bindings, and functools caches, by line."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            value = node.value
            container = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")
            )
            if container:
                found.append(f"line {node.lineno}: {ast.unparse(node)[:60]}")
    for node in ast.walk(tree):
        cache = (
            isinstance(node, ast.Attribute)
            and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and any(alias.name in ("lru_cache", "cache") for alias in node.names)
        )
        if cache:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", LIBRARY, ids=[path.name for path in LIBRARY])
def test_the_library_keeps_no_process_state(path):
    # what a process shares between calls is kept by the CLI alone; a library
    # object keeps what it computes on itself
    found = process_state(ast.parse(path.read_text()))
    assert not found, f"{path.name} keeps process state: {found}"


def private_trace_names():
    """The `_`-prefixed names, dunders aside, that TraceFunctional defines: its
    private methods and properties and the attributes its methods set on self."""
    tree = ast.parse((ROOT / "src" / "ncfree" / "trace.py").read_text())
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "TraceFunctional"]
    names = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
    names |= {
        node.attr for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


OUTSIDE_TRACE = [path for path in MODULES if path.name != "trace.py"]


@pytest.mark.parametrize("path", OUTSIDE_TRACE, ids=[path.name for path in OUTSIDE_TRACE])
def test_only_trace_reads_the_private_names_of_a_trace(path):
    # the memo and the parity rule are read through TraceFunctional.moments
    # and TraceFunctional.parity_bits, so how they are kept can change in trace.py alone
    private = private_trace_names()
    assert {"_memo", "_cumulants", "_limits"} <= private
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert not found, f"{path.name} reads private names of a trace: {found}"
