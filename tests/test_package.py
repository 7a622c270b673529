"""The layer modules' public names: tools that wrap the public API read each
module's ``__all__`` and look every name up with ``getattr``."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import pfaffchain

LAYERS = ("chain", "ensemble", "integrability", "lax", "poly", "reductions")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_resolves_and_lists_every_public_definition(layer):
    mod = importlib.import_module(f"pfaffchain.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_") and callable(obj)
               and getattr(obj, "__module__", None) == mod.__name__}
    assert sorted(defined - set(mod.__all__)) == []


SRC = Path(pfaffchain.__file__).parent
# the package's modules by file name, the test modules as tests/<file name>
SOURCES = {**{p.name: p for p in SRC.glob("*.py")},
           **{f"tests/{p.name}": p for p in Path(__file__).parent.glob("*.py")}}


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_imported_name_is_used(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:  # a name listed in __all__ is re-exported, so used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_runtime_imports_are_stdlib_and_numpy(module):
    # scipy is a test dependency only (pyproject's "test" extra)
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    top = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            top |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top.add(node.module.split(".")[0])
    assert sorted(top - sys.stdlib_module_names - {"numpy"}) == []


def _bound_names(node: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_every_private_module_name_is_referenced():
    # a reference inside the name's own definition (a recursive helper) does
    # not count; an import by another module does
    private, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            bound, refs = _bound_names(node), set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    refs |= {a.name for a in sub.names}
            private |= {name for name in bound
                        if name.startswith("_") and not name.startswith("__")}
            referenced |= refs - bound
    assert sorted(private - referenced) == []


def test_no_module_defines_or_imports_lazy_fractions():
    # every exact kernel runs on ints at one scale, the tangent solve and the
    # closure duals too, so no unreduced-rational class is left
    for name, path in sorted(SOURCES.items()):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                assert node.name != "LazyFraction", name
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names} | {getattr(node, "module", None) or ""}
                assert not {"LazyFraction", "lazy", "lazyfraction"} & {
                    n.split(".")[-1] for n in names}, (name, names)
