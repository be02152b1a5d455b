"""The package's modules import each other without a cycle, by public names,
and the package namespace resolves each public name from its home module."""

import ast
import importlib
from pathlib import Path

import pytest

import gup_mirror

PACKAGE = Path(gup_mirror.__file__).parent


def _relative_imports():
    """(importer, imported, names) for every relative import in the package,
    at module level and inside functions; `from . import m` imports module m
    and no name from it."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            assert node.level == 1, (path.name, node.lineno)
            names = [alias.name for alias in node.names]
            if node.module is None:
                for name in names:
                    yield path.stem, name, []
            else:
                yield path.stem, node.module, names


def test_package_import_graph_is_acyclic_and_imports_no_private_name():
    imports = list(_relative_imports())
    assert imports
    private = [(importer, module, name) for importer, module, names in imports
               for name in names if name.startswith("_")]
    assert not private
    graph = {}
    for importer, module, _ in imports:
        graph.setdefault(importer, set()).add(module)
    # depth-first search: a module met again while it is still open closes a cycle
    done, open_path = set(), []

    def visit(module):
        if module in open_path:
            raise AssertionError(f"import cycle: {' -> '.join(open_path + [module])}")
        if module in done:
            return
        open_path.append(module)
        for imported in sorted(graph.get(module, ())):
            visit(imported)
        open_path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_no_module_imports_dataclasses():
    # at module level and inside functions
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.partition(".")[0] == "dataclasses"]
    assert not found


def test_namespace_resolves_each_public_name_from_its_home_module():
    modules = [importlib.import_module(f"gup_mirror.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    for name in gup_mirror.__all__:
        if name == "__version__":
            continue
        homes = [module for module in modules if name in module.__all__]
        assert len(homes) == 1, name
        assert getattr(gup_mirror, name) is getattr(homes[0], name)
    assert set(gup_mirror.__all__) <= set(dir(gup_mirror))
    with pytest.raises(AttributeError, match="no_such_name"):
        gup_mirror.no_such_name
