"""The package's modules import each other without a cycle, by public names,
the package namespace resolves each public name from its home module, and
every module is one that some mode runs."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_every_module_is_loaded_by_some_mode(tmp_path):
    # one fresh interpreter runs each mode once through the CLI; a module
    # that none of them loads is not one the package ships
    point = "x = 1\ny = 1\nzeta = 0.5\n"
    si = "a = 9.8\nomega0 = 1e9\nnu = 1e9\nz0 = 1e10\n"
    configs = {
        "p1": point, "p2": point, "compare": point + "eps = 0.01\n",
        "sweep": point + "eps = 0.01\nsweep_param = zeta\nsweep_min = 0.1\nsweep_max = 0.9\n"
                         "sweep_count = 3\n",
        "verify": point, "bound": si, "temperatures": si,
    }
    runs = []
    for mode, text in configs.items():
        config = tmp_path / f"{mode}.conf"
        config.write_text(text)
        runs.append([mode, "--config", str(config), "--out", str(tmp_path / f"{mode}.csv")])
    code = ("import sys; from gup_mirror.cli import main; "
            f"print([main(args) for args in {runs!r}]); print(sorted(sys.modules))")
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    codes, loaded = map(ast.literal_eval, result.stdout.splitlines())
    assert codes == [0] * len(configs), result.stderr
    modules = [f"gup_mirror.{path.stem}".removesuffix(".__init__")
               for path in sorted(PACKAGE.glob("*.py"))]
    assert [module for module in modules if module not in loaded] == []
