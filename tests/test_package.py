"""The package's star import: the public API, and no submodule; the
names the benchmark imports; the oracles kept out of the package."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pdfol


def test_star_import_binds_the_public_api_and_no_submodule():
    namespace = {}
    exec("from pdfol import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    public = {name for name, value in vars(pdfol).items()
              if not name.startswith("_")
              and not isinstance(value, ModuleType)}
    assert bound == public | {"__version__"}
    assert len(pdfol.__all__) == len(bound)
    assert {"rings", "series", "blowup", "classify"}.isdisjoint(bound)
    assert {"analyze", "parse_expr", "ParamPoly", "RationalExact",
            "singular_points_on_divisor", "MathError"} <= bound
    assert namespace["__version__"] == pdfol.__version__


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# oracles that no command runs; they live in tests/util.py
TEST_ONLY = ("bound_bruteforce", "dual_field", "wedge", "matrix_eq",
             "conjugate", "commutes_with_scaling")


def _pdfol_imports(path):
    """(module, name) for each name the file imports from pdfol, read
    with ast so that the file itself is not run; name is None for a
    plain ``import pdfol.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "pdfol":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "pdfol"]
    return found


def test_benchmark_imports_from_pdfol_resolve():
    by_file = {path.name: _pdfol_imports(path)
               for path in sorted(PERFBENCH.glob("*.py"))}
    assert all(by_file.get(name) for name in
               ("workloads.py", "record.py", "test_perfbench.py"))
    missing = []
    for filename, imports in by_file.items():
        for module_name, name in imports:
            module = importlib.import_module(module_name)
            if name is not None and not hasattr(module, name):
                try:
                    importlib.import_module(module_name + "." + name)
                except ModuleNotFoundError:
                    missing.append("%s: %s.%s" % (filename, module_name, name))
    assert not missing


def test_test_only_oracles_are_not_in_the_package():
    modules = [pdfol] + [importlib.import_module("pdfol." + info.name)
                         for info in pkgutil.iter_modules(pdfol.__path__)]
    assert len(modules) > 10
    bound = ["%s.%s" % (module.__name__, name) for module in modules
             for name in TEST_ONLY if hasattr(module, name)]
    assert not bound
