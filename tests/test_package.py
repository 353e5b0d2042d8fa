"""The package's star import: the public API, and no submodule."""

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
