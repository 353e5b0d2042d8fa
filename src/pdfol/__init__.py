"""Blow-up reduction, Poincare-Dulac normal forms and projective holonomy
for nilpotent singularities of plane holomorphic foliations, at a finite
truncation order."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (InputError, MathError, NotInvertibleError, PdfolError,
                     PrecisionError)
from .rings import (ComplexApprox, ParamPoly, ParamPolyRing, RationalExact,
                    rational, rational_sqrt)
from .series import Series1, Series2
from .forms import (OneForm2, PlaneVectorField, SingularityReport, cs_index,
                    dual, report_at)
from .blowup import (BlowupResult, ReductionPath, blowup_chain, blowup_chart1,
                     blowup_chart2, recenter, singular_points_on_divisor)
from .classify import (GPDReport, PrenormalData, analyze, default_order,
                       gpd_condition, gpd_detect, parse_prenormal,
                       pd_vs_dicritical, saddle_subcase, takens_case)
from .normal_form import (FiberedField, NormalizationResult, normalize,
                          to_fibered_field, verify_conjugation)
from .holonomy import (FormalDiffeo1, HolonomyGroupModel, VectorField1,
                       compose, dichotomy, exp_vf, group_commutator,
                       group_model, inverse, log_diffeo, numeric_holonomy,
                       pd_holonomy_model, periodicity, sz_lambda)
from .parser import InputExpression, parse_expr, print_form

# every public name bound above, and no submodule
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
