"""liptriv: Lipschitz-triviality analysis of polynomial mappings.

Exact rational computer algebra (polynomials, Groebner bases, elimination)
combined with seeded numeric properness probes, deciding whether a polynomial
mapping can admit Lipschitz trivial values, producing its factorization
through the maximal invariance subspace, and describing the set of Lipschitz
trivial values by explicit algebraic data.
"""

__version__ = "0.1.0"

from .classifier import (
    AnalysisConfig,
    LtvDescription,
    LtvReport,
    classify,
    complexification_compare,
    lipschitz_gradient_probe,
    tube_distance_probe,
)
from .critical import critical_ideal, jacobian, real_critical_values
from .dependence import (
    FactorizationResult,
    Subspace,
    factor_through_projection,
    invariance_subspace,
    suspend,
)
from .groebner import (
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    buchberger,
    dimension,
    eliminate,
    real_roots,
    saturate,
)
from .infinity import cone_constancy_check, fiber_infinity
from .parsing import ParseError, parse_input, parse_mapping, print_polynomial
from .polycore import PolyMap, Polynomial
from .properness import (
    ProbeSchedule,
    is_proper_at_complex,
    jelonek_ideal,
    properness_probe_real,
)
from .rational import RationalMap, indeterminacy_empty_check, rational_invariance_subspace
from .report import emit_report, render_text

__all__ = [
    "AnalysisConfig",
    "BudgetExceededError",
    "FactorizationResult",
    "GroebnerBudget",
    "Ideal",
    "LtvDescription",
    "LtvReport",
    "MonomialOrder",
    "ParseError",
    "PolyMap",
    "Polynomial",
    "ProbeSchedule",
    "RationalMap",
    "Subspace",
    "buchberger",
    "classify",
    "complexification_compare",
    "cone_constancy_check",
    "critical_ideal",
    "dimension",
    "eliminate",
    "emit_report",
    "factor_through_projection",
    "fiber_infinity",
    "indeterminacy_empty_check",
    "invariance_subspace",
    "is_proper_at_complex",
    "jacobian",
    "jelonek_ideal",
    "lipschitz_gradient_probe",
    "parse_input",
    "parse_mapping",
    "print_polynomial",
    "properness_probe_real",
    "rational_invariance_subspace",
    "real_critical_values",
    "real_roots",
    "render_text",
    "saturate",
    "suspend",
    "tube_distance_probe",
]
