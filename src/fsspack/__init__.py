"""Equal-circle packing in the unit disk with prohibited areas.

A formulation space search drives repeated local solves of a smooth
inequality program, randomly re-posing every circle between solves as
boxed near its centre or free.  Corrected radii are exact: the
post-solve correction works in integer arithmetic and rounds down, so
any reported layout verifies feasible at tolerance zero.
"""

from .engine import (
    EngineError,
    FssConfig,
    IterationTrace,
    RunReport,
    random_assignment,
    random_initial_layout,
    replication_rng,
    run,
    run_replication,
)
from .formulation import (
    EvaluationError,
    NlpProblem,
    build_nlp,
    prune_pairs,
)
from .geometry import (
    CartesianPoint,
    FeasibilityReport,
    Instance,
    Layout,
    LayoutFormatError,
    ProhibitedCircle,
    correct_radius,
    format_radius,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    radius_upper_bound,
    save_layout,
    verify_layout,
)
from .instances import (
    InstanceFormatError,
    UnknownInstanceError,
    builtin_catalogue,
    builtin_instance,
    instance_from_name,
    load_instance,
    save_instance,
)
from .render import render_svg
from .reporting import ResultRow, write_results_csv, write_results_json
from .solver import (
    CONVERGED,
    ITERATION_LIMIT,
    NUMERICAL_FAILURE,
    SolverResult,
    gradient_check,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CartesianPoint",
    "CONVERGED",
    "EngineError",
    "EvaluationError",
    "FeasibilityReport",
    "FssConfig",
    "Instance",
    "InstanceFormatError",
    "ITERATION_LIMIT",
    "IterationTrace",
    "Layout",
    "LayoutFormatError",
    "NlpProblem",
    "NUMERICAL_FAILURE",
    "ProhibitedCircle",
    "ResultRow",
    "RunReport",
    "SolverResult",
    "UnknownInstanceError",
    "build_nlp",
    "builtin_catalogue",
    "builtin_instance",
    "correct_radius",
    "format_radius",
    "gradient_check",
    "instance_from_name",
    "layout_from_dict",
    "layout_to_dict",
    "load_instance",
    "load_layout",
    "prune_pairs",
    "radius_upper_bound",
    "random_assignment",
    "random_initial_layout",
    "render_svg",
    "replication_rng",
    "run",
    "run_replication",
    "save_instance",
    "save_layout",
    "solve",
    "verify_layout",
    "write_results_csv",
    "write_results_json",
]
