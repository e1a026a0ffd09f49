"""Exact trace metrics and characterizing formulae for finite probabilistic
transition systems.

The package computes, over exact rationals: strong and weak probabilistic
trace equivalence and the corresponding 1-bounded trace metrics (optimal
transport between trace distributions, lifted over scheduler sets with the
Hausdorff max-min); the mimicking formulae that generate the set of
distribution formulae a process satisfies; distances on formulae and the
logical distance over processes; and a real-valued semantics whose largest
verification gap reproduces the metric.  A cross-check verifies that every
route yields the same number on any given input.
"""

__version__ = "0.1.0"

from .core import (
    Action,
    Dist,
    PTS,
    ProcessId,
    TAU,
    TraceDistFormula,
    TraceDistribution,
    Transition,
    ValidationReport,
    validate_pts,
)
from .resolutions import (
    DEFAULT_MAX_RESOLUTIONS,
    Resolution,
    SizeGuardExceeded,
)
from .traces import (
    EPSILON,
    Trace,
    count_resolutions,
    resolution_at,
    tau_erase,
    trace_distribution,
    trace_distributions,
    weak_trace_distribution,
)
from .transport import kantorovich_01
from .logic import (
    TOP,
    TraceFormula,
    erase_formula,
    mimicking_formulas,
    real_value,
    satisfied_set,
    satisfies,
    tracing_formula,
)
from .metrics import (
    DedupStats,
    MetricResult,
    find_distinguishing_resolution,
    strong_trace_equivalent,
    strong_trace_metric,
    weak_trace_equivalent,
    weak_trace_metric,
)
from .formula_distance import (
    CrossCheckReport,
    crosscheck,
    dist_formula_distance,
    logical_distance,
    sup_val_distance,
)
from .parser import (
    ParseError,
    ParseIssue,
    ParserWarning,
    SourceSpan,
    parse_formula,
    parse_pts,
    print_formula,
    print_pts,
    print_trace,
    print_trace_distribution,
)
