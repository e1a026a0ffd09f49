"""Distances on formulae, logical distances over processes, the real-valued
semantics, and the cross-check tying them all together.

The distance between two distribution formulae is the optimal transport
cost between them under the 0/1 cost on trace formulae (weakly: up to
erasure of silent diamonds).  Lifting it with the Hausdorff max-min over
the satisfied-formula sets of two processes yields a logical distance that
coincides exactly with the trace metric computed from resolutions; the
real-valued semantics restates the same quantity as the largest possible
verification gap over all formulae.  ``crosscheck`` computes every route
and any disagreement indicates an implementation bug, never an expected
outcome.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import PTS, ProcessId, TraceDistFormula
from .logic import TraceFormula, erase_formula, formula_set, satisfied_set, tracing_formula
from .resolutions import DEFAULT_MAX_RESOLUTIONS
from .traces import tau_erase, trace_distributions
from .transport import (
    DISCRETE,
    DiscreteQuotient,
    distances_to_set,
    hausdorff_witness,
    kantorovich_01,
)

FORMULA_QUOTIENT = DiscreteQuotient(erase_formula)


def _ground(weak: bool):
    return FORMULA_QUOTIENT if weak else DISCRETE


def trace_formula_distance(x: TraceFormula, y: TraceFormula, weak: bool = False) -> Fraction:
    """0/1 distance on trace formulae; weakly, 0 on erasure-equivalent ones."""
    return _ground(weak).distance(x, y)


def dist_formula_distance(p: TraceDistFormula, q: TraceDistFormula, weak: bool = False) -> Fraction:
    """Transport distance between two distribution formulae."""
    return kantorovich_01(p, q, _ground(weak))


def _set_distance(
    set_s: list[TraceDistFormula],
    set_t: list[TraceDistFormula],
    weak: bool,
) -> Fraction:
    return hausdorff_witness(set_s, set_t, _ground(weak))[0]


def logical_distance(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> Fraction:
    """Hausdorff distance between the satisfied-formula sets of two processes."""
    return _set_distance(
        satisfied_set(pts, s, max_resolutions),
        satisfied_set(pts, t, max_resolutions),
        weak,
    )


def distance_to_set(
    psi: TraceDistFormula,
    formulas: list[TraceDistFormula],
    weak: bool = False,
) -> Fraction:
    """Distance from a formula to a finite nonempty set (the minimum)."""
    return distances_to_set([psi], formulas, _ground(weak))[0]


def real_value(
    pts: PTS,
    s: ProcessId,
    psi: TraceDistFormula,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> Fraction:
    """How close the process comes to satisfying the formula: one minus the
    distance from the formula to the process's satisfied set."""
    return 1 - distance_to_set(psi, satisfied_set(pts, s, max_resolutions), weak)


def _sup_val_over(
    set_s: list[TraceDistFormula],
    set_t: list[TraceDistFormula],
    weak: bool,
) -> Fraction:
    # The sup over all formulae of the value gap is attained on the two
    # satisfied sets themselves: for a member of one set the gap IS its
    # distance to the other set, which produces both directed Hausdorff
    # terms, and no formula can exceed them.  Both distances are computed
    # for every candidate, so this route shares no max-min with the others.
    candidates = list(dict.fromkeys(set_s + set_t))
    to_s = distances_to_set(candidates, set_s, _ground(weak))
    to_t = distances_to_set(candidates, set_t, _ground(weak))
    return max((abs(d_s - d_t) for d_s, d_t in zip(to_s, to_t)), default=Fraction(0))


def sup_val_distance(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> Fraction:
    """Largest gap between the real values of one formula at two processes.

    The strong form equals the strong trace metric.  The weak form is
    computed the same way but is reported as derived only.
    """
    return _sup_val_over(
        satisfied_set(pts, s, max_resolutions),
        satisfied_set(pts, t, max_resolutions),
        weak,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Every route to the two metrics, with the equalities that must hold.

    ``all_equal`` asserts strong metric == strong logical distance ==
    sup-value distance, and weak metric == weak logical distance.  The weak
    sup-value distance is computed as a derived quantity and reported but
    not folded into ``all_equal``.
    """

    strong_metric: Fraction
    logical_distance: Fraction
    sup_val_distance: Fraction
    weak_metric: Fraction
    weak_logical_distance: Fraction
    weak_sup_val_distance: Fraction
    all_equal: bool
    mismatches: tuple[str, ...]


def crosscheck(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> CrossCheckReport:
    # Each side's trace distributions are built once; the weak ones, the
    # metrics and the formula sets are all read off them.
    memo: dict = {}
    strong_s = list(dict.fromkeys(trace_distributions(pts, s, False, max_resolutions, memo)))
    strong_t = list(dict.fromkeys(trace_distributions(pts, t, False, max_resolutions, memo)))
    weak_s = list(dict.fromkeys(dist.pushforward(tau_erase) for dist in strong_s))
    weak_t = list(dict.fromkeys(dist.pushforward(tau_erase) for dist in strong_t))
    set_s = formula_set(dist.pushforward(tracing_formula) for dist in strong_s)
    set_t = formula_set(dist.pushforward(tracing_formula) for dist in strong_t)

    strong = hausdorff_witness(strong_s, strong_t)[0]
    weak = hausdorff_witness(weak_s, weak_t)[0]
    logical_strong = _set_distance(set_s, set_t, weak=False)
    logical_weak = _set_distance(set_s, set_t, weak=True)
    supval_strong = _sup_val_over(set_s, set_t, weak=False)
    supval_weak = _sup_val_over(set_s, set_t, weak=True)

    mismatches: list[str] = []
    if logical_strong != strong:
        mismatches.append(
            f"strong logical distance {logical_strong} != strong metric {strong}"
        )
    if supval_strong != strong:
        mismatches.append(
            f"sup-value distance {supval_strong} != strong metric {strong}"
        )
    if logical_weak != weak:
        mismatches.append(
            f"weak logical distance {logical_weak} != weak metric {weak}"
        )
    all_equal = not mismatches
    if supval_weak != weak:
        mismatches.append(
            f"(derived) weak sup-value distance {supval_weak} != weak metric {weak}"
        )
    return CrossCheckReport(
        strong_metric=strong,
        logical_distance=logical_strong,
        sup_val_distance=supval_strong,
        weak_metric=weak,
        weak_logical_distance=logical_weak,
        weak_sup_val_distance=supval_weak,
        all_equal=all_equal,
        mismatches=tuple(mismatches),
    )
