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

``logical_distance``, ``sup_val_distance`` and ``crosscheck`` read the
integer rows of a ``traces.TraceLayer`` rooted at the processes they
compare: the distinct rows of both, over the layer's common denominator.
``real_value`` reads one process's full list and the formula as a row of
the same layer, both from ``logic.formula_query``.  The
satisfied sets are numbered in a formula table of their own, filled
through ``tracing_formula`` and ``erase_formula``, so the formula route of
``crosscheck`` shares no trace ids with its metric route.  Where the
layer's ``silent`` is False the weak rows and satisfied sets are the
strong ones, and ``crosscheck`` builds no weak list: its three weak values
are its strong passes' results.
``dist_formula_distance`` alone reads no layer: it is
``transport.kantorovich_01`` on two formulae given as ``Dist`` objects,
and its weak form passes ``erase_formula`` as the canonicalizing function.

The sup-value route stays an independent check of the other two: where
the metric and the logical distance share the kernel's max-min
(``hausdorff_rows``, with its early breaks and same-position first
candidate), the sup-value gap reads ``nearest_distances``, which computes
every candidate formula's exact distance to both satisfied sets with no
early exit.  A fault in the max-min's pruning therefore shows up as a
mismatch in ``crosscheck`` instead of being repeated on every route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .core import PTS, ProcessId, TraceDistFormula
from .logic import TraceFormula, erase_formula, formula_query, tracing_formula
from .resolutions import DEFAULT_MAX_RESOLUTIONS
from .traces import TraceLayer
from .transport import (
    hausdorff_rows,
    kantorovich_01,
    nearest_distances,
    on_common_denominator,
)


def dist_formula_distance(p: TraceDistFormula, q: TraceDistFormula, weak: bool = False) -> Fraction:
    """Transport distance between two distribution formulae."""
    return kantorovich_01(p, q, erase_formula if weak else None)


def logical_distance(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> Fraction:
    """Hausdorff distance between the satisfied-formula sets of two processes."""
    return _hausdorff_value(*_satisfied_sets(pts, s, t, weak, max_resolutions))


def real_value(
    pts: PTS,
    s: ProcessId,
    psi: TraceDistFormula,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> Fraction:
    """How close the process comes to satisfying the formula: one minus the
    distance from the formula to the process's satisfied set.

    The satisfied set is the set of (weak) layer rows, the halting row
    standing for the top formula, so the distance is read off the rows with
    ``psi`` as a row of the same layer.
    """
    if not psi.is_probability:
        raise ValueError("total variation requires probability distributions")
    _, side, psi_den, query = formula_query(pts, s, psi, weak, max_resolutions)
    total, ([query], rows) = on_common_denominator((psi_den, [query]), side)
    return 1 - Fraction(nearest_distances([query], rows, total)[0][0], total)


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
    return _sup_val_value(*_satisfied_sets(pts, s, t, weak, max_resolutions))


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


def _formula_sets(layer: TraceLayer, sides: list[list[dict]]) -> list[tuple[list, list]]:
    """Each side's satisfied set as rows over formula ids, strong and weak,
    over the denominator of the side's rows.

    The formulae are numbered in a table of their own, not by trace id:
    each distinct trace id is decoded once and spelled through
    ``tracing_formula``, and, where a silent step is reachable, each
    distinct formula is erased once through ``erase_formula`` into a second
    table.  A strong set is the side's distinct mimicking formulae, the
    halting row's being the top formula; a weak set is the strong one with
    every formula replaced by its erasure, and is the strong set itself
    where no silent step is reachable.
    """
    table: dict[TraceFormula, int] = {}
    formula_of: dict[int, int] = {}
    strong_sides = []
    for rows in sides:
        strong = []
        for row in rows:
            frow: dict = {}
            for tid, w in row.items():
                fid = formula_of.get(tid)
                if fid is None:
                    phi = tracing_formula(layer.trace(tid))
                    fid = formula_of[tid] = table.setdefault(phi, len(table))
                frow[fid] = frow.get(fid, 0) + w
            strong.append(frow)
        strong_sides.append(strong)
    if not layer.silent:
        return [(strong, strong) for strong in strong_sides]
    erased_table: dict[TraceFormula, int] = {}
    erased = [erased_table.setdefault(erase_formula(phi), len(erased_table)) for phi in table]
    out = []
    for strong in strong_sides:
        weak = []
        for frow in strong:
            wrow: dict = {}
            for fid, w in frow.items():
                wrow[erased[fid]] = wrow.get(erased[fid], 0) + w
            weak.append(wrow)
        out.append((strong, weak))
    return out


def _hausdorff_value(rows_a: list[dict], rows_b: list[dict], total: int) -> Fraction:
    return Fraction(hausdorff_rows(rows_a, rows_b, total)[0], total)


def _sup_val_value(rows_a: list[dict], rows_b: list[dict], total: int) -> Fraction:
    # The sup over all formulae of the value gap is attained on the two
    # satisfied sets themselves: for a member of one set the gap IS its
    # distance to the other set, which produces both directed Hausdorff
    # terms, and no formula can exceed them.  One sweep gives every
    # candidate's exact distance to the other set, its distance to its own
    # set being 0, so this route shares no max-min with the others.
    to_b, to_a = nearest_distances(rows_a, rows_b, total)
    return Fraction(max(chain(to_b, to_a), default=0), total)


def _satisfied_sets(pts: PTS, s: ProcessId, t: ProcessId, weak: bool, max_resolutions: int):
    """The (weak) satisfied sets of the two processes, as rows over one
    formula table (``_formula_sets``), then the layer's denominator."""
    layer = TraceLayer(pts, s, t, max_resolutions=max_resolutions)
    total, sides = layer.distinct(False)
    (set_s, weak_set_s), (set_t, weak_set_t) = _formula_sets(layer, [rows for _, rows in sides])
    return (weak_set_s, weak_set_t, total) if weak else (set_s, set_t, total)


def crosscheck(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> CrossCheckReport:
    # One layer serves every route: the metrics read its strong and weak
    # rows, the formula route its strong rows through a formula table.
    layer = TraceLayer(pts, s, t, max_resolutions=max_resolutions)
    total, ((_, strong_s), (_, strong_t)) = layer.distinct(False)
    (set_s, weak_set_s), (set_t, weak_set_t) = _formula_sets(layer, [strong_s, strong_t])
    strong = _hausdorff_value(strong_s, strong_t, total)
    logical_strong = _hausdorff_value(set_s, set_t, total)
    supval_strong = _sup_val_value(set_s, set_t, total)

    # Where no silent step is reachable the weak rows and sets are the
    # strong ones, so the weak values are the strong passes' results.  Both
    # modes' lists of a process share its denominator, so the two modes'
    # rows come over the same total.
    if layer.silent:
        _, ((_, weak_s), (_, weak_t)) = layer.distinct(True)
        weak = _hausdorff_value(weak_s, weak_t, total)
        logical_weak = _hausdorff_value(weak_set_s, weak_set_t, total)
        supval_weak = _sup_val_value(weak_set_s, weak_set_t, total)
    else:
        weak, logical_weak, supval_weak = strong, logical_strong, supval_strong

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
