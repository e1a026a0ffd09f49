"""Distances on formulae, logical distances over processes, and the
cross-check tying them to the trace metric.

The distance between two distribution formulae is the optimal transport
cost between them under the 0/1 cost on trace formulae (weakly: up to
erasure of silent diamonds).  Lifting it with the Hausdorff max-min over
the satisfied-formula sets of two processes yields a logical distance that
coincides exactly with the trace metric computed from resolutions; the
real-valued semantics (``logic.real_value``) restates the same quantity as
the largest possible verification gap over all formulae.  ``crosscheck`` computes every route
and any disagreement indicates an implementation bug, never an expected
outcome.

``logical_distance``, ``sup_val_distance`` and ``crosscheck`` read the
integer rows of a ``traces.TraceLayer`` rooted at the processes they
compare: the distinct strong rows of both, over the layer's ``den``.
``_formula_sets`` turns them into one mode's satisfied sets, numbered in
formula tables of their own, so the formula route of ``crosscheck`` shares
no trace ids with its metric route.  ``_sup_val_value`` passes each set
through ``transport.distinct_rows`` and takes their logical and sup-value
distances; ``crosscheck``'s metrics read the layer's distinct sides as
they are.  The two library functions read one mode, ``crosscheck`` both.
Where the layer's ``silent`` is False the weak rows and sets are the
strong ones, so it builds no weak list and its three weak values are its
strong passes' results.  No formula object is built on that route: the
mimicking formula of a row is the row with its trace ids renamed, and the
erased formula ids come off the layer's trie, so the tables stay linear in
depth.  ``dist_formula_distance``
alone reads no layer: it is ``transport.kantorovich_01`` on two formulae
given as ``Dist`` objects, and its weak form passes ``erase_formula`` as
the canonicalizing function.

The sup-value route stays an independent check of the other two, which
share the kernel's max-min (``transport.hausdorff_rows``, with its early
breaks and same-position first candidate).  It takes the logical
max-min's value D over the two satisfied sets only once
``transport.certifies`` has proven it, with a pair distance of its own,
from the certificate the max-min returns: every formula of either set
within D of the other set, and one formula exactly D away.  Where the
certificate fails, the gap comes from ``nearest_distances``, called once
each way, which computes every formula's exact distance to the other set
over every pair with no early exit, and ``crosscheck`` reports the failed
certificate as a mismatch of its own.  A fault in the max-min's pruning
therefore shows up as a mismatch instead of being repeated on every route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from .core import PTS, ProcessId, TraceDistFormula
from .logic import erase_formula
from .resolutions import DEFAULT_MAX_RESOLUTIONS
from .traces import TraceLayer
from .transport import (
    certifies,
    distinct_rows,
    hausdorff_rows,
    kantorovich_01,
    nearest_distances,
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
    return _set_values(pts, s, t, weak, max_resolutions)[0]


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
    return _set_values(pts, s, t, weak, max_resolutions)[1]


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


def _formula_sets(layer: TraceLayer, sides: list[list[dict]], weak: bool) -> list[list[dict]]:
    """Each side's (weak) satisfied set as rows over formula ids, over the
    denominator of the side's rows.

    The formulae are numbered in tables of their own, not by trace id.
    ``tracing_formula`` is injective, so a strong set is the side's rows
    with each trace id renumbered in order of first use, the empty trace's
    standing for the top formula.  Where no silent step is reachable the
    weak sets are the strong ones.  Otherwise a weak set sums each row's
    weights per erased formula id, and the erased ids come from one pass
    over the layer's trie in id order, where a tail precedes its
    extensions: a silent action keeps its tail's erased id, any other
    action numbers the pair of its name and its tail's erased id, and the
    top formula is 0.
    """
    if not (weak and layer.silent):
        fid: dict[int, int] = {}
        return [
            [{fid.setdefault(tid, len(fid)): w for tid, w in row.items()} for row in rows]
            for rows in sides
        ]
    table: dict[tuple[str, int], int] = {}
    erased = [0]
    for action, tail in islice(zip(layer.actions, layer.tails), 1, None):
        erased.append(
            erased[tail] if action.is_tau
            else table.setdefault((action.name, erased[tail]), len(table) + 1)
        )
    out = []
    for rows in sides:
        weak_rows = []
        for row in rows:
            wrow: dict = {}
            for tid, w in row.items():
                e = erased[tid]
                wrow[e] = wrow.get(e, 0) + w
            weak_rows.append(wrow)
        out.append(weak_rows)
    return out


def _sup_val_value(
    rows_a: list[dict], rows_b: list[dict], total: int
) -> tuple[Fraction, Fraction, bool]:
    """The logical distance between two satisfied sets, their sup-value
    distance, and whether the max-min's certificate proved the two equal.

    The sup over all formulae of the value gap is attained on the two
    satisfied sets themselves: for a member of one set the gap IS its
    distance to the other set, which produces both directed Hausdorff
    terms, and no formula can exceed them.  So the gap is the max-min's
    value once its certificate checks, and otherwise the largest of every
    member's exact distance to the other set.
    """
    if bool(rows_a) != bool(rows_b):
        raise ValueError("distance to an empty set is undefined")
    if not rows_a:
        return Fraction(0), Fraction(0), True
    side_a, side_b = distinct_rows(rows_a), distinct_rows(rows_b)
    d, _, _, certificate = hausdorff_rows(side_a, side_b, total)
    logical = Fraction(d, total)
    a, b = side_a[1], side_b[1]
    if certifies(a, b, total, d, certificate):
        return logical, logical, True
    gaps = chain(nearest_distances(a, b, total), nearest_distances(b, a, total))
    return logical, Fraction(max(gaps), total), False


def _set_values(pts: PTS, s: ProcessId, t: ProcessId, weak: bool, max_resolutions: int):
    """``_sup_val_value`` of the two processes' (weak) satisfied sets."""
    layer = TraceLayer(pts, s, t, max_resolutions=max_resolutions)
    sides = [rows for _, rows in layer.distinct(False)]
    return _sup_val_value(*_formula_sets(layer, sides, weak), layer.den)


def crosscheck(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> CrossCheckReport:
    # One layer serves every route: the metrics read its strong and weak
    # rows, the formula route its strong rows through a formula table.
    layer = TraceLayer(pts, s, t, max_resolutions=max_resolutions)
    total = layer.den
    sides = layer.distinct(False)
    strong = Fraction(hausdorff_rows(*sides, total)[0], total)
    sides = [rows for _, rows in sides]  # no row key lives across the formula table
    logical_strong, supval_strong, proven = _sup_val_value(
        *_formula_sets(layer, sides, False), total
    )

    # Where no silent step is reachable the weak rows and sets are the
    # strong ones, so the weak values are the strong passes' results.  Both
    # modes' rows come over the layer's denominator.
    if layer.silent:
        weak = Fraction(hausdorff_rows(*layer.distinct(True), total)[0], total)
        logical_weak, supval_weak, weak_proven = _sup_val_value(
            *_formula_sets(layer, sides, True), total
        )
    else:
        weak, logical_weak, supval_weak, weak_proven = strong, logical_strong, supval_strong, proven

    mismatches: list[str] = []
    if logical_strong != strong:
        mismatches.append(
            f"strong logical distance {logical_strong} != strong metric {strong}"
        )
    if supval_strong != strong:
        mismatches.append(
            f"sup-value distance {supval_strong} != strong metric {strong}"
        )
    if not proven:
        mismatches.append(
            f"certificate of the strong logical distance {logical_strong} rejected"
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
    if not weak_proven:
        mismatches.append(
            f"(derived) certificate of the weak logical distance {logical_weak} rejected"
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
