"""A minimal two-sorted logic over traces and its satisfaction relations.

A *trace formula* is a finite sequence of diamond modalities ending in top;
it denotes a trace shape and is satisfied by a run whose first steps carry
the listed actions.  A *trace distribution formula* is a probability
distribution over pairwise-distinct trace formulae; a process satisfies one
when some resolution realizes every listed formula with exactly the listed
probability mass on its maximal runs.

The *mimicking formula* of a resolution spells out its trace distribution
inside the logic.  The set of formulae a process satisfies is exactly the
set of mimicking formulae of its resolutions, the halting resolution's
being the top formula, which is what makes the satisfied set finitely
computable: ``satisfied_set`` sorts the distinct ones.

``satisfies`` and ``mimicking_formulas`` read the integer rows of a
``traces.TraceLayer`` rooted at the process, the full list and the
distinct rows, over the layer's ``den``.  ``formula_query`` is the one
reading of a formula against a process, shared by ``satisfies`` and
``formula_distance.real_value``: it builds the layer and the process's
rows, then looks the formula's traces up in the layer's trie, giving the
formula as a row over its own denominator.  ``satisfies`` scales the
formula to ``layer.den``.  ``mimicking_formulas`` decodes the returned
formulae, by the layer's ``decode`` spelling each trace through
``tracing_formula``, for ``satisfied_set`` and library callers.
``mimicking_pairs`` reads the same distinct rows without decoding them:
each formula as ``(trace id, weight)`` pairs over ``layer.den`` in display
order, each trace id spelled once as its action names and ranked once.
``tracemet mimic`` writes both its text and its JSON from those pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Action, PTS, ProcessId, TraceDistFormula
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Resolution
from .traces import Rows, Trace, TraceLayer, tau_erase


@dataclass(frozen=True, order=True)
class TraceFormula:
    """A diamond sequence; the empty sequence is the top formula."""

    diamonds: tuple[Action, ...] = ()

    def __str__(self) -> str:
        return "".join(f"<{a.name}>" for a in self.diamonds) + "T"


TOP = TraceFormula()


def tracing_formula(alpha: Trace) -> TraceFormula:
    """The formula spelling a trace; the empty trace maps to top."""
    return TraceFormula(tuple(alpha))


def erase_formula(phi: TraceFormula) -> TraceFormula:
    """Drop every silent diamond; the canonical representative of the
    formula's equivalence class."""
    return TraceFormula(tau_erase(phi.diamonds))


def formula_sort_key(psi: TraceDistFormula):
    return tuple(
        (tuple(a.name for a in phi.diamonds), weight) for phi, weight in psi.items_sorted
    )


def mimicking_formulas(
    pts: PTS,
    process: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> list[TraceDistFormula]:
    """The distinct (weak) mimicking formulae of the process's resolutions,
    in order of first occurrence.  ``tracing_formula`` is injective, so they
    are the distinct trace distributions pushed forward through it.  The
    layer decodes each trace id once, so all the formulae share one
    ``TraceFormula`` object per trace."""
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    [(_, rows)] = layer.distinct(weak)
    return layer.decode(rows, tracing_formula)


def mimicking_pairs(
    layer: TraceLayer, rows: Rows
) -> tuple[dict[int, tuple[str, ...]], list[list[tuple[int, int]]]]:
    """``(names, formulas)``: the mimicking formulae of ``rows``, a root's
    rows of ``layer`` such as ``layer.distinct(weak)`` hands them, each as
    its ``(trace id, weight)`` pairs over ``layer.den`` in display order,
    and the action names of every trace id they list.

    The display order is ``items_descending`` of the formulae that
    ``mimicking_formulas`` decodes: ``TraceFormula`` and ``Action`` compare
    by names, so it is each trace's name tuple, descending.  Each trace id
    is spelled and ranked once."""
    names = {k: tuple(a.name for a in layer.trace(k)) for k in set().union(*rows)}
    rank = {k: i for i, k in enumerate(sorted(names, key=names.__getitem__, reverse=True))}
    by_rank = rank.__getitem__
    return names, [[(k, row[k]) for k in sorted(row, key=by_rank)] for row in rows]


def formula_query(
    pts: PTS,
    process: ProcessId,
    psi: TraceDistFormula,
    weak: bool,
    max_resolutions: int,
) -> tuple[TraceLayer, list[dict], int, dict]:
    """``(layer, rows, psi_den, row)``: the layer rooted at the process,
    the process's (weak) rows over ``layer.den``, and ``psi`` read as a
    distribution over (weakly: tau-erased) traces, as a row of that layer
    over ``psi_den``, the least common denominator of its weights.

    The rows are built first, as their build fills the trie that ``find``
    reads.  Every trace the process does not show gets the one key -1,
    which no row holds, so their weights are merged under it."""
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    rows = layer.entries(process, weak)
    psi_den = math.lcm(*(w.denominator for _, w in psi.items_sorted))
    row: dict = {}
    for phi, weight in psi.items_sorted:
        key = layer.find(tau_erase(phi.diamonds) if weak else phi.diamonds)
        if key is None:
            key = -1
        row[key] = row.get(key, 0) + weight.numerator * (psi_den // weight.denominator)
    return layer, rows, psi_den, row


def satisfied_set(
    pts: PTS,
    process: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> list[TraceDistFormula]:
    """All distribution formulae the process satisfies, in a canonical
    order: its distinct mimicking formulae, the halting resolution's being
    the top formula."""
    return sorted(mimicking_formulas(pts, process, False, max_resolutions), key=formula_sort_key)


def satisfies(
    pts: PTS,
    process: ProcessId,
    psi: TraceDistFormula,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
    weak: bool = False,
) -> tuple[bool, Resolution | None]:
    """Whether some resolution satisfies ``psi``, with the first such one.

    A resolution satisfies ``psi`` when, for every listed formula, its
    maximal runs spelling that formula's trace carry exactly the listed
    weight; the weights sum to 1, so this says that its trace distribution
    is ``psi`` read as a distribution over traces.  Weakly, both sides are
    compared up to erasure of silent steps: the resolution's mimicking
    formula is equivalent to ``psi`` up to erasure of silent diamonds.
    """
    if not psi.is_probability:
        raise ValueError("formula weights must sum to 1")
    layer, rows, psi_den, psi_row = formula_query(pts, process, psi, weak, max_resolutions)
    # psi is scaled to the layer's denominator, so no row is rescaled.  A
    # trace the process never shows, or a weight (weakly: after merging)
    # that is not a multiple of 1/layer.den, rules out every resolution.
    wanted = {}
    for key, w in psi_row.items():
        scaled, rest = divmod(w * layer.den, psi_den)
        if rest or key < 0:
            return False, None
        wanted[key] = scaled
    for index, row in enumerate(rows):
        if row == wanted:
            return True, layer.resolution(process, index)
    return False, None
