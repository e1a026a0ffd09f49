"""A minimal two-sorted logic over traces, its satisfaction relations and
its real-valued semantics.

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

The real value of a formula at a process is the most mass the formula
shares with one resolution's trace distribution, and the process
satisfies the formula exactly when that value is 1.  Both read the
formula against a ``traces.TraceLayer`` rooted at the process through
``TraceLayer.nearest``, a pruned descent over the process's resolutions
that builds none of their rows: ``real_value`` is the most mass a
resolution shares with the formula, and ``satisfies`` asks only for one
sharing all of it, the first in the canonical order being the witness.
``mimicking_formulas`` decodes the layer's distinct rows into formulae,
its ``decode`` spelling each trace through ``tracing_formula``, for
``satisfied_set`` and library callers.
``mimicking_pairs`` reads the same distinct rows without decoding them:
each formula as ``(trace id, weight)`` pairs over ``layer.den`` in display
order, each trace id spelled once as its action names and ranked once.
``tracemet mimic`` writes both its text and its JSON from those pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    Both sum to 1, so that resolution shares all its mass with ``psi``.
    """
    if not psi.is_probability:
        raise ValueError("formula weights must sum to 1")
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    found = layer.nearest(process, _traces(psi), weak, exact=True)
    if found is None:
        return False, None
    return True, layer.resolution(process, found[0])


def real_value(
    pts: PTS,
    s: ProcessId,
    psi: TraceDistFormula,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> Fraction:
    """How close the process comes to satisfying the formula: one minus the
    distance from the formula to the process's satisfied set.

    The satisfied set is the set of the resolutions' (weak) mimicking
    formulae, the halting resolution's standing for the top formula, so the
    value is the most mass ``psi`` shares with one resolution's (weak)
    trace distribution.
    """
    if not psi.is_probability:
        raise ValueError("total variation requires probability distributions")
    layer = TraceLayer(pts, s, max_resolutions=max_resolutions)
    return layer.nearest(s, _traces(psi), weak)[1]


def _traces(psi: TraceDistFormula) -> list[tuple[Trace, Fraction]]:
    """``psi`` as a distribution over the traces its formulae spell."""
    return [(phi.diamonds, weight) for phi, weight in psi.items_sorted]
