"""A minimal two-sorted logic over traces and its satisfaction relations.

A *trace formula* is a finite sequence of diamond modalities ending in top;
it denotes a trace shape and is satisfied by a run whose first steps carry
the listed actions.  A *trace distribution formula* is a probability
distribution over pairwise-distinct trace formulae; a process satisfies one
when some resolution realizes every listed formula with exactly the listed
probability mass on its maximal runs.

The *mimicking formula* of a resolution spells out its trace distribution
inside the logic.  The set of formulae a process satisfies is exactly the
top formula together with the mimicking formulae of its resolutions, which
is what makes the satisfied set finitely computable.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .core import Action, Dist, PTS, ProcessId, TraceDistFormula
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Resolution, resolution_at
from .traces import Trace, tau_erase, trace_distributions


@dataclass(frozen=True, order=True)
class TraceFormula:
    """A diamond sequence; the empty sequence is the top formula."""

    diamonds: tuple[Action, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.diamonds)

    def __str__(self) -> str:
        return "".join(f"<{a.name}>" for a in self.diamonds) + "T"


TOP = TraceFormula()
TOP_DIST = Dist.dirac(TOP)


def tracing_formula(alpha: Trace) -> TraceFormula:
    """The formula spelling a trace; the empty trace maps to top."""
    return TraceFormula(tuple(alpha))


def erase_formula(phi: TraceFormula) -> TraceFormula:
    """Drop every silent diamond; the canonical representative of the
    formula's equivalence class."""
    return TraceFormula(tuple(a for a in phi.diamonds if not a.is_tau))


def formulas_weak_equivalent(x: TraceFormula, y: TraceFormula) -> bool:
    return erase_formula(x) == erase_formula(y)


def dist_formulas_weak_equivalent(p: TraceDistFormula, q: TraceDistFormula) -> bool:
    return p.pushforward(erase_formula) == q.pushforward(erase_formula)


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
    are the distinct trace distributions pushed forward through it."""
    dists = trace_distributions(pts, process, weak, max_resolutions)
    return [dist.pushforward(tracing_formula) for dist in dict.fromkeys(dists)]


def formula_set(mimicking: Iterable[TraceDistFormula]) -> list[TraceDistFormula]:
    """Mimicking formulae together with the top formula, deduplicated and
    in the canonical order of a satisfied set."""
    return sorted({TOP_DIST, *mimicking}, key=formula_sort_key)


def satisfied_set(
    pts: PTS,
    process: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> list[TraceDistFormula]:
    """All distribution formulae the process satisfies, deduplicated and in
    a canonical order.  Materialized as the mimicking formulae of its
    resolutions together with the top formula (which the halting scheduler
    already contributes)."""
    return formula_set(mimicking_formulas(pts, process, False, max_resolutions))


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
    if weak:
        wanted = psi.pushforward(lambda phi: tau_erase(phi.diamonds))
    else:
        wanted = psi.pushforward(lambda phi: phi.diamonds)
    dists = trace_distributions(pts, process, weak, max_resolutions)
    for index, dist in enumerate(dists):
        if dist == wanted:
            return True, resolution_at(pts, process, index)
    return False, None
