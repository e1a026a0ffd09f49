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
distinct rows.  ``formula_query`` is the one reading of a formula against
a process, shared by ``satisfies`` and ``formula_distance.real_value``: it
builds the layer and the process's entries, then looks the formula's
traces up in the layer's trie.  Only the returned formulae are decoded,
by the layer's ``decode`` spelling each trace through ``tracing_formula``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Action, PTS, ProcessId, TraceDistFormula
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Resolution
from .traces import Entries, Trace, TraceLayer, tau_erase


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
    ``TraceFormula`` object per trace (``cli._formula_json`` relies on it)."""
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    den, [(_, rows)] = layer.distinct(weak)
    return layer.decode(Entries(den, rows), tracing_formula)


def formula_query(
    pts: PTS,
    process: ProcessId,
    psi: TraceDistFormula,
    weak: bool,
    max_resolutions: int,
) -> tuple[TraceLayer, Entries, int, dict]:
    """``(layer, entries, den, row)``: the layer rooted at the process, the
    process's (weak) entries, and ``psi`` read as a distribution over
    (weakly: tau-erased) traces, as a row of that layer over ``den``, the
    least common denominator of its weights.

    The entries are built first, as their build fills the trie that
    ``find`` reads.  A trace the process does not show gets a negative
    key, so it is shared with no row."""
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    entries = layer.entries(process, weak)
    den = math.lcm(*(w.denominator for _, w in psi.items_sorted))
    absent: dict = {}
    row: dict = {}
    for phi, weight in psi.items_sorted:
        trace = tau_erase(phi.diamonds) if weak else phi.diamonds
        key = layer.find(trace)
        if key is None:
            key = absent.setdefault(trace, -1 - len(absent))
        row[key] = row.get(key, 0) + weight.numerator * (den // weight.denominator)
    return layer, entries, den, row


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
    layer, (den, rows), psi_den, psi_row = formula_query(pts, process, psi, weak, max_resolutions)
    # psi is scaled to the rows' denominator, so no row is rescaled.  A
    # trace the process never shows, or a weight (weakly: after merging)
    # that is not a multiple of 1/den, rules out every resolution.
    wanted = {}
    for key, w in psi_row.items():
        scaled, rest = divmod(w * den, psi_den)
        if rest or key < 0:
            return False, None
        wanted[key] = scaled
    for index, row in enumerate(rows):
        if row == wanted:
            return True, layer.resolution(process, index)
    return False, None
