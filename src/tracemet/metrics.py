"""Strong and weak trace metrics and trace equivalences over processes.

The distance between two resolutions is the optimal transport cost between
their trace distributions under the 0/1 cost on traces (weakly: on
tau-erased traces).  Lifting that distance over the full resolution sets
with the Hausdorff max-min gives the metric over processes; its kernel is
the corresponding trace equivalence.  Both read one ``traces.TraceLayer``
per call, rooted at the two processes, in one build, of which the layer
keeps only its trie and tables.  The trace ids of the two sides agree and
their distinct rows come over the layer's ``den``: the metric hands the
sides ``distinct`` returns to the max-min as they are, and reads its
witness as first indices.  The equivalence reads the keys alone
(``distinct_keys``): exact ints, equal exactly when their rows are, each
root's composed from its parts' keys as it is built, so no row of a root
that no other list reads is merged.  No trace or distribution object is
built, and a witness resolution is built only for the pair or the
resolution that is returned, off the layer's resolution-count table.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import PTS, ProcessId
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Resolution
from .traces import TraceLayer
from .transport import hausdorff_rows


@dataclass(frozen=True)
class DedupStats:
    left_before: int
    left_after: int
    right_before: int
    right_after: int


@dataclass(frozen=True)
class MetricResult:
    """A metric value with the attaining resolution pair and dedup counts.

    The value is 0 exactly when the corresponding trace equivalence holds.
    The witness is the first pair (in the canonical order, preferring
    the left process's direction) realizing the Hausdorff max-min.
    """

    value: Fraction
    witness: "tuple[Resolution, Resolution]"
    dedup_stats: DedupStats


def _trace_metric(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    weak: bool,
    max_resolutions: int,
) -> MetricResult:
    layer = TraceLayer(pts, s, t, max_resolutions=max_resolutions)
    side_s, side_t = layer.distinct(weak)
    # Neither list is empty (the halting resolution is always first), so
    # there is always a witness pair, given as first indices.
    d, i, j, _ = hausdorff_rows(side_s, side_t, layer.den)
    witness = (layer.resolution(s, i), layer.resolution(t, j))
    stats = DedupStats(layer.count(s), len(side_s[1]), layer.count(t), len(side_t[1]))
    return MetricResult(Fraction(d, layer.den), witness, stats)


def strong_trace_metric(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> MetricResult:
    """Hausdorff lifting of the resolution distance over the two resolution
    sets.  Deduplicating resolutions by trace distribution first is
    value-preserving because the distance only reads the distributions."""
    return _trace_metric(pts, s, t, False, max_resolutions)


def weak_trace_metric(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> MetricResult:
    """Weak variant: distances and dedup both act on tau-erased trace
    distributions."""
    return _trace_metric(pts, s, t, True, max_resolutions)


def strong_trace_equivalent(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> bool:
    """Two-sided matching of resolutions on all run probabilities.

    A resolution's profile maps every trace it can show to the total
    probability of its compatible runs; two resolutions match exactly when
    their profiles agree (traces outside both profiles carry 0 on both
    sides).  The two-sided exists-matching then collapses to equality of the
    two profile sets, that is, of the two trace-distribution sets.
    """
    return find_distinguishing_resolution(pts, s, t, False, max_resolutions) is None


def weak_trace_equivalent(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> bool:
    """Same matching on tau-erased traces, with prefix-maximal run mass."""
    return find_distinguishing_resolution(pts, s, t, True, max_resolutions) is None


def find_distinguishing_resolution(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> "tuple[ProcessId, Resolution] | None":
    """A resolution of one process that no resolution of the other matches,
    or None when the processes are equivalent.

    Two resolutions match when their (weak) trace distributions are equal:
    a resolution's run-probability profile is a prefix sum of its (weak)
    trace distribution, and the sum can be inverted.  The first unmatched
    resolution of ``s`` comes first, then that of ``t``: the first index of
    the first distinct row key the other side lacks.  Only it is built.
    """
    layer = TraceLayer(pts, s, t, max_resolutions=max_resolutions)
    first_s, first_t = layer.distinct_keys(weak)
    for p, first, others in ((s, first_s, first_t), (t, first_t, first_s)):
        for key, index in first.items():
            if key not in others:
                return p, layer.resolution(p, index)
    return None
