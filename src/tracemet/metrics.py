"""Strong and weak trace metrics and trace equivalences over processes.

The distance between two resolutions is the optimal transport cost between
their trace distributions under the 0/1 cost on traces (weakly: on
tau-erased traces).  Lifting that distance over the full resolution sets
with the Hausdorff max-min gives the metric over processes; its kernel is
the corresponding trace equivalence, which is also implemented directly
from the run-probability matching definitions as an independent route.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import PTS, ProcessId, TraceDistribution
from .resolutions import (
    DEFAULT_MAX_RESOLUTIONS,
    Resolution,
    enumerate_resolutions,
)
from .traces import (
    compatible_probabilities,
    tau_erase,
    trace_distribution,
    weak_compatible_probabilities,
    weak_trace_distribution,
)
from .transport import DISCRETE, DiscreteQuotient, hausdorff_witness, kantorovich_01

WEAK_QUOTIENT = DiscreteQuotient(tau_erase)


def resolution_distance(r1: Resolution, r2: Resolution) -> Fraction:
    """Transport distance between the trace distributions of two resolutions."""
    return kantorovich_01(trace_distribution(r1), trace_distribution(r2), DISCRETE)


def weak_resolution_distance(r1: Resolution, r2: Resolution) -> Fraction:
    """Same, with traces compared up to tau erasure."""
    return kantorovich_01(trace_distribution(r1), trace_distribution(r2), WEAK_QUOTIENT)


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
    The witness is the first pair (in canonical enumeration order, preferring
    the left process's direction) realizing the Hausdorff max-min.
    """

    value: Fraction
    witness: "tuple[Resolution, Resolution] | None"
    dedup_stats: DedupStats


def _dedup_by_distribution(
    resolutions: list[Resolution],
    td_of,
) -> tuple[list[Resolution], list[TraceDistribution]]:
    kept: list[Resolution] = []
    dists: list[TraceDistribution] = []
    seen: set[TraceDistribution] = set()
    for resolution in resolutions:
        td = td_of(resolution)
        if td in seen:
            continue
        seen.add(td)
        kept.append(resolution)
        dists.append(td)
    return kept, dists


def _trace_metric(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    td_of,
    max_resolutions: int,
    dedup: bool,
) -> MetricResult:
    res_s = enumerate_resolutions(pts, s, max_resolutions)
    res_t = enumerate_resolutions(pts, t, max_resolutions)
    if dedup:
        kept_s, tds_s = _dedup_by_distribution(res_s, td_of)
        kept_t, tds_t = _dedup_by_distribution(res_t, td_of)
    else:
        kept_s, tds_s = res_s, [td_of(r) for r in res_s]
        kept_t, tds_t = res_t, [td_of(r) for r in res_t]
    value, pair = hausdorff_witness(tds_s, tds_t)
    witness = (kept_s[pair[0]], kept_t[pair[1]]) if pair is not None else None
    stats = DedupStats(len(res_s), len(kept_s), len(res_t), len(kept_t))
    return MetricResult(value, witness, stats)


def strong_trace_metric(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
    dedup: bool = True,
) -> MetricResult:
    """Hausdorff lifting of the resolution distance over the two resolution
    sets.  Deduplicating resolutions by trace distribution first is
    value-preserving because the distance only reads the distributions."""
    return _trace_metric(pts, s, t, trace_distribution, max_resolutions, dedup)


def weak_trace_metric(
    pts: PTS,
    s: ProcessId,
    t: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
    dedup: bool = True,
) -> MetricResult:
    """Weak variant: distances and dedup both act on tau-erased trace
    distributions."""
    return _trace_metric(pts, s, t, weak_trace_distribution, max_resolutions, dedup)


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
    two profile sets.
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

    The first unmatched resolution of ``s`` comes first, then that of ``t``.
    Each side's profiles are computed once, and the scan of ``s`` stops at
    its first unmatched resolution.
    """
    profile_of = weak_compatible_probabilities if weak else compatible_probabilities

    def profile(resolution: Resolution) -> frozenset:
        return frozenset(profile_of(resolution).items())

    # Listing s first makes the size guard name s when both sides exceed it.
    resolutions_s = enumerate_resolutions(pts, s, max_resolutions)
    # The first index of each profile of t, in enumeration order.
    first_t: dict = {}
    for index, resolution in enumerate(enumerate_resolutions(pts, t, max_resolutions)):
        first_t.setdefault(profile(resolution), index)
    profiles_s = set()
    for resolution in resolutions_s:
        found = profile(resolution)
        if found not in first_t:
            return s, resolution
        profiles_s.add(found)
    for found, index in first_t.items():
        if found not in profiles_s:
            return t, enumerate_resolutions(pts, t, max_resolutions)[index]
    return None
