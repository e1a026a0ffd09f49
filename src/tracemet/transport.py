"""Exact optimal transport under 0/1 ground costs, and its Hausdorff lifting.

The ground cost is 0/1: on the items themselves, or, given an idempotent
canonicalizing function ``canonical``, on its classes (items are free to
move within a class, cost 1 across classes).  Either way the optimal
transport cost between two distributions is the total variation (TV)
distance between the canonicalized distributions, so the function is the
whole description of the cost.  ``kantorovich_01`` is that definition on
two ``Dist``s: one minus the mass they share once both are pushed through
``canonical``.

The kernel below computes the same distance on integer rows, for every
set-level caller: the trace metrics, the logical distance and the
sup-value distance.  A row is a dict from small-int keys to int weights,
and a set of rows shares one denominator ``total``, so the inner loops run
on Python ints and each result becomes one ``Fraction`` at the end.
``hausdorff_rows`` is the max-min and ``nearest_distances`` the exact
distance from each row of one set to its nearest row of another.  The
kernel takes its callers' denominator as given: the trace layer
(``traces.TraceLayer``) hands its roots' rows over ``TraceLayer.den``.

The max-min takes each side as a ``Side``: a dict from each distinct
row's key to the index where the row first occurs, and those rows, both in
that order.  Dropping repeated rows leaves every max-min unchanged, and the
max-min returns its witness as first indices.  The keys of two sides are of
one kind, and two keys are equal exactly when their rows are.  The trace
layer keys the rows it builds itself (``TraceLayer.distinct``): each key is
an exact int composed from its parts' keys, so its sides reach the max-min
with no row's items hashed.  ``distinct_rows`` keys any other rows, the
formula route's satisfied sets, by ``frozenset(row.items())``.  The max-min
indexes each side twice: by whole row, through those keys, so a row that
also occurs on the other side is at distance 0 without a scan, and by
trace key, so rows with disjoint supports (distance 1) are never
compared.  It stops scanning a row as soon as the row can no longer change
the value or the witness, and before scanning it first tries the row at
the same position on the other side, which on two processes of similar
shape usually ends the row at once (the early break with a good first
candidate of Taha and Hanbury, "An efficient algorithm for calculating the
exact Hausdorff distance", IEEE TPAMI 2015).

The max-min also returns a certificate of its value D: the column it
paired each row with, always within D since every running bound is at most
D, and the row whose nearest distance is exactly D.  ``certifies`` checks
one with a pair distance of its own, the L1 distance (twice the TV
distance): every row within D of its column proves that no row is farther
than D from the other set, and one scan of the winning row over the whole
other side proves that one row is exactly D away.  That is one pair per row
plus one row, and it shares neither the postings nor the early breaks of
the max-min (the certifying algorithms of McConnell, Mehlhorn, Näher and
Schweitzer, Computer Science Review 5(2), 2011).  The sup-value route of
``formula_distance`` reports D once the certificate checks.

``nearest_distances`` has no index, no early exit and no hint: it
evaluates every pair, one direction per call.  It is the sup-value route's
fallback where a certificate fails, called once each way.

The references the tests compare the kernel against live in
``tests/oracles.py``: the per-pair Hausdorff lifting over an arbitrary
distance callable, and a min-cost-flow solver over exact rationals that
computes optimal transport plans for any nonnegative ground cost.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .core import Dist

Side = tuple[dict, list[dict]]  # distinct rows: {row key: first index}, the rows
# Each distinct row's column on the other side, for A then for B, then the
# winning row: its side (0 for A, 1 for B) and position.
Certificate = tuple[list[int], list[int], int, int]


def kantorovich_01(p: Dist, q: Dist, canonical: Callable | None = None) -> Fraction:
    """Minimum cost of transporting ``p`` onto ``q`` under the 0/1 ground
    cost on the classes of ``canonical`` (on the items, if it is None).

    Since moving mass within a class is free and across classes costs 1,
    the optimum is the total variation distance between the canonicalized
    distributions: the surplus mass that must cross classes.
    """
    if not p.is_probability or not q.is_probability:
        raise ValueError("total variation requires probability distributions")
    if canonical is not None:
        p, q = p.pushforward(canonical), q.pushforward(canonical)
    return 1 - sum((min(w, q[key]) for key, w in p.items_sorted if key in q), Fraction(0))


def _shared(weights, other: dict) -> int:
    """Mass two rows share: total minus their TV distance.  The scan of
    ``_Index.nearest`` inlines it, which saves a call per pair on the
    max-min's hot loop."""
    shared = 0
    for key, w in weights:
        v = other.get(key)
        if v is not None:
            shared += w if w < v else v
    return shared


def distinct_rows(rows: list[dict]) -> Side:
    """The distinct rows of ``rows`` as a ``Side``: a dict from each
    distinct row's key, ``frozenset(row.items())``, to the index of its
    first occurrence, and those rows, both in order of first index.  For
    rows no trace layer builds; the layer keys its own (``Side``)."""
    first: dict = {}
    for index, row in enumerate(rows):
        first.setdefault(frozenset(row.items()), index)
    return first, [rows[i] for i in first.values()]


class _Index:
    """One side of a max-min pass, given as a ``Side``: its
    distinct rows and their keys, each key's position, each position's
    index in the list before dedup, and for each trace key the positions of
    the rows that carry it."""

    __slots__ = ("rows", "keys", "position", "first", "postings")

    def __init__(self, side: Side):
        first, self.rows = side
        self.keys = list(first)
        self.first = list(first.values())
        self.position = {key: j for j, key in enumerate(self.keys)}
        postings: dict = {}
        for j, row in enumerate(self.rows):
            for key in row:
                postings.setdefault(key, []).append(j)
        self.postings = postings

    def nearest(self, row: dict, key, total: int, stop: int, hint: int) -> tuple[int, int]:
        """TV distance from ``row``, whose whole-row key is ``key``, to its
        nearest row here, in units of ``1/total``, and the first position
        attaining it.

        When ``stop`` is nonnegative the row at ``hint`` is tried first, and
        returned if it is within ``stop``; otherwise the scan below runs
        from scratch.  The scan ends once the nearest distance found is at
        most ``stop``.  Either early answer only bounds the minimum from
        above.  A row sharing no key with ``row`` is at distance ``total``,
        so when no row shares one the answer is ``(total, 0)``.
        """
        weights = row.items()
        if stop >= 0:
            d = total - _shared(weights, self.rows[hint])
            if d <= stop:
                return d, hint
        j = self.position.get(key)
        if j is not None:
            return 0, j
        candidates: set = set()
        for key in row:
            candidates.update(self.postings.get(key, ()))
        best, at = total, 0
        rows = self.rows
        for j in sorted(candidates):
            if best <= stop:
                break
            other = rows[j]
            shared = 0
            for key, w in weights:
                v = other.get(key)
                if v is not None:
                    shared += w if w < v else v
            if total - shared < best:
                best, at = total - shared, j
        return best, at


def _directed(
    side: _Index, index: _Index, total: int, floor: int
) -> tuple[int, int, int, list[int]]:
    """Directed max-min from ``side``'s rows to ``index``: (distance, row, column),
    first row then first column attaining it, then each row's column.  Exact
    when the distance exceeds ``floor``; otherwise only known to be at most
    ``floor``.  Each row's column is within ``max(distance, floor)`` of it.

    Row ``i`` is first compared with the row at the same position on the
    other side (the last one if that side is shorter): callers pass both
    sides in ``resolution_at``'s canonical order, where that position is
    the same scheduler shape, so on a process and a perturbed copy of it
    the pair is usually close enough to end the row at once.
    """
    best, i_at, j_at = -1, 0, 0
    cols: list[int] = []
    last = len(index.rows) - 1
    for i, (row, key) in enumerate(zip(side.rows, side.keys)):
        d, j = index.nearest(row, key, total, max(best, floor), min(i, last))
        cols.append(j)
        if d > best:
            best, i_at, j_at = d, i, j
    return best, i_at, j_at, cols


def hausdorff_rows(side_a: Side, side_b: Side, total: int) -> tuple[int, int, int, Certificate]:
    """Hausdorff max-min of TV distances between two nonempty sets of rows
    over ``total``, each side a ``Side`` (both keyed alike): (distance in
    units of ``1/total``, i, j, certificate).

    The witness (i, j) is the first (max-side, then min-side) pair realizing
    the value, as indices into the lists before dedup; the first set wins
    ties between the two directions.  The certificate indexes the distinct
    rows, for ``certifies``.
    """
    index_a, index_b = _Index(side_a), _Index(side_b)
    d_ab, i_ab, j_ab, cols_a = _directed(index_a, index_b, total, -1)
    # The B->A direction only matters where it beats A->B outright.
    d_ba, j_ba, i_ba, cols_b = _directed(index_b, index_a, total, d_ab)
    if d_ab >= d_ba:
        return d_ab, index_a.first[i_ab], index_b.first[j_ab], (cols_a, cols_b, 0, i_ab)
    return d_ba, index_a.first[i_ba], index_b.first[j_ba], (cols_a, cols_b, 1, j_ba)


def certifies(
    rows_a: list[dict], rows_b: list[dict], total: int, d: int, certificate: Certificate
) -> bool:
    """Whether ``certificate`` proves ``d``, in units of ``1/total``, to be
    the Hausdorff max-min of two lists of distinct rows over ``total``.

    Every row must be within ``d`` of its column, and the winning row's
    nearest row on the other side exactly ``d`` away.  Distances are L1
    distances, twice the TV distance, each over one row's keys: the other
    row's mass ``total``, less what lies on those keys, plus ``|w - v|`` on
    each.  A column or row out of range fails the check.
    """
    cols_a, cols_b, side, at = certificate
    bound = 2 * d
    try:
        for rows, cols, others in ((rows_a, cols_a, rows_b), (rows_b, cols_b, rows_a)):
            if len(cols) != len(rows):
                return False
            for row, j in zip(rows, cols):
                other = others[j]
                l1 = total
                for key, w in row.items():
                    v = other.get(key, 0)
                    l1 += (w - v if w > v else v - w) - v
                if l1 > bound:
                    return False
        weights = (rows_a, rows_b)[side][at].items()
    except IndexError:
        return False
    # Every row is within d of its column, so the max-min is at most d, and
    # exactly d iff no row of the other side is nearer than d to the winner.
    for other in (rows_b, rows_a)[side]:
        l1 = total
        for key, w in weights:
            v = other.get(key, 0)
            l1 += (w - v if w > v else v - w) - v
        if l1 < bound:
            return False
    return True


def nearest_distances(rows: list[dict], others: list[dict], total: int) -> list[int]:
    """Exact TV distance from every row of ``rows`` to its nearest row of
    ``others``, in units of ``1/total``, over every pair."""
    if rows and not others:
        raise ValueError("distance to an empty set is undefined")
    return [total - max(_shared(row.items(), other) for other in others) for row in rows]
