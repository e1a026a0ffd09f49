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
real-valued semantics.  A row is a dict from small-int keys to int
weights, and a set of rows shares one denominator ``total``, so the inner
loops run on Python ints and each result becomes one ``Fraction`` at the
end.  ``hausdorff_rows`` is the max-min and ``nearest_distances`` the
exact nearest-row distances of two sets in both directions.  The trace
layer (``traces.TraceLayer``) hands its roots' rows to the kernel
directly, over one common denominator; ``on_common_denominator`` is the
one scaler of rows to one, for the layer's roots and for ``real_value``'s
formula row and process list.

The max-min indexes each side twice: by whole row, so a row that also
occurs on the other side is at distance 0 without a scan, and by key, so
rows with disjoint supports (distance 1) are never compared.  It stops
scanning a row as soon as the row can no longer change the value or the
witness, and before scanning it first tries the row at the same position
on the other side, which on two processes of similar shape usually ends
the row at once (the early break with a good first candidate of Taha and
Hanbury, "An efficient algorithm for calculating the exact Hausdorff
distance", IEEE TPAMI 2015).

``nearest_distances`` has no early exit and no hint: one sweep evaluates
every pair of rows that share a key once and lowers both rows' minima with
it.  The sup-value route of ``formula_distance`` reads it, so that route
computes every candidate's exact distance to both sets and shares no
max-min with the metric and the logical distance it is checked against.

The references the tests compare the kernel against live in
``tests/oracles.py``: the per-pair Hausdorff lifting over an arbitrary
distance callable, and a min-cost-flow solver over exact rationals that
computes optimal transport plans for any nonnegative ground cost.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .core import Dist


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


def _postings(rows: list[dict]) -> dict:
    """For each key, the indices of the rows that carry it."""
    postings: dict = {}
    for j, row in enumerate(rows):
        for key in row:
            postings.setdefault(key, []).append(j)
    return postings


def _shared(weights, other: dict) -> int:
    """Mass two rows share: total minus their TV distance.  The per-pair
    loops of ``_Index.nearest`` and ``nearest_distances`` inline it, which
    saves a call per pair: about 15% of the sup-value sweep of a ladder(4)
    ``crosscheck``."""
    shared = 0
    for key, w in weights:
        v = other.get(key)
        if v is not None:
            shared += w if w < v else v
    return shared


class _Index:
    """One side of a max-min pass: its integer rows, the first index of
    each distinct row, and for each key the indices of the rows that
    carry it."""

    __slots__ = ("rows", "first", "postings")

    def __init__(self, rows: list[dict]):
        self.rows = rows
        self.first: dict = {}
        for j, row in enumerate(rows):
            self.first.setdefault(frozenset(row.items()), j)
        self.postings = _postings(rows)

    def nearest(self, row: dict, total: int, stop: int, hint: int) -> tuple[int, int]:
        """TV distance from ``row`` to its nearest row here, in units of
        ``1/total``, and the first index attaining it.

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
        j = self.first.get(frozenset(weights))
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


def _directed(rows: list[dict], index: _Index, total: int, floor: int) -> tuple[int, int, int]:
    """Directed max-min from ``rows`` to ``index``: (distance, row, column),
    first row then first column attaining it.  Exact when the distance
    exceeds ``floor``; otherwise only known to be at most ``floor``.

    Row ``i`` is first compared with the row at the same position on the
    other side (the last one if that side is shorter): callers pass both
    sides in ``resolution_at``'s canonical order, where that position is
    the same scheduler shape, so on a process and a perturbed copy of it
    the pair is usually close enough to end the row at once.
    """
    best, i_at, j_at = -1, 0, 0
    last = len(index.rows) - 1
    for i, row in enumerate(rows):
        d, j = index.nearest(row, total, max(best, floor), min(i, last))
        if d > best:
            best, i_at, j_at = d, i, j
    return best, i_at, j_at


def hausdorff_rows(rows_a: list[dict], rows_b: list[dict], total: int) -> tuple[int, int, int]:
    """Hausdorff max-min of TV distances between two nonempty sets of rows
    over ``total``: (distance in units of ``1/total``, i, j).

    The witness (i, j) is the first (max-side, then min-side) pair in input
    order realizing the value; the first set wins ties between the two
    directions.
    """
    d_ab, i_ab, j_ab = _directed(rows_a, _Index(rows_b), total, -1)
    # The B->A direction only matters where it beats A->B outright.
    d_ba, j_ba, i_ba = _directed(rows_b, _Index(rows_a), total, d_ab)
    if d_ab >= d_ba:
        return d_ab, i_ab, j_ab
    return d_ba, i_ba, j_ba


def nearest_distances(
    rows_a: list[dict], rows_b: list[dict], total: int
) -> tuple[list[int], list[int]]:
    """Exact TV distance from every row of A to its nearest row of B, and
    from every row of B to its nearest row of A, in units of ``1/total``.

    One sweep evaluates each pair of rows sharing a key once, and the
    pair's distance lowers both the A row's and the B row's minimum.  A row
    sharing no key with the other side is at distance ``total``.  No row is
    cut short, not even one with an exact match, since its pairs still
    lower the other side's minima.
    """
    if bool(rows_a) != bool(rows_b):
        raise ValueError("distance to an empty set is undefined")
    postings = _postings(rows_b)
    to_b = [total] * len(rows_a)
    to_a = [total] * len(rows_b)
    for i, row in enumerate(rows_a):
        candidates: set = set()
        for key in row:
            candidates.update(postings.get(key, ()))
        weights = row.items()
        best = total
        for j in candidates:
            other = rows_b[j]
            shared = 0
            for key, w in weights:
                v = other.get(key)
                if v is not None:
                    shared += w if w < v else v
            d = total - shared
            if d < best:
                best = d
            if d < to_a[j]:
                to_a[j] = d
        to_b[i] = best
    return to_b, to_a


def on_common_denominator(*sides: tuple[int, list[dict]]) -> tuple[int, list[list[dict]]]:
    """Rows given as (denominator, rows) per side, such as the layer's
    ``Entries``, scaled to the least common denominator, which is returned
    with them.  A side already over it is returned as it is."""
    total = math.lcm(*(den for den, _ in sides))
    scaled = []
    for den, rows in sides:
        if den != total:
            factor = total // den
            rows = [{k: w * factor for k, w in row.items()} for row in rows]
        scaled.append(rows)
    return total, scaled
