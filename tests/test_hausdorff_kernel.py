"""The integer total-variation kernel against the per-pair oracles.

Every comparison asserts the same value and the same witness pair (first
row, then first column attaining the minimum; the left direction wins
ties), so early exits and index shortcuts can change neither.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from conftest import dist
from genpts import random_case, random_formula

FIRST_LETTER = lambda s: s[0]


def oracle_witness(items_a, items_b, canonical=None):
    return oracles.hausdorff_witness(
        items_a, items_b, lambda x, y: oracles.tv_distance(x, y, canonical)
    )


def assert_matches_oracle(items_a, items_b, canonical=None):
    got = oracles.kernel_hausdorff(items_a, items_b, canonical)
    assert got == oracle_witness(items_a, items_b, canonical)
    return got


def first_of_each(resolutions, td_of):
    kept, dists, seen = [], [], set()
    for r in resolutions:
        td = td_of(r)
        if td not in seen:
            seen.add(td)
            kept.append(r)
            dists.append(td)
    return kept, dists


@pytest.fixture(scope="module")
def cases():
    rng = random.Random(61)
    return [random_case(rng, max_count=40, tau_bias=0.3 if i % 2 else 0.0) for i in range(16)]


class TestResolutionSets:
    @pytest.mark.parametrize("weak", [False, True])
    @pytest.mark.parametrize("dedup", [False, True])
    def test_value_and_witness(self, cases, weak, dedup):
        td_of = tm.weak_trace_distribution if weak else tm.trace_distribution
        metric = tm.weak_trace_metric if weak else tm.strong_trace_metric
        duplicates = 0
        for pts, s, t in cases:
            sides = []
            for p in (s, t):
                res = oracles.enumerate_resolutions(pts, p)
                if dedup:
                    sides.append(first_of_each(res, td_of))
                else:
                    sides.append((res, [td_of(r) for r in res]))
                    duplicates += len(res) - len(set(sides[-1][1]))
            (kept_s, tds_s), (kept_t, tds_t) = sides
            value, pair = oracle_witness(tds_s, tds_t)
            assert oracles.kernel_hausdorff(tds_s, tds_t) == (value, pair)
            # The metric always deduplicates; on the full lists the first
            # index rule picks the same resolutions.
            result = metric(pts, s, t)
            assert result.value == value
            assert result.witness == (kept_s[pair[0]], kept_t[pair[1]])
        if not dedup:
            # Repeated rows exercise the first-index rule of the row index.
            assert duplicates > 0


class TestFormulaSets:
    def test_satisfied_sets(self, cases):
        merged = 0
        for pts, s, t in cases:
            set_s, set_t = tm.satisfied_set(pts, s), tm.satisfied_set(pts, t)
            for canonical in (None, tm.erase_formula):
                assert_matches_oracle(set_s, set_t, canonical)
            weak_classes = {psi.pushforward(tm.erase_formula) for psi in set_s}
            merged += len(set_s) - len(weak_classes)
        # Distinct formulae falling into one weak class do occur.
        assert merged > 0

    def test_distance_to_set(self, cases):
        rng = random.Random(62)
        for pts, s, _ in cases:
            formulas = tm.satisfied_set(pts, s)
            probes = [random_formula(rng, tau_bias=0.3) for _ in range(4)] + formulas[:3]
            for psi in probes:
                for weak in (False, True):
                    canonical = oracles.formula_metric(weak)
                    total, ([query], rows) = oracles.integer_rows(canonical, [psi], formulas)
                    to_set = tm.transport.nearest_distances([query], rows, total)[0]
                    assert Fraction(to_set[0], total) == oracles.distance_to_set(
                        psi, formulas, weak
                    )

    def test_sup_val(self, cases):
        for pts, s, t in cases:
            set_s, set_t = tm.satisfied_set(pts, s), tm.satisfied_set(pts, t)
            for weak in (False, True):
                assert tm.sup_val_distance(pts, s, t, weak) == oracles.sup_val_over(
                    set_s, set_t, weak
                )

    def test_sup_val_rejects_one_empty_set(self):
        sup_val = tm.formula_distance._sup_val_value
        with pytest.raises(ValueError):
            sup_val([{0: 1}], [], 1)
        assert sup_val([], [], 1) == 0


class TestHandBuilt:
    def test_empty_sides(self):
        # The kernel takes no convention for an empty side: two empty sets
        # have no rows to compare, and one empty side is rejected.
        total, (one,) = oracles.integer_rows(None, [dist({"x": 1})])
        assert tm.transport.nearest_distances([], [], total) == ([], [])
        with pytest.raises(ValueError, match="empty"):
            tm.transport.nearest_distances(one, [], total)
        with pytest.raises(ValueError, match="empty"):
            tm.transport.nearest_distances([], one, total)

    def test_identical_sets(self):
        items = [dist({"x": "1/3", "y": "2/3"}), dist({"x": 1}), dist({"x": "1/3", "y": "2/3"})]
        assert assert_matches_oracle(items, items) == (0, (0, 0))

    def test_disjoint_supports(self):
        a = [dist({"x": 1}), dist({"y": "1/2", "z": "1/2"})]
        b = [dist({"u": "1/4", "v": "3/4"}), dist({"w": 1})]
        assert assert_matches_oracle(a, b) == (1, (0, 0))

    def test_left_direction_wins_a_tie(self):
        # Both directions reach 1: A->B at (1, 0), B->A at (0, 1).
        a = [dist({"x": 1}), dist({"z": 1})]
        b = [dist({"x": 1}), dist({"y": 1})]
        assert assert_matches_oracle(a, b) == (1, (1, 0))
        assert assert_matches_oracle(b, a) == (1, (1, 0))

    def test_first_of_several_argmin_columns(self):
        # The row of x is 1/2 from columns 1 and 2; B->A also reaches 1/2.
        a = [dist({"y": 1}), dist({"x": 1})]
        b = [dist({"y": 1}), dist({"x": "1/2", "y": "1/2"}), dist({"x": "1/2", "w": "1/2"})]
        assert assert_matches_oracle(a, b) == (Fraction(1, 2), (1, 1))
        # The right side wins outright, at its first row farthest from [x].
        c = [dist({"x": "1/2", "y": "1/2"}), dist({"y": 1}), dist({"z": 1})]
        assert assert_matches_oracle([dist({"x": 1})], c) == (1, (0, 1))

    # Each row after the first is compared first with the column at its own
    # position (the last column when the other side is shorter); the three
    # cases below are where that first comparison could leak into the
    # witness.

    def test_hinted_column_ties_an_earlier_one(self):
        # Row 1 is 1/2 from its hinted column 1 and from column 0, and the
        # hint does not end it (the max so far is 0): the witness is column 0.
        a = [dist({"y": 1}), dist({"x": "1/2", "y": "1/2"})]
        b = [dist({"x": "1/2", "z": "1/2"}), dist({"x": "1/2", "w": "1/2"}), dist({"y": 1})]
        assert assert_matches_oracle(a, b) == (Fraction(1, 2), (1, 0))

    def test_hinted_column_shares_no_key(self):
        # Row 2 shares no key with any column, its hinted column 2
        # included: the witness column is 0, not the hint.
        a = [dist({"x": 1}), dist({"y": 1}), dist({"z": 1})]
        b = [dist({"x": 1}), dist({"y": 1}), dist({"w": 1})]
        assert assert_matches_oracle(a, b) == (1, (2, 0))

    def test_hint_clamped_to_the_shorter_side(self):
        # Row 2 has no column 2; its hint is the last column, at distance 1,
        # and the scan finds column 0 at 1/2.
        a = [dist({"x": 1}), dist({"y": 1}), dist({"x": "1/2", "z": "1/2"})]
        b = [dist({"x": 1}), dist({"y": 1})]
        assert assert_matches_oracle(a, b) == (Fraction(1, 2), (2, 0))
        assert assert_matches_oracle(b, a) == (Fraction(1, 2), (0, 2))

    def test_quotient_classes(self):
        a = [dist({"a0": "1/2", "b0": "1/2"})]
        b = [dist({"a1": "1/2", "b1": "1/2"}), dist({"a0": 1})]
        assert assert_matches_oracle(a, b, FIRST_LETTER) == (Fraction(1, 2), (0, 1))

    def test_rejects_non_distributions(self):
        with pytest.raises(ValueError, match="probability"):
            tm.kantorovich_01(tm.Dist({"x": Fraction(1, 2)}), dist({"x": 1}))


@st.composite
def distributions(draw, alphabet=("a0", "a1", "b0", "b1")):
    support = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    return tm.Dist({key: Fraction(w, total) for key, w in zip(support, weights)})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(distributions(), min_size=1, max_size=6),
    st.lists(distributions(), min_size=1, max_size=6),
    st.sampled_from([None, FIRST_LETTER]),
)
def test_property_matches_oracle(items_a, items_b, canonical):
    assert_matches_oracle(items_a, items_b, canonical)
    queries = items_a + items_b
    total, (query_rows, rows_b) = oracles.integer_rows(canonical, queries, items_b)
    to_b, _ = tm.transport.nearest_distances(query_rows, rows_b, total)
    assert [Fraction(d, total) for d in to_b] == [
        min(oracles.tv_distance(q, y, canonical) for y in items_b) for q in queries
    ]


def test_distinguishing_resolution_matches_two_scans(cases):
    for pts, s, t in cases:
        for weak in (False, True):
            found = tm.find_distinguishing_resolution(pts, s, t, weak)
            assert found == oracles.distinguishing_resolution(pts, s, t, weak)
            check = tm.weak_trace_equivalent if weak else tm.strong_trace_equivalent
            assert check(pts, s, t) == (found is None)


def test_distinguishing_resolution_is_first_of_a_repeated_profile():
    # Every resolution of s is matched; t's c-steps through u and w show one
    # unmatched profile, and the one through u comes first.
    pts = tm.parse_pts("s -b-> 1 nil\nt -b-> 1 nil\nt -c-> 1 u\nt -c-> 1 w\n")
    side, resolution = tm.find_distinguishing_resolution(pts, "s", "t")
    assert side == "t"
    assert resolution == oracles.make_resolution(pts, "t", (1, {}))
    assert (side, resolution) == oracles.distinguishing_resolution(pts, "s", "t")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([None, FIRST_LETTER]))
def test_permuted_side_never_changes_value_or_witness(data, canonical):
    # The max-min tries each row's same-position column first.  Sharing
    # rows between the sides and permuting one of them makes that hint
    # anything from an exact match to the farthest column; the lengths
    # differ, so some hints are clamped.
    n_a = data.draw(st.integers(1, 7))
    n_b = data.draw(st.integers(1, 7).filter(lambda n: n != n_a))
    items_a = data.draw(st.lists(distributions(), min_size=n_a, max_size=n_a))
    shared = data.draw(st.integers(0, min(n_a, n_b)))
    extra = data.draw(st.lists(distributions(), min_size=n_b - shared, max_size=n_b - shared))
    items_b = data.draw(st.permutations(items_a[:shared] + extra))
    for left, right in ((items_a, items_b), (items_b, items_a)):
        total, (rows_l, rows_r) = oracles.integer_rows(canonical, left, right)
        d, i, j = tm.transport.hausdorff_rows(rows_l, rows_r, total)
        assert (Fraction(d, total), (i, j)) == oracle_witness(left, right, canonical)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans(), st.sampled_from([None, FIRST_LETTER]))
def test_nearest_distances_both_directions(data, disjoint, canonical):
    items_a = data.draw(st.lists(distributions(), min_size=1, max_size=6))
    # Keys starting with c or d never occur on the left side.
    alphabet = ("c0", "c1", "d0", "d1") if disjoint else ("a0", "a1", "c0", "c1")
    items_b = data.draw(st.lists(distributions(alphabet), min_size=1, max_size=6))
    if not disjoint:
        # A row on both sides is at distance 0, but its other pairs still
        # lower the minima of the rows it is compared with.
        repeated = data.draw(st.lists(st.sampled_from(items_a), max_size=3))
        items_b = data.draw(st.permutations(items_b + repeated))
    total, (rows_a, rows_b) = oracles.integer_rows(canonical, items_a, items_b)
    to_b, to_a = tm.transport.nearest_distances(rows_a, rows_b, total)
    assert [Fraction(d, total) for d in to_b] == [
        min(oracles.tv_distance(x, y, canonical) for y in items_b) for x in items_a
    ]
    assert [Fraction(d, total) for d in to_a] == [
        min(oracles.tv_distance(y, x, canonical) for x in items_a) for y in items_b
    ]
    if disjoint:
        assert set(to_b) == set(to_a) == {total}
