import random
import tracemalloc

import pytest

import oracles
import tracemet as tm
from genpts import random_case
from tracemet.core import post_order


def _count_by_product_formula(pts: tm.PTS, process: str) -> int:
    # Halt, plus per transition the product of the sub-counts of its targets.
    total = 1
    for row in pts.transitions_of(process):
        combo = 1
        for q in row.target.support:
            combo *= _count_by_product_formula(pts, q)
        total += combo
    return total


def test_deep_chain_is_counted_without_recursion():
    # c_i -a-> 1 c_{i+1}: far deeper than Python's recursion limit.
    pts = tm.PTS.build({f"c{i}": [("a", {f"c{i + 1}": 1})] for i in range(3000)})
    assert tm.count_resolutions(pts, "c0") == 3001
    assert len(post_order(pts, "c0")) == 3001


def test_deep_chain_resolution_is_linear_in_its_depth():
    # Nodes link to their parents instead of carrying their paths, so the
    # deepest resolution of a 3000-step chain, built and read, stays small
    # (about 37 MB when every node held its whole path).
    pts = tm.PTS.build({f"c{i}": [("a", {f"c{i + 1}": 1})] for i in range(3000)})
    tracemalloc.start()
    try:
        resolution = tm.resolution_at(pts, "c0", 3000)
        td = tm.trace_distribution(resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert td == tm.Dist.dirac((tm.Action("a"),) * 3000)
    assert len(resolution.nodes) == 3001


class TestEnumeration:
    def test_terminal_process_has_only_trivial_resolution(self):
        pts = tm.parse_pts("s -a-> 1 u")
        (only,) = oracles.enumerate_resolutions(pts, "u")
        assert only.nodes == ((None, "u", None),)
        assert tm.count_resolutions(pts, "u") == 1

    def test_depicted_schedulers_are_enumerated(self, equiv_pair):
        found = oracles.enumerate_resolutions(equiv_pair, "t")
        depicted = [
            oracles.make_resolution(equiv_pair, "t", (0, {"t1": None, "t2": (1, {})})),
            oracles.make_resolution(equiv_pair, "t", (0, {"t1": (0, {}), "t2": (1, {})})),
            oracles.make_resolution(equiv_pair, "t", (0, {"t1": (1, {}), "t2": (1, {})})),
            oracles.make_resolution(equiv_pair, "t", (0, {"t1": (0, {}), "t2": (0, {})})),
        ]
        for wanted in depicted:
            assert wanted in found

    def test_counts_on_fixtures(self, equiv_pair, half_pair):
        # Frozen values computed with the product formula by hand:
        # deferred t: 1 + 3*3; branching s (three a-branches): 1 + 3*2 + 3*2 + 2.
        assert tm.count_resolutions(half_pair, "t") == 10
        assert tm.count_resolutions(half_pair, "s") == 9
        assert tm.count_resolutions(equiv_pair, "s") == 15
        for pts, p in ((half_pair, "t"), (half_pair, "s"), (equiv_pair, "s")):
            assert len(oracles.enumerate_resolutions(pts, p)) == tm.count_resolutions(pts, p)

    def test_count_matches_enumeration_on_random_systems(self):
        rng = random.Random(21)
        for _ in range(25):
            pts, s, t = random_case(rng, max_count=200)
            for p in (s, t):
                found = oracles.enumerate_resolutions(pts, p)
                assert len(found) == tm.count_resolutions(pts, p)
                assert len(found) == _count_by_product_formula(pts, p)

    def test_no_duplicates_and_all_valid(self):
        rng = random.Random(22)
        for _ in range(15):
            pts, s, _ = random_case(rng, max_count=150)
            found = oracles.enumerate_resolutions(pts, s)
            assert len({r.nodes for r in found}) == len(found)
            assert all(oracles.validate_resolution(pts, r) for r in found)

    def test_trivial_resolution_always_present(self):
        rng = random.Random(23)
        for _ in range(10):
            pts, s, _ = random_case(rng, max_count=150)
            found = oracles.enumerate_resolutions(pts, s)
            assert found[0].nodes == ((None, s, None),)

    def test_shared_target_is_scheduled_per_visit(self):
        # One process reached along both branches of a distribution unfolds
        # into two distinct nodes, and a scheduler may treat them differently.
        pts = tm.parse_pts(
            "p -a-> 1/2 q1, 1/2 q2\nq1 -c-> 1 r\nq2 -d-> 1 r\nr -e-> 1 nil"
        )
        found = oracles.enumerate_resolutions(pts, "p")
        assert len(found) == tm.count_resolutions(pts, "p") == 10
        mixed = [
            x
            for x in found
            if any(p == "r" and c is None for _, p, c in x.nodes)
            and any(p == "r" and c == 0 for _, p, c in x.nodes)
        ]
        assert len(mixed) == 2

    def test_enumeration_order_is_stable(self, half_pair):
        first = oracles.enumerate_resolutions(half_pair, "t")
        second = oracles.enumerate_resolutions(half_pair, "t")
        assert first == second

    def test_size_guard(self, half_pair):
        with pytest.raises(tm.SizeGuardExceeded) as err:
            oracles.enumerate_resolutions(half_pair, "t", max_resolutions=5)
        assert err.value.count == 10 and err.value.limit == 5


class TestValidateResolution:
    def test_enumerated_resolutions_validate(self, half_pair):
        for r in oracles.enumerate_resolutions(half_pair, "s"):
            assert oracles.validate_resolution(half_pair, r)

    def test_depicted_halting_scheduler_validates(self, equiv_pair):
        # Root takes the first a-branch, s1 halts although it could move,
        # s2 takes its d-transition.
        z = oracles.make_resolution(equiv_pair, "s", (0, {"s1": None, "s2": (0, {})}))
        assert oracles.validate_resolution(equiv_pair, z)

    def test_hand_written_nodes_validate(self, half_pair):
        # s takes its first a-branch; s1 takes c to nil, s2 halts.
        nodes = ((None, "s", 0), (0, "s1", 1), (1, "nil", None), (0, "s2", None))
        assert oracles.validate_resolution(half_pair, tm.Resolution(half_pair, nodes))

    def test_out_of_range_index_is_rejected(self, half_pair):
        bogus = tm.Resolution(half_pair, ((None, "s", 7),))
        assert not oracles.validate_resolution(half_pair, bogus)

    def test_missing_child_is_rejected(self, half_pair):
        partial = tm.Resolution(half_pair, ((None, "s", 1),))  # child for s3 missing
        assert not oracles.validate_resolution(half_pair, partial)

    def test_extra_child_is_rejected(self, half_pair):
        # s3 is the target of s's other transition, not of the one taken.
        nodes = ((None, "s", 0), (0, "s1", None), (0, "s2", None), (0, "s3", None))
        assert not oracles.validate_resolution(half_pair, tm.Resolution(half_pair, nodes))

    def test_junk_node_is_rejected(self, half_pair):
        # A child of the halting root, on a path of t's.
        bogus = tm.Resolution(half_pair, ((None, "s", None), (0, "t1", None)))
        assert not oracles.validate_resolution(half_pair, bogus)

    @pytest.mark.parametrize("nodes", [
        ((None, "s", 0), (2, "s1", None), (0, "s2", None)),  # a later parent
        ((None, "s", 0), (None, "s1", None), (0, "s2", None)),  # a second root
        ((None, "s", 0), (0, "s1", None), (0, "s1", None), (0, "s2", None)),  # a repeat
    ])
    def test_bad_parent_is_rejected(self, half_pair, nodes):
        assert not oracles.validate_resolution(half_pair, tm.Resolution(half_pair, nodes))

    def test_nodes_out_of_path_order_are_rejected(self, half_pair):
        nodes = ((None, "s", 0), (0, "s2", None), (0, "s1", None))
        assert not oracles.validate_resolution(half_pair, tm.Resolution(half_pair, nodes))

    def test_unknown_root_is_rejected(self, half_pair):
        bogus = tm.Resolution(half_pair, ((None, "zz", None),))
        assert not oracles.validate_resolution(half_pair, bogus)


class TestMakeResolution:
    def test_bad_index_raises(self, half_pair):
        with pytest.raises(ValueError, match="out of range"):
            oracles.make_resolution(half_pair, "s", (5, {}))

    def test_unknown_kid_raises(self, half_pair):
        with pytest.raises(ValueError, match="non-targets"):
            oracles.make_resolution(half_pair, "s", (0, {"t1": None}))
