import random
from fractions import Fraction

import pytest

import tracemet as tm
from genpts import random_pts


def test_action_validation():
    assert tm.Action("a'").name == "a'"
    assert tm.TAU.is_tau
    assert not tm.Action("taut").is_tau
    with pytest.raises(ValueError):
        tm.Action("1bad")
    with pytest.raises(ValueError):
        tm.Action("")


class TestDist:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            tm.Dist({"x": 0})
        with pytest.raises(ValueError):
            tm.Dist({"x": Fraction(-1, 2), "y": Fraction(3, 2)})

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            tm.Dist({})

    def test_merged_and_pushforward(self):
        d = tm.Dist.merged([("x", Fraction(1, 3)), ("x", Fraction(1, 3)), ("y", Fraction(1, 3))])
        assert d["x"] == Fraction(2, 3)
        collapsed = d.pushforward(lambda _: "z")
        assert collapsed == tm.Dist.dirac("z")

    def test_equality_and_hash_are_structural(self):
        a = tm.Dist({"x": Fraction(1, 2), "y": Fraction(1, 2)})
        b = tm.Dist({"y": Fraction(2, 4), "x": Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
        assert a.is_probability
        assert not tm.Dist({"x": Fraction(9, 10)}).is_probability

    def test_fraction_weights_are_kept_as_given(self):
        third = Fraction(1, 3)
        assert tm.Dist({"x": third, "y": Fraction(2, 3)})["x"] is third
        assert tm.Dist([("x", third), ("y", Fraction(2, 3))])["x"] is third
        assert tm.Dist.merged([("x", third), ("y", Fraction(2, 3))])["x"] is third
        assert tm.Dist({"x": "1/3", "y": 0.5})["x"] == third  # other weights still convert

    def test_errors_are_the_same_for_mappings_and_pairs(self):
        for bad in ({"x": Fraction(1), "y": Fraction(0)}, {"x": -1}):
            with pytest.raises(ValueError, match="nonpositive weight"):
                tm.Dist(bad)
            with pytest.raises(ValueError, match="nonpositive weight"):
                tm.Dist(list(bad.items()))
        with pytest.raises(ValueError, match="duplicate key"):
            tm.Dist([("x", Fraction(1, 2)), ("x", Fraction(1, 2))])
        # A pair list is checked in order: the nonpositive weight comes first.
        with pytest.raises(ValueError, match="nonpositive weight"):
            tm.Dist([("x", Fraction(1, 2)), ("x", Fraction(0))])
        # merged checks the summed weights.
        assert tm.Dist.merged([("x", Fraction(1)), ("x", Fraction(-1, 2))])["x"] == Fraction(1, 2)


class TestValidate:
    def test_branching_system_is_valid(self, equiv_pair):
        report = tm.validate_pts(equiv_pair)
        assert report.ok and report.errors == ()

    def test_single_terminal_process_is_valid(self):
        pts = tm.PTS(frozenset({"p"}), {})
        assert tm.validate_pts(pts).ok

    def test_bad_weight_sum_is_reported(self):
        pts = tm.PTS.build({"s": [("a", {"s1": Fraction(1, 2), "s2": Fraction(2, 5)})]})
        report = tm.validate_pts(pts)
        assert not report.ok
        assert any("weights sum to 9/10 != 1" in msg for _, msg in report.errors)

    def test_dangling_reference_is_reported(self):
        pts = tm.PTS(
            frozenset({"s"}),
            {"s": (tm.Transition(tm.Action("a"), tm.Dist.dirac("ghost")),)},
        )
        report = tm.validate_pts(pts)
        assert any("undeclared process 'ghost'" in msg for _, msg in report.errors)

    def test_cycle_is_reported_with_witness(self):
        pts = tm.PTS.build(
            {
                "a": [("go", {"b": 1})],
                "b": [("go", {"c": 1})],
                "c": [("go", {"a": 1})],
            }
        )
        report = tm.validate_pts(pts)
        cycle_msgs = [msg for _, msg in report.errors if "cycle" in msg]
        assert cycle_msgs and "->" in cycle_msgs[0]

    def test_duplicate_transition_warns(self):
        row = ("a", {"u": Fraction(1)})
        pts = tm.PTS.build({"s": [row, row]})
        report = tm.validate_pts(pts)
        assert report.ok
        assert any("duplicate transition" in msg for _, msg in report.warnings)

    def test_undeclared_source_is_reported(self):
        pts = tm.PTS(
            frozenset({"u"}),
            {"ghost": (tm.Transition(tm.Action("a"), tm.Dist.dirac("u")),)},
        )
        report = tm.validate_pts(pts)
        assert any("not a declared process" in msg for _, msg in report.errors)

    def test_validation_is_pure(self, half_pair):
        assert tm.validate_pts(half_pair) == tm.validate_pts(half_pair)


class TestQueries:
    def test_enabled_actions(self, equiv_pair):
        assert tm.enabled_actions(equiv_pair, "s") == {tm.Action("a")}
        assert tm.enabled_actions(equiv_pair, "s1") == {tm.Action("b"), tm.Action("c")}
        assert tm.enabled_actions(equiv_pair, "nil") == frozenset()
        with pytest.raises(ValueError):
            tm.enabled_actions(equiv_pair, "nope")

    def test_depth(self, equiv_pair, half_pair):
        assert tm.depth(equiv_pair, "s") == 2
        assert tm.depth(equiv_pair, "nil") == 0
        assert tm.depth(half_pair, "t") == _depth_by_path_enumeration(half_pair, "t")
        assert tm.depth(half_pair, "t") == 2
        with pytest.raises(ValueError):
            tm.depth(equiv_pair, "nope")

    def test_depth_rejects_cycles(self):
        pts = tm.PTS.build({"a": [("go", {"b": 1})], "b": [("go", {"a": 1})]})
        with pytest.raises(ValueError, match="cycle"):
            tm.depth(pts, "a")

    def test_depth_zero_iff_no_actions(self):
        rng = random.Random(7)
        for _ in range(30):
            pts = random_pts(rng)
            for p in sorted(pts.processes):
                assert (tm.depth(pts, p) == 0) == (not tm.enabled_actions(pts, p))

    def test_reachability_is_closed_under_supports(self):
        rng = random.Random(8)
        for _ in range(30):
            pts = random_pts(rng)
            seen = tm.reachable(pts, "p0")
            for p in seen:
                for row in pts.transitions_of(p):
                    assert set(row.target.support) <= seen


def _depth_by_path_enumeration(pts: tm.PTS, process: str) -> int:
    # Independent oracle: walk every path and keep the longest length.
    best = 0
    stack = [(process, 0)]
    while stack:
        p, length = stack.pop()
        best = max(best, length)
        for row in pts.transitions_of(p):
            for q in row.target.support:
                stack.append((q, length + 1))
    return best
