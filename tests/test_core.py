import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from genpts import random_pts
from tracemet.core import cycle_error, post_order
from tracemet.traces import TraceLayer


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


def _depth(pts: tm.PTS, process: str) -> int:
    # The longest trace any resolution of ``process`` can perform.
    return max(len(trace) for td in tm.trace_distributions(pts, process) for trace in td)


class TestQueries:
    def test_enabled_actions(self, equiv_pair):
        def enabled(p):
            return {row.action for row in equiv_pair.transitions_of(p)}

        assert enabled("s") == {tm.Action("a")}
        assert enabled("s1") == {tm.Action("b"), tm.Action("c")}
        assert enabled("nil") == set()
        with pytest.raises(ValueError):
            enabled("nope")

    def test_depth(self, equiv_pair, half_pair):
        assert _depth(equiv_pair, "s") == 2
        assert _depth(equiv_pair, "nil") == 0
        assert _depth(half_pair, "t") == _depth_by_path_enumeration(half_pair, "t")
        assert _depth(half_pair, "t") == 2
        with pytest.raises(ValueError):
            _depth(equiv_pair, "nope")

    def test_depth_rejects_cycles(self):
        pts = tm.PTS.build({"a": [("go", {"b": 1})], "b": [("go", {"a": 1})]})
        with pytest.raises(ValueError, match="cycle"):
            post_order(pts, "a")
        with pytest.raises(ValueError, match="cycle"):
            _depth(pts, "a")

    def test_depth_zero_iff_no_actions(self):
        rng = random.Random(7)
        for _ in range(30):
            pts = random_pts(rng)
            for p in sorted(pts.processes):
                assert (_depth(pts, p) == 0) == pts.is_terminal(p)
                assert _depth(pts, p) == _depth_by_path_enumeration(pts, p)

    def test_reachability_is_closed_under_supports(self):
        rng = random.Random(8)
        for _ in range(30):
            pts = random_pts(rng)
            seen = set(post_order(pts, "p0"))
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


# The one depth-first search: ``post_order`` over several roots, and
# ``cycle_error`` read off it, against the colouring search it replaced.

def _row(action: str, weights: dict) -> tm.Transition:
    return tm.Transition(tm.Action(action), tm.Dist(weights))


@st.composite
def wired_systems(draw) -> tm.PTS:
    """Systems built without validation: arbitrary back edges and self
    loops, targets that are not declared (g0, g1), and transition lists
    kept for undeclared sources."""
    names = [f"p{i}" for i in range(draw(st.integers(1, 6)))]
    ghosts = ["g0", "g1"]
    sources = names + draw(st.lists(st.sampled_from(ghosts), unique=True, max_size=2))
    transitions = {}
    for src in sources:
        rows = []
        for _ in range(draw(st.integers(0, 2))):
            support = draw(st.lists(st.sampled_from(names + ghosts), min_size=1, max_size=3, unique=True))
            rows.append(_row("a", {q: Fraction(1, len(support)) for q in support}))
        if rows:
            transitions[src] = tuple(rows)
    return tm.PTS(frozenset(names), transitions)


@settings(max_examples=300, deadline=None)
@given(wired_systems())
def test_cycle_error_matches_the_colouring_search(pts):
    cycle = oracles._find_cycle(pts)
    expected = None if cycle is None else (cycle[0], "reachability cycle: " + " -> ".join(cycle))
    assert cycle_error(pts) == expected
    assert (expected in tm.validate_pts(pts).errors) == (expected is not None)
    if expected is None:
        # Every process once, after each of its successors.
        order = post_order(pts, *sorted(pts.processes))
        assert len(order) == len(set(order))
        position = {p: i for i, p in enumerate(order)}
        for p in pts.processes:
            for row in pts.transitions.get(p, ()):
                assert all(position[q] < position[p] for q in row.target.support)


def test_post_order_over_several_roots_continues_one_walk():
    rng = random.Random(11)
    for _ in range(30):
        pts = random_pts(rng, max_states=7)
        roots = sorted(pts.processes)
        rng.shuffle(roots)
        expected: list = []
        for root in roots:
            expected += [p for p in post_order(pts, root) if p not in expected]
        assert post_order(pts, *roots) == expected


# Several cycles each; the message names the first one the search meets.
MANY_CYCLES = tm.PTS.build(
    {
        "m": [("a", {"n": "1/2", "q": "1/2"})],
        "n": [("b", {"o": 1})],
        "o": [("c", {"q": "1/3", "m": "2/3"})],
        "q": [("d", {"r": 1})],
        "r": [("e", {"q": 1})],
        "z": [("f", {"z": 1})],
    }
)
# An undeclared target (ghost) that loops on itself, a self loop at b
# behind a longer cycle, and a cycle not reachable from the first process.
CYCLES_PAST_A_GHOST = tm.PTS(
    frozenset({"a", "b", "c", "d", "e"}),
    {
        "a": (_row("x", {"ghost": 1}),),
        "b": (_row("x", {"d": "1/2", "c": "1/2"}), _row("y", {"b": 1})),
        "c": (_row("x", {"e": 1}),),
        "d": (_row("x", {"b": 1}),),
        "e": (_row("x", {"c": 1}), _row("y", {"a": 1})),
        "ghost": (_row("x", {"ghost": 1}),),
    },
)


def test_cycle_messages_are_pinned():
    assert cycle_error(MANY_CYCLES) == ("m", "reachability cycle: m -> n -> o -> m")
    assert cycle_error(CYCLES_PAST_A_GHOST) == ("c", "reachability cycle: c -> e -> c")
    assert tm.validate_pts(CYCLES_PAST_A_GHOST).errors == (
        ("ghost", "transition source is not a declared process"),
        ("a#0", "reference to undeclared process 'ghost'"),
        ("c", "reachability cycle: c -> e -> c"),
    )
    with pytest.raises(tm.ParseError) as caught:
        tm.parse_pts(tm.print_pts(MANY_CYCLES))
    assert str(caught.value) == "m: reachability cycle: m -> n -> o -> m"
    with pytest.raises(ValueError, match=r"^cycle through 'q'$") as raised:
        post_order(MANY_CYCLES, "q")
    assert raised.value.cycle == ["q", "r", "q"]


# s reaches a target that is not declared; t loops on itself.
GHOST = tm.PTS(
    frozenset({"s", "t"}),
    {"s": (_row("a", {"ghost": 1}),), "t": (_row("b", {"t": 1}),)},
)


class TestUndeclaredTargets:
    def test_listed_with_no_successors(self):
        assert post_order(GHOST, "s") == ["ghost", "s"]
        assert post_order(GHOST, "ghost") == ["ghost"]

    def test_validation_reports_every_error(self):
        assert tm.validate_pts(GHOST).errors == (
            ("s#0", "reference to undeclared process 'ghost'"),
            ("t", "reachability cycle: t -> t"),
        )

    @pytest.mark.parametrize(
        "query",
        [
            lambda: tm.logical_distance(GHOST, "s", "s"),
            lambda: tm.count_resolutions(GHOST, "s"),
            lambda: tm.resolution_at(GHOST, "s", 0),
            lambda: TraceLayer(GHOST, "s").entries("s"),
            lambda: TraceLayer(GHOST, "s").resolution("s", 0),
            lambda: tm.trace_distributions(GHOST, "s", weak=True),
            lambda: tm.strong_trace_metric(GHOST, "s", "s"),
            lambda: tm.weak_trace_equivalent(GHOST, "s", "s"),
            lambda: tm.satisfies(GHOST, "s", oracles.TOP_DIST),
            lambda: tm.mimicking_formulas(GHOST, "s"),
            lambda: tm.crosscheck(GHOST, "s", "s"),
        ],
    )
    def test_queries_name_the_unknown_process(self, query):
        with pytest.raises(ValueError, match=r"^unknown process 'ghost'$"):
            query()
