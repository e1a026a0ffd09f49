"""The shared trace-distribution layer against the per-resolution routes.

``tracemet.trace_distributions`` composes the trace distributions of all
resolutions of a process from those of the processes it reaches, and every
command reads it.  Here its lists are held to the per-resolution
definitions (enumerate, then ``trace_distribution`` of each, and the sum
over each resolution's maximal runs), and each
command's values and witnesses to the routes it replaced: the per-resolution
metric pass, the profile-matching equivalence, the run-scanning ``satisfies``
and the weak satisfaction loop (``tests/oracles.py``).
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from genpts import random_formula, random_pts, with_tau_prefix
from tracemet.core import post_order
from tracemet.traces import TraceLayer

HALF = Fraction(1, 2)


def ladder(levels: int, p: Fraction = Fraction(17, 61)) -> tm.PTS:
    """x_i -a-> 1/2 x_{i+1}, 1/2 y_{i+1} and -b-> 1 x_{i+1}; y_i -c-> 1
    x_{i+1}; w0 is x0 with its a-step split p, 1-p."""
    spec: dict = {}
    for i in range(levels):
        spec[f"x{i}"] = [("a", {f"x{i + 1}": HALF, f"y{i + 1}": HALF}), ("b", {f"x{i + 1}": 1})]
        if i:
            spec[f"y{i}"] = [("c", {f"x{i + 1}": 1})]
    spec["w0"] = [("a", {"x1": p, "y1": 1 - p}), ("b", {"x1": 1})]
    return tm.PTS.build(spec)


def per_resolution(pts: tm.PTS, process: str, weak: bool) -> list:
    td_of = tm.weak_trace_distribution if weak else tm.trace_distribution
    return [td_of(r) for r in oracles.enumerate_resolutions(pts, process)]


def from_runs(pts: tm.PTS, process: str, weak: bool) -> list:
    """Each resolution's (weak) trace distribution summed over its list of
    maximal runs."""
    out = []
    for r in oracles.enumerate_resolutions(pts, process):
        td = tm.Dist.merged((c.actions, c.probability) for c in oracles.max_computations(r))
        out.append(td.pushforward(tm.tau_erase) if weak else td)
    return out


def tau_cases(seed: int, count: int, max_count: int) -> list:
    """Seeded systems with silent steps and a pair (p0, t) to compare: t is
    a copy of p0 (equivalent), p0 behind one silent step (weakly
    equivalent only) or another process, each at most ``max_count``
    resolutions."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = rng.choice(("clone", "tau", "other", "other"))
        pts = random_pts(
            rng, max_states=7, max_layers=4, max_support=3, tau_bias=0.4, clone_root=kind == "clone"
        )
        others = sorted(pts.processes - {"p0", "q0"})
        if kind == "tau":
            pts, t = with_tau_prefix(pts, "p0"), "ptau"
        elif kind == "clone":
            t = "q0"
        elif others:
            t = rng.choice(others)
        else:
            continue
        counts = (tm.count_resolutions(pts, "p0"), tm.count_resolutions(pts, t))
        if max(counts) <= max_count and min(counts) > 1:
            cases.append((pts, "p0", t))
    return cases


# ---------------------------------------------------------------------------
# Old routes: every resolution materialized and read one by one.


def old_metric(pts, s, t, weak: bool, dedup: bool):
    res_s, res_t = oracles.enumerate_resolutions(pts, s), oracles.enumerate_resolutions(pts, t)
    tds_s, tds_t = per_resolution(pts, s, weak), per_resolution(pts, t, weak)
    if dedup:
        keep_s = [i for i, td in enumerate(tds_s) if td not in tds_s[:i]]
        keep_t = [j for j, td in enumerate(tds_t) if td not in tds_t[:j]]
    else:
        keep_s, keep_t = range(len(tds_s)), range(len(tds_t))
    value, (i, j) = oracles.kernel_hausdorff(
        [tds_s[i] for i in keep_s], [tds_t[j] for j in keep_t]
    )
    stats = tm.DedupStats(len(res_s), len(keep_s), len(res_t), len(keep_t))
    return value, (res_s[keep_s[i]], res_t[keep_t[j]]), stats


def old_mimicking_formulas(pts, process, weak: bool) -> list:
    formula_of = oracles.weak_mimicking_formula if weak else oracles.mimicking_formula
    return list(dict.fromkeys(formula_of(r) for r in oracles.enumerate_resolutions(pts, process)))


def old_satisfied_set(pts, process) -> list:
    formulas = {oracles.TOP_DIST} | set(old_mimicking_formulas(pts, process, False))
    return sorted(formulas, key=tm.logic.formula_sort_key)


def tv(weak: bool):
    metric = oracles.formula_metric(weak)
    return lambda p, q: oracles.tv_distance(p, q, metric)


# ---------------------------------------------------------------------------
# The layer's lists.


class TestLayer:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_ladder_lists_equal_per_resolution_lists(self, levels):
        pts = ladder(levels)
        for weak in (False, True):
            layer = TraceLayer(pts, "x0", "w0")
            for process in ("x0", "w0"):
                walked = per_resolution(pts, process, weak)
                assert layer.decode(layer.entries(process, weak)) == walked
                assert walked == from_runs(pts, process, weak)
        assert len(tm.trace_distributions(pts, "x0")) == [3, 10, 51, 613][levels - 1]

    def test_random_tau_lists_equal_per_resolution_lists(self):
        for pts, s, t in tau_cases(401, 40, max_count=150):
            for weak in (False, True):
                layer = TraceLayer(pts, s, t)
                for process in (s, t):
                    walked = per_resolution(pts, process, weak)
                    assert layer.decode(layer.entries(process, weak)) == walked
                    assert walked == from_runs(pts, process, weak)

    def test_one_layer_serves_both_modes(self):
        for pts, s, t in tau_cases(402, 10, max_count=80):
            layer = TraceLayer(pts, t, s)
            for weak in (True, False, True):
                for process in (t, s):
                    assert layer.decode(layer.entries(process, weak)) == per_resolution(
                        pts, process, weak
                    )

    def test_weak_lists_are_the_strong_lists_exactly_without_silent_steps(self, half_pair):
        cases = [
            (ladder(3), ("x0", "w0"), False),
            (half_pair, ("s", "t"), False),
            (with_tau_prefix(half_pair, "s"), ("ptau", "t"), True),
            # The silent step is reachable from ptau only, yet it makes the
            # whole layer silent: both roots' lists share one trie.
            (with_tau_prefix(half_pair, "s"), ("t", "ptau"), True),
            (with_tau_prefix(half_pair, "s"), ("s", "t"), False),
        ]
        for pts, roots, silent in cases:
            layer = TraceLayer(pts, *roots)
            assert layer.silent is silent
            for root in roots:
                assert (layer.entries(root, True) is layer.entries(root, False)) is not silent
            with pytest.raises(AttributeError):
                layer.silent = not silent

    @pytest.fixture()
    def builds(self, monkeypatch):
        built = []
        original = TraceLayer._build

        def counting(self, p, weak, lists):
            built.append((p, weak))
            return original(self, p, weak, lists)

        monkeypatch.setattr(TraceLayer, "_build", counting)
        return built

    def test_tau_free_crosscheck_builds_each_list_once(self, half_pair, builds):
        tm.crosscheck(half_pair, "s", "t")
        reached = set(post_order(half_pair, "s", "t"))
        assert sorted(builds) == sorted((p, False) for p in reached)

    def test_silent_crosscheck_builds_both_modes(self, half_pair, builds):
        pts = with_tau_prefix(half_pair, "s")
        tm.crosscheck(pts, "ptau", "t")
        reached = set(post_order(pts, "ptau", "t"))
        assert sorted(builds) == sorted((p, weak) for p in reached for weak in (False, True))

    def test_resolution_at_is_the_enumerated_resolution(self):
        cases = tau_cases(403, 15, max_count=150) + [(ladder(3), "x0", "w0")]
        for pts, s, t in cases:
            for process in (s, t):
                listed = oracles.enumerate_resolutions(pts, process)
                for index, resolution in enumerate(listed):
                    built = tm.resolution_at(pts, process, index)
                    assert built.nodes == resolution.nodes  # preorder
                    assert built == resolution
                with pytest.raises(IndexError):
                    tm.resolution_at(pts, process, len(listed))

    def test_size_guard_names_the_same_process(self, half_pair):
        # s has 9 resolutions and t has 10; the old routes listed s first.
        calls = [
            lambda n: tm.trace_distributions(half_pair, "t", max_resolutions=n),
            lambda n: tm.strong_trace_metric(half_pair, "t", "s", n),
            lambda n: tm.weak_trace_metric(half_pair, "t", "s", n),
            lambda n: tm.find_distinguishing_resolution(half_pair, "t", "s", True, n),
            lambda n: tm.crosscheck(half_pair, "t", "s", n),
            lambda n: tm.satisfies(half_pair, "t", oracles.TOP_DIST, n),
            lambda n: tm.satisfies(half_pair, "t", oracles.TOP_DIST, n, weak=True),
            lambda n: tm.satisfied_set(half_pair, "t", n),
            lambda n: tm.real_value(half_pair, "t", oracles.TOP_DIST, max_resolutions=n),
            lambda n: tm.mimicking_formulas(half_pair, "t", max_resolutions=n),
        ]
        for call in calls:
            # Both sides over the cap: the first-named process t is reported.
            with pytest.raises(tm.SizeGuardExceeded) as caught:
                call(8)
            assert (caught.value.process, caught.value.count, caught.value.limit) == ("t", 10, 8)
            with pytest.raises(tm.SizeGuardExceeded) as caught:
                call(9)
            assert caught.value.process == "t"
            call(10)
        with pytest.raises(tm.SizeGuardExceeded) as caught:
            tm.strong_trace_metric(half_pair, "s", "t", 9)
        assert caught.value.process == "t"


# ---------------------------------------------------------------------------
# Commands against the routes they replaced.


class TestAgainstOldRoutes:
    def test_metric_values_witnesses_and_dedup(self):
        for pts, s, t in tau_cases(411, 25, max_count=100):
            for weak in (False, True):
                metric = tm.weak_trace_metric if weak else tm.strong_trace_metric
                result = metric(pts, s, t)
                for dedup in (True, False):
                    value, witness, stats = old_metric(pts, s, t, weak, dedup)
                    assert result.value == value
                    assert result.witness == witness
                    if dedup:
                        assert result.dedup_stats == stats

    def test_distinguishing_resolution_equals_profile_route(self):
        for pts, s, t in tau_cases(412, 30, max_count=60):
            for weak in (False, True):
                for a, b in ((s, t), (t, s)):
                    found = tm.find_distinguishing_resolution(pts, a, b, weak)
                    assert found == oracles.distinguishing_resolution(pts, a, b, weak)
                    assert (found is None) == (
                        tm.weak_trace_equivalent(pts, a, b)
                        if weak
                        else tm.strong_trace_equivalent(pts, a, b)
                    )

    def test_profile_sets_equal_iff_trace_distribution_sets_equal(self):
        # The equivalence rests on this: a profile is an invertible prefix
        # sum of the (weak) trace distribution.
        for pts, s, t in tau_cases(413, 20, max_count=40):
            resolutions = oracles.enumerate_resolutions(pts, s) + oracles.enumerate_resolutions(pts, t)
            for weak in (False, True):
                profile_of = (
                    oracles.weak_compatible_probabilities if weak else oracles.compatible_probabilities
                )
                td_of = tm.weak_trace_distribution if weak else tm.trace_distribution
                profiles = [frozenset(profile_of(r).items()) for r in resolutions]
                dists = [td_of(r) for r in resolutions]
                for i in range(len(resolutions)):
                    for j in range(i + 1, len(resolutions)):
                        assert (profiles[i] == profiles[j]) == (dists[i] == dists[j])
                n = len(oracles.enumerate_resolutions(pts, s))
                assert (set(profiles[:n]) == set(profiles[n:])) == (set(dists[:n]) == set(dists[n:]))

    def test_satisfies_equals_run_scanning_and_weak_loop(self):
        rng = random.Random(414)
        for pts, s, t in tau_cases(414, 20, max_count=80):
            candidates = (
                old_mimicking_formulas(pts, s, False)[:4]
                + old_mimicking_formulas(pts, t, False)[:3]
                + old_mimicking_formulas(pts, t, True)[:3]
                + [random_formula(rng, tau_bias=0.3) for _ in range(3)]
            )
            for psi in candidates:
                assert tm.satisfies(pts, s, psi) == oracles.satisfies(pts, s, psi)
                assert tm.satisfies(pts, s, psi, weak=True) == oracles.weak_satisfies(pts, s, psi)

    def test_satisfies_rejects_non_distributions_in_both_modes(self, half_pair):
        for weak in (False, True):
            with pytest.raises(ValueError):
                tm.satisfies(half_pair, "s", tm.Dist({tm.TOP: HALF}), weak=weak)

    def test_formula_sets_values_and_mimic(self):
        rng = random.Random(415)
        for pts, s, t in tau_cases(415, 20, max_count=80):
            expected = old_satisfied_set(pts, s)
            assert tm.satisfied_set(pts, s) == expected
            for weak in (False, True):
                assert tm.mimicking_formulas(pts, s, weak) == old_mimicking_formulas(pts, s, weak)
                for psi in expected[:3] + [random_formula(rng, tau_bias=0.3)]:
                    want = 1 - oracles.distance_to_set(psi, expected, weak)
                    assert tm.real_value(pts, s, psi, weak) == want

    def test_crosscheck_equals_old_routes(self):
        for pts, s, t in tau_cases(416, 12, max_count=40):
            report = tm.crosscheck(pts, s, t)
            set_s, set_t = old_satisfied_set(pts, s), old_satisfied_set(pts, t)
            assert report.strong_metric == old_metric(pts, s, t, False, True)[0]
            assert report.weak_metric == old_metric(pts, s, t, True, True)[0]
            assert report.logical_distance == oracles.hausdorff(set_s, set_t, tv(False))
            assert report.weak_logical_distance == oracles.hausdorff(set_s, set_t, tv(True))
            assert report.sup_val_distance == oracles.sup_val_over(set_s, set_t, False)
            assert report.weak_sup_val_distance == oracles.sup_val_over(set_s, set_t, True)
            assert report.all_equal


# ---------------------------------------------------------------------------
# Property test over generated systems.


@st.composite
def systems(draw, actions=("a", "b", "tau")):
    """An acyclic system over p0..p{n-1}: transitions only go to
    higher-numbered states, at most two per state, with one or two targets
    and, by default, silent steps among the actions."""
    n = draw(st.integers(2, 5))
    spec: dict = {f"p{i}": [] for i in range(n)}
    for i in range(n - 1):
        rows = spec[f"p{i}"]
        for _ in range(draw(st.integers(0, 2))):
            targets = draw(st.lists(st.integers(i + 1, n - 1), min_size=1, max_size=2, unique=True))
            if len(targets) == 1:
                weights = [Fraction(1)]
            else:
                first = Fraction(draw(st.integers(1, 3)), 4)
                weights = [first, 1 - first]
            action = draw(st.sampled_from(actions))
            row = (action, {f"p{q}": w for q, w in zip(targets, weights)})
            if row not in rows:
                rows.append(row)
    return tm.PTS.build(spec), f"p{draw(st.integers(1, n - 1))}"


@settings(max_examples=150, deadline=None)
@given(systems())
def test_layer_and_commands_match_old_routes_property(drawn):
    pts, t = drawn
    s = "p0"
    for weak in (False, True):
        layer = TraceLayer(pts, s, t)
        for process in (s, t):
            assert layer.decode(layer.entries(process, weak)) == per_resolution(pts, process, weak)
        metric = tm.weak_trace_metric if weak else tm.strong_trace_metric
        result = metric(pts, s, t)
        assert (result.value, result.witness) == old_metric(pts, s, t, weak, True)[:2]
        found = tm.find_distinguishing_resolution(pts, s, t, weak)
        assert found == oracles.distinguishing_resolution(pts, s, t, weak)
        assert (found is None) == (result.value == 0)
    for psi in old_mimicking_formulas(pts, t, False)[-2:]:
        assert tm.satisfies(pts, s, psi) == oracles.satisfies(pts, s, psi)
        assert tm.satisfies(pts, s, psi, weak=True) == oracles.weak_satisfies(pts, s, psi)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([("a", "b"), ("a", "b", "tau")]).flatmap(systems),
    st.data(),
)
def test_silent_and_crosscheck_property(drawn, data):
    # Systems with and without silent steps, each rooted at one to three
    # processes: the layer is silent exactly when a silent transition is
    # reachable from a root, and only then builds weak lists of its own.
    pts, _ = drawn
    processes = st.sampled_from(sorted(pts.processes))
    roots = data.draw(st.lists(processes, min_size=1, max_size=3, unique=True))
    layer = TraceLayer(pts, *roots)
    reached = set(post_order(pts, *roots))
    assert layer.silent == any(row.action.is_tau for p in reached for row in pts.transitions_of(p))
    for root in roots:
        assert (layer.entries(root, True) is layer.entries(root, False)) == (not layer.silent)
        assert layer.decode(layer.entries(root, True)) == per_resolution(pts, root, True)
    s, t = roots[0], roots[-1]
    report = tm.crosscheck(pts, s, t)
    set_s, set_t = old_satisfied_set(pts, s), old_satisfied_set(pts, t)
    assert report.strong_metric == old_metric(pts, s, t, False, True)[0]
    assert report.weak_metric == old_metric(pts, s, t, True, True)[0]
    assert report.logical_distance == oracles.hausdorff(set_s, set_t, tv(False))
    assert report.weak_logical_distance == oracles.hausdorff(set_s, set_t, tv(True))
    assert report.sup_val_distance == oracles.sup_val_over(set_s, set_t, False)
    assert report.weak_sup_val_distance == oracles.sup_val_over(set_s, set_t, True)
    assert report.all_equal
