import random
from fractions import Fraction

import oracles
import tracemet as tm
from conftest import late_halting_resolution, half_zs, half_zt, trace, trace_dist
from genpts import random_case


def _all_runs(resolution):
    # Independent walk: every run from the root as (trace, probability, node);
    # run x is a proper prefix of run y iff x's node path strictly prefixes y's.
    choices = oracles.choices_of(resolution)
    out = []

    def walk(node, actions, prob):
        out.append((tuple(actions), prob, node))
        choice = choices[node]
        if choice is None:
            return
        action, target = resolution.pts.transitions_of(node.process)[choice]
        for q, w in target.items_sorted:
            walk(node.child(choice, q), actions + [action], prob * w)

    walk(oracles.UnfoldNode((), resolution.root), [], Fraction(1))
    return out


def _erase(actions):
    return tuple(a for a in actions if a.name != "tau")


def _brute_pr_weak(resolution, alpha):
    target = _erase(alpha)
    matching = [(t, p, n) for (t, p, n) in _all_runs(resolution) if _erase(t) == target]
    total = Fraction(0)
    for _, prob, node in matching:
        has_extension = any(
            other.path[: len(node.path)] == node.path and len(other.path) > len(node.path)
            for _, _, other in matching
        )
        if not has_extension:
            total += prob
    return total


class TestMaxComputations:
    def test_deep_chain_without_recursion(self):
        # c_i -a-> 1 c_{i+1}: far deeper than Python's recursion limit.
        pts = tm.PTS.build({f"c{i}": [("a", {f"c{i + 1}": 1})] for i in range(3000)})
        resolution = tm.resolution_at(pts, "c0", 3000)
        (run,) = oracles.max_computations(resolution)
        assert len(run) == 3000 and run.probability == 1
        assert tm.trace_distribution(resolution) == tm.Dist({trace("a") * 3000: 1})

    def test_deferred_halting_scheduler(self, equiv_pair):
        z = late_halting_resolution(equiv_pair)
        runs = oracles.max_computations(z)
        assert [(r.actions, r.probability) for r in runs] == [
            (trace("a"), Fraction(1, 2)),
            (trace("a d"), Fraction(1, 2)),
        ]

    def test_trivial_resolution(self, equiv_pair):
        (trivial, *_) = oracles.enumerate_resolutions(equiv_pair, "t")
        (only,) = oracles.max_computations(trivial)
        assert only.actions == () and only.probability == 1 and len(only) == 0

    def test_mass_is_one(self):
        rng = random.Random(31)
        for _ in range(20):
            pts, s, _ = random_case(rng, max_count=120, tau_bias=0.3)
            for r in oracles.enumerate_resolutions(pts, s):
                assert sum(c.probability for c in oracles.max_computations(r)) == 1

    def test_steps_chain(self):
        rng = random.Random(30)
        for _ in range(5):
            pts, s, _ = random_case(rng, max_count=60)
            for r in oracles.enumerate_resolutions(pts, s)[:10]:
                for c in oracles.max_computations(r):
                    for left, right in zip(c.steps, c.steps[1:]):
                        assert left[3] == right[0]
                    assert all(step[2] > 0 for step in c.steps)


class TestPrCompatible:
    def test_examples(self, equiv_pair):
        z = late_halting_resolution(equiv_pair)
        assert oracles.pr_compatible(z, trace("a")) == 1
        assert oracles.pr_compatible(z, trace("a d")) == Fraction(1, 2)
        assert oracles.pr_compatible(z, ()) == 1
        assert oracles.pr_compatible(z, trace("b")) == 0

    def test_compatible_mass_can_exceed_one(self, equiv_pair):
        # Summing over all compatible runs (not only maximal ones) counts the
        # same mass at every prefix length, so the total overshoots 1 ...
        z = late_halting_resolution(equiv_pair)
        traces = {c.actions for c in oracles.max_computations(z)}
        assert sum(oracles.pr_compatible(z, a) for a in traces) == Fraction(3, 2)
        # ... while the maximal-run distribution is a genuine distribution.
        assert tm.trace_distribution(z).total == 1

    def test_prefix_sum_law(self):
        rng = random.Random(32)
        for _ in range(15):
            pts, s, _ = random_case(rng, max_count=100, tau_bias=0.2)
            for r in oracles.enumerate_resolutions(pts, s)[:40]:
                runs = oracles.max_computations(r)
                prefixes = {c.actions[:k] for c in runs for k in range(len(c) + 1)}
                for alpha in prefixes:
                    via_max = sum(
                        (c.probability for c in runs if c.actions[: len(alpha)] == alpha),
                        Fraction(0),
                    )
                    assert oracles.pr_compatible(r, alpha) == via_max

    def test_matches_profile_map(self):
        rng = random.Random(33)
        for _ in range(10):
            pts, s, _ = random_case(rng, max_count=80, tau_bias=0.2)
            for r in oracles.enumerate_resolutions(pts, s)[:25]:
                profile = oracles.compatible_probabilities(r)
                for alpha, value in profile.items():
                    assert oracles.pr_compatible(r, alpha) == value


class TestTraceDistribution:
    def test_half_pair_schedulers(self, half_pair):
        assert tm.trace_distribution(half_zs(half_pair)) == trace_dist({"a c": "1/2", "a": "1/2"})
        assert tm.trace_distribution(half_zt(half_pair)) == trace_dist({"a c": "1/2", "a b": "1/2"})

    def test_trivial(self, half_pair):
        (trivial, *_) = oracles.enumerate_resolutions(half_pair, "s")
        assert tm.trace_distribution(trivial) == tm.Dist({(): 1})

    def test_sums_to_one(self):
        rng = random.Random(34)
        for _ in range(15):
            pts, s, _ = random_case(rng, max_count=100, tau_bias=0.3)
            for r in oracles.enumerate_resolutions(pts, s):
                assert tm.trace_distribution(r).is_probability
                assert tm.weak_trace_distribution(r).is_probability


class TestTauErase:
    def test_examples(self):
        assert tm.tau_erase(trace("tau a tau")) == trace("a")
        assert tm.tau_erase(()) == ()
        assert tm.tau_erase(trace("a b c")) == trace("a b c")

    def test_idempotent(self):
        rng = random.Random(35)
        names = ["a", "b", "tau"]
        for _ in range(100):
            alpha = trace(" ".join(rng.choice(names) for _ in range(rng.randint(0, 6))))
            assert tm.tau_erase(tm.tau_erase(alpha)) == tm.tau_erase(alpha)

    def test_agrees_with_recursive_equivalence(self):
        # Reference: the step-by-step definition of trace equivalence, which
        # absorbs silent actions on either side or matches heads.
        def equivalent(a, b):
            if not a and not b:
                return True
            if a and a[0].is_tau:
                return equivalent(a[1:], b)
            if b and b[0].is_tau:
                return equivalent(a, b[1:])
            return bool(a) and bool(b) and a[0] == b[0] and equivalent(a[1:], b[1:])

        rng = random.Random(36)
        names = ["a", "b", "tau"]
        for _ in range(300):
            x = trace(" ".join(rng.choice(names) for _ in range(rng.randint(0, 5))))
            y = trace(" ".join(rng.choice(names) for _ in range(rng.randint(0, 5))))
            assert equivalent(x, y) == (tm.tau_erase(x) == tm.tau_erase(y))


class TestWeak:
    def test_weak_distribution_examples(self):
        pts = tm.parse_pts("r -tau-> 1 u\nu -a-> 1 nil")
        r = oracles.make_resolution(pts, "r", (0, {"u": (0, {})}))
        assert tm.trace_distribution(r) == trace_dist({"tau a": 1})
        assert tm.weak_trace_distribution(r) == trace_dist({"a": 1})

    def test_tau_free_weak_equals_strong(self, half_pair):
        for r in oracles.enumerate_resolutions(half_pair, "s"):
            assert tm.weak_trace_distribution(r) == tm.trace_distribution(r)

    def test_mixed_tau_aggregation(self):
        pts = tm.parse_pts("r -a-> 1/2 u, 1/2 v\nu -tau-> 1 w\nw -b-> 1 nil\nv -b-> 1 nil")
        r = oracles.make_resolution(pts, "r", (0, {"u": (0, {"w": (0, {})}), "v": (0, {})}))
        assert tm.trace_distribution(r) == trace_dist({"a tau b": "1/2", "a b": "1/2"})
        assert tm.weak_trace_distribution(r) == trace_dist({"a b": 1})

    def test_aggregation_by_hand_sum(self):
        # The erasure pushforward itself: two spellings of the same class
        # collapse to one entry with summed weight.  (No single scheduler can
        # show {tau b, b} as maximal traces, since all its maximal runs share
        # their first action; the aggregation is a fact about distributions.)
        mixed = trace_dist({"tau b": "1/2", "b": "1/2"})
        assert mixed.pushforward(tm.tau_erase) == trace_dist({"b": 1})

    def test_weak_distribution_is_erasure_pushforward(self):
        rng = random.Random(37)
        for _ in range(15):
            pts, s, _ = random_case(rng, max_count=100, tau_bias=0.4)
            for r in oracles.enumerate_resolutions(pts, s)[:30]:
                strong = tm.trace_distribution(r)
                pushed = tm.Dist.merged((tm.tau_erase(a), w) for a, w in strong.items_sorted)
                assert tm.weak_trace_distribution(r) == pushed


class TestPrWeakCompatible:
    def test_examples(self, equiv_pair):
        z = late_halting_resolution(equiv_pair)
        assert oracles.pr_weak_compatible(z, trace("a")) == 1
        (trivial, *_) = oracles.enumerate_resolutions(equiv_pair, "t")
        assert oracles.pr_weak_compatible(trivial, ()) == 1
        pts = tm.parse_pts("r -tau-> 1 u\nu -a-> 1 nil")
        r = oracles.make_resolution(pts, "r", (0, {"u": (0, {})}))
        assert oracles.pr_weak_compatible(r, trace("a")) == 1
        assert oracles.pr_weak_compatible(r, trace("tau a")) == 1
        assert oracles.pr_weak_compatible(r, trace("b")) == 0

    def test_against_brute_force(self):
        rng = random.Random(38)
        for _ in range(12):
            pts, s, _ = random_case(rng, max_count=80, tau_bias=0.4)
            for r in oracles.enumerate_resolutions(pts, s)[:20]:
                candidates = {_erase(t) for t, _, _ in _all_runs(r)}
                candidates.add(trace("a b c"))  # an unreachable trace too
                for alpha in candidates:
                    assert oracles.pr_weak_compatible(r, alpha) == _brute_pr_weak(r, alpha)

    def test_profile_map_matches_pointwise(self):
        rng = random.Random(39)
        for _ in range(8):
            pts, s, _ = random_case(rng, max_count=60, tau_bias=0.4)
            for r in oracles.enumerate_resolutions(pts, s)[:15]:
                profile = oracles.weak_compatible_probabilities(r)
                for beta, value in profile.items():
                    assert beta == tm.tau_erase(beta)
                    assert oracles.pr_weak_compatible(r, beta) == value
