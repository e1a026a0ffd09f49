import random
from fractions import Fraction

import pytest

import oracles
import tracemet as tm
from conftest import half_zs, half_zt, late_halting_resolution
from genpts import random_case, with_tau_prefix


class TestResolutionDistance:
    def test_half_pair(self, half_pair):
        assert oracles.resolution_distance(half_zs(half_pair), half_zt(half_pair)) == Fraction(1, 2)

    def test_reflexive(self, half_pair):
        z = half_zs(half_pair)
        assert oracles.resolution_distance(z, z) == 0

    def test_early_matches_deferred(self, equiv_pair):
        # Both schedulers induce {a: 1/2, ad: 1/2}.
        early = oracles.make_resolution(equiv_pair, "s", (0, {"s1": None, "s2": (0, {})}))
        late = late_halting_resolution(equiv_pair)
        assert tm.trace_distribution(early) == tm.trace_distribution(late)
        assert oracles.resolution_distance(early, late) == 0

    def test_weak_equals_strong_without_tau(self, half_pair):
        rs = oracles.enumerate_resolutions(half_pair, "s")
        rt = oracles.enumerate_resolutions(half_pair, "t")
        for r1 in rs[:5]:
            for r2 in rt[:5]:
                assert oracles.weak_resolution_distance(r1, r2) == oracles.resolution_distance(r1, r2)
        assert oracles.weak_resolution_distance(half_zs(half_pair), half_zt(half_pair)) == Fraction(1, 2)

    def test_weak_ignores_tau_prefix(self):
        plain = tm.parse_pts("s -a-> 1 nil")
        prefixed = tm.parse_pts("sp -tau-> 1 s\ns -a-> 1 nil")
        r1 = oracles.make_resolution(plain, "s", (0, {}))
        r2 = oracles.make_resolution(prefixed, "sp", (0, {"s": (0, {})}))
        assert oracles.weak_resolution_distance(r1, r2) == 0
        assert oracles.resolution_distance(r1, r2) == 1

    def test_weak_distance_equals_transport_of_weak_distributions(self):
        rng = random.Random(51)
        for _ in range(10):
            pts, s, t = random_case(rng, max_count=60, tau_bias=0.4)
            rs = oracles.enumerate_resolutions(pts, s)[:8]
            rt = oracles.enumerate_resolutions(pts, t)[:8]
            for r1 in rs:
                for r2 in rt:
                    via_quotient = oracles.weak_resolution_distance(r1, r2)
                    via_pushforward = tm.kantorovich_01(
                        tm.weak_trace_distribution(r1), tm.weak_trace_distribution(r2)
                    )
                    assert via_quotient == via_pushforward


class TestTraceMetric:
    def test_half_pair_is_half(self, half_pair):
        result = tm.strong_trace_metric(half_pair, "s", "t")
        assert result.value == Fraction(1, 2)

    def test_equiv_pair_is_zero(self, equiv_pair):
        assert tm.strong_trace_metric(equiv_pair, "s", "t").value == 0

    def test_self_distance_zero(self, half_pair):
        assert tm.strong_trace_metric(half_pair, "s", "s").value == 0

    def test_weak_equals_strong_on_tau_free(self, half_pair):
        strong = tm.strong_trace_metric(half_pair, "s", "t").value
        weak = tm.weak_trace_metric(half_pair, "s", "t").value
        assert strong == weak == Fraction(1, 2)

    def test_tau_prefix_is_weakly_invisible(self, half_pair):
        pts = with_tau_prefix(half_pair, "s")
        assert tm.weak_trace_metric(pts, "ptau", "s").value == 0
        assert tm.weak_trace_equivalent(pts, "ptau", "s")

    def test_silent_chain_collapses_weakly_but_not_strongly(self):
        pts = tm.parse_pts("p -tau-> 1 q\nq -tau-> 1 r")
        assert tm.weak_trace_metric(pts, "p", "r").value == 0
        assert tm.weak_trace_equivalent(pts, "p", "q")
        assert tm.strong_trace_metric(pts, "p", "r").value == 1
        assert not tm.strong_trace_equivalent(pts, "p", "r")

    def test_witness_attains_value(self, half_pair):
        result = tm.strong_trace_metric(half_pair, "s", "t")
        left, right = result.witness
        assert oracles.resolution_distance(left, right) == result.value
        again = tm.strong_trace_metric(half_pair, "s", "t")
        assert again.witness == result.witness  # deterministic

    def test_dedup_stats_and_invariance(self, half_pair):
        deduped = tm.strong_trace_metric(half_pair, "s", "t")
        raw_s = [tm.trace_distribution(r) for r in oracles.enumerate_resolutions(half_pair, "s")]
        raw_t = [tm.trace_distribution(r) for r in oracles.enumerate_resolutions(half_pair, "t")]
        assert deduped.value == tm.hausdorff_witness(raw_s, raw_t)[0]
        stats = deduped.dedup_stats
        assert (stats.left_before, stats.left_after) == (9, 8)
        assert (stats.right_before, stats.right_after) == (10, 9)
        assert len(raw_s) == 9

    def test_dedup_invariance_random(self):
        # The deduplicated metric has the value and the witness of the
        # kernel on the full lists, repeated rows included.
        rng = random.Random(52)
        for _ in range(10):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.2)
            for weak, metric in ((False, tm.strong_trace_metric), (True, tm.weak_trace_metric)):
                result = metric(pts, s, t)
                value, (i, j) = tm.hausdorff_witness(
                    tm.trace_distributions(pts, s, weak), tm.trace_distributions(pts, t, weak)
                )
                assert result.value == value
                assert result.witness == (tm.resolution_at(pts, s, i), tm.resolution_at(pts, t, j))

    def test_size_guard_propagates(self, half_pair):
        with pytest.raises(tm.SizeGuardExceeded):
            tm.strong_trace_metric(half_pair, "s", "t", max_resolutions=3)


class TestEquivalence:
    def test_equiv_pair(self, equiv_pair):
        assert tm.strong_trace_equivalent(equiv_pair, "s", "t")
        assert tm.weak_trace_equivalent(equiv_pair, "s", "t")

    def test_half_pair(self, half_pair):
        assert not tm.strong_trace_equivalent(half_pair, "s", "t")
        assert not tm.weak_trace_equivalent(half_pair, "s", "t")

    def test_reflexive(self, half_pair):
        assert tm.strong_trace_equivalent(half_pair, "s", "s")

    def test_kernel_matches_metric(self):
        rng = random.Random(53)
        for _ in range(15):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.2)
            assert tm.strong_trace_equivalent(pts, s, t) == (
                tm.strong_trace_metric(pts, s, t).value == 0
            )
            assert tm.weak_trace_equivalent(pts, s, t) == (
                tm.weak_trace_metric(pts, s, t).value == 0
            )

    def test_weak_never_exceeds_strong(self):
        rng = random.Random(54)
        for _ in range(15):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.3)
            assert tm.weak_trace_metric(pts, s, t).value <= tm.strong_trace_metric(pts, s, t).value


class TestDistinguishing:
    def test_none_when_equivalent(self, equiv_pair):
        assert tm.find_distinguishing_resolution(equiv_pair, "s", "t") is None

    def test_found_when_apart(self, half_pair):
        side, resolution = tm.find_distinguishing_resolution(half_pair, "s", "t")
        assert side in {"s", "t"}
        assert oracles.validate_resolution(half_pair, resolution)
        # the returned scheduler's profile really is unmatched on the other side
        other = "t" if side == "s" else "s"
        profile = oracles.compatible_probabilities(resolution)
        assert all(
            oracles.compatible_probabilities(r) != profile
            for r in oracles.enumerate_resolutions(half_pair, other)
        )
