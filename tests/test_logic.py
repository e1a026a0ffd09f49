import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from conftest import half_zs, half_zt, trace
from genpts import random_case, random_formula


def formula(text: str) -> tm.TraceFormula:
    return tm.TraceFormula(trace(text))


class TestTracingFormula:
    def test_examples(self):
        assert tm.tracing_formula(trace("a c")) == formula("a c")
        assert tm.tracing_formula(()) == tm.TOP
        assert tm.tracing_formula(trace("tau a")) == formula("tau a")

    def test_bijective_on_depth(self):
        phi = tm.tracing_formula(trace("a b c"))
        assert len(phi.diamonds) == 3

    def test_run_spells_trace_iff_compatible(self, half_pair):
        # A run is compatible with the formula of a trace exactly when it
        # spells that trace (same actions, same length).
        for r in oracles.enumerate_resolutions(half_pair, "t"):
            for c in oracles.max_computations(r):
                for alpha in [c.actions, c.actions + trace("a"), c.actions[:-1]]:
                    expected = c.actions == tuple(alpha)
                    assert oracles.compatible_with_formula(c, tm.tracing_formula(alpha)) == expected


class TestSatisfiesTrace:
    def test_examples(self, half_pair):
        zt = half_zt(half_pair)
        runs = {c.actions: c for c in oracles.max_computations(zt)}
        ac_run = runs[trace("a c")]
        ab_run = runs[trace("a b")]
        assert oracles.satisfies_trace(ac_run, formula("a c"))
        assert oracles.satisfies_trace(ac_run, tm.TOP)
        assert oracles.satisfies_trace(ab_run, tm.TOP)
        assert not oracles.satisfies_trace(ab_run, formula("a c"))

    def test_prefix_semantics(self, half_pair):
        zt = half_zt(half_pair)
        runs = {c.actions: c for c in oracles.max_computations(zt)}
        ac_run = runs[trace("a c")]
        assert oracles.satisfies_trace(ac_run, formula("a"))  # longer run still satisfies
        assert not oracles.compatible_with_formula(ac_run, formula("a"))  # but is not compatible


class TestMimicking:
    def test_half_pair_examples(self, half_pair):
        psi_s = oracles.mimicking_formula(half_zs(half_pair))
        psi_t = oracles.mimicking_formula(half_zt(half_pair))
        assert psi_s == tm.Dist({formula("a c"): Fraction(1, 2), formula("a"): Fraction(1, 2)})
        assert psi_t == tm.Dist({formula("a c"): Fraction(1, 2), formula("a b"): Fraction(1, 2)})

    def test_trivial_resolution_mimics_top(self, half_pair):
        (trivial, *_) = oracles.enumerate_resolutions(half_pair, "s")
        assert oracles.mimicking_formula(trivial) == oracles.TOP_DIST

    def test_weak_mimicking(self):
        pts = tm.parse_pts("r -tau-> 1 u\nu -a-> 1 nil")
        r = oracles.make_resolution(pts, "r", (0, {"u": (0, {})}))
        assert oracles.mimicking_formula(r) == tm.Dist({formula("tau a"): 1})
        assert oracles.weak_mimicking_formula(r) == tm.Dist({formula("a"): 1})

    def test_weak_mimicking_aggregates_weights(self):
        pts = tm.parse_pts("r -a-> 1/2 u, 1/2 v\nu -tau-> 1 w\nw -b-> 1 nil\nv -b-> 1 nil")
        r = oracles.make_resolution(pts, "r", (0, {"u": (0, {"w": (0, {})}), "v": (0, {})}))
        assert oracles.weak_mimicking_formula(r) == tm.Dist({formula("a b"): 1})
        # the same aggregation at the distribution level
        mixed = tm.Dist({trace("tau b"): Fraction(1, 2), trace("b"): Fraction(1, 2)})
        pushed = mixed.pushforward(tm.tau_erase).pushforward(tm.tracing_formula)
        assert pushed == tm.Dist({formula("b"): 1})

    def test_weak_equals_strong_without_tau(self, half_pair):
        for r in oracles.enumerate_resolutions(half_pair, "t"):
            assert oracles.weak_mimicking_formula(r) == oracles.mimicking_formula(r)

    def test_mimicking_always_weakly_equivalent_to_weak_mimicking(self):
        rng = random.Random(61)
        for _ in range(10):
            pts, s, _ = random_case(rng, max_count=60, tau_bias=0.4)
            for r in oracles.enumerate_resolutions(pts, s)[:20]:
                assert oracles.dist_formulas_weak_equivalent(
                    oracles.mimicking_formula(r), oracles.weak_mimicking_formula(r)
                )

    def test_equal_mimicking_iff_matching_run_probabilities(self):
        rng = random.Random(62)
        for _ in range(8):
            pts, s, t = random_case(rng, max_count=60, tau_bias=0.2)
            rs = oracles.enumerate_resolutions(pts, s)[:10]
            rt = oracles.enumerate_resolutions(pts, t)[:10]
            for r1 in rs:
                for r2 in rt:
                    same_formula = oracles.mimicking_formula(r1) == oracles.mimicking_formula(r2)
                    same_profile = oracles.compatible_probabilities(r1) == oracles.compatible_probabilities(r2)
                    assert same_formula == same_profile

    def test_weakly_equivalent_mimicking_iff_matching_weak_probabilities(self):
        rng = random.Random(63)
        for _ in range(8):
            pts, s, t = random_case(rng, max_count=60, tau_bias=0.4)
            rs = oracles.enumerate_resolutions(pts, s)[:10]
            rt = oracles.enumerate_resolutions(pts, t)[:10]
            for r1 in rs:
                for r2 in rt:
                    equivalent = oracles.dist_formulas_weak_equivalent(
                        oracles.mimicking_formula(r1), oracles.mimicking_formula(r2)
                    )
                    same_profile = oracles.weak_compatible_probabilities(
                        r1
                    ) == oracles.weak_compatible_probabilities(r2)
                    assert equivalent == same_profile


class TestSatisfiedSet:
    def test_terminal_process(self):
        pts = tm.parse_pts("s -a-> 1 u")
        assert tm.satisfied_set(pts, "u") == [oracles.TOP_DIST]

    def test_contains_scheduler_formulas(self, half_pair):
        formulas = tm.satisfied_set(half_pair, "s")
        assert oracles.mimicking_formula(half_zs(half_pair)) in formulas
        assert oracles.TOP_DIST in formulas

    def test_equivalent_processes_have_equal_sets(self, equiv_pair):
        assert tm.satisfied_set(equiv_pair, "s") == tm.satisfied_set(equiv_pair, "t")

    def test_deduplicated_and_ordered(self, half_pair):
        formulas = tm.satisfied_set(half_pair, "s")
        assert len(set(formulas)) == len(formulas)
        assert formulas == tm.satisfied_set(half_pair, "s")


class TestSatisfies:
    def test_positive_with_witness(self, half_pair):
        psi = tm.parse_formula("0.5 <a><c>T (+) 0.5 <a><b>T")
        holds, witness = tm.satisfies(half_pair, "t", psi)
        assert holds
        assert witness == half_zt(half_pair)

    def test_top_is_always_satisfied(self, half_pair):
        holds, witness = tm.satisfies(half_pair, "s", oracles.TOP_DIST)
        assert holds
        assert witness.nodes == ((None, "s", None),)

    def test_negative(self, half_pair):
        psi = tm.parse_formula("0.5 <a><c>T (+) 0.5 <a><b>T")
        holds, witness = tm.satisfies(half_pair, "s", psi)
        assert not holds and witness is None

    def test_rejects_non_distribution(self, half_pair):
        with pytest.raises(ValueError):
            tm.satisfies(half_pair, "s", tm.Dist({tm.TOP: Fraction(1, 2)}))

    def test_every_scheduler_formula_is_satisfied(self):
        rng = random.Random(64)
        for _ in range(6):
            pts, s, _ = random_case(rng, max_count=60, tau_bias=0.2)
            resolutions = oracles.enumerate_resolutions(pts, s)
            for r in resolutions[:: max(1, len(resolutions) // 5)]:
                holds, _ = tm.satisfies(pts, s, oracles.mimicking_formula(r))
                assert holds

    def test_agrees_with_satisfied_set_membership(self):
        rng = random.Random(65)
        for _ in range(6):
            pts, s, t = random_case(rng, max_count=60, tau_bias=0.2)
            sat = set(tm.satisfied_set(pts, s))
            candidates = list(sat)[:3] + tm.satisfied_set(pts, t)[:2] + [
                random_formula(rng) for _ in range(2)
            ]
            for psi in candidates:
                holds, witness = tm.satisfies(pts, s, psi)
                assert holds == (psi in sat)
                if holds:
                    assert oracles.mimicking_formula(witness) == psi or psi == oracles.TOP_DIST


@st.composite
def sat_queries(draw):
    """A system with silent steps, one of its processes, a mode, and a
    formula: the strong or weak mimicking formula of one of the process's
    resolutions, or a random formula with silent diamonds."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pts, s, _ = random_case(rng, max_count=60, tau_bias=0.3)
    resolutions = oracles.enumerate_resolutions(pts, s)
    kind = draw(st.sampled_from(["strong", "weak", "random"]))
    if kind == "random":
        psi = random_formula(rng, tau_bias=0.3)
    else:
        r = resolutions[draw(st.integers(0, len(resolutions) - 1))]
        psi = (oracles.weak_mimicking_formula if kind == "weak" else oracles.mimicking_formula)(r)
    return pts, s, resolutions, psi, draw(st.booleans())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sat_queries())
def test_satisfies_is_real_value_one_with_the_first_witness(query):
    pts, s, resolutions, psi, weak = query
    holds, witness = tm.satisfies(pts, s, psi, weak=weak)
    assert holds == (tm.real_value(pts, s, psi, weak=weak) == 1)
    # psi read as a distribution over (weakly: tau-erased) traces.
    traces = psi.pushforward(lambda phi: tm.tau_erase(phi.diamonds) if weak else phi.diamonds)
    td_of = tm.weak_trace_distribution if weak else tm.trace_distribution
    first = next((r for r in resolutions if td_of(r) == traces), None)
    assert (holds, witness) == (first is not None, first)


class TestWeakEquivalenceOfFormulas:
    def test_examples(self):
        assert oracles.formulas_weak_equivalent(formula("tau a"), formula("a tau"))
        assert not oracles.formulas_weak_equivalent(formula("a"), formula("b"))
        assert tm.erase_formula(formula("tau a tau b")) == formula("a b")

    def test_agrees_with_recursive_definition(self):
        def equivalent(x, y):
            a, b = x.diamonds, y.diamonds
            if not a and not b:
                return True
            if a and a[0].is_tau:
                return equivalent(tm.TraceFormula(a[1:]), y)
            if b and b[0].is_tau:
                return equivalent(x, tm.TraceFormula(b[1:]))
            return (
                bool(a)
                and bool(b)
                and a[0] == b[0]
                and equivalent(tm.TraceFormula(a[1:]), tm.TraceFormula(b[1:]))
            )

        rng = random.Random(66)
        names = ["a", "b", "tau"]
        for _ in range(200):
            x = formula(" ".join(rng.choice(names) for _ in range(rng.randint(0, 4))))
            y = formula(" ".join(rng.choice(names) for _ in range(rng.randint(0, 4))))
            assert oracles.formulas_weak_equivalent(x, y) == equivalent(x, y)

    def test_dist_level_lifting(self):
        p = tm.Dist({formula("tau a"): Fraction(1, 2), formula("b"): Fraction(1, 2)})
        q = tm.Dist({formula("a"): Fraction(1, 4), formula("a tau"): Fraction(1, 4), formula("tau b"): Fraction(1, 2)})
        assert oracles.dist_formulas_weak_equivalent(p, q)
        r = tm.Dist({formula("a"): Fraction(1, 3), formula("b"): Fraction(2, 3)})
        assert not oracles.dist_formulas_weak_equivalent(p, r)
