"""Acceptance suite: one test per criterion, every check an exact rational
equality (zero tolerance).  Each test prints its own pass/fail line; run
with ``pytest tests/test_acceptance.py -v -s`` to watch them.
"""
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
import tracemet as tm
from conftest import half_zs, half_zt, late_halting_resolution, trace, trace_dist
from genpts import random_case, random_distribution, random_formula, with_tau_prefix
from test_transport import _vertex_enumeration_optimum

SEED = 12345
SYSTEM_COUNT = 100
TRANSPORT_PAIRS = 1000
AXIOM_TRIPLES = 100

HALF = Fraction(1, 2)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({title}): PASS")


def test_criterion_1_half_apart_pair(half_pair):
    with criterion(1, "half-apart pair reproduces exactly 1/2"):
        zs, zt = half_zs(half_pair), half_zt(half_pair)
        assert tm.trace_distribution(zs) == trace_dist({"a c": "1/2", "a": "1/2"})
        assert tm.trace_distribution(zt) == trace_dist({"a c": "1/2", "a b": "1/2"})
        assert oracles.resolution_distance(zs, zt) == HALF
        assert tm.strong_trace_metric(half_pair, "s", "t").value == HALF
        assert tm.strong_trace_equivalent(half_pair, "s", "t") is False


def test_criterion_2_equivalent_pair(equiv_pair):
    with criterion(2, "early/late choice pair is trace equivalent"):
        assert tm.strong_trace_equivalent(equiv_pair, "s", "t") is True
        assert tm.strong_trace_metric(equiv_pair, "s", "t").value == 0
        pairs = [
            # s halts under s1 / takes d under s2  ~  t halts under t1 / d under t2
            ((0, {"s1": None, "s2": (0, {})}), (0, {"t1": None, "t2": (1, {})})),
            # s takes b,d on its first branch     ~  t takes b,d
            ((0, {"s1": (0, {}), "s2": (0, {})}), (0, {"t1": (0, {}), "t2": (1, {})})),
            # s takes d,c on its second branch    ~  t takes c,d
            ((1, {"s3": (1, {}), "s4": (0, {})}), (0, {"t1": (1, {}), "t2": (1, {})})),
        ]
        for plan_s, plan_t in pairs:
            rs = oracles.make_resolution(equiv_pair, "s", plan_s)
            rt = oracles.make_resolution(equiv_pair, "t", plan_t)
            assert oracles.resolution_distance(rs, rt) == 0


def test_criterion_3_compatible_mass_overshoots(equiv_pair):
    with criterion(3, "compatible mass exceeds 1, maximal mass does not"):
        z = late_halting_resolution(equiv_pair)
        pr_a = oracles.pr_compatible(z, trace("a"))
        pr_ad = oracles.pr_compatible(z, trace("a d"))
        assert pr_a == 1
        assert pr_ad == HALF
        assert pr_a + pr_ad > 1
        assert tm.trace_distribution(z).total == 1


def test_criterion_4_formula_distance_vs_flow_oracle():
    with criterion(4, "formula distance 3/10 confirmed by flow oracle"):
        psi1 = tm.parse_formula("0.6 <a><b>T (+) 0.4 <a><c>T")
        psi2 = tm.parse_formula("0.7 <a><c>T (+) 0.3 <a><b>T")
        value = tm.dist_formula_distance(psi1, psi2)
        oracle = oracles.kantorovich_oracle(psi1, psi2, tm.trace_formula_distance)
        assert value == Fraction(3, 10) == oracle


def test_criterion_5_printed_mimicking_formulae(half_pair):
    with criterion(5, "mimicking formulae print canonically"):
        assert (
            tm.print_formula(oracles.mimicking_formula(half_zs(half_pair)))
            == "1/2 <a><c>T (+) 1/2 <a>T"
        )
        assert (
            tm.print_formula(oracles.mimicking_formula(half_zt(half_pair)))
            == "1/2 <a><c>T (+) 1/2 <a><b>T"
        )


class _Case:
    """Shared artifacts for one random system, computed once."""

    def __init__(self, rng: random.Random, tau: bool):
        base, s, t = random_case(rng, max_count=120, tau_bias=0.35 if tau else 0.0)
        self.pts = with_tau_prefix(base, s)
        self.s, self.t = s, t
        self.tau = tau
        self.res_s = oracles.enumerate_resolutions(self.pts, s)
        self.res_t = oracles.enumerate_resolutions(self.pts, t)
        self.strong = tm.strong_trace_metric(self.pts, s, t).value
        self.weak = tm.weak_trace_metric(self.pts, s, t).value
        self.equiv_strong = tm.strong_trace_equivalent(self.pts, s, t)
        self.equiv_weak = tm.weak_trace_equivalent(self.pts, s, t)
        self.set_s = tm.satisfied_set(self.pts, s)
        self.set_t = tm.satisfied_set(self.pts, t)


@pytest.fixture(scope="module")
def property_cases():
    rng = random.Random(SEED)
    return [_Case(rng, tau=(index % 2 == 1)) for index in range(SYSTEM_COUNT)]


def test_criterion_6a_probability_mass(property_cases):
    with criterion(6, "a: maximal-run mass and trace distributions sum to 1"):
        for case in property_cases:
            for r in case.res_s + case.res_t:
                runs = oracles.max_computations(r)
                assert sum(c.probability for c in runs) == 1
                assert tm.trace_distribution(r).total == 1
                assert tm.weak_trace_distribution(r).total == 1


def test_criterion_6b_prefix_sum_law(property_cases):
    with criterion(6, "b: compatible mass equals prefix-sum of maximal runs"):
        for case in property_cases:
            for r in case.res_s[:: max(1, len(case.res_s) // 8)]:
                runs = oracles.max_computations(r)
                prefixes = {c.actions[:k] for c in runs for k in range(len(c) + 1)}
                for alpha in sorted(prefixes):
                    via_max = sum(
                        (c.probability for c in runs if c.actions[: len(alpha)] == alpha),
                        Fraction(0),
                    )
                    assert oracles.pr_compatible(r, alpha) == via_max


def test_criterion_6c_satisfaction_routes_agree(property_cases):
    rng = random.Random(SEED + 6)
    with criterion(6, "c: direct satisfaction equals satisfied-set membership"):
        for case in property_cases:
            sat = set(case.set_s)
            probes = list(case.set_s)[:2] + case.set_t[:2] + [random_formula(rng)]
            for psi in probes:
                holds, witness = tm.satisfies(case.pts, case.s, psi)
                assert holds == (psi in sat)
                if holds:
                    assert oracles.mimicking_formula(witness) == psi


def test_criterion_6d_mimicking_characterizes_matching(property_cases):
    with criterion(6, "d: mimicking (weak-)equality iff run-probability matching"):
        for case in property_cases:
            sample_s = case.res_s[:: max(1, len(case.res_s) // 5)]
            sample_t = case.res_t[:: max(1, len(case.res_t) // 5)]
            for r1 in sample_s:
                for r2 in sample_t:
                    assert (oracles.mimicking_formula(r1) == oracles.mimicking_formula(r2)) == (
                        oracles.compatible_probabilities(r1) == oracles.compatible_probabilities(r2)
                    )
                    assert tm.dist_formulas_weak_equivalent(
                        oracles.mimicking_formula(r1), oracles.mimicking_formula(r2)
                    ) == (
                        oracles.weak_compatible_probabilities(r1)
                        == oracles.weak_compatible_probabilities(r2)
                    )


def test_criterion_6e_logical_distance_is_the_metric(property_cases):
    with criterion(6, "e: logical distance equals trace metric (strong and weak)"):
        for case in property_cases:
            assert tm.logical_distance(case.pts, case.s, case.t) == case.strong
            assert tm.logical_distance(case.pts, case.s, case.t, weak=True) == case.weak


def test_criterion_6f_sup_val_is_the_metric(property_cases):
    with criterion(6, "f: sup-value distance equals the strong metric"):
        for case in property_cases:
            assert tm.sup_val_distance(case.pts, case.s, case.t) == case.strong


def test_criterion_6g_kernels(property_cases):
    with criterion(6, "g: metric and logical kernels are the equivalences"):
        for case in property_cases:
            assert (case.strong == 0) == case.equiv_strong
            assert (case.weak == 0) == case.equiv_weak
            assert (tm.logical_distance(case.pts, case.s, case.t) == 0) == case.equiv_strong
            assert (
                tm.logical_distance(case.pts, case.s, case.t, weak=True) == 0
            ) == case.equiv_weak


def test_criterion_6h_weak_below_strong(property_cases):
    with criterion(6, "h: weak metric never exceeds the strong metric"):
        for case in property_cases:
            assert case.weak <= case.strong


def test_criterion_6i_tau_free_coincidence(property_cases):
    with criterion(6, "i: weak equals strong on silent-free systems"):
        checked = 0
        for case in property_cases:
            if case.tau:
                continue
            assert case.weak == case.strong
            assert case.equiv_weak == case.equiv_strong
            checked += 1
        assert checked >= SYSTEM_COUNT // 2


def test_criterion_6j_tau_prefix_is_weakly_null(property_cases):
    with criterion(6, "j: one silent step is weakly invisible"):
        for case in property_cases:
            assert tm.weak_trace_metric(case.pts, "ptau", case.s).value == 0
            assert tm.weak_trace_equivalent(case.pts, "ptau", case.s)


def test_criterion_7_transport_correctness():
    with criterion(7, "closed-form transport equals the flow oracle"):
        rng = random.Random(SEED + 7)
        quotient = lambda s: s.rstrip("0123456789")
        for index in range(TRANSPORT_PAIRS):
            p = random_distribution(rng, max_support=8)
            q = random_distribution(rng, max_support=8)
            canonical = quotient if index % 2 else None
            assert tm.kantorovich_01(p, q, canonical) == oracles.kantorovich_oracle(
                p, q, oracles.quotient_cost(canonical)
            )
        for _ in range(100):
            p = random_distribution(rng, max_support=3, universe=5)
            q = random_distribution(rng, max_support=3, universe=5)
            cost = lambda a, b: Fraction(0) if a == b else Fraction(1)
            oracle = oracles.kantorovich_oracle(p, q, cost)
            assert oracle == _vertex_enumeration_optimum(p, q, cost)


def test_criterion_8_pseudometric_axioms():
    with criterion(8, "symmetry and triangle inequality, all exact"):
        rng = random.Random(SEED + 8)
        triples = 0
        while triples < AXIOM_TRIPLES:
            pts, s, t = random_case(rng, max_count=60, tau_bias=0.25)
            others = sorted(pts.processes - {s, t})
            if not others:
                continue
            u = rng.choice(others)
            for metric in (tm.strong_trace_metric, tm.weak_trace_metric):
                d_st = metric(pts, s, t).value
                assert 0 <= d_st <= 1
                assert d_st == metric(pts, t, s).value
                d_su = metric(pts, s, u).value
                d_ut = metric(pts, u, t).value
                assert d_st <= d_su + d_ut
            triples += 1
        for _ in range(AXIOM_TRIPLES):
            p, q, r = (random_formula(rng, tau_bias=0.25) for _ in range(3))
            for weak in (False, True):
                d_pq = tm.dist_formula_distance(p, q, weak)
                assert 0 <= d_pq <= 1
                assert d_pq == tm.dist_formula_distance(q, p, weak)
                assert d_pq <= tm.dist_formula_distance(p, r, weak) + tm.dist_formula_distance(
                    r, q, weak
                )
