import random
from fractions import Fraction

import pytest

import oracles
import tracemet as tm
from conftest import trace
from genpts import random_case, random_formula, with_tau_prefix


def formula(text: str) -> tm.TraceFormula:
    return tm.TraceFormula(trace(text))


class TestTraceFormulaDistance:
    def test_strong(self):
        assert oracles.trace_formula_distance(formula("a c"), formula("a c")) == 0
        assert oracles.trace_formula_distance(formula("a c"), formula("a b")) == 1
        assert oracles.trace_formula_distance(formula("a"), tm.TOP) == 1

    def test_weak(self):
        assert oracles.trace_formula_distance(formula("tau a"), formula("a"), weak=True) == 0
        assert oracles.trace_formula_distance(formula("tau a"), formula("b"), weak=True) == 1
        assert oracles.trace_formula_distance(formula("tau a"), formula("a"), weak=False) == 1


class TestDistFormulaDistance:
    def test_known_value_with_oracle(self):
        psi1 = tm.parse_formula("0.6 <a><b>T (+) 0.4 <a><c>T")
        psi2 = tm.parse_formula("0.7 <a><c>T (+) 0.3 <a><b>T")
        value = tm.dist_formula_distance(psi1, psi2)
        assert value == Fraction(3, 10)
        assert value == oracles.kantorovich_oracle(
            psi1, psi2, lambda x, y: oracles.trace_formula_distance(x, y)
        )

    def test_reflexive(self):
        psi = tm.parse_formula("1 <a>T")
        assert tm.dist_formula_distance(psi, psi) == 0

    def test_weak_kernel_is_formula_equivalence(self):
        rng = random.Random(71)
        for _ in range(60):
            p = random_formula(rng, tau_bias=0.4)
            q = random_formula(rng, tau_bias=0.4)
            zero = tm.dist_formula_distance(p, q, weak=True) == 0
            assert zero == oracles.dist_formulas_weak_equivalent(p, q)

    def test_weak_matches_flow_solver(self):
        # The flow solver reads the weak 0/1 cost pair by pair, where the
        # kernel canonicalizes both formulae and takes their TV distance.
        rng = random.Random(79)
        weak_cost = lambda x, y: oracles.trace_formula_distance(x, y, weak=True)
        closer = 0
        for _ in range(60):
            psi = random_formula(rng, tau_bias=0.4)
            formulas = [random_formula(rng, tau_bias=0.4) for _ in range(rng.randint(1, 4))]
            values = [oracles.kantorovich_oracle(psi, phi, weak_cost) for phi in formulas]
            assert [tm.dist_formula_distance(psi, phi, weak=True) for phi in formulas] == values
            assert oracles.distance_to_set(psi, formulas, weak=True) == min(values)
            strong = [tm.dist_formula_distance(psi, phi) for phi in formulas]
            closer += sum(0 < v < d for v, d in zip(values, strong))
        # Erasure brings formulae closer without making them equal.
        assert closer > 0

    def test_mimicking_vs_weak_mimicking_is_weakly_null(self):
        rng = random.Random(72)
        for _ in range(8):
            pts, s, _ = random_case(rng, max_count=60, tau_bias=0.4)
            for r in oracles.enumerate_resolutions(pts, s)[:15]:
                assert (
                    tm.dist_formula_distance(
                        oracles.mimicking_formula(r), oracles.weak_mimicking_formula(r), weak=True
                    )
                    == 0
                )

    def test_metric_axioms(self):
        rng = random.Random(73)
        for _ in range(60):
            p, q, r = (random_formula(rng, tau_bias=0.2) for _ in range(3))
            dpq = tm.dist_formula_distance(p, q)
            assert dpq == tm.dist_formula_distance(q, p)
            assert (dpq == 0) == (p == q)
            assert dpq <= tm.dist_formula_distance(p, r) + tm.dist_formula_distance(r, q)
            wpq = tm.dist_formula_distance(p, q, weak=True)
            assert wpq <= dpq
            assert wpq == tm.dist_formula_distance(q, p, weak=True)
            assert wpq <= tm.dist_formula_distance(p, r, weak=True) + tm.dist_formula_distance(
                r, q, weak=True
            )


class TestLogicalDistance:
    def test_half_pair(self, half_pair):
        assert tm.logical_distance(half_pair, "s", "t") == Fraction(1, 2)

    def test_reflexive(self, half_pair):
        assert tm.logical_distance(half_pair, "s", "s") == 0

    def test_equiv_pair_is_zero(self, equiv_pair):
        assert tm.logical_distance(equiv_pair, "s", "t") == 0

    def test_matches_trace_metric(self):
        rng = random.Random(74)
        for _ in range(10):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.25)
            assert tm.logical_distance(pts, s, t) == tm.strong_trace_metric(pts, s, t).value
            assert (
                tm.logical_distance(pts, s, t, weak=True)
                == tm.weak_trace_metric(pts, s, t).value
            )

    def test_weak_kernel(self, half_pair):
        pts = with_tau_prefix(half_pair, "s")
        assert tm.logical_distance(pts, "ptau", "s", weak=True) == 0
        assert tm.logical_distance(pts, "ptau", "s") > 0


class TestDistanceToSet:
    # The distance from a formula to a process's satisfied set is one minus
    # its real value there.

    def test_member_is_at_zero(self, half_pair):
        formulas = tm.satisfied_set(half_pair, "s")
        assert all(tm.real_value(half_pair, "s", psi) == 1 for psi in formulas)

    def test_disjoint_singletons(self):
        assert tm.dist_formula_distance(oracles.TOP_DIST, tm.Dist.dirac(formula("a"))) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            tm.transport.nearest_distances([{0: 1}], [], 1)

    def test_is_brute_force_min(self, half_pair):
        rng = random.Random(75)
        formulas = tm.satisfied_set(half_pair, "t")
        for _ in range(20):
            psi = random_formula(rng)
            expected = min(tm.dist_formula_distance(psi, other) for other in formulas)
            assert 1 - tm.real_value(half_pair, "t", psi) == expected


class TestRealValue:
    def test_satisfied_formula_is_one(self, half_pair):
        psi = tm.parse_formula("0.5 <a><c>T (+) 0.5 <a><b>T")
        assert tm.real_value(half_pair, "t", psi) == 1

    def test_half_pair_near_miss(self, half_pair):
        psi = tm.parse_formula("0.5 <a><c>T (+) 0.5 <a><b>T")
        assert tm.real_value(half_pair, "s", psi) == Fraction(1, 2)

    def test_terminal_process(self):
        pts = tm.parse_pts("s -a-> 1 u")
        assert tm.real_value(pts, "u", tm.Dist.dirac(formula("a"))) == 0


class TestSupValDistance:
    def test_half_pair(self, half_pair):
        assert tm.sup_val_distance(half_pair, "s", "t") == Fraction(1, 2)

    def test_reflexive(self, half_pair):
        assert tm.sup_val_distance(half_pair, "s", "s") == 0

    def test_weak_kernel(self, half_pair):
        pts = with_tau_prefix(half_pair, "s")
        assert tm.sup_val_distance(pts, "ptau", "s", weak=True) == 0
        assert tm.sup_val_distance(pts, "ptau", "s") > 0

    def test_matches_trace_metric(self):
        rng = random.Random(76)
        for _ in range(10):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.2)
            assert tm.sup_val_distance(pts, s, t) == tm.strong_trace_metric(pts, s, t).value

    def test_value_gap_is_bounded_by_metric(self):
        rng = random.Random(77)
        for _ in range(8):
            pts, s, t = random_case(rng, max_count=80)
            bound = tm.strong_trace_metric(pts, s, t).value
            for _ in range(5):
                psi = random_formula(rng)
                gap = abs(tm.real_value(pts, s, psi) - tm.real_value(pts, t, psi))
                assert gap <= bound


class TestCrossCheck:
    def test_half_pair(self, half_pair):
        report = tm.crosscheck(half_pair, "s", "t")
        half = Fraction(1, 2)
        assert report.strong_metric == half
        assert report.logical_distance == half
        assert report.sup_val_distance == half
        assert report.weak_metric == half
        assert report.weak_logical_distance == half
        assert report.weak_sup_val_distance == half
        assert report.all_equal and report.mismatches == ()

    def test_equiv_pair_all_zero(self, equiv_pair):
        report = tm.crosscheck(equiv_pair, "s", "t")
        assert report.all_equal
        assert report.strong_metric == report.weak_metric == 0

    def test_reflexive_all_zero(self, half_pair):
        report = tm.crosscheck(half_pair, "s", "s")
        assert report.all_equal and report.strong_metric == 0

    def test_random_systems_always_agree(self):
        rng = random.Random(78)
        for _ in range(8):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.3)
            report = tm.crosscheck(pts, s, t)
            assert report.all_equal, report.mismatches
            assert report.weak_sup_val_distance == report.weak_metric

    @pytest.fixture()
    def passes(self, monkeypatch):
        import tracemet.formula_distance as fd

        counted = {"max-min": 0, "sup-value": 0}

        def counting(name, original):
            def wrapper(*args):
                counted[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(fd, "_hausdorff_value", counting("max-min", fd._hausdorff_value))
        monkeypatch.setattr(fd, "_sup_val_value", counting("sup-value", fd._sup_val_value))
        return counted

    def test_tau_free_weak_route_reuses_the_strong_passes(self, half_pair, passes):
        # No silent step: the weak rows and sets equal the strong ones, so
        # the three weak values are the strong passes' results.
        report = tm.crosscheck(half_pair, "s", "t")
        assert passes == {"max-min": 2, "sup-value": 1}
        assert report.weak_metric == tm.weak_trace_metric(half_pair, "s", "t").value
        assert report.weak_logical_distance == tm.logical_distance(half_pair, "s", "t", weak=True)
        assert report.weak_sup_val_distance == tm.sup_val_distance(half_pair, "s", "t", weak=True)
        assert report.all_equal and report.mismatches == ()

    def test_silent_steps_run_every_weak_pass(self, half_pair, passes):
        pts = with_tau_prefix(half_pair, "s")
        report = tm.crosscheck(pts, "ptau", "t")
        assert passes == {"max-min": 4, "sup-value": 2}
        assert report.strong_metric == 1
        assert report.weak_metric == report.weak_logical_distance == Fraction(1, 2)
        assert report.all_equal
