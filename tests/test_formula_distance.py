import random
from fractions import Fraction
from itertools import chain

import pytest

import oracles
import tracemet as tm
from conftest import HALF_PAIR_TEXT, trace
from genpts import random_case, random_formula, with_tau_prefix
from test_trace_layer import ladder
from tracemet.traces import TraceLayer


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
        assert tm.dist_formula_distance(oracles.TOP_DIST, tm.Dist({formula("a"): 1})) == 1

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
        assert tm.real_value(pts, "u", tm.Dist({formula("a"): 1})) == 0


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
        # Max-min passes (the metric's and the logical distance's), checks of
        # the logical max-min's certificate, and exhaustive sup-value
        # fallbacks, one per mode whose certificate failed.
        import tracemet.formula_distance as fd

        counted = {"max-min": 0, "check": 0, "sweep": 0}

        def counting(name, original):
            def wrapper(*args):
                counted[name] += 1
                return original(*args)
            return wrapper

        for name, attr in [("max-min", "hausdorff_rows"), ("check", "certifies")]:
            monkeypatch.setattr(fd, attr, counting(name, getattr(fd, attr)))
        monkeypatch.setattr(fd, "_sup_val_value", counting_fallbacks(counted))
        return counted

    def test_tau_free_weak_route_reuses_the_strong_passes(self, half_pair, passes):
        # No silent step: the weak rows and sets equal the strong ones, so
        # the three weak values are the strong passes' results.
        report = tm.crosscheck(half_pair, "s", "t")
        assert passes == {"max-min": 2, "check": 1, "sweep": 0}
        assert report.weak_metric == tm.weak_trace_metric(half_pair, "s", "t").value
        assert report.weak_logical_distance == tm.logical_distance(half_pair, "s", "t", weak=True)
        assert report.weak_sup_val_distance == tm.sup_val_distance(half_pair, "s", "t", weak=True)
        assert report.all_equal and report.mismatches == ()

    def test_silent_steps_run_every_weak_pass(self, half_pair, passes):
        pts = with_tau_prefix(half_pair, "s")
        report = tm.crosscheck(pts, "ptau", "t")
        assert passes == {"max-min": 4, "check": 2, "sweep": 0}
        assert report.strong_metric == 1
        assert report.weak_metric == report.weak_logical_distance == Fraction(1, 2)
        assert report.all_equal


class TestFormulaSets:
    # The formula route numbers the layer's trace ids in tables of its own.
    # ``oracles.formula_sets`` spells each trace id as a ``TraceFormula``
    # and erases it; the integer route must give the same strong sets, id
    # for id, and the same weak sets up to a one-to-one relabel.

    def test_random_tau_systems_match_the_reference(self, monkeypatch):
        import tracemet.formula_distance as fd

        rng = random.Random(83)
        merged = 0
        for _ in range(40):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.4)
            layer = TraceLayer(pts, s, t)
            sides = [rows for _, rows in layer.distinct(False)]
            got = zip(fd._formula_sets(layer, sides, False), fd._formula_sets(layer, sides, True))
            want = oracles.formula_sets(layer, sides)
            relabel: dict = {}
            for (strong, weak), (ref_strong, ref_weak) in zip(got, want):
                assert strong == ref_strong
                assert [list(row) for row in strong] == [list(row) for row in ref_strong]
                assert len(weak) == len(ref_weak)
                for row, ref in zip(weak, ref_weak):
                    for key, ref_key in zip(row, ref):
                        assert relabel.setdefault(key, ref_key) == ref_key
                    assert {relabel[key]: w for key, w in row.items()} == ref
                merged += len(set().union(*weak)) < len(set().union(*strong))
            assert len(set(relabel.values())) == len(relabel)

            def answers():
                return [
                    tm.crosscheck(pts, s, t),
                    *(tm.logical_distance(pts, s, t, weak) for weak in (False, True)),
                    *(tm.sup_val_distance(pts, s, t, weak) for weak in (False, True)),
                ]

            with monkeypatch.context() as patched:
                patched.setattr(
                    fd,
                    "_formula_sets",
                    lambda layer, sides, weak: [
                        sets[weak] for sets in oracles.formula_sets(layer, sides)
                    ],
                )
                expected = answers()
            assert answers() == expected
        # Erasure merged formulae in some cases, so the relabel is not vacuous.
        assert merged > 0


class TestOneRoutePerMode:
    # ``logical_distance`` and ``sup_val_distance`` build the asked mode's
    # satisfied sets only, through the ``_formula_sets`` route that
    # ``crosscheck`` runs once per mode.

    def test_library_values_are_crosscheck_fields(self):
        rng = random.Random(97)
        for _ in range(40):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.3)
            report = tm.crosscheck(pts, s, t)
            for weak, logical, supval in (
                (False, report.logical_distance, report.sup_val_distance),
                (True, report.weak_logical_distance, report.weak_sup_val_distance),
            ):
                assert tm.logical_distance(pts, s, t, weak) == logical
                assert tm.sup_val_distance(pts, s, t, weak) == supval

    @pytest.fixture()
    def set_passes(self, monkeypatch):
        """Each ``_formula_sets`` call's mode, and whether it made an
        erasure pass, seen as silent-action tests."""
        import tracemet.formula_distance as fd

        tests = [0]
        is_tau = tm.Action.is_tau.fget

        def counting_is_tau(action):
            tests[0] += 1
            return is_tau(action)

        original = fd._formula_sets
        calls = []

        def counting(layer, sides, weak):
            before = tests[0]
            sets = original(layer, sides, weak)
            calls.append((weak, tests[0] > before))
            return sets

        monkeypatch.setattr(tm.Action, "is_tau", property(counting_is_tau))
        monkeypatch.setattr(fd, "_formula_sets", counting)
        return calls

    def test_each_call_builds_one_mode(self, half_pair, set_passes):
        pts = with_tau_prefix(half_pair, "s")
        assert TraceLayer(pts, "ptau", "t").silent
        for call, calls in [
            (lambda: tm.logical_distance(pts, "ptau", "t"), [(False, False)]),
            (lambda: tm.sup_val_distance(pts, "ptau", "t"), [(False, False)]),
            (lambda: tm.logical_distance(pts, "ptau", "t", weak=True), [(True, True)]),
            (lambda: tm.sup_val_distance(pts, "ptau", "t", weak=True), [(True, True)]),
            (lambda: tm.crosscheck(pts, "ptau", "t"), [(False, False), (True, True)]),
            # No silent step: one strong pass serves both modes.
            (lambda: tm.logical_distance(half_pair, "s", "t", weak=True), [(True, False)]),
            (lambda: tm.crosscheck(half_pair, "s", "t"), [(False, False)]),
        ]:
            set_passes.clear()
            call()
            assert set_passes == calls


def satisfied_sets(pts: tm.PTS, s: str, t: str, weak: bool) -> tuple[list, list, int]:
    """The (weak) satisfied sets of two processes as the formula route
    builds them, then their denominator."""
    layer = TraceLayer(pts, s, t)
    sides = [rows for _, rows in layer.distinct(False)]
    return (*tm.formula_distance._formula_sets(layer, sides, weak), layer.den)


def counting_fallbacks(counted: dict):
    """``_sup_val_value``, counting under "sweep" each call whose
    certificate failed: that mode's one exhaustive fallback."""
    original = tm.formula_distance._sup_val_value

    def wrapper(*args):
        result = original(*args)
        counted["sweep"] += not result[2]
        return result

    return wrapper


def tv(row: dict, other: dict, total: int) -> int:
    return total - sum(min(w, other.get(key, 0)) for key, w in row.items())


class TestCertificate:
    # The sup-value route takes the logical max-min's value D once
    # ``transport.certifies`` proves it from the max-min's certificate, and
    # sweeps every pair (``nearest_distances``, once each way) only where
    # that check fails.

    def test_random_tau_systems(self, monkeypatch):
        import tracemet.formula_distance as fd
        from tracemet.transport import certifies, distinct_rows, hausdorff_rows, nearest_distances

        rng = random.Random(89)
        checked = moved = 0
        fallbacks = {"sweep": 0}
        for _ in range(60):
            pts, s, t = random_case(rng, max_count=80, tau_bias=0.3)
            for weak in (False, True):
                set_s, set_t, total = satisfied_sets(pts, s, t, weak)
                side_s, side_t = distinct_rows(set_s), distinct_rows(set_t)
                rows_s, rows_t = side_s[1], side_t[1]
                d, _, _, certificate = hausdorff_rows(side_s, side_t, total)
                to_t = nearest_distances(rows_s, rows_t, total)
                to_s = nearest_distances(rows_t, rows_s, total)
                assert d == max(to_t + to_s)
                assert certifies(rows_s, rows_t, total, d, certificate)
                assert not certifies(rows_s, rows_t, total, d - 1, certificate)
                assert not certifies(rows_s, rows_t, total, d + 1, certificate)
                # A column short or out of range.
                cols_s, cols_t, side, at = certificate
                assert not certifies(rows_s, rows_t, total, d, (cols_s[:-1], cols_t, side, at))
                out = [len(rows_t)] * len(rows_s)
                assert not certifies(rows_s, rows_t, total, d, (out, cols_t, side, at))
                checked += 1
                # Each row's column moved, in turn, to the first row farther
                # than D from it.
                for rows, others, which in ((rows_s, rows_t, 0), (rows_t, rows_s, 1)):
                    for i, row in enumerate(rows):
                        far = [j for j, other in enumerate(others) if tv(row, other, total) > d]
                        if not far:
                            continue
                        cols = [list(cols_s), list(cols_t)]
                        cols[which][i] = far[0]
                        assert not certifies(rows_s, rows_t, total, d, (*cols, side, at))
                        moved += 1
            with monkeypatch.context() as patched:
                patched.setattr(fd, "_sup_val_value", counting_fallbacks(fallbacks))
                report = tm.crosscheck(pts, s, t)
            assert report.all_equal and report.mismatches == ()
            assert report.weak_sup_val_distance == report.weak_metric
        assert fallbacks == {"sweep": 0}
        assert checked == 120 and moved > 100

    SILENT_HALF_PAIR = HALF_PAIR_TEXT.replace("t2 -b-> 1 nil", "t2 -tau-> 1 t3\nt3 -b-> 1 nil")

    @pytest.fixture(params=["too small", "too large", "wrong column"])
    def mutant(self, request, monkeypatch):
        """The max-min that crosscheck's metric and logical routes share,
        mutated to return a value 1/total too small or too large, or A's
        first row paired with a column farther than the value from it."""
        import tracemet.formula_distance as fd

        original = fd.hausdorff_rows
        moved = []

        def mutated(side_a, side_b, total):
            d, i, j, (cols_a, cols_b, side, at) = original(side_a, side_b, total)
            if request.param == "too small":
                d -= 1
            elif request.param == "too large":
                d += 1
            else:
                row = side_a[1][0]
                far = (j for j, other in enumerate(side_b[1]) if tv(row, other, total) > d)
                cols_a[0] = next(far)
                moved.append(cols_a[0])
            return d, i, j, (cols_a, cols_b, side, at)

        monkeypatch.setattr(fd, "hausdorff_rows", mutated)
        yield request.param
        assert moved or request.param != "wrong column"

    @pytest.mark.parametrize(
        "text, s, t, silent",
        [(None, "x0", "w0", False), (SILENT_HALF_PAIR, "s", "t", True)],
    )
    def test_mutated_max_min_is_caught(
        self, mutant, text, s, t, silent, tmp_path, capsys, monkeypatch
    ):
        import tracemet.cli as cli
        import tracemet.formula_distance as fd

        text = tm.print_pts(ladder(3)) if text is None else text
        pts = tm.parse_pts(text)
        assert TraceLayer(pts, s, t).silent == silent
        # The sweep's values, which the fallback reports.
        sweep, weak_sweep = (
            Fraction(max(chain(
                tm.transport.nearest_distances(set_s, set_t, total),
                tm.transport.nearest_distances(set_t, set_s, total),
            )), total)
            for set_s, set_t, total in (satisfied_sets(pts, s, t, weak) for weak in (False, True))
        )

        fallbacks = {"sweep": 0}
        with monkeypatch.context() as patched:
            patched.setattr(fd, "_sup_val_value", counting_fallbacks(fallbacks))
            report = tm.crosscheck(pts, s, t)
        # One fallback per mode: a tau-free weak route reuses the strong one.
        assert fallbacks == {"sweep": 2 if silent else 1}
        assert not report.all_equal
        assert report.sup_val_distance == sweep
        assert report.weak_sup_val_distance == weak_sweep
        assert any("certificate of the strong logical distance" in m for m in report.mismatches)
        assert any(m.startswith("(derived) certificate of the weak") for m in report.mismatches)
        if mutant != "wrong column":
            assert report.strong_metric != sweep
            assert f"sup-value distance {sweep} != strong metric" in "\n".join(report.mismatches)

        path = tmp_path / "system.pts"
        path.write_text(text)
        code = cli.main(["crosscheck", str(path), "-p", s, "-q", t])
        out, err = capsys.readouterr()
        assert code == 3
        assert "all equal: false" in out and "crosscheck failed: " in err
        assert "Traceback" not in out + err
