import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from conftest import trace
from genpts import random_formula, random_pts


class TestParsePts:
    def test_rational_literals(self):
        pts = tm.parse_pts("s -a-> 1/3 u, 2/3 v")
        (row,) = pts.transitions_of("s")
        assert row.action == tm.Action("a")
        assert row.target == tm.Dist({"u": Fraction(1, 3), "v": Fraction(2, 3)})

    def test_decimals_are_exact(self):
        pts = tm.parse_pts("s -a-> 0.5 u, 0.25 v, 0.25 w")
        (row,) = pts.transitions_of("s")
        assert row.target["u"] == Fraction(1, 2)
        assert row.target["v"] == Fraction(1, 4)

    def test_two_branches_same_action(self):
        pts = tm.parse_pts("s -a-> 0.5 u, 0.5 v\ns -a-> 1 w")
        rows = pts.transitions_of("s")
        assert len(rows) == 2
        assert rows[0].action == rows[1].action == tm.Action("a")
        assert rows[0].target != rows[1].target

    def test_referenced_ids_become_terminal(self):
        pts = tm.parse_pts("s -a-> 1 u")
        assert pts.processes == {"s", "u"}
        assert pts.is_terminal("u")

    def test_comments_and_blank_lines(self):
        pts = tm.parse_pts("# header\n\ns -a-> 1 u  # trailing\n")
        assert pts.transitions_of("s")[0].target == tm.Dist.dirac("u")

    def test_crlf_line_endings(self):
        assert tm.parse_pts("s -a-> 1 u\r\nu -b-> 1 nil\r\n") == tm.parse_pts(
            "s -a-> 1 u\nu -b-> 1 nil\n"
        )

    def test_tau_action(self):
        pts = tm.parse_pts("s -tau-> 1 u")
        assert pts.transitions_of("s")[0].action.is_tau

    def test_weight_sum_error(self):
        with pytest.raises(tm.ParseError) as err:
            tm.parse_pts("s -a-> 0.5 s1, 0.4 s2")
        assert "weights sum to 9/10 != 1" in str(err.value)

    def test_probability_range_errors(self):
        with pytest.raises(tm.ParseError, match="outside"):
            tm.parse_pts("s -a-> 0 u, 1 v")
        with pytest.raises(tm.ParseError, match="outside"):
            tm.parse_pts("s -a-> 3/2 u")
        with pytest.raises(tm.ParseError, match="zero denominator"):
            tm.parse_pts("s -a-> 1/0 u")

    def test_syntax_error_has_position(self):
        with pytest.raises(tm.ParseError) as err:
            tm.parse_pts("s -a-> 1 u\nbroken line here\n")
        issue = err.value.issues[0]
        assert issue.span is not None and issue.span.line == 2

    def test_missing_targets(self):
        with pytest.raises(tm.ParseError, match="expected a probability"):
            tm.parse_pts("s -a->")

    def test_trailing_garbage(self):
        with pytest.raises(tm.ParseError, match="trailing input"):
            tm.parse_pts("s -a-> 1 u extra")

    def test_all_line_errors_are_collected(self):
        with pytest.raises(tm.ParseError) as err:
            tm.parse_pts("oops\nalso oops\n")
        assert len(err.value.issues) == 2

    def test_cycle_rejected(self):
        with pytest.raises(tm.ParseError, match="cycle"):
            tm.parse_pts("a -x-> 1 b\nb -x-> 1 a")

    def test_duplicate_transition_collapses_with_warning(self):
        with pytest.warns(tm.ParserWarning, match="duplicate transition"):
            pts = tm.parse_pts("s -a-> 1 u\ns -a-> 1 u")
        assert len(pts.transitions_of("s")) == 1

    def test_duplicate_check_is_linear_in_a_source_s_transitions(self, monkeypatch):
        # A fan s -a-> 1 t_i, then its first line again: checking each new
        # transition against a list of the source's earlier ones compares
        # about n^2/2 pairs of targets, a hashed set one per duplicate.
        n = 3000
        calls = [0]
        original = tm.Dist.__eq__

        def counting(self, other):
            calls[0] += 1
            return original(self, other)

        monkeypatch.setattr(tm.Dist, "__eq__", counting)
        text = "".join(f"s -a-> 1 t{i}\n" for i in range(n)) + "s -a-> 1 t0\n"
        with pytest.warns(tm.ParserWarning, match=f"line {n + 1}: duplicate transition"):
            pts = tm.parse_pts(text)
        assert [row.target.support for row in pts.transitions_of("s")] == [
            (f"t{i}",) for i in range(n)
        ]
        assert calls[0] <= 2 * n

    def test_duplicate_check_hashes_no_fraction(self, monkeypatch):
        # The check keys each transition on strings and ints; hashing the
        # Transition would hash one Fraction per weight.
        calls = [0]
        original = Fraction.__hash__

        def counting(self):
            calls[0] += 1
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        text = "".join(f"s -a-> 1/2 t{i}, 1/2 u{i}\n" for i in range(50)) + "s -a-> 1/2 t0, 1/2 u0\n"
        with pytest.warns(tm.ParserWarning, match="line 51: duplicate transition"):
            pts = tm.parse_pts(text)
        assert len(pts.transitions_of("s")) == 50
        assert calls[0] == 0

    def test_duplicate_target_in_line_merges_with_warning(self):
        with pytest.warns(tm.ParserWarning, match="duplicate target"):
            pts = tm.parse_pts("s -a-> 1/2 u, 1/2 u")
        assert pts.transitions_of("s")[0].target == tm.Dist.dirac("u")


NAMES = ("p0", "p1", "p2", "p3", "p4")
SPACES = st.sampled_from(["", " ", "  ", "\t"])
BAD_PROBABILITIES = ("x", "1/0", "3/0", "0", "0.0", "0/4", "3/2", "2", ".5", "1.")


@st.composite
def probability_texts(draw, parts: list[int], den: int) -> list[str]:
    """Each part over ``den`` as p/q (unreduced), a decimal where it is
    exact, or ``1``."""
    out = []
    for part in parts:
        value = Fraction(part, den)
        forms = [f"{part}/{den}"]
        if value == 1:
            forms.append("1")
        if (10**4 * value).denominator == 1:
            forms.append(f"{float(value):.4f}".rstrip("0").rstrip(".") if value < 1 else "1.0")
        out.append(draw(st.sampled_from(forms)))
    return out


@st.composite
def transition_lines(draw) -> str:
    """One line: a transition, well formed or with one corruption, a
    comment or a blank line."""
    kind = draw(st.sampled_from(
        ["ok"] * 8 + ["comment", "blank", "no_arrow", "bad_prob", "trailing",
                      "dup_target", "bad_sum", "back_edge"]
    ))
    if kind == "comment":
        return draw(SPACES) + "# " + draw(st.sampled_from(["note", "s -a-> 1 u", ""]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    src = draw(st.integers(0, len(NAMES) - 2))
    later = NAMES[src + 1:]
    targets = draw(st.lists(st.sampled_from(later), min_size=1, max_size=3, unique=True))
    if kind == "back_edge":
        targets[-1] = NAMES[draw(st.integers(0, src))]
        targets = list(dict.fromkeys(targets))
    if kind == "dup_target":
        targets.append(targets[0])
    den = draw(st.sampled_from([2, 3, 4, 5, 8, 10])) if len(targets) > 1 else draw(st.sampled_from([1, 2, 4]))
    den = max(den, len(targets))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), min_size=len(targets) - 1,
                                max_size=len(targets) - 1, unique=True))) if len(targets) > 1 else []
    bounds = [0, *cuts, den]
    parts = [bounds[i + 1] - bounds[i] for i in range(len(targets))]
    if kind == "bad_sum":
        parts[-1] = max(1, parts[-1] + draw(st.sampled_from([-1, 1])))
        if sum(parts) == den:
            parts[-1] += 1
    probs = draw(probability_texts(parts, den))
    if kind == "bad_prob":
        probs[draw(st.integers(0, len(probs) - 1))] = draw(st.sampled_from(BAD_PROBABILITIES))
    sp = draw(SPACES)
    body = ("," + sp).join(f"{prob} {target}" for prob, target in zip(probs, targets))
    arrow = draw(st.sampled_from(["-{}->", " -{}-> ", " - {} -> "])).format(
        draw(st.sampled_from(["a", "b", "tau"]))
    )
    if kind == "no_arrow":
        arrow = draw(st.sampled_from([" {} ", " -{} ", " {}-> "])).format("a")
    line = NAMES[src] + arrow + sp + body
    if kind == "trailing":
        line += draw(st.sampled_from([" junk", " 1", ",", " -> p4", "  x y"]))
    return line + draw(st.sampled_from(["", "  ", " # tail", "\r"]))


@st.composite
def system_texts(draw) -> str:
    lines = draw(st.lists(transition_lines(), min_size=0, max_size=7))
    # Exact and reordered duplicates of whole lines.
    for _ in range(draw(st.integers(0, 2))):
        if lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, text: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", tm.ParserWarning)
        try:
            result = parse(text)
        except tm.ParseError as exc:
            result = ("error", exc.issues, str(exc))
    return result, [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None)
@given(system_texts())
def test_parse_pts_matches_reference(text):
    # Equal systems, or equal issues (message and span), and equal warnings.
    assert _outcome(tm.parse_pts, text) == _outcome(oracles.parse_pts, text)


@pytest.mark.parametrize("text", [
    "p0 a 1 p1", "p0 -a-> 1/0 p1", "p0 -a-> 0 p1", "p0 -a-> 3/2 p1", "p0 -a-> x p1",
    "p0 -a-> 1 p1 junk", "p0 -a-> 1/2 p1, 1/2 p1", "p0 -a-> 1/2 p1, 1/4 p2",
    "p0 -a-> 1 p1\np1 -b-> 1 p0", "# c\n\np0 -a-> 0.5 p1, 1/2 p2 # t\n",
    "p0 -a-> 1 p1\np0 -a-> 1 p1", "p0 -a-> 1/2 p1, 1/2 p2\np0 -a-> 1/2 p2, 1/2 p1",
    "bad\np0 -a-> 1/0 p1, 1/0 p2\np1 -b-> 1/2 p2\n", "",
    "p0 -a-> 3/2 p1\np1 -b-> 3/2 p2\np2 -c-> 0 p3, 1 p4\np3 -a-> 0 p4, 1 p4",
])
def test_parse_pts_matches_reference_on_each_corruption(text):
    assert _outcome(tm.parse_pts, text) == _outcome(oracles.parse_pts, text)


class TestParseFormula:
    def test_basic(self):
        psi = tm.parse_formula("0.5 <a><c>T (+) 0.5 <a><b>T")
        assert psi == tm.Dist(
            {
                tm.TraceFormula(trace("a c")): Fraction(1, 2),
                tm.TraceFormula(trace("a b")): Fraction(1, 2),
            }
        )

    def test_top(self):
        assert tm.parse_formula("1 T") == oracles.TOP_DIST

    def test_duplicates_merge_with_warning(self):
        with pytest.warns(tm.ParserWarning, match="merged"):
            psi = tm.parse_formula("0.3 <a>T (+) 0.7 <a>T")
        assert psi == tm.Dist.dirac(tm.TraceFormula(trace("a")))

    def test_weight_sum_error(self):
        with pytest.raises(tm.ParseError, match="weights sum to"):
            tm.parse_formula("0.5 <a>T")

    def test_nonpositive_weight_error(self):
        with pytest.raises(tm.ParseError, match="outside"):
            tm.parse_formula("0 <a>T (+) 1 <b>T")

    def test_tau_diamonds(self):
        psi = tm.parse_formula("1 <tau><a>T")
        (phi,) = psi.support
        assert phi.diamonds[0].is_tau

    def test_syntax_error(self):
        with pytest.raises(tm.ParseError):
            tm.parse_formula("1 <a>")


class TestPrinting:
    def test_print_formula_examples(self, half_pair):
        from conftest import half_zs, half_zt

        assert tm.print_formula(oracles.mimicking_formula(half_zs(half_pair))) == "1/2 <a><c>T (+) 1/2 <a>T"
        assert tm.print_formula(oracles.mimicking_formula(half_zt(half_pair))) == "1/2 <a><c>T (+) 1/2 <a><b>T"
        assert tm.print_formula(oracles.TOP_DIST) == "1 T"

    def test_pts_round_trip(self, half_pair, equiv_pair):
        for pts in (half_pair, equiv_pair, tm.parse_pts("s -tau-> 1 u\nu -a-> 1 nil")):
            assert tm.parse_pts(tm.print_pts(pts)) == pts

    def test_random_pts_round_trip(self):
        rng = random.Random(11)
        for _ in range(40):
            pts = random_pts(rng, tau_bias=0.2)
            referenced = {q for rows in pts.transitions.values() for row in rows for q in row.target.support}
            printable = all(pts.transitions.get(p) or p in referenced for p in pts.processes)
            printed = tm.print_pts(pts)
            reparsed = tm.parse_pts(printed) if printed else pts
            if printable and printed:
                assert reparsed == pts
            # printing is canonical: a second round trip is the identity
            assert tm.print_pts(reparsed) == (printed if printed else tm.print_pts(pts))

    def test_random_formula_round_trip(self):
        rng = random.Random(12)
        for _ in range(60):
            psi = random_formula(rng, tau_bias=0.2)
            assert tm.parse_formula(tm.print_formula(psi)) == psi

    def test_print_trace(self):
        assert tm.print_trace(trace("a c")) == "a c"
        assert tm.print_trace(()) == "ε"
