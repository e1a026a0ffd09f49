import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
import tracemet
import tracemet.cli as cli
from conftest import EQUIV_PAIR_TEXT, HALF_PAIR_TEXT
from genpts import random_case
from golden.generate import ladder_text
from test_parser import system_texts


@pytest.fixture()
def half_file(tmp_path):
    path = tmp_path / "half.pts"
    path.write_text(HALF_PAIR_TEXT)
    return str(path)


@pytest.fixture()
def equiv_file(tmp_path):
    path = tmp_path / "equiv.pts"
    path.write_text(EQUIV_PAIR_TEXT)
    return str(path)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # --help and --version
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_file(self, capsys, half_file):
        code, out, _ = run(capsys, "validate", half_file)
        assert code == 0
        assert out.startswith("valid")

    def test_invalid_sum(self, capsys, tmp_path):
        bad = tmp_path / "bad.pts"
        bad.write_text("s -a-> 0.5 s1, 0.4 s2\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "weights sum to 9/10 != 1" in out

    def test_warning_surfaces(self, capsys, tmp_path):
        dup = tmp_path / "dup.pts"
        dup.write_text("s -a-> 1 u\ns -a-> 1 u\n")
        code, out, _ = run(capsys, "validate", str(dup))
        assert code == 0
        assert "duplicate transition" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.pts")
        assert code == 1 and "cannot read" in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_invalid_file_reports_its_warnings_once_in_the_output(self, capsys, tmp_path, flags):
        bad = tmp_path / "bad.pts"
        bad.write_text("s -a-> 1/2 t, 1/2 t\nu -b-> 2 t\n")
        code, out, err = run(capsys, "validate", str(bad), *flags)
        assert (code, err) == (1, "")
        warning = "line 1: duplicate target 't' merged"
        if flags:
            payload = json.loads(out)
            assert payload["valid"] is False and payload["warnings"] == [warning]
        else:
            lines = out.splitlines()
            assert lines[0] == "invalid" and lines[1].startswith("  error: ")
            assert lines[2:] == [f"  warning: {warning}"]


class TestMetric:
    def test_text_output(self, capsys, half_file):
        code, out, _ = run(capsys, "metric", half_file, "-p", "s", "-q", "t")
        assert code == 0
        assert out.splitlines()[0] == "1/2 (0.5)"

    def test_weak_flag(self, capsys, half_file):
        code, out, _ = run(capsys, "metric", half_file, "-p", "s", "-q", "t", "--weak")
        assert code == 0 and out.splitlines()[0] == "1/2 (0.5)"

    def test_json_is_stable(self, capsys, half_file):
        code, out1, _ = run(capsys, "metric", half_file, "-p", "s", "-q", "t", "--json")
        code2, out2, _ = run(capsys, "metric", half_file, "-p", "s", "-q", "t", "--json")
        assert code == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["value"] == {"num": "1", "den": "2"}
        assert payload["witness"] is not None

    def test_unknown_process(self, capsys, half_file):
        code, _, err = run(capsys, "metric", half_file, "-p", "zz", "-q", "t")
        assert code == 1 and "unknown process" in err


class TestEquiv:
    def test_equivalent_pair(self, capsys, equiv_file):
        code, out, _ = run(capsys, "equiv", equiv_file, "-p", "s", "-q", "t")
        assert code == 0 and out.splitlines()[0] == "true"

    def test_apart_pair_shows_distinguisher(self, capsys, half_file):
        code, out, _ = run(capsys, "equiv", half_file, "-p", "s", "-q", "t")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "false"
        assert any("distinguishing resolution" in line for line in lines)

    def test_weak_equivalence_with_tau(self, capsys, tmp_path):
        text = "sp -tau-> 1 s\n" + HALF_PAIR_TEXT
        path = tmp_path / "tau.pts"
        path.write_text(text)
        code, out, _ = run(capsys, "equiv", str(path), "-p", "sp", "-q", "s", "--weak")
        assert code == 0 and out.splitlines()[0] == "true"
        code, out, _ = run(capsys, "equiv", str(path), "-p", "sp", "-q", "s")
        assert out.splitlines()[0] == "false"

    def test_weak_distinguisher_shows_its_weak_trace_distribution(self, capsys, tmp_path):
        path = tmp_path / "tau.pts"
        path.write_text("r -tau-> 1 u\nu -a-> 1 nil\nv -b-> 1 nil\n")
        code, out, _ = run(capsys, "equiv", str(path), "-p", "r", "-q", "v", "--weak")
        assert code == 0 and out.splitlines()[-1] == "  TD: 1 a"
        code, out, _ = run(capsys, "equiv", str(path), "-p", "r", "-q", "v", "--weak", "--json")
        found = json.loads(out)["distinguishing"]
        assert found["trace_distribution"] == [
            {"trace": ["a"], "probability": {"num": "1", "den": "1"}}
        ]


class TestSat:
    def test_positive(self, capsys, half_file):
        code, out, _ = run(capsys, "sat", half_file, "-p", "t", "-f", "0.5 <a><c>T (+) 0.5 <a><b>T")
        assert code == 0
        assert out.splitlines()[0] == "true"
        assert "witness resolution" in out

    def test_negative(self, capsys, half_file):
        code, out, _ = run(capsys, "sat", half_file, "-p", "s", "-f", "0.5 <a><c>T (+) 0.5 <a><b>T")
        assert code == 0 and out.splitlines()[0] == "false"

    def test_weak_sat(self, capsys, tmp_path):
        path = tmp_path / "tau.pts"
        path.write_text("r -tau-> 1 u\nu -a-> 1 nil\n")
        code, out, _ = run(capsys, "sat", str(path), "-p", "r", "-f", "1 <a>T", "--weak")
        assert code == 0 and out.splitlines()[0] == "true"
        code, out, _ = run(capsys, "sat", str(path), "-p", "r", "-f", "1 <a>T")
        assert out.splitlines()[0] == "false"

    def test_bad_formula(self, capsys, half_file):
        code, _, err = run(capsys, "sat", half_file, "-p", "s", "-f", "0.5 <a>T")
        assert code == 1 and "invalid formula" in err

    def test_formula_from_psi_file(self, capsys, half_file, tmp_path):
        psi = tmp_path / "query.psi"
        psi.write_text("0.5 <a><c>T (+) 0.5 <a><b>T\n")
        code, out, _ = run(capsys, "sat", half_file, "-p", "t", "-f", str(psi))
        assert code == 0 and out.splitlines()[0] == "true"


class TestOtherCommands:
    def test_fdist(self, capsys):
        code, out, _ = run(
            capsys,
            "fdist",
            "-f1", "0.6 <a><b>T (+) 0.4 <a><c>T",
            "-f2", "0.7 <a><c>T (+) 0.3 <a><b>T",
        )
        assert code == 0 and out.splitlines()[0] == "3/10 (0.3)"

    def test_val(self, capsys, half_file):
        code, out, _ = run(capsys, "val", half_file, "-p", "s", "-f", "0.5 <a><c>T (+) 0.5 <a><b>T")
        assert code == 0 and out.splitlines()[0] == "1/2 (0.5)"

    def test_mimic(self, capsys, half_file):
        code, out, _ = run(capsys, "mimic", half_file, "-p", "s")
        assert code == 0
        assert "1/2 <a><c>T (+) 1/2 <a>T" in out.splitlines()

    def test_resolutions_with_limit(self, capsys, half_file):
        code, out, _ = run(capsys, "resolutions", half_file, "-p", "t", "--limit", "2")
        assert code == 0
        assert out.splitlines()[0] == "10 resolutions of t"
        assert "more (raise --limit)" in out
        # A negative limit is a usage error, not a slice from the end.
        for limit in ("-1", "-3"):
            code, out, err = run(capsys, "resolutions", half_file, "-p", "t", "--limit", limit)
            assert (code, out) == (1, "")
            assert err.strip() == f"--limit must not be negative, got {limit}"
        code, out, _ = run(capsys, "resolutions", half_file, "-p", "t", "--limit", "0", "--json")
        assert code == 0 and (json.loads(out)["count"], json.loads(out)["shown"]) == (10, 0)

    def test_resolutions_reads_the_file_and_process_before_the_limit(self, capsys, half_file):
        code, out, err = run(capsys, "resolutions", "/nonexistent.pts", "-p", "s", "--limit", "-1")
        assert (code, out) == (1, "") and err.startswith("cannot read /nonexistent.pts")
        code, out, err = run(capsys, "resolutions", half_file, "-p", "ghost", "--limit", "-1")
        assert (code, out, err) == (1, "", "unknown process 'ghost'\n")

    def test_crosscheck_ok(self, capsys, half_file):
        code, out, _ = run(capsys, "crosscheck", half_file, "-p", "s", "-q", "t")
        assert code == 0
        assert "all equal: true" in out

    def test_crosscheck_json(self, capsys, half_file):
        code, out, _ = run(capsys, "crosscheck", half_file, "-p", "s", "-q", "t", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert payload["strong_metric"] == {"num": "1", "den": "2"}


def test_json_builds_no_text_lines(capsys, half_file, monkeypatch):
    # Under --json the text formatters are never called: a witness's lines
    # would otherwise be built only to be discarded.  mimic spells each
    # formula entry for the one mode it prints, with no formatter to refuse.
    def refuse(*args, **kwargs):
        raise AssertionError("text line built under --json")

    monkeypatch.setattr(cli, "print_trace_distribution", refuse)
    monkeypatch.setattr(cli, "_resolution_lines", refuse)
    for argv in (
        ("mimic", half_file, "-p", "s"),
        ("metric", half_file, "-p", "s", "-q", "t"),
        ("equiv", half_file, "-p", "s", "-q", "t"),
        ("sat", half_file, "-p", "s", "-f", "1 <a><b>T"),
        ("resolutions", half_file, "-p", "t", "--limit", "2"),
    ):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        json.loads(out)


def test_text_builds_no_json_entries(capsys, half_file, monkeypatch):
    # In text mode the JSON formatters are never called: a witness's entry
    # would otherwise be built only to be discarded.
    def refuse(*args, **kwargs):
        raise AssertionError("JSON entry built in text mode")

    monkeypatch.setattr(cli, "_resolution_json", refuse)
    monkeypatch.setattr(cli, "_dist_json", refuse)
    for first, argv in (
        ("1/2 (0.5)", ("metric", half_file, "-p", "s", "-q", "t")),
        ("false", ("equiv", half_file, "-p", "s", "-q", "t")),
        ("true", ("sat", half_file, "-p", "s", "-f", "1 <a><b>T")),
        ("10 resolutions of t", ("resolutions", half_file, "-p", "t", "--limit", "2")),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == first


def reference_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


json_strings = st.text() | st.sampled_from(
    ["", "\x00\x1f\x7f", "caf\xe9", "\u2028", "\U0001f600", '"\\/']
)
json_leaves = st.none() | st.booleans() | st.integers() | json_strings
json_payloads = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(json_strings, kids, max_size=4),
    max_leaves=30,
)


class TestDumps:
    """``cli._dumps`` writes what ``json.dumps(indent=2, sort_keys=True)``
    writes, encoding a shared container once per depth."""

    @settings(max_examples=400, deadline=None)
    @given(json_payloads)
    def test_matches_json_dumps(self, payload):
        assert cli._dumps(payload) == reference_dumps(payload)

    def test_shared_objects_at_one_depth_and_at_two(self):
        entry = {"diamonds": ["a", "b"], "weight": {"num": "1", "den": "2"}}
        row = [entry, entry, [], {}]
        payload = {"rows": [row, row, [row]], "same": entry, "nested": [[entry]], "z": row}
        text = cli._dumps(payload)
        assert text == reference_dumps(payload)
        assert json.loads(text)["rows"][2][0][1] == entry

    def test_a_list_reused_at_several_depths(self):
        leaf = ["x"]
        payload = [leaf, [leaf, [leaf, {"k": leaf}]], leaf]
        assert cli._dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, (1, 2), {1: "a"}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._dumps({"value": [value]})

    def test_cycle_raises(self):
        loop: list = []
        loop.append({"again": loop})
        with pytest.raises(ValueError):
            cli._dumps(loop)

    def test_nested_containers(self):
        # Every level's text is memoized until the call returns, so the
        # memo grows with depth times output: keep this deep case small.
        payload: list = []
        for level in range(100):
            payload = [payload, 1] if level % 2 else {"k": payload, "e": {}}
        assert cli._dumps(payload) == reference_dumps(payload)

    def test_ladder4_mimic_document(self, capsys, tmp_path):
        # 613 formulae, about 390 KB: far beyond the golden mimic cases.
        path = tmp_path / "ladder4.pts"
        path.write_text(ladder_text(4))
        code, out, err = run(capsys, "mimic", str(path), "-p", "x0", "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["formulas"]) == 613
        # A bool, not the strings: pytest's diff of two 390 KB texts would
        # run for minutes.
        same = out == reference_dumps(json.loads(out)) + "\n"
        assert same


class TestGuardsAndErrors:
    def test_size_guard_exit_code(self, capsys, half_file):
        code, _, err = run(capsys, "metric", half_file, "-p", "s", "-q", "t",
                           "--max-resolutions", "3")
        assert code == 2 and "size guard" in err

    def test_environment_sets_no_cap(self, capsys, half_file, monkeypatch):
        # The cap comes from --max-resolutions alone; a cap of 1 would stop
        # this query at the guard.
        metric = ["metric", half_file, "-p", "s", "-q", "t"]
        expected = run(capsys, *metric)
        assert expected[0] == 0
        monkeypatch.setenv("TRACEMET_MAX_RESOLUTIONS", "1")
        assert run(capsys, *metric) == expected

    def test_usage_error(self, capsys, half_file):
        code, _, err = run(capsys, "metric", half_file, "-p", "s")
        assert code == 1 and err

    def test_parse_error_lists_positions(self, capsys, tmp_path):
        path = tmp_path / "broken.pts"
        path.write_text("s -a-> 1 u\nbroken\n")
        code, _, err = run(capsys, "metric", str(path), "-p", "s", "-q", "u")
        assert code == 1 and "2:" in err

    def test_unreadable_system_file(self, capsys):
        code, _, err = run(capsys, "metric", "/no/such/file.pts", "-p", "s", "-q", "t")
        assert code == 1 and "cannot read" in err

    def test_unreadable_psi_file(self, capsys, half_file):
        code, _, err = run(capsys, "sat", half_file, "-p", "s", "-f", "/no/such/query.psi")
        assert code == 1 and "cannot read" in err

    def test_negative_cap_flag_is_a_usage_error(self, capsys, half_file):
        code, out, err = run(capsys, "metric", half_file, "-p", "s", "-q", "t",
                             "--max-resolutions", "-1")
        assert (code, out) == (1, "")
        assert err == "--max-resolutions must not be negative, got -1\n"

    @pytest.mark.parametrize("command", [
        ["validate", "{file}"],
        ["fdist", "-f1", "1 <a>T", "-f2", "1 T"],
    ])
    @pytest.mark.parametrize("cap", ["-1", "3"])
    def test_commands_that_build_no_layer_take_no_cap(self, capsys, half_file, command, cap):
        argv = [half_file if arg == "{file}" else arg for arg in command]
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--max-resolutions", cap)
        assert (code, out) == (1, "")
        assert err == f"tracemet: unrecognized arguments: --max-resolutions {cap}\n"

    def test_zero_cap_flag_is_answered_by_the_guard(self, capsys, half_file):
        # A zero cap is valid: it admits no process, so the guard answers.
        code, out, err = run(capsys, "mimic", half_file, "-p", "s", "--max-resolutions", "0")
        assert (code, out) == (2, "") and "size guard" in err

    def test_out_of_memory_exits_4_without_a_traceback(self, capsys, half_file, monkeypatch):
        monkeypatch.setattr(cli, "strong_trace_metric", out_of_memory)
        code, out, err = run(capsys, "metric", half_file, "-p", "s", "-q", "t")
        assert (code, out, err) == (4, "", "out of memory\n")

    def test_out_of_memory_is_reported_after_the_command_is_released(
        self, capsys, half_file, monkeypatch
    ):
        # Writing the line may itself need memory, so it waits until the
        # traceback no longer pins the failed command's frames and rows.
        class Rows(dict):
            pass

        held = []

        def exhausted(*args):
            rows = Rows()
            held.append(weakref.ref(rows))
            raise MemoryError

        class Stderr(io.StringIO):
            alive_at_report = None

            def write(self, text):
                if "out of memory" in text:
                    Stderr.alive_at_report = held[0]() is not None
                return super().write(text)

        monkeypatch.setattr(cli, "strong_trace_metric", exhausted)
        monkeypatch.setattr(sys, "stderr", Stderr())
        code = cli.main(["metric", half_file, "-p", "s", "-q", "t"])
        assert (code, sys.stderr.getvalue()) == (4, "out of memory\n")
        assert Stderr.alive_at_report is False

    def test_parser_warnings_reach_stderr(self, capsys, tmp_path):
        path = tmp_path / "dup.pts"
        path.write_text("s -a-> 1 u\ns -a-> 1 u\n")
        code, _, err = run(capsys, "metric", str(path), "-p", "s", "-q", "u")
        assert code == 0 and "duplicate transition" in err

    @pytest.mark.parametrize("argv, code", [
        (["-q", "ghost"], 1),
        (["-q", "u", "--max-resolutions", "1"], 2),
    ])
    def test_parser_warnings_follow_the_error_line(self, capsys, tmp_path, argv, code):
        path = tmp_path / "dup.pts"
        path.write_text("s -a-> 1 u\ns -a-> 1 u\n")
        got, out, err = run(capsys, "metric", str(path), "-p", "s", *argv)
        assert got == code and out == ""
        error, warning = err.splitlines()
        assert not error.startswith("warning:")
        assert warning.startswith("warning: ") and "duplicate transition" in warning

    def test_crosscheck_disagreement_exits_3(self, capsys, half_file, monkeypatch):
        monkeypatch.setattr(cli, "crosscheck", disagreeing_crosscheck)
        code, out, err = run(capsys, "crosscheck", half_file, "-p", "s", "-q", "t")
        assert code == 3
        assert "crosscheck failed" in err and "MISMATCH" in out


def disagreeing_crosscheck(*args, **kwargs):
    """A report whose routes disagree: the real routes always agree, so this
    fakes one to pin exit code 3."""
    import tracemet.formula_distance as fd

    return fd.CrossCheckReport(
        strong_metric=Fraction(1, 2),
        logical_distance=Fraction(1, 3),
        sup_val_distance=Fraction(1, 2),
        weak_metric=Fraction(1, 2),
        weak_logical_distance=Fraction(1, 2),
        weak_sup_val_distance=Fraction(1, 2),
        all_equal=False,
        mismatches=("strong logical distance 1/3 != strong metric 1/2",),
    )


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic collector switched on or off, and put back afterwards."""
    previous = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if previous else gc.disable)()


def out_of_memory(*args):
    raise MemoryError


class TestCollectorPause:
    """The CLI pauses the cyclic collector for a command and leaves it as the
    caller had it on every exit path."""

    def test_collector_is_off_inside_a_command(self, capsys, half_file, monkeypatch):
        seen = []
        real = cli.strong_trace_metric

        def watched(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "strong_trace_metric", watched)
        with collector(True):
            code, _, err = run(capsys, "metric", half_file, "-p", "s", "-q", "t")
            assert gc.isenabled()
        assert (code, err, seen) == (0, "", [False])

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("expected, argv, patch", [
        (0, ["metric", "-q", "t"], None),
        (1, ["metric", "-q", "ghost"], None),
        (2, ["metric", "-q", "t", "--max-resolutions", "1"], None),
        (3, ["crosscheck", "-q", "t"], ("crosscheck", disagreeing_crosscheck)),
        (4, ["metric", "-q", "t"], ("strong_trace_metric", out_of_memory)),
    ])
    def test_collector_is_put_back_on_every_exit_path(
        self, capsys, half_file, monkeypatch, enabled, expected, argv, patch
    ):
        if patch:
            monkeypatch.setattr(cli, *patch)
        command, *rest = argv
        with collector(enabled):
            code = run(capsys, command, half_file, "-p", "s", *rest)[0]
            assert gc.isenabled() is enabled
        assert code == expected


@contextlib.contextmanager
def digit_limit(limit: int):
    """The interpreter's int/str digit limit set to ``limit`` (0: none)."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
class TestIntegersOfAnySize:
    """Tokens and printed values past the interpreter's int/str digit limit
    are read and printed exactly, and the limit is restored on return."""

    LIMIT = 4321

    def run_limited(self, capsys, *argv):
        with digit_limit(self.LIMIT):
            result = run(capsys, *argv)
            assert sys.get_int_max_str_digits() == self.LIMIT
        assert "Traceback" not in result[2]
        return result

    def test_long_input_token(self, capsys, tmp_path):
        with digit_limit(0):
            n = int("1" * 5000)
            token, over = str(n), f"{n + 1}/{n}"
        path = tmp_path / "long.pts"
        path.write_text(f"s -a-> 1/{token} t, 1 u\n")
        code, out, _ = self.run_limited(capsys, "validate", str(path))
        assert (code, out) == (1, f"invalid\n  error: 1:1: weights sum to {over} != 1\n")
        path.write_text(f"s -a-> 1/{token} t, {token[:-1]}0/{token} u\n")
        code, out, _ = self.run_limited(capsys, "validate", str(path))
        assert (code, out) == (0, "valid\n  processes: s, t, u\n")
        code, out, _ = self.run_limited(
            capsys, "fdist", "-f1", f"1/{token} <a>T (+) {token[:-1]}0/{token} T", "-f2", "1 T"
        )
        assert (code, out) == (0, f"1/{token} ({1 / n})\n")

    def test_large_values_on_output(self, capsys, tmp_path):
        # Every token has at most 3,001 digits; the distance 1 - 1/D^2 has
        # 6,001 in its numerator and denominator.
        d = 10**3000 + 7
        with digit_limit(0):
            text = (
                f"s -a-> 1/{d} t, {d - 1}/{d} u\nt -b-> 1/{d} v, {d - 1}/{d} w\n"
                "w -c-> 1 x\nv -d-> 1 y\nr -a-> 1 t2\nt2 -b-> 1 v\n"
            )
            num, den = str(d * d - 1), str(d * d)
        path = tmp_path / "big.pts"
        path.write_text(text)
        code, out, _ = self.run_limited(capsys, "metric", str(path), "-p", "s", "-q", "r")
        assert code == 0 and out.splitlines()[0] == f"{num}/{den} (1.0)"
        code, out, _ = self.run_limited(capsys, "metric", str(path), "-p", "s", "-q", "r", "--json")
        assert code == 0 and json.loads(out)["value"] == {"num": num, "den": den}
        code, out, _ = self.run_limited(
            capsys, "crosscheck", str(path), "-p", "s", "-q", "r", "--json"
        )
        report = json.loads(out)
        assert code == 0 and report["all_equal"] is True
        assert report["strong_metric"] == report["weak_sup_val_distance"] == {"num": num, "den": den}
        code, out, _ = self.run_limited(capsys, "crosscheck", str(path), "-p", "s", "-q", "r")
        assert code == 0 and out.splitlines()[0].split()[-2] == f"{num}/{den}"

    def test_limit_restored_after_an_error(self, capsys):
        code, _, _ = self.run_limited(capsys, "validate", "/nonexistent.pts")
        assert code == 1


class TestReusedParser:
    @pytest.fixture()
    def calls(self, half_file, tmp_path):
        dup = tmp_path / "dup.pts"
        dup.write_text("s -a-> 1 u\ns -a-> 1 u\n")
        sat = ["-f", "0.5 <a><c>T (+) 0.5 <a><b>T"]
        runs = [
            ["validate", half_file],
            ["validate", str(dup)],
            ["resolutions", half_file, "-p", "t", "--limit", "2"],
            ["resolutions", half_file, "-p", "t", "--weak"],
            ["mimic", half_file, "-p", "s"],
            ["metric", half_file, "-p", "s", "-q", "t"],
            ["metric", half_file, "-p", "s", "-q", "t", "--weak"],
            ["equiv", half_file, "-p", "s", "-q", "t"],
            ["sat", half_file, "-p", "t", *sat],
            ["fdist", "-f1", "1 <a>T", "-f2", "1/2 <a>T (+) 1/2 <b>T"],
            ["val", half_file, "-p", "s", *sat],
            ["crosscheck", half_file, "-p", "s", "-q", "t"],
        ]
        return [
            *runs,
            *([*argv, "--json"] for argv in runs),
            ["metric", half_file, "-p", "s"],  # usage error: exit 1
            ["--help"],
            ["--version"],
            ["metric", "--help"],
            ["metric", half_file, "-p", "s", "-q", "t", "--max-resolutions", "3"],  # exit 2
            ["metric", str(dup), "-p", "s", "-q", "u"],  # ParserWarning on stderr
            ["nosuch"],
            [],
        ]

    def test_every_call_matches_a_fresh_parser(self, capsys, calls, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run(capsys, *argv))
        assert {code for code, _, _ in fresh} >= {0, 1, 2, ("SystemExit", 0)}
        assert any("duplicate transition" in err for code, _, err in fresh if code == 0)
        # The same calls twice over on one parser, and in reverse order.
        reused = [run(capsys, *argv) for argv in calls + calls]
        assert reused == fresh + fresh
        assert [run(capsys, *argv) for argv in reversed(calls)] == fresh[::-1]

    def test_parser_is_built_once(self, capsys, calls, monkeypatch):
        built = []
        original = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for argv in calls * 3:
            run(capsys, *argv)
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = "import tracemet.cli as cli; print(cli._parser is None)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert done.stdout.strip() == "True"


def test_resolutions_of_a_deep_chain(capsys, tmp_path):
    # c_i -a-> 1 c_{i+1}: far deeper than Python's recursion limit.
    path = tmp_path / "chain.pts"
    path.write_text("".join(f"c{i} -a-> 1 c{i + 1}\n" for i in range(3000)))
    code, out, err = run(capsys, "resolutions", str(path), "-p", "c0", "--limit", "1")
    assert code == 0 and not err
    assert out.splitlines() == [
        "3001 resolutions of c0",
        "#1",
        "  c0: halt",
        "  TD: 1 ε",
        "... 3000 more (raise --limit)",
    ]


def test_mimic_formulas_share_one_object_per_trace(capsys, tmp_path, monkeypatch):
    # mimic spells one entry per distinct (trace id, weight), and every
    # formula that lists it holds that dict, so _dumps encodes it once.  The
    # layer, with its rows and their keys, is gone before the document is
    # written.
    path = tmp_path / "ladder4.pts"
    path.write_text(ladder_text(4))
    layers = []

    class Layer(cli.TraceLayer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            layers.append(weakref.ref(self))

    payloads = []
    dumps = cli._dumps

    def writing(payload):
        assert layers and all(ref() is None for ref in layers)
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli, "TraceLayer", Layer)
    monkeypatch.setattr(cli, "_dumps", writing)
    code, out, _ = run(capsys, "mimic", str(path), "-p", "x0", "--json")
    assert code == 0
    [payload] = payloads
    formulas = payload["formulas"]
    listed = [entry for psi in formulas for entry in psi]
    assert (len(formulas), len(listed), len({id(entry) for entry in listed})) == (613, 2196, 57)
    # The reference's identity keys rest on one TraceFormula object per trace.
    pts = tracemet.parse_pts(ladder_text(4))
    rng = random.Random(91)
    cases = [(pts, "x0")] + [random_case(rng, max_count=60, tau_bias=0.4)[:2] for _ in range(6)]
    for system, process in cases:
        for weak in (False, True):
            seen: dict = {}
            for psi in tracemet.mimicking_formulas(system, process, weak):
                for phi in psi:
                    assert seen.setdefault(phi, phi) is phi
    assert formulas == oracles.mimic_json(pts, "x0")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_mimic_formulae_equal_the_decoded_reference(capsys, tmp_path, seed, weak):
    # The CLI writes its formulae off the layer's integer rows; the
    # reference decodes them to formula objects first.
    pts, process, _ = random_case(random.Random(seed), max_count=80, tau_bias=0.4)
    assume(pts.transitions_of(process))  # a system file names only sources and targets
    path = tmp_path / "random.pts"
    path.write_text(tracemet.print_pts(pts))
    flags = ["--weak"] if weak else []
    code, out, _ = run(capsys, "mimic", str(path), "-p", process, "--json", *flags)
    assert code == 0
    assert json.loads(out)["formulas"] == oracles.mimic_json(pts, process, weak)
    code, out, _ = run(capsys, "mimic", str(path), "-p", process, *flags)
    assert code == 0
    formulas = tracemet.mimicking_formulas(pts, process, weak)
    assert out.splitlines() == [tracemet.print_formula(psi) for psi in formulas]


def test_each_path_pair_is_one_list_shared_by_the_descendants():
    pts = tracemet.parse_pts(ladder_text(3))
    count = tracemet.count_resolutions(pts, "x0")
    resolution = max(
        (tracemet.resolution_at(pts, "x0", k) for k in range(count)), key=lambda r: len(r.nodes)
    )
    entries = cli._resolution_json(resolution)["choices"]
    assert len(entries) == len(resolution.nodes) == 11
    for (parent, process, _), entry in zip(resolution.nodes, entries):
        if parent is None:
            assert entry["path"] == []
            continue
        above = entries[parent]["path"]
        assert len(entry["path"]) == len(above) + 1
        assert all(a is b for a, b in zip(entry["path"], above))
        assert entry["path"][-1] == [resolution.nodes[parent][2], process]
    pairs = {id(pair) for entry in entries for pair in entry["path"]}
    assert len(pairs) == len(entries) - 1


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # ladder(4)'s mimic document (about 390 KB) outgrows the pipe's buffer,
    # so the write meets the closed pipe inside main, not at exit.
    path = tmp_path / "ladder4.pts"
    path.write_text(ladder_text(4))
    src = str(Path(cli.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "tracemet", "mimic", str(path), "-p", "x0", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    ) as child:
        assert child.stdout.read(100).startswith(b"{")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (1, b"")


def test_python_dash_m_runs_the_cli(half_file):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def module_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "tracemet", *argv], capture_output=True, text=True, env=env
        )

    version = module_run("--version")
    assert (version.returncode, version.stdout, version.stderr) == (0, "tracemet 0.1.0\n", "")
    metric = module_run("metric", half_file, "-p", "s", "-q", "t")
    assert metric.returncode == 0 and metric.stdout.startswith("1/2 (0.5)\n")
    usage = module_run("metric", half_file, "-p", "s")
    assert usage.returncode == 1 and "required" in usage.stderr


class TestUnreadableInput:
    @pytest.fixture()
    def latin1_file(self, tmp_path):
        path = tmp_path / "latin1.pts"
        path.write_bytes(b"s -a-> 1 caf\xe9\n")
        return str(path)

    @pytest.mark.parametrize("command", [
        ["validate"], ["metric", "-p", "s", "-q", "s"], ["resolutions", "-p", "s"],
    ])
    def test_non_utf8_system_is_a_read_error(self, capsys, latin1_file, command):
        code, out, err = run(capsys, command[0], latin1_file, *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith(f"cannot read {latin1_file}: 'utf-8' codec can't decode byte 0xe9")

    def test_non_utf8_formula_file_is_a_read_error(self, capsys, half_file, tmp_path):
        psi = tmp_path / "bad.psi"
        psi.write_bytes(b"1 <a>T \xff")
        code, out, err = run(capsys, "sat", half_file, "-p", "s", "-f", str(psi))
        assert (code, out) == (1, "")
        assert err.startswith(f"cannot read {psi}: ")


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as the same
    file without it."""

    def test_system_file(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.pts", tmp_path / "marked.pts"
        plain.write_bytes(HALF_PAIR_TEXT.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + HALF_PAIR_TEXT.encode("utf-8"))
        for argv in (("validate",), ("metric", "-p", "s", "-q", "t", "--json")):
            code, out, err = run(capsys, argv[0], str(marked), *argv[1:])
            assert (code, err) == (0, "")
            assert (code, out, err) == run(capsys, argv[0], str(plain), *argv[1:])

    def test_formula_file(self, capsys, half_file, tmp_path):
        psi = tmp_path / "query.psi"
        psi.write_bytes(b"\xef\xbb\xbf0.5 <a><c>T (+) 0.5 <a><b>T\n")
        code, out, err = run(capsys, "sat", half_file, "-p", "t", "-f", str(psi))
        assert (code, err) == (0, "") and out.splitlines()[0] == "true"


@st.composite
def corrupted_files(draw) -> bytes:
    text = draw(system_texts()).encode("utf-8")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.binary(min_size=1, max_size=3)) + text[at:]
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corrupted_files())
def test_corrupted_files_end_in_a_documented_exit_code(tmp_path, data):
    path = tmp_path / "corrupt.pts"
    path.write_bytes(data)
    file = str(path)
    sink = io.StringIO()
    cap = ["--max-resolutions", "200"]
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in (
            ["validate", file],
            ["resolutions", file, "-p", "p0", "--limit", "20", *cap],
            ["mimic", file, "-p", "p0", "--weak", *cap],
            ["metric", file, "-p", "p0", "-q", "p1", *cap],
            ["equiv", file, "-p", "p0", "-q", "p1", *cap],
            ["sat", file, "-p", "p0", "-f", "1 <a>T", "--weak", *cap],
            ["val", file, "-p", "p0", "-f", "1/2 <a>T (+) 1/2 T", *cap],
            ["crosscheck", file, "-p", "p0", "-q", "p1", *cap],
        ):
            for json_flag in ([], ["--json"]):
                assert cli.main(argv + json_flag) in (0, 1, 2, 3)


@st.composite
def deep_and_wide_systems(draw) -> str:
    """A chain of up to 1,100 steps, past Python's default recursion limit,
    a fan of up to 40 transitions or 40 targets, and silent steps, rooted
    at p0 (the chain and the fan) and q0 (the fan and a chain suffix)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.one_of(st.integers(1, 60), st.integers(1000, 1100)))
    width = draw(st.integers(1, 40))

    def action():
        return rng.choice(("a", "b", "tau", "tau"))

    lines = [f"c{i} -{action()}-> 1 c{i + 1}" for i in range(depth)]
    if draw(st.booleans()):
        targets = rng.sample(range(depth + 1), min(width, depth + 1))
        lines += [f"f -{action()}-> 1 c{j}" for j in targets]
    elif width == 1:
        lines.append(f"f -{action()}-> 1 l0")
    else:
        lines.append(f"f -{action()}-> " + ", ".join(f"1/{width} l{k}" for k in range(width)))
    lines.append(f"p0 -{action()}-> 1/2 c0, 1/2 f")
    lines.append(f"q0 -{action()}-> 1 f")
    lines.append(f"q0 -tau-> 1 c{rng.randrange(depth + 1)}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(deep_and_wide_systems(), st.sampled_from(["1", "50", "400"]))
def test_deep_and_wide_systems_answer_or_hit_the_guard(tmp_path, text, cap):
    path = tmp_path / "deep.pts"
    path.write_text(text)
    file = str(path)
    sink = io.StringIO()
    limit = ["--max-resolutions", cap]
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in (
            ["validate", file],
            ["resolutions", file, "-p", "q0", "--limit", "3", *limit],
            ["mimic", file, "-p", "q0", "--weak", *limit],
            ["metric", file, "-p", "p0", "-q", "q0", *limit],
            ["equiv", file, "-p", "q0", "-q", "p0", "--weak", *limit],
            ["sat", file, "-p", "q0", "-f", "1 <a>T", "--weak", *limit],
            ["val", file, "-p", "p0", "-f", "1/2 <a>T (+) 1/2 T", *limit],
            ["crosscheck", file, "-p", "p0", "-q", "q0", *limit],
        ):
            for json_flag in ([], ["--json"]):
                assert cli.main(argv + json_flag) in (0, 2), argv


class TestCountWalks:
    """Each command walks the processes its roots reach once, naming all
    its roots in order: the size guard, the build and every witness read
    the count table of that one walk."""

    FORMULA = "1/2 <a><c>T (+) 1/2 <a><b>T"

    @pytest.fixture()
    def counted(self, monkeypatch):
        original = tracemet.traces.post_order
        calls = []

        def counting(pts, *roots):
            calls.append(roots)
            return original(pts, *roots)

        monkeypatch.setattr(tracemet.traces, "post_order", counting)
        return calls

    @pytest.mark.parametrize("argv, walks", [
        (["metric", "-p", "s", "-q", "t"], [("s", "t")]),
        (["metric", "-p", "s", "-q", "t", "--weak"], [("s", "t")]),
        (["equiv", "-p", "s", "-q", "t"], [("s", "t")]),
        (["equiv", "-p", "t", "-q", "s", "--weak"], [("t", "s")]),
        (["crosscheck", "-p", "s", "-q", "t"], [("s", "t")]),
        (["sat", "-p", "t", "-f", FORMULA], [("t",)]),
        (["sat", "-p", "s", "-f", FORMULA, "--weak"], [("s",)]),
        (["val", "-p", "s", "-f", FORMULA], [("s",)]),
        (["mimic", "-p", "t"], [("t",)]),
        (["mimic", "-p", "s", "--weak"], [("s",)]),
        (["resolutions", "-p", "t", "--limit", "5"], [("t",)]),
        (["resolutions", "-p", "s"], [("s",)]),
    ])
    def test_one_count_per_side(self, capsys, half_file, counted, argv, walks):
        code, out, _ = run(capsys, argv[0], half_file, *argv[1:], "--json")
        assert code == 0
        assert counted == walks
        payload = json.loads(out)
        # The witnesses were decoded, off the same tables.
        if argv[0] == "metric":
            assert payload["witness"] is not None
        if argv[0] == "equiv":
            assert payload["distinguishing"] is not None
        if argv == ["sat", "-p", "t", "-f", self.FORMULA]:
            assert payload["witness"] is not None
        if argv[0] == "resolutions":
            assert payload["shown"] == (5 if "--limit" in argv else payload["count"])
