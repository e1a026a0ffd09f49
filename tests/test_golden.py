"""Replay the golden command lines and compare their output byte for byte.

``tests/golden/cases.json`` holds, for every command line, the exit code,
stdout and stderr that ``tests/golden/generate.py`` recorded; the systems it
names are beside it.  Every command is run in-process through
``tracemet.cli.main`` from that directory.
"""
import json
from pathlib import Path

import pytest

import tracemet.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _case_id(case: dict) -> str:
    return " ".join(case["argv"])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = cli.main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


def test_golden_set_covers_every_reading_command():
    commands = {case["argv"][0] for case in CASES}
    assert {
        "validate", "resolutions", "mimic", "metric", "equiv", "sat", "fdist", "val", "crosscheck"
    } <= commands
    assert sum(1 for case in CASES if case["argv"][1].startswith("genpts")) > 0
    assert sum(1 for case in CASES if "--json" in case["argv"]) * 2 == len(CASES)
