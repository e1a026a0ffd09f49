"""Write the golden CLI outputs that ``tests/test_golden.py`` replays.

    PYTHONPATH=src:tests python tests/golden/generate.py

Writes the systems (``*.pts``) and ``cases.json`` into this directory: for
every command line, its argv, exit code, stdout and stderr, each command in
text and in ``--json`` form.  The command lines are run in-process through
``tracemet.cli.main`` with this directory as the working directory, so the
argv name the systems by their bare file names.

The outputs are a reference: rerun this only for a change that means to
alter what the command line prints, and review the diff of ``cases.json``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import tracemet as tm  # noqa: E402
from tracemet import cli  # noqa: E402
from genpts import random_pts, with_tau_prefix  # noqa: E402

P = Fraction(17, 61)


def ladder_text(levels: int) -> str:
    """The benchmark's ladder: x_i -a-> 1/2 x_{i+1}, 1/2 y_{i+1} and -b->
    x_{i+1}; y_i -c-> x_{i+1}; z0 copies x0, w0 splits its a-step p, 1-p
    and v0 relabels both first actions."""
    lines = []
    for i in range(levels):
        lines.append(f"x{i} -a-> 1/2 x{i + 1}, 1/2 y{i + 1}")
        lines.append(f"x{i} -b-> 1 x{i + 1}")
        if i:
            lines.append(f"y{i} -c-> 1 x{i + 1}")
    lines += [
        "z0 -a-> 1/2 x1, 1/2 y1",
        "z0 -b-> 1 x1",
        f"w0 -a-> {P} x1, {1 - P} y1",
        "w0 -b-> 1 x1",
        "v0 -d-> 1/2 x1, 1/2 y1",
        "v0 -e-> 1 x1",
    ]
    return "\n".join(lines) + "\n"


# Sides with different denominators sharing equal entries, silent steps,
# and a halves-only process for weights the layer cannot carry.
EDGE_TEXT = """\
s -a-> 1/2 x, 1/2 y
t -a-> 1/2 x, 1/2 y
t -b-> 1/3 x, 2/3 y
x -c-> 1 nil
y -d-> 1 nil
u -tau-> 1 s
v -tau-> 1/5 x, 4/5 y
v -a-> 1/2 u, 1/2 y
"""

LADDER_FORMULAS = (
    f"{P} <a>T (+) {1 - P} <b>T",
    "1 <b><b><b>T",
    "1/3 <a>T (+) 2/3 <b>T",
    "1 <zz>T",
    "1/2 <a><c>T (+) 1/4 <a><b>T (+) 1/4 <a>T",
)

EDGE_FORMULAS = (
    "1/2 <a><c>T (+) 1/2 <a><d>T",
    "1/2 <tau><a><c>T (+) 1/2 <a><d>T",
    "1 <tau>T",
    "1/3 <a>T (+) 2/3 <b>T",
    "1/3 <b><c>T (+) 2/3 <b><d>T",
    "1 <q>T",
)

# fdist pairs that erasing silent diamonds brings closer: the first three
# differ only by them, so they are apart strongly and at distance 0 weakly.
TAU_PAIRS = (
    ("1 <tau>T", "1 T"),
    ("1/2 <tau><a>T (+) 1/2 <a><tau>T", "1 <a>T"),
    ("1/3 <a>T (+) 2/3 <b>T", "1/3 <tau><a>T (+) 2/3 <b><tau>T"),
    ("1/2 <tau><a>T (+) 1/2 <b>T", "1/3 <a>T (+) 2/3 <b>T"),
)

# For validate: a weight sum other than 1 and a syntax error; a duplicate
# transition that parsing collapses with a warning.
INVALID_TEXT = """\
s -a-> 1/2 t, 1/3 u
s -> 1 t
t -b-> 1 nil
"""

DUPLICATE_TEXT = """\
s -a-> 1/2 t, 1/2 u
s -a-> 1/2 u, 1/2 t
t -b-> 1 nil
"""


def ladder_commands(f: str) -> list[list[str]]:
    out = []
    for other in ("z0", "w0", "v0"):
        for weak in ((), ("--weak",)):
            out.append(["metric", f, "-p", "x0", "-q", other, *weak])
            out.append(["equiv", f, "-p", "x0", "-q", other, *weak])
        out.append(["crosscheck", f, "-p", "x0", "-q", other])
    for formula in LADDER_FORMULAS:
        for weak in ((), ("--weak",)):
            out.append(["sat", f, "-p", "x0", "-f", formula, *weak])
            out.append(["val", f, "-p", "x0", "-f", formula, *weak])
    for weak in ((), ("--weak",)):
        out.append(["mimic", f, "-p", "x0", *weak])
        out.append(["resolutions", f, "-p", "x0", "--limit", "3", *weak])
    return out


def pair_commands(f: str, s: str, t: str, formulas) -> list[list[str]]:
    out = []
    for weak in ((), ("--weak",)):
        out.append(["metric", f, "-p", s, "-q", t, *weak])
        out.append(["equiv", f, "-p", s, "-q", t, *weak])
        out.append(["equiv", f, "-p", t, "-q", s, *weak])
        out.append(["mimic", f, "-p", s, *weak])
        for formula in formulas:
            out.append(["sat", f, "-p", s, "-f", formula, *weak])
            out.append(["val", f, "-p", s, "-f", formula, *weak])
    out.append(["crosscheck", f, "-p", s, "-q", t])
    out.append(["resolutions", f, "-p", t, "--limit", "2"])
    return out


def fdist_commands() -> list[list[str]]:
    pairs = [*combinations(LADDER_FORMULAS, 2), *combinations(EDGE_FORMULAS, 2), *TAU_PAIRS]
    return [
        ["fdist", "-f1", f1, "-f2", f2, *weak] for f1, f2 in pairs for weak in ((), ("--weak",))
    ]


def seeded_systems(count: int):
    """``count`` seeded ``genpts`` systems with silent steps, each with a
    pair (p0, t): every second one compares p0 with itself behind a silent
    step.  Yields (text, s, t, formulae), the formulae mimicking two of t's
    resolutions."""
    for seed in range(1, count + 1):
        rng = random.Random(seed)
        while True:
            pts = random_pts(rng, max_states=7, max_layers=4, max_support=3, tau_bias=0.3)
            if seed % 2 == 0:
                pts, t = with_tau_prefix(pts, "p0"), "ptau"
            else:
                t = rng.choice(sorted(pts.processes - {"p0"}))
            text = tm.print_pts(pts)
            counts = [tm.count_resolutions(pts, p) for p in ("p0", t)]
            if {"p0", t} <= tm.parse_pts(text).processes and 3 <= min(counts) <= max(counts) <= 40:
                break
        mimic = tm.mimicking_formulas(pts, t)
        picks = [mimic[-1], mimic[len(mimic) // 2]]
        yield text, "p0", t, list(dict.fromkeys(tm.print_formula(psi) for psi in picks))


def all_commands() -> tuple[dict[str, str], list[list[str]]]:
    files = {"ladder3.pts": ladder_text(3), "edge.pts": EDGE_TEXT}
    commands = ladder_commands("ladder3.pts")
    for s, t in (("s", "t"), ("u", "s"), ("v", "t")):
        commands += pair_commands("edge.pts", s, t, EDGE_FORMULAS)
    for number, (text, s, t, formulas) in enumerate(seeded_systems(8), start=1):
        name = f"genpts{number}.pts"
        files[name] = text
        commands += pair_commands(name, s, t, formulas)
    files["invalid.pts"], files["duplicate.pts"] = INVALID_TEXT, DUPLICATE_TEXT
    commands += [["validate", name] for name in files]
    commands += fdist_commands()
    return files, [argv + extra for argv in commands for extra in ([], ["--json"])]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    files, commands = all_commands()
    for name, text in files.items():
        (HERE / name).write_text(text, encoding="utf-8")
    os.chdir(HERE)
    cases = [run(argv) for argv in commands]
    # One case per line, so a diff names the command lines that changed.
    lines = ",\n".join(json.dumps(case, ensure_ascii=False) for case in cases)
    (HERE / "cases.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(cases)} command lines, {len(files)} systems")


if __name__ == "__main__":
    main()
