"""Command-line interface.

Exit codes: 0 success, 1 parse/validation/usage errors, unreadable input or
a closed standard output (``tracemet ... | head``), 2 resolution-count guard
exceeded, 3 cross-check inequality (a bug signal), 4 out of memory.  Every
input of a command is on its command line or in the files it names; the
resolution cap is ``--max-resolutions``.  Diagnostics go to
stderr; results go to stdout as text or, with ``--json``, as a stable JSON
document in which every rational appears as ``{"num": "...", "den": "..."}``.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable

from . import __version__
from .formula_distance import crosscheck, dist_formula_distance
from .logic import mimicking_pairs, real_value, satisfies
from .metrics import (
    MetricResult,
    find_distinguishing_resolution,
    strong_trace_metric,
    weak_trace_metric,
)
from .parser import (
    ParseError,
    ParserWarning,
    parse_formula,
    parse_pts,
    print_trace_distribution,
)
from .resolutions import (
    DEFAULT_MAX_RESOLUTIONS,
    Resolution,
    SizeGuardExceeded,
)
from .traces import TraceLayer, trace_distribution, weak_trace_distribution

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SIZE_GUARD = 2
EXIT_CROSSCHECK = 3
EXIT_MEMORY = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are plain invocation errors
        raise _CliError(f"{self.prog}: {message}")


def _frac_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _frac_text(value: Fraction) -> str:
    return f"{value} ({float(value)})"


def _trace_json(trace) -> list[str]:
    return [a.name for a in trace]


def _dist_json(td) -> list[dict]:
    return [
        {"trace": _trace_json(trace), "probability": _frac_json(weight)}
        for trace, weight in td.items_descending
    ]


def _resolution_json(resolution: Resolution) -> dict:
    # A node's path is its parent's plus one [index, target] list, which
    # every descendant's path shares, so _dumps encodes it once.
    nodes = resolution.nodes
    entries = []
    for parent, process, choice in nodes:
        path = [] if parent is None else entries[parent]["path"] + [[nodes[parent][2], process]]
        entries.append({"path": path, "process": process, "choice": choice})
    return {"root": resolution.root, "choices": entries}


def _resolution_lines(resolution: Resolution) -> list[str]:
    nodes = resolution.nodes
    paths: list[str] = []
    lines = []
    for parent, process, choice in nodes:
        path = process if parent is None else f"{paths[parent]} /{nodes[parent][2]}/ {process}"
        paths.append(path)
        if choice is None:
            decision = "halt"
        else:
            row = resolution.pts.transitions_of(process)[choice]
            body = ", ".join(f"{w} {t}" for t, w in row.target.items_sorted)
            decision = f"-{row.action.name}-> {body}  [#{choice}]"
        lines.append(f"  {path}: {decision}")
    return lines


def _with_td(args, resolution: Resolution) -> dict | list[str]:
    """``resolution`` with its (weak) trace distribution: its JSON entry
    under ``--json``, its text lines otherwise."""
    td = (weak_trace_distribution if args.weak else trace_distribution)(resolution)
    if args.json:
        return {**_resolution_json(resolution), "trace_distribution": _dist_json(td)}
    return [*_resolution_lines(resolution), f"  TD: {print_trace_distribution(td)}"]


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for
    payloads of dicts with ``str`` keys, lists, ``str``, ``int``, ``bool``
    and ``None``; any other type raises ``TypeError``.

    The stdlib's indenting encoder is pure Python and re-encodes a shared
    object at every occurrence.  Here a dict or list met again at the same
    depth is encoded once: its text is memoized under ``(id, depth)`` for
    this call, during which the payload keeps every object alive.  The walk
    keeps an explicit stack, so nesting depth is bounded by memory only.
    """
    memo: dict[tuple[int, int], str] = {}
    active: set[int] = set()  # containers being encoded, to catch cycles
    top: list[str] = []
    # A frame: item texts so far, remaining items, whether they are
    # (key, value) pairs, depth, the memo key, and the text to put before
    # the finished container in its parent.
    stack = [(top, iter((payload,)), False, -1, None, "")]
    while stack:
        parts, items, pairs, depth, key, lead = stack[-1]
        for item in items:
            if pairs:
                name, value = item
                if not isinstance(name, str):
                    raise TypeError(f"keys must be str, not {type(name).__name__}")
                head = encode_basestring_ascii(name) + ": "
            else:
                value, head = item, ""
            if isinstance(value, (dict, list)):
                if not value:
                    parts.append(head + ("{}" if isinstance(value, dict) else "[]"))
                    continue
                child = (id(value), depth + 1)
                text = memo.get(child)
                if text is not None:
                    parts.append(head + text)
                    continue
                if child[0] in active:
                    raise ValueError("Circular reference detected")
                active.add(child[0])
                if isinstance(value, dict):
                    stack.append(([], iter(sorted(value.items())), True, depth + 1, child, head))
                else:
                    stack.append(([], iter(value), False, depth + 1, child, head))
                break
            elif isinstance(value, str):
                parts.append(head + encode_basestring_ascii(value))
            elif value is None:
                parts.append(head + "null")
            elif value is True:
                parts.append(head + "true")
            elif value is False:
                parts.append(head + "false")
            elif isinstance(value, int):
                parts.append(head + int.__repr__(value))
            else:
                raise TypeError(
                    f"Object of type {type(value).__name__} is not JSON serializable"
                )
        else:
            stack.pop()
            if key is None:
                break
            inner = "  " * (depth + 1)
            opening, closing = ("{", "}") if pairs else ("[", "]")
            text = f"{opening}\n{inner}" + f",\n{inner}".join(parts) + f"\n{inner[2:]}{closing}"
            memo[key] = text
            active.discard(key[0])
            stack[-1][0].append(lead + text)
    return top[0]


def _emit(args, payload: Callable[[], dict], text_lines: Callable[[], Iterable[str]]) -> None:
    # The document and the text lines are each built only when printed: a
    # witness's entry or a mimic query's formulae would be built for nothing.
    if args.json:
        print(_dumps(payload()))
    else:
        for line in text_lines():
            print(line)


def _read_text(path: str) -> str:
    try:
        # A leading byte-order mark is dropped, as editors on some systems write one.
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _system(args, *names: str) -> tuple:
    """The system in ``args.file``, then each named process, checked."""
    try:
        pts = parse_pts(_read_text(args.file))
    except ParseError as exc:
        details = "\n".join(f"  {issue}" for issue in exc.issues)
        raise _CliError(f"{args.file}: invalid system:\n{details}") from exc
    for name in names:
        if name not in pts.processes:
            raise _CliError(f"unknown process {name!r}")
    return (pts, *names)


def _parse_formula_arg(text: str):
    # A .psi path stands in for the formula it contains.
    if text.endswith(".psi"):
        text = _read_text(text).strip()
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise _CliError(f"invalid formula {text!r}: {exc}") from exc


def _max_resolutions(args) -> int:
    # Read after the command's file and processes, so their errors come first.
    if args.max_resolutions < 0:
        raise _CliError(f"--max-resolutions must not be negative, got {args.max_resolutions}")
    return args.max_resolutions


def _cmd_validate(args) -> int:
    text = _read_text(args.file)
    errors: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParserWarning)
        try:
            processes = sorted(parse_pts(text).processes)
        except ParseError as exc:
            processes, errors = None, [str(issue) for issue in exc.issues]
    # parse_pts has validated the system, and the duplicate transitions
    # validate_pts would warn about are already collapsed with a warning.
    # Each warning is reported once, in the output, valid system or not.
    valid = processes is not None
    payload = {"valid": valid, "errors": errors, "warnings": [str(w.message) for w in caught]}
    if valid:
        payload["processes"] = processes

    def lines():
        yield "valid" if valid else "invalid"
        if valid:
            yield f"  processes: {', '.join(processes)}"
        for error in errors:
            yield f"  error: {error}"
        for w in payload["warnings"]:
            yield f"  warning: {w}"

    _emit(args, lambda: payload, lines)
    return EXIT_OK if valid else EXIT_INVALID


def _cmd_resolutions(args) -> int:
    pts, process = _system(args, args.process)
    if args.limit is not None and args.limit < 0:
        raise _CliError(f"--limit must not be negative, got {args.limit}")
    layer = TraceLayer(pts, process, max_resolutions=_max_resolutions(args))
    count = layer.count(process)
    shown = [_with_td(args, layer.resolution(process, k)) for k in range(count)[: args.limit]]

    def payload():
        return {"process": process, "count": count, "shown": len(shown), "resolutions": shown}

    def lines():
        yield f"{count} resolutions of {process}"
        for number, text in enumerate(shown, start=1):
            yield f"#{number}"
            yield from text
        if len(shown) < count:
            yield f"... {count - len(shown)} more (raise --limit)"

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_mimic(args) -> int:
    pts, process = _system(args, args.process)
    layer = TraceLayer(pts, process, max_resolutions=_max_resolutions(args))
    names, formulas = mimicking_pairs(layer, layer.distinct(args.weak)[0][1])
    den = layer.den
    del layer  # and its trie, before the document is written: it holds no rows
    if args.json:
        def spell(k, w):
            return {"diamonds": list(names[k]), "weight": _frac_json(Fraction(w, den))}
    else:
        def spell(k, w):
            return f"{Fraction(w, den)} " + "".join(f"<{a}>" for a in names[k]) + "T"
    # One entry (or text) per distinct (trace id, weight), shared by every
    # formula that lists it, so _dumps encodes each entry once.
    spelled = {pair: spell(*pair) for pair in set().union(*formulas)}
    listed = [list(map(spelled.__getitem__, psi)) for psi in formulas]
    del formulas
    payload = {"process": process, "weak": args.weak, "formulas": listed}
    _emit(args, lambda: payload, lambda: (" (+) ".join(psi) for psi in listed))
    return EXIT_OK


def _metric_payload(result: MetricResult) -> dict:
    return {
        "value": _frac_json(result.value),
        "dedup": {
            "left": [result.dedup_stats.left_before, result.dedup_stats.left_after],
            "right": [result.dedup_stats.right_before, result.dedup_stats.right_after],
        },
        "witness": [_resolution_json(r) for r in result.witness],
    }


def _cmd_metric(args) -> int:
    pts, s, t = _system(args, args.process, args.other)
    metric = weak_trace_metric if args.weak else strong_trace_metric
    result = metric(pts, s, t, _max_resolutions(args))

    def lines():
        yield _frac_text(result.value)
        left, right = result.witness
        yield f"witness resolution of {s}:"
        yield from _resolution_lines(left)
        yield f"witness resolution of {t}:"
        yield from _resolution_lines(right)
        stats = result.dedup_stats
        yield (
            f"resolutions: {s} {stats.left_before}->{stats.left_after} deduped, "
            f"{t} {stats.right_before}->{stats.right_after} deduped"
        )

    _emit(args, lambda: _metric_payload(result), lines)
    return EXIT_OK


def _cmd_equiv(args) -> int:
    pts, s, t = _system(args, args.process, args.other)
    found = find_distinguishing_resolution(
        pts, s, t, weak=args.weak, max_resolutions=_max_resolutions(args)
    )
    if found is not None:
        side, resolution = found
        shown = _with_td(args, resolution)

    def payload():
        entry = None if found is None else {"process": side, **shown}
        return {"equivalent": found is None, "distinguishing": entry}

    def lines():
        yield "true" if found is None else "false"
        if found is not None:
            yield f"distinguishing resolution of {side} (unmatched by the other side):"
            yield from shown

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_sat(args) -> int:
    pts, process = _system(args, args.process)
    psi = _parse_formula_arg(args.formula)
    holds, witness = satisfies(pts, process, psi, _max_resolutions(args), weak=args.weak)

    def payload():
        return {
            "satisfied": holds,
            "witness": _resolution_json(witness) if witness is not None else None,
        }

    def lines():
        yield "true" if holds else "false"
        if witness is not None:
            yield "witness resolution:"
            yield from _resolution_lines(witness)

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_fdist(args) -> int:
    psi1 = _parse_formula_arg(args.formula1)
    psi2 = _parse_formula_arg(args.formula2)
    value = dist_formula_distance(psi1, psi2, weak=args.weak)
    _emit(args, lambda: {"value": _frac_json(value)}, lambda: [_frac_text(value)])
    return EXIT_OK


def _cmd_val(args) -> int:
    pts, process = _system(args, args.process)
    psi = _parse_formula_arg(args.formula)
    value = real_value(pts, process, psi, weak=args.weak, max_resolutions=_max_resolutions(args))
    _emit(args, lambda: {"value": _frac_json(value)}, lambda: [_frac_text(value)])
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    pts, s, t = _system(args, args.process, args.other)
    report = crosscheck(pts, s, t, _max_resolutions(args))
    payload = {
        "strong_metric": _frac_json(report.strong_metric),
        "logical_distance": _frac_json(report.logical_distance),
        "sup_val_distance": _frac_json(report.sup_val_distance),
        "weak_metric": _frac_json(report.weak_metric),
        "weak_logical_distance": _frac_json(report.weak_logical_distance),
        "weak_sup_val_distance": _frac_json(report.weak_sup_val_distance),
        "all_equal": report.all_equal,
        "mismatches": list(report.mismatches),
    }

    def lines():
        return [
            f"strong metric:          {_frac_text(report.strong_metric)}",
            f"logical distance:       {_frac_text(report.logical_distance)}",
            f"sup-val distance:       {_frac_text(report.sup_val_distance)}",
            f"weak metric:            {_frac_text(report.weak_metric)}",
            f"weak logical distance:  {_frac_text(report.weak_logical_distance)}",
            f"weak sup-val distance:  {_frac_text(report.weak_sup_val_distance)} (derived)",
            f"all equal: {'true' if report.all_equal else 'false'}",
        ] + [f"MISMATCH: {m}" for m in report.mismatches]

    _emit(args, lambda: payload, lines)
    if not report.all_equal:
        for mismatch in report.mismatches:
            print(f"crosscheck failed: {mismatch}", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # The commands that name a process build a trace layer; only they take the cap.
    capped = _Parser(add_help=False, parents=[common])
    capped.add_argument(
        "--max-resolutions",
        type=int,
        metavar="N",
        default=DEFAULT_MAX_RESOLUTIONS,
        help=f"abort when a process has more resolutions (default {DEFAULT_MAX_RESOLUTIONS})",
    )

    parser = _Parser(
        prog="tracemet",
        description="Exact trace metrics, equivalences and characterizing "
        "formulae for finite probabilistic transition systems.",
        epilog="exit codes: 0 ok; 1 parse/validation/usage error or closed stdout; "
        "2 resolution size guard; 3 cross-check disagreement; 4 out of memory",
    )
    parser.add_argument("--version", action="version", version=f"tracemet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, file=True, process=False, other=False, formula=0, weak=False):
        p = sub.add_parser(name, parents=[capped if process else common], help=help_text)
        if file:
            p.add_argument("file", help="system description (.pts)")
        if process:
            p.add_argument("-p", "--process", required=True, help="first process")
        if other:
            p.add_argument("-q", "--other", required=True, help="second process")
        if formula == 1:
            p.add_argument("-f", "--formula", required=True, help="distribution formula")
        if formula == 2:
            p.add_argument("-f1", "--formula1", required=True, help="first formula")
            p.add_argument("-f2", "--formula2", required=True, help="second formula")
        if weak:
            p.add_argument("--weak", action="store_true", help="compare up to silent steps")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a system description")
    p = add("resolutions", _cmd_resolutions, "list resolutions with trace distributions",
            process=True, weak=True)
    p.add_argument("--limit", type=int, default=None, metavar="N", help="print at most N")
    add("mimic", _cmd_mimic, "deduplicated mimicking formulae of all resolutions",
        process=True, weak=True)
    add("metric", _cmd_metric, "trace metric between two processes",
        process=True, other=True, weak=True)
    add("equiv", _cmd_equiv, "trace equivalence between two processes",
        process=True, other=True, weak=True)
    add("sat", _cmd_sat, "does the process satisfy the formula",
        process=True, formula=1, weak=True)
    add("fdist", _cmd_fdist, "distance between two formulae", file=False, formula=2, weak=True)
    add("val", _cmd_val, "real value of a formula at a process",
        process=True, formula=1, weak=True)
    add("crosscheck", _cmd_crosscheck, "verify that all metric routes agree",
        process=True, other=True)
    return parser


# Built by the first main() call and reused by every later one: building
# the tree costs far more than parsing one command line with it.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    # An exact input token or printed value may pass the interpreter's int/str
    # digit limit (Python 3.10.7 and later; 0 is none): lifted for the call.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # The cyclic collector is paused for the command and put back as the
    # caller had it.  A command's rows and keys hold no reference cycles and
    # all die by refcount before it returns, yet each one counts towards
    # the collector's thresholds, so its passes would scan live rows and
    # free nothing.
    collecting = gc.isenabled()
    # Parser warnings are printed after the output or the error line, on
    # every exit path; validate reports its own and leaves none here.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParserWarning)
        try:
            gc.disable()
            if limit:
                sys.set_int_max_str_digits(0)
            args = _parser.parse_args(argv)
            code = args.func(args)
            sys.stdout.flush()  # a closed stdout fails here, not at exit
        except _CliError as exc:
            print(str(exc), file=sys.stderr)
            code = exc.code
        except SizeGuardExceeded as exc:
            print(f"size guard: {exc}", file=sys.stderr)
            code = EXIT_SIZE_GUARD
        except MemoryError:
            # Reported below, once the traceback has released the failed
            # command's frames and every row they hold: printing here can
            # itself run out of memory.
            code = EXIT_MEMORY
        except BrokenPipeError:
            # The reader closed standard output (``tracemet ... | head``): an
            # I/O failure like an unreadable file, reported by the exit code
            # alone.  What is still buffered goes to the null device, so the
            # interpreter's final flush does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            code = EXIT_INVALID
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
            if collecting:
                gc.enable()
    if code == EXIT_MEMORY:
        print("out of memory", file=sys.stderr)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
