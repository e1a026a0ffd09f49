"""Surface syntax for transition systems and formulae, with pretty-printers.

System files hold one transition per line::

    # '#' starts a comment, blank lines are ignored
    s -a-> 1/2 s1, 1/2 s2
    s1 -b-> 1 nil

Probabilities are exact: ``1``, a decimal literal such as ``0.5`` (meaning
exactly one half, never a float) or a fraction ``p/q``; each must lie in
(0, 1] and the probabilities of one line must sum to exactly 1.  Any
identifier that never appears as a source is a terminal process.  ``tau``
is the silent action.

Formulae use ``T`` for the top formula, angle-bracket diamonds and a
weighted choice operator::

    0.5 <a><c>T (+) 0.5 <a>T

Duplicate trace formulae in one choice are merged by summing their weights
(a warning is emitted); after merging the weights must sum to exactly 1.

Both printers emit a canonical text that re-parses to an equal value.

``parse_pts`` reads each comment-stripped line with one match of a line
regex built from the identifier and probability patterns, then one
``findall`` over the arrow's right-hand side for the (probability, target)
pairs.  Each distinct probability token is converted once per parse, and a
line's weights are checked to sum to 1 on the tokens' numerators and
denominators as ints; the ``Fraction`` sum is built only to word the
error.  The cursor scanner runs only on a line the regex rejects or whose
probability is zero, above 1 or over a zero denominator: it raises the
issue, with its span, that explains the line.  A benchmark pool file (14
lines on average) parses in about 115 µs, against about 200 µs with the
scanner on every line (best of 7, the two versions interleaved, 2-vCPU VM,
Python 3.11).
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (
    Action,
    Dist,
    IDENTIFIER_RE,
    PTS,
    TraceDistFormula,
    Transition,
    cycle_error,
)
from .logic import TraceFormula
from .traces import Trace


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseIssue:
    span: "SourceSpan | None"
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}" if self.span else self.message


class ParseError(ValueError):
    def __init__(self, issues: list[ParseIssue]):
        super().__init__("; ".join(str(issue) for issue in issues))
        self.issues = tuple(issues)


class ParserWarning(UserWarning):
    pass


_PROB_RE = re.compile(r"\d+/\d+|\d+\.\d+|\d+")
_ARROW_OPEN = "-"
_ARROW_CLOSE = "->"

# The accepting path: one match per line.  The whitespace class is exactly
# the scanner's (``skip_ws``), not ``\s``, so a line the scanner rejects
# for, say, an EM SPACE is rejected here too.  Each quantified piece is
# followed by a character it cannot match, so the regex admits one reading
# of a line, the scanner's.
_WS = r"[ \t\r\n]*"
_PAIR = rf"(?:{_PROB_RE.pattern}){_WS}{IDENTIFIER_RE.pattern}"
_LINE_RE = re.compile(
    rf"{_WS}({IDENTIFIER_RE.pattern}){_WS}-{_WS}({IDENTIFIER_RE.pattern}){_WS}->"
    rf"{_WS}({_PAIR}(?:{_WS},{_WS}{_PAIR})*)"
)
_PAIR_RE = re.compile(rf"({_PROB_RE.pattern}){_WS}({IDENTIFIER_RE.pattern})")


class _LineScanner:
    """Cursor over one line.  A span is built only for an issue raised."""

    __slots__ = ("text", "line_no", "pos")

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def skip_ws(self) -> int:
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos
        return pos

    def fail(self, message: str, start: int | None = None, length: int = 1) -> ParseError:
        """A ParseError at ``start``, by default the cursor."""
        if start is None:
            start = self.pos
        return ParseError([ParseIssue(SourceSpan(self.line_no, start + 1, max(length, 1)), message)])

    def at_end(self) -> bool:
        return self.skip_ws() >= len(self.text)

    def take_regex(self, regex: re.Pattern, what: str) -> str:
        match = regex.match(self.text, self.skip_ws())
        if match is None:
            raise self.fail(f"expected {what}")
        self.pos = match.end()
        return match.group()

    def take_literal(self, literal: str) -> None:
        if not self.try_literal(literal):
            raise self.fail(f"expected {literal!r}")

    def try_literal(self, literal: str) -> bool:
        pos = self.skip_ws()
        if self.text.startswith(literal, pos):
            self.pos = pos + len(literal)
            return True
        return False


def _token_value(token: str) -> tuple[Fraction, int, int]:
    """The value of a token ``_PROB_RE`` matched, with its reduced numerator
    and denominator.  The digits are read as ``Fraction(token)`` reads them,
    without its regex.  Raises ValueError naming the issue if the token has
    a zero denominator or lies outside (0, 1]."""
    num, slash, den = token.partition("/")
    if slash:
        n, d = int(num), int(den)
        if d == 0:
            raise ValueError("zero denominator")
    else:
        whole, _, digits = token.partition(".")
        d = 10 ** len(digits)
        n = int(whole) * d + int(digits) if digits else int(whole)
    if not 0 < n <= d:
        raise ValueError(f"probability {token} outside (0, 1]")
    value = Fraction(n, d)
    return value, value.numerator, value.denominator


def _parse_probability(scanner: _LineScanner) -> tuple[Fraction, int, int]:
    """The next probability, as ``_token_value`` reads it."""
    token = scanner.take_regex(_PROB_RE, "a probability (1, 0.5 or p/q)")
    try:
        return _token_value(token)
    except ValueError as exc:
        raise scanner.fail(str(exc), scanner.pos - len(token), len(token)) from None


def _parse_transition_line(scanner: _LineScanner) -> tuple[str, str, list[tuple[tuple, str]]]:
    """Read one line with the scanner: source, action name and
    ``(probability entry, target)`` pairs.  ``parse_pts`` calls it only for
    a line its regex rejects or with a probability out of range, to raise
    the issue that explains the line."""
    src = scanner.take_regex(IDENTIFIER_RE, "a process identifier")
    scanner.take_literal(_ARROW_OPEN)
    name = scanner.take_regex(IDENTIFIER_RE, "an action name")
    scanner.take_literal(_ARROW_CLOSE)
    pairs = []
    while True:
        entry = _parse_probability(scanner)
        target = scanner.take_regex(IDENTIFIER_RE, "a target process identifier")
        pairs.append((entry, target))
        if not scanner.try_literal(","):
            break
    if not scanner.at_end():
        raise scanner.fail("trailing input after transition")
    return src, name, pairs


def parse_pts(text: str) -> PTS:
    """Parse a system description; raises ParseError carrying every issue.

    Line-level syntax errors do not stop the scan, so one parse reports all
    of them.  Exact duplicate transitions are collapsed with a warning.
    Each line's weights must sum to 1, and a reachability cycle in the
    result is raised as a parse error too.
    """
    issues: list[ParseIssue] = []
    rows: list[tuple[str, Action, Dist, int, tuple]] = []
    # One entry per distinct probability token, one Action per name.
    entries: dict[str, tuple[Fraction, int, int]] = {}
    actions: dict[str, Action] = {}
    processes: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = (raw if cut < 0 else raw[:cut]).rstrip()
        if not line:
            continue
        match = _LINE_RE.fullmatch(line)
        pairs: list | None = None
        if match is not None:
            # Every token is converted and range-checked before any
            # duplicate target is merged, in the order the scanner reads them.
            src, name, body = match.groups()
            pairs = []
            for token, target in _PAIR_RE.findall(body):
                entry = entries.get(token)
                if entry is None:
                    try:
                        entry = entries[token] = _token_value(token)
                    except ValueError:
                        pairs = None
                        break
                pairs.append((entry, target))
        if pairs is None:
            # The scanner explains the line: it raises the issue the line
            # gets, with its span.  Were it to accept the line, its reading
            # would stand, so a line the regex wrongly rejected would cost
            # time, not change the result.
            try:
                src, name, pairs = _parse_transition_line(_LineScanner(line, line_no))
            except ParseError as exc:
                issues.extend(exc.issues)
                continue
        weights: dict[str, Fraction] = {}
        # Each target's reduced weight as ints, for the row's duplicate key.
        terms: dict[str, tuple[str, int, int]] = {}
        # The weights' sum as num/den in ints.  The tokens of a line mostly
        # share one denominator, so this is mostly int additions.
        num, den = 0, 1
        for (prob, n, d), target in pairs:
            if d == den:
                num += n
            else:
                common = lcm(den, d)
                num = num * (common // den) + n * (common // d)
                den = common
            known = weights.get(target)
            if known is None:
                weights[target] = prob
                terms[target] = (target, n, d)
                continue
            warnings.warn(
                ParserWarning(f"line {line_no}: duplicate target {target!r} merged"),
                stacklevel=2,
            )
            weights[target] = merged = known + prob
            terms[target] = (target, merged.numerator, merged.denominator)
        if num != den:
            issues.append(
                ParseIssue(
                    SourceSpan(line_no, 1, len(line)),
                    f"weights sum to {sum(weights.values())} != 1",
                )
            )
            continue
        action = actions.get(name)
        if action is None:
            action = actions[name] = Action(name)
        key = (name, tuple(sorted(terms.values())))
        rows.append((src, action, Dist(weights), line_no, key))
        processes.add(src)
        processes.update(weights)
    if issues:
        raise ParseError(issues)

    # Each source's transitions in an insertion-ordered dict, so finding a
    # duplicate costs one hash lookup, whatever the fan-out.  The key,
    # ``(action name, ((target, numerator, denominator), ...))`` with the
    # targets sorted, holds only strings and ints: hashing the Transition
    # would hash its Action in Python and one Fraction per weight.
    transitions: dict[str, dict[tuple, Transition]] = {}
    for src, action, dist, line_no, key in rows:
        bucket = transitions.setdefault(src, {})
        if key in bucket:
            warnings.warn(
                ParserWarning(
                    f"line {line_no}: duplicate transition {src} -{action}-> collapsed"
                ),
                stacklevel=2,
            )
            continue
        bucket[key] = Transition(action, dist)

    pts = PTS(frozenset(processes), {p: tuple(rs.values()) for p, rs in transitions.items()})
    # Sources and targets are declared and every line sums to 1 by
    # construction, so of validate_pts's checks only the cycle search can
    # fail here.
    cycle = cycle_error(pts)
    if cycle is not None:
        raise ParseError([ParseIssue(None, f"{cycle[0]}: {cycle[1]}")])
    return pts


def parse_formula(text: str) -> TraceDistFormula:
    """Parse a trace distribution formula; raises ParseError on any issue."""
    scanner = _LineScanner(text, 1)
    weights: dict[TraceFormula, Fraction] = {}
    merged_any = False
    while True:
        prob = _parse_probability(scanner)[0]
        diamonds: list[Action] = []
        while scanner.try_literal("<"):
            name = scanner.take_regex(IDENTIFIER_RE, "an action name")
            scanner.take_literal(">")
            diamonds.append(Action(name))
        scanner.take_literal("T")
        phi = TraceFormula(tuple(diamonds))
        if phi in weights:
            merged_any = True
        weights[phi] = weights.get(phi, Fraction(0)) + prob
        if scanner.at_end():
            break
        scanner.take_literal("(+)")
    if merged_any:
        warnings.warn(
            ParserWarning("duplicate trace formulae merged by summing weights"),
            stacklevel=2,
        )
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise ParseError([ParseIssue(None, f"weights sum to {total} != 1")])
    return Dist(weights)


def print_formula(psi: TraceDistFormula) -> str:
    return " (+) ".join(f"{weight} {phi}" for phi, weight in psi.items_descending)


def print_trace(trace: Trace) -> str:
    return " ".join(a.name for a in trace) if trace else "ε"


def print_trace_distribution(td: Dist) -> str:
    return ", ".join(f"{weight} {print_trace(trace)}" for trace, weight in td.items_descending)


def print_pts(pts: PTS) -> str:
    """Canonical text: sources sorted, transition order preserved, targets
    sorted, weights as reduced fractions.  Re-parses to an equal system
    (terminal processes are recovered from the transitions referencing
    them, so an isolated process with no transitions is not representable).
    """
    lines: list[str] = []
    for src in sorted(pts.transitions):
        for action, dist in pts.transitions[src]:
            body = ", ".join(f"{weight} {target}" for target, weight in dist.items_sorted)
            lines.append(f"{src} -{action.name}-> {body}")
    return "\n".join(lines) + ("\n" if lines else "")
