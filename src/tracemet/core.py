"""Data model for finite nondeterministic probabilistic transition systems.

Processes are plain strings.  Each process carries an ordered list of
transitions; a transition pairs an action with a finite-support probability
distribution over target processes.  Every probability in this package is an
exact ``fractions.Fraction``; there is no floating point anywhere in the
computation paths.

The model is deliberately restricted to *acyclic* systems: every quantity
computed downstream (maximal runs, trace distributions, scheduler
enumeration) presupposes that all runs are finite.  ``validate_pts`` rejects
cyclic inputs with a diagnostic naming one cycle.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, itemgetter
from typing import Callable, NamedTuple

ProcessId = str

TAU_NAME = "tau"
_KEY = itemgetter(0)
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@dataclass(frozen=True, order=True)
class Action:
    """A transition label.  The reserved name ``tau`` is the silent action."""

    name: str

    def __post_init__(self) -> None:
        if not IDENTIFIER_RE.fullmatch(self.name):
            raise ValueError(f"invalid action name {self.name!r}")

    @property
    def is_tau(self) -> bool:
        return self.name == TAU_NAME

    def __str__(self) -> str:
        return self.name


TAU = Action(TAU_NAME)


class Dist(Mapping):
    """Immutable finite-support map from keys to strictly positive rationals.

    The one distribution type used across the package: over process ids
    (transition targets), over traces (trace distributions) and over trace
    formulae (distribution formulae).  Keys must be orderable so storage and
    output are canonical.  Strict positivity is enforced here; whether the
    weights must sum to 1 is the caller's contract (``is_probability``), so
    that validators can inspect ill-formed inputs instead of never seeing
    them.
    """

    __slots__ = ("_map", "_items", "_total")

    def __init__(self, weights: Mapping | Iterable[tuple]):
        # The exact-type tests come first: they are much cheaper than the
        # ABC checks, and a dict of Fractions is the common input.
        if type(weights) is dict or isinstance(weights, Mapping):
            # A mapping's keys are distinct, and copying a dict reuses the
            # hashes it stores, so no key is hashed again here.
            acc = dict(weights)
            for key, weight in acc.items():
                if type(weight) is not Fraction and not isinstance(weight, Fraction):
                    acc[key] = weight = Fraction(weight)
                if weight.numerator <= 0:
                    raise ValueError(f"nonpositive weight {weight} for {key!r}")
        else:
            acc = {}
            for key, raw in weights:
                weight = raw if type(raw) is Fraction or isinstance(raw, Fraction) else Fraction(raw)
                if weight.numerator <= 0:
                    raise ValueError(f"nonpositive weight {weight} for {key!r}")
                if key in acc:
                    raise ValueError(f"duplicate key {key!r}; use Dist.merged")
                acc[key] = weight
        if not acc:
            raise ValueError("empty support")
        self._map = acc
        self._items = tuple(sorted(acc.items(), key=_KEY))
        self._total = None

    @classmethod
    def merged(cls, pairs: Iterable[tuple]) -> "Dist":
        """Build a Dist from pairs, summing weights of duplicate keys."""
        acc: dict = {}
        for key, weight in pairs:
            if not isinstance(weight, Fraction):
                weight = Fraction(weight)
            known = acc.get(key)
            acc[key] = weight if known is None else known + weight
        return cls(acc)

    def pushforward(self, fn: Callable) -> "Dist":
        """Image distribution under ``fn``, merging collided keys."""
        return Dist.merged((fn(key), weight) for key, weight in self._items)

    @property
    def support(self) -> tuple:
        return tuple(map(_KEY, self._items))

    @property
    def items_sorted(self) -> tuple:
        return self._items

    @property
    def items_descending(self) -> tuple:
        """The items from the greatest key down: the display order, which
        puts the longest and greatest traces and formulae first."""
        return self._items[::-1]

    @property
    def total(self) -> Fraction:
        if self._total is None:
            # The support is never empty, so the sum starts from a weight.
            self._total = reduce(add, self._map.values())
        return self._total

    @property
    def is_probability(self) -> bool:
        return self.total == 1

    def __getitem__(self, key) -> Fraction:
        return self._map[key]

    def __iter__(self) -> Iterator:
        return iter(key for key, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Dist):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key!r}: {weight}" for key, weight in self._items)
        return f"Dist({{{inner}}})"


# Aliases naming the roles Dist plays.
TraceDistribution = Dist
TraceDistFormula = Dist


class Transition(NamedTuple):
    action: Action
    target: Dist


@dataclass(frozen=True)
class PTS:
    """A finite probabilistic transition system.

    ``transitions`` maps a process to its ordered transition list; the order
    is the input order and carries no semantics, it only makes enumeration
    and printed output stable.  Processes without an entry (or with an empty
    list) are terminal.
    """

    processes: frozenset[ProcessId]
    transitions: Mapping[ProcessId, tuple[Transition, ...]]

    @classmethod
    def build(cls, spec: Mapping[ProcessId, Iterable[tuple]]) -> "PTS":
        """Construct from ``{src: [(action, {target: weight}), ...]}``.

        Action values may be strings or Actions; every referenced target is
        added to the process set.  No validation beyond Dist's positivity is
        performed here, so ill-formed systems can be built and then passed
        to ``validate_pts``.
        """
        transitions: dict[ProcessId, tuple[Transition, ...]] = {}
        processes: set[ProcessId] = set()
        for src, entries in spec.items():
            processes.add(src)
            rows = []
            for action, weights in entries:
                if not isinstance(action, Action):
                    action = Action(action)
                dist = weights if isinstance(weights, Dist) else Dist(weights)
                processes.update(dist.support)
                rows.append(Transition(action, dist))
            transitions[src] = tuple(rows)
        return cls(frozenset(processes), transitions)

    def transitions_of(self, process: ProcessId) -> tuple[Transition, ...]:
        if process not in self.processes:
            raise ValueError(f"unknown process {process!r}")
        return self.transitions.get(process, ())


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[tuple[str, str], ...]
    warnings: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_pts(pts: PTS) -> ValidationReport:
    """Check every structural invariant, reporting all violations at once.

    Checked: transition sources are declared processes, target weights sum
    to exactly 1, no transition references an undeclared process, and the
    support graph is acyclic (one witness cycle is named).  Exact duplicate
    transitions are reported as warnings; they are semantically redundant.
    """
    errors: list[tuple[str, str]] = []
    warnings: list[tuple[str, str]] = []

    for src in sorted(pts.transitions):
        if src not in pts.processes:
            errors.append((src, "transition source is not a declared process"))
    for src in sorted(pts.processes):
        rows = pts.transitions.get(src, ())
        seen: set[Transition] = set()
        for idx, row in enumerate(rows):
            where = f"{src}#{idx}"
            if row.target.total != 1:
                errors.append((where, f"weights sum to {row.target.total} != 1"))
            for tgt in row.target.support:
                if tgt not in pts.processes:
                    errors.append((where, f"reference to undeclared process {tgt!r}"))
            if row in seen:
                warnings.append((where, f"duplicate transition -{row.action}->"))
            seen.add(row)

    cycle = cycle_error(pts)
    if cycle is not None:
        errors.append(cycle)

    return ValidationReport(tuple(errors), tuple(warnings))


class _CycleError(ValueError):
    def __init__(self, cycle: list[ProcessId]):
        super().__init__(f"cycle through {cycle[0]!r}")
        self.cycle = cycle


def cycle_error(pts: PTS) -> tuple[ProcessId, str] | None:
    """The (location, message) error naming one cycle of the support graph,
    or None when the graph is acyclic: the first cycle ``post_order`` meets
    from the processes in sorted order."""
    try:
        post_order(pts, *sorted(pts.processes))
    except _CycleError as exc:
        return exc.cycle[0], "reachability cycle: " + " -> ".join(exc.cycle)
    return None


def post_order(pts: PTS, *roots: ProcessId) -> list[ProcessId]:
    """The processes reachable from ``roots``, each listed after every
    process its transitions can reach.

    The one depth-first search of the support graph: roots in the order
    given, transitions in list order, targets in support order, on an
    explicit stack, so deep systems do not hit the recursion limit.  An
    undeclared process is listed with no successors, so callers reading
    its transitions raise on it.  A reachable cycle raises ValueError
    whose ``cycle`` is ``[p0, ..., p0]``.
    """
    declared, transitions = pts.processes, pts.transitions

    def successors(p: ProcessId) -> Iterator[ProcessId]:
        rows = transitions.get(p, ()) if p in declared else ()
        return (q for row in rows for q in row.target.support)

    order: list[ProcessId] = []
    on_path: set[ProcessId] = set()
    done: set[ProcessId] = set()
    for root in roots:
        if root in done:
            continue
        on_path.add(root)
        stack = [(root, successors(root))]
        while stack:
            p, it = stack[-1]
            for q in it:
                if q in on_path:
                    path = [node for node, _ in stack]
                    raise _CycleError(path[path.index(q):] + [q])
                if q not in done:
                    on_path.add(q)
                    stack.append((q, successors(q)))
                    break
            else:
                stack.pop()
                on_path.discard(p)
                done.add(p)
                order.append(p)
    return order
