"""Enumeration of deterministic, possibly halting schedulers of a process.

A resolution fixes, at every reached state, either one of the available
transitions or the decision to halt; halting is allowed even when
transitions are enabled.  Resolution states are *unfolding nodes* (paths
from the root), not process ids: the same process reached along two
different branches may be scheduled differently, and the initial state must
never occur inside a target distribution.  Each node maps back to the
process it unfolds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .core import PTS, ProcessId, Transition, post_order

DEFAULT_MAX_RESOLUTIONS = 10**6

# A choice is a transition index into the node's process, or None to halt.
Choice = int | None


class SizeGuardExceeded(RuntimeError):
    """Raised when an enumeration would materialize more resolutions than allowed."""

    def __init__(self, count: int, limit: int, process: ProcessId):
        super().__init__(
            f"process {process!r} has {count} resolutions, exceeding the cap of {limit}"
        )
        self.count = count
        self.limit = limit
        self.process = process


@dataclass(frozen=True, order=True)
class UnfoldNode:
    """A state of the unfolding: the path of (transition index, target) pairs
    taken from the root.  ``process`` is the process this node unfolds and
    always equals the last path target (or the root for the empty path)."""

    path: tuple[tuple[int, ProcessId], ...]
    process: ProcessId

    def child(self, index: int, target: ProcessId) -> "UnfoldNode":
        return UnfoldNode(self.path + ((index, target),), target)


@dataclass(frozen=True)
class Resolution:
    """A scheduler decision for every reachable unfolding node.

    ``choices`` is defined exactly on the nodes generated by the decisions
    themselves: the root is present, and a node with choice ``k`` spawns one
    child per support process of transition ``k``.  The underlying system is
    kept alongside so traversals can read actions and step probabilities.
    """

    pts: PTS
    root: ProcessId
    choices: Mapping[UnfoldNode, Choice]

    @property
    def root_node(self) -> UnfoldNode:
        return UnfoldNode((), self.root)

    def scheduled(self, node: UnfoldNode) -> Transition | None:
        """The transition taken at ``node``, or None when it halts."""
        choice = self.choices[node]
        if choice is None:
            return None
        return self.pts.transitions_of(node.process)[choice]

    def children(self, node: UnfoldNode) -> tuple[UnfoldNode, ...]:
        choice = self.choices[node]
        if choice is None:
            return ()
        row = self.pts.transitions_of(node.process)[choice]
        return tuple(node.child(choice, q) for q in row.target.support)

    def nodes(self) -> Iterator[UnfoldNode]:
        """All nodes in depth-first preorder (children in target order)."""
        stack = [self.root_node]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children(node)))


def _resolution_counts(pts: PTS, process: ProcessId) -> dict[ProcessId, int]:
    """Resolution count of every process reachable from ``process``.

    Recurrence: a process offers the halting scheduler plus, per transition,
    one scheduler for every combination of sub-schedulers of the targets.
    """
    counts: dict[ProcessId, int] = {}
    for p in post_order(pts, process):
        counts[p] = 1 + sum(
            math.prod(counts[q] for q in row.target.support) for row in pts.transitions_of(p)
        )
    return counts


def count_resolutions(pts: PTS, process: ProcessId) -> int:
    """Number of resolutions of ``process`` without materializing them."""
    return _resolution_counts(pts, process)[process]


def check_size_guard(pts: PTS, process: ProcessId, max_resolutions: int) -> int:
    """The resolution count of ``process``; raises SizeGuardExceeded when it
    is more than ``max_resolutions``."""
    count = count_resolutions(pts, process)
    if count > max_resolutions:
        raise SizeGuardExceeded(count, max_resolutions, process)
    return count


# A choice tree is None (halt) or (index, ((target, subtree), ...)) with
# targets in ascending order.  Trees are shared across enumerations.
def _choice_trees(pts: PTS, process: ProcessId, memo: dict) -> list:
    if process in memo:
        return memo[process]
    options: list = [None]
    for index, row in enumerate(pts.transitions_of(process)):
        targets = row.target.support
        per_child = [_choice_trees(pts, q, memo) for q in targets]
        for combo in product(*per_child):
            options.append((index, tuple(zip(targets, combo))))
    memo[process] = options
    return options


def _materialize(pts: PTS, root: ProcessId, tree) -> Resolution:
    choices: dict[UnfoldNode, Choice] = {}

    def walk(node: UnfoldNode, subtree) -> None:
        if subtree is None:
            choices[node] = None
            return
        index, kids = subtree
        choices[node] = index
        for target, sub in kids:
            walk(node.child(index, target), sub)

    walk(UnfoldNode((), root), tree)
    return Resolution(pts, root, choices)


def enumerate_resolutions(
    pts: PTS,
    process: ProcessId,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> list[Resolution]:
    """Every resolution of ``process`` exactly once, in canonical order.

    Order is lexicographic in the decisions: halt first, then transitions in
    list order, sub-schedulers of later targets varying fastest.  The
    count is checked against ``max_resolutions`` before materializing.
    """
    check_size_guard(pts, process, max_resolutions)
    trees = _choice_trees(pts, process, {})
    return [_materialize(pts, process, tree) for tree in trees]


def resolution_at(pts: PTS, process: ProcessId, index: int) -> Resolution:
    """``enumerate_resolutions(pts, process)[index]``, built alone.

    The index is decoded in the canonical order: 0 halts; past it, each
    transition in turn owns a block of indices, one per combination of
    sub-schedulers, read as a mixed-radix number whose digits are the
    targets' indices, the last target's digit varying fastest.
    """
    counts = _resolution_counts(pts, process)
    if not 0 <= index < counts[process]:
        raise IndexError(f"resolution index {index} out of range for {process!r}")
    choices: dict[UnfoldNode, Choice] = {}
    todo = [(UnfoldNode((), process), index)]
    while todo:
        node, k = todo.pop()
        if k == 0:
            choices[node] = None
            continue
        k -= 1
        for choice, row in enumerate(pts.transitions_of(node.process)):
            targets = row.target.support
            block = math.prod(counts[q] for q in targets)
            if k < block:
                break
            k -= block
        choices[node] = choice
        kids = []
        for q in reversed(targets):
            k, digit = divmod(k, counts[q])
            kids.append((node.child(choice, q), digit))
        # Pushed last target first, so nodes are filled in preorder.
        todo.extend(kids)
    return Resolution(pts, process, choices)


def validate_resolution(pts: PTS, resolution: Resolution) -> bool:
    """Independent structural check of a resolution against a system.

    Walks the node set the choice map *should* generate and requires the map
    to be defined exactly there, with every taken index in range.  Does not
    share code with the enumerator, so it can vet its output.
    """
    if resolution.root not in pts.processes:
        return False
    expected: set[UnfoldNode] = set()
    stack = [UnfoldNode((), resolution.root)]
    while stack:
        node = stack.pop()
        if node in expected:
            return False
        expected.add(node)
        if node not in resolution.choices:
            return False
        choice = resolution.choices[node]
        if choice is None:
            continue
        rows = pts.transitions_of(node.process)
        if not isinstance(choice, int) or not 0 <= choice < len(rows):
            return False
        for target in rows[choice].target.support:
            stack.append(node.child(choice, target))
    return expected == set(resolution.choices)


def make_resolution(pts: PTS, root: ProcessId, plan) -> Resolution:
    """Build a resolution from a nested plan.

    A plan is ``None`` (halt) or ``(index, kids)`` where ``kids`` maps a
    target process to the plan for its node; targets omitted from ``kids``
    halt.  Convenient for spelling out a specific scheduler by hand.
    """
    choices: dict[UnfoldNode, Choice] = {}

    def walk(node: UnfoldNode, subplan) -> None:
        if subplan is None:
            choices[node] = None
            return
        index, kids = subplan
        rows = pts.transitions_of(node.process)
        if not 0 <= index < len(rows):
            raise ValueError(f"transition index {index} out of range for {node.process!r}")
        choices[node] = index
        targets = rows[index].target.support
        unknown = set(kids) - set(targets)
        if unknown:
            raise ValueError(f"plan names non-targets {sorted(unknown)} for {node.process!r}")
        for target in targets:
            walk(node.child(index, target), kids.get(target))

    walk(UnfoldNode((), root), plan)
    return Resolution(pts, root, choices)
