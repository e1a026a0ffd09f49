"""Deterministic, possibly halting schedulers of a process.

A resolution fixes, at every reached state, either one of the available
transitions or the decision to halt; halting is allowed even when
transitions are enabled.  Resolution states are *unfolding nodes* (paths
from the root), not process ids: the same process reached along two
different branches may be scheduled differently, and the initial state must
never occur inside a target distribution.  Each node maps back to the
process it unfolds.

No command lists resolutions: ``count_resolutions`` counts them, and
``resolution_at`` builds the one with a given index in the canonical order
off the counts of the processes the root reaches (``traces.TraceLayer``
keeps that table per queried process).  The recursive enumerator, the
structural validator and the hand-built-resolution helper that the tests
compare against live in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .core import PTS, ProcessId, Transition, post_order

DEFAULT_MAX_RESOLUTIONS = 10**6

# A choice is a transition index into the node's process, or None to halt.
Choice = int | None


class SizeGuardExceeded(RuntimeError):
    """Raised when a process has more resolutions than allowed."""

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


def resolution_at(pts: PTS, process: ProcessId, index: int) -> Resolution:
    """The resolution of ``process`` with the given index in the canonical
    order, built alone.

    The canonical order is lexicographic in the decisions: index 0 halts;
    past it, each transition in list order owns a block of indices, one per
    combination of sub-schedulers, read as a mixed-radix number whose digits
    are the targets' indices, the last target's digit varying fastest.
    """
    return _resolution_from(pts, process, index, _resolution_counts(pts, process))


def _resolution_from(pts: PTS, process: ProcessId, index: int, counts: dict) -> Resolution:
    """``resolution_at`` off ``counts``, the resolution counts of every
    process that ``process`` reaches."""
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
