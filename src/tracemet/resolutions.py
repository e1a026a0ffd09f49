"""Deterministic, possibly halting schedulers of a process.

A resolution fixes, at every reached state, either one of the available
transitions or the decision to halt; halting is allowed even when
transitions are enabled.  Resolution states are *unfolding nodes* (paths
from the root), not process ids: the same process reached along two
different branches may be resolved differently, and the initial state must
never occur inside a target distribution.

A ``Resolution`` lists its nodes in preorder, each as a
``(parent, process, choice)`` tuple: the index of its parent node in the
list (None for the root, which comes first), the process it unfolds and
the choice made there.  A node's path is its parent's path followed by the
pair (parent's choice, process), and children follow their transition's
support order, so the list is in the lexicographic order of the paths.
Readers make one pass over it, reading each node's data off its parent's.

Nothing here walks the system, and no command lists resolutions:
``traces.TraceLayer`` counts the resolutions of every process its roots
reach in its one post-order walk, and ``_resolution_from`` decodes the
resolution with a given index in the canonical order off that count table
(``traces.count_resolutions`` and ``traces.resolution_at`` read an
uncapped layer).  The recursive enumerator, the structural validator and
the hand-built-resolution helper that the tests compare against live in
``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PTS, ProcessId

DEFAULT_MAX_RESOLUTIONS = 10**6

# A choice is a transition index into the node's process, or None to halt.
Choice = int | None
# A node: its parent's index in ``Resolution.nodes`` (None for the root),
# the process it unfolds, and its choice.
Node = tuple[int | None, ProcessId, Choice]


class SizeGuardExceeded(RuntimeError):
    """Raised when a process has more resolutions than allowed."""

    def __init__(self, count: int, limit: int, process: ProcessId):
        super().__init__(
            f"process {process!r} has {count} resolutions, exceeding the cap of {limit}"
        )
        self.count = count
        self.limit = limit
        self.process = process


@dataclass(frozen=True)
class Resolution:
    """A scheduler decision for every reachable unfolding node.

    ``nodes`` holds exactly the nodes generated by the decisions
    themselves, in preorder: the root first, and a node with choice ``k``
    followed by the subtrees of its children, one per support process of
    transition ``k``.  The underlying system is kept alongside so readers
    can look up actions and step probabilities.
    """

    pts: PTS
    nodes: tuple[Node, ...]

    @property
    def root(self) -> ProcessId:
        return self.nodes[0][1]


def _resolution_from(pts: PTS, process: ProcessId, index: int, counts: dict) -> Resolution:
    """The resolution of ``process`` with the given index in the canonical
    order (``traces.resolution_at``), off ``counts``, the resolution counts
    of every process that ``process`` reaches."""
    if not 0 <= index < counts[process]:
        raise IndexError(f"resolution index {index} out of range for {process!r}")
    nodes: list[Node] = []
    todo = [(None, process, index)]
    while todo:
        parent, p, k = todo.pop()
        if k == 0:
            nodes.append((parent, p, None))
            continue
        k -= 1
        for choice, row in enumerate(pts.transitions_of(p)):
            targets = row.target.support
            block = math.prod(counts[q] for q in targets)
            if k < block:
                break
            k -= block
        here = len(nodes)
        nodes.append((parent, p, choice))
        # Pushed last target first, so nodes are filled in preorder.
        for q in reversed(targets):
            k, digit = divmod(k, counts[q])
            todo.append((here, q, digit))
    return Resolution(pts, tuple(nodes))
