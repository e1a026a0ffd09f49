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

The canonical order of a process's resolutions, their count and the
decoder that builds one by its index all live in ``traces.TraceLayer``;
this module holds the data type, its aliases, the size guard and its
default cap.
"""
from __future__ import annotations

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

