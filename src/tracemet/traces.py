"""Runs of a resolution, their probabilities, and trace distributions.

A run (``Computation``) is a chain of steps through the unfolding; its
probability is the product of the step probabilities read off the scheduled
distributions.  Only *maximal* runs (those ending where the scheduler halts)
carry trace-distribution mass: summing over all runs would count the same
probability once per prefix.

The weak view erases the silent action from traces.  Weak trace
distributions live on tau-free representative traces, which keeps them
honest probability distributions; summing instead over every equivalent
tau-decorated spelling would overshoot 1.

``trace_distributions`` is the layer every command reads: the trace
distributions of all resolutions of a process, composed from those of the
processes it can reach, with no resolution built.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from .core import PTS, Action, Dist, ProcessId, TraceDistribution, post_order
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Resolution, UnfoldNode, check_size_guard

Trace = tuple[Action, ...]
EPSILON: Trace = ()
HALTED = Dist.dirac(EPSILON)

Step = tuple[UnfoldNode, Action, Fraction, UnfoldNode]


@dataclass(frozen=True)
class Computation:
    """A finite run: consecutive steps chain, each with its positive
    conditional probability."""

    steps: tuple[Step, ...]

    @property
    def actions(self) -> Trace:
        return tuple(step[1] for step in self.steps)

    @property
    def probability(self) -> Fraction:
        prob = Fraction(1)
        for step in self.steps:
            prob *= step[2]
        return prob

    def __len__(self) -> int:
        return len(self.steps)


def max_computations(resolution: Resolution) -> list[Computation]:
    """All maximal runs from the root, in depth-first (path-lexicographic)
    order.  Their probabilities always sum to exactly 1.

    Walks an explicit stack, so deep resolutions do not hit the recursion
    limit.  Each pending node carries the step entering it and the length
    of the run before that step; ``steps`` is cut back to it on each pop.
    """
    out: list[Computation] = []
    steps: list[Step] = []
    todo: list = [(resolution.root_node, None, 0)]
    while todo:
        node, step, depth = todo.pop()
        del steps[depth:]
        if step is not None:
            steps.append(step)
        choice = resolution.choices[node]
        if choice is None:
            out.append(Computation(tuple(steps)))
            continue
        row = resolution.pts.transitions_of(node.process)[choice]
        for target in reversed(row.target.support):
            child = node.child(choice, target)
            todo.append((child, (node, row.action, row.target[target], child), len(steps)))
    return out


def trace_distribution(resolution: Resolution) -> TraceDistribution:
    """Map each trace to the probability of the maximal runs spelling it."""
    return Dist.merged((c.actions, c.probability) for c in max_computations(resolution))


def tau_erase(alpha: Trace) -> Trace:
    """The canonical tau-free representative: alpha with every tau removed."""
    return tuple(action for action in alpha if not action.is_tau)


def weak_trace_distribution(resolution: Resolution) -> TraceDistribution:
    """The trace distribution pushed forward through tau erasure."""
    return trace_distribution(resolution).pushforward(tau_erase)


def trace_distributions(
    pts: PTS,
    process: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
    memo: dict | None = None,
) -> list[TraceDistribution]:
    """The (weak) trace distribution of every resolution of ``process``, in
    the order of ``enumerate_resolutions``, without materializing any.

    Built bottom-up over the reachable processes.  A process's list is the
    halting scheduler's point mass on the empty trace, then, per
    transition, one entry for every combination of one entry per target
    (later targets varying fastest): the targets' distributions weighted by
    the step probabilities and merged, with the action prepended (weakly,
    unless it is silent).  Lists of processes already in ``memo`` are
    reused, so one memo can serve both sides of a comparison.  The
    resolution count is checked against ``max_resolutions`` first.
    """
    check_size_guard(pts, process, max_resolutions)
    if memo is None:
        memo = {}
    for p in post_order(pts, process):
        if (weak, p) in memo:
            continue
        out = [HALTED]
        for row in pts.transitions_of(p):
            prefix = () if weak and row.action.is_tau else (row.action,)
            # Each target's entries, prefixed and weighted once per transition.
            parts = [
                [
                    [(prefix + trace, w if step == 1 else step * w) for trace, w in d.items_sorted]
                    for d in memo[(weak, q)]
                ]
                for q, step in row.target.items_sorted
            ]
            out.extend(Dist.merged(chain.from_iterable(combo)) for combo in product(*parts))
        memo[(weak, p)] = out
    return memo[(weak, process)]
