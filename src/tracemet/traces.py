"""Trace distributions of resolutions and of whole processes.

A resolution's trace distribution maps each trace to the probability of the
maximal runs spelling it: the product of the step probabilities read off
the scheduled distributions.

The weak view erases the silent action from traces.  Weak trace
distributions live on tau-free representative traces, which keeps them
honest probability distributions; summing instead over every equivalent
tau-decorated spelling would overshoot 1.

``trace_distributions`` is the layer every command reads: the trace
distributions of all resolutions of a process, composed from those of the
processes it can reach, with no resolution built.  ``trace_distribution``
walks one resolution, for the resolutions a command prints.  The run lists
(``Computation``, ``max_computations``) that the tests compare both against
live in ``tests/oracles.py``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, product

from .core import PTS, Action, Dist, ProcessId, TraceDistribution, post_order
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Resolution, check_size_guard

Trace = tuple[Action, ...]
EPSILON: Trace = ()
HALTED = Dist.dirac(EPSILON)


def trace_distribution(resolution: Resolution) -> TraceDistribution:
    """Map each trace to the probability of the maximal runs spelling it.

    Only maximal runs (those ending where the scheduler halts) carry mass:
    summing over all runs would count the same probability once per prefix.
    Walks an explicit stack, so deep resolutions do not hit the recursion
    limit; each pending node carries the trace and the probability of the
    run reaching it.
    """
    pairs = []
    todo = [(resolution.root_node, EPSILON, Fraction(1))]
    while todo:
        node, trace, prob = todo.pop()
        choice = resolution.choices[node]
        if choice is None:
            pairs.append((trace, prob))
            continue
        row = resolution.pts.transitions_of(node.process)[choice]
        trace += (row.action,)
        for target, step in row.target.items_sorted:
            todo.append((node.child(choice, target), trace, prob * step))
    return Dist.merged(pairs)


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
    the canonical order of ``resolution_at``, without building any.

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
