"""Slow reference routes kept for the tests to compare the package against.

These are the per-pair definitions the package's integer total-variation
kernel (``tracemet.transport``) replaced: a Hausdorff max-min that calls a
distance function on every pair, the 0/1 transport cost computed by pushing
both distributions through a canonicalizing function (``tv_distance``), and
the formula-set distances built on them.  ``quotient_cost`` is the same 0/1
cost per pair of items, for the min-cost-flow solver below.  The kernel must
give the same values and the same witness pairs.  The package hands its
kernel only the trace layer's integer rows; ``integer_rows`` maps lists of
``Dist``s to such rows, and ``kernel_hausdorff`` reads the kernel's max-min
through it, so the tests can hold the kernel to these routes on any
distributions.  ``items_keyed`` keys rows by ``frozenset(row.items())``,
the form the layer's exact int keys must split rows as.

The per-resolution routes that ``tracemet.traces.trace_distributions``
replaced live here too: the run-probability profiles (``pr_compatible``,
``pr_weak_compatible`` and their tabulations), the run-scanning
``satisfies`` and the weak satisfaction loop over mimicking formulae.
``nearest_row`` is the scan of a process's layer rows for the first one
sharing the most mass with a formula, which ``TraceLayer.nearest``'s
descent must agree with, index and mass.
``trace_distributions`` is the layer as it was built before it became
integers: a ``Dist`` of trace tuples per resolution, composed bottom-up
with the same recurrence, which the package's integer layer
(``tracemet.traces.TraceLayer``) must decode to entry by entry.
``distinguishing_resolution`` is the two-scan search over profiles that
``find_distinguishing_resolution`` must agree with.

The package's test-only half lives here as well, moved out of it.  From
``resolutions``: the recursive enumerator ``enumerate_resolutions`` (whose
order ``resolution_at`` and ``trace_distributions`` must reproduce), the
independent structural check ``validate_resolution``, and
``make_resolution``, which spells out a scheduler by hand.  They, and the
run walkers below, keep a representation of their own, a map from
``UnfoldNode``s (which carry their whole path) to choices, so they share
no code with the package's builder; ``choices_of`` and ``from_choices``
convert it to and from the package's preorder nodes with parent links,
once per resolution.  From ``core``:
the colouring cycle search ``_find_cycle`` that ``core.cycle_error`` (one
pass of ``post_order``) must agree with.  From
``traces``: the run lists ``Computation`` and ``max_computations``, which
``trace_distribution`` must sum to.  From ``transport``: the exact
min-cost-flow solver ``kantorovich_oracle`` (with ``_FlowNetwork`` and its
optimal plans, ``Matching``).  From ``cli``: ``mimic_json``, the
``mimic --json`` formulae spelled off the decoded formula objects, which
the CLI's integer route must equal.  From ``logic``: run satisfaction
(``satisfies_trace``, ``compatible_with_formula``), the per-resolution
``mimicking_formula``/``weak_mimicking_formula``, and the weak equivalence
of formulae (``formulas_weak_equivalent``, ``dist_formulas_weak_equivalent``)
with the top distribution formula ``TOP_DIST``, which ``weak_satisfies``
and the acceptance tests read.  From ``formula_distance``: the 0/1
distance on trace formulae, ``trace_formula_distance``, the ground cost
the flow solver reads, and ``formula_sets``, the satisfied sets spelled
through ``TraceFormula`` objects, which the integer formula ids of
``_formula_sets`` (strongly the layer's trace ids) must relabel one to
one, in each mode.  From ``metrics``: the per-resolution
``resolution_distance``/``weak_resolution_distance``.

``parse_pts`` is the system parser as it was before its success path was
trimmed: a span for every token, a ``Fraction`` per probability and an
``Action`` per line, and the line sums added apart from the ``Dist``.  The
package's parser must give an equal system, or equal issues, and the same
warnings.
"""
from __future__ import annotations

import heapq
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterator, Mapping, Sequence

import tracemet as tm
from tracemet.core import IDENTIFIER_RE, PTS, Action, ProcessId, Transition, post_order, validate_pts
from tracemet.parser import ParseError, ParseIssue, ParserWarning, SourceSpan
from tracemet.resolutions import DEFAULT_MAX_RESOLUTIONS, Choice, Resolution
from tracemet.traces import EPSILON, Trace, TraceLayer
from tracemet.transport import distinct_rows, hausdorff_rows


def tv_distance(p: tm.Dist, q: tm.Dist, canonical: Callable | None = None) -> Fraction:
    """0/1 transport cost as the surplus mass of ``p`` over ``q``, both
    pushed through ``canonical`` if it is given."""
    if not p.is_probability or not q.is_probability:
        raise ValueError("tv_distance requires probability distributions")
    ph = p.pushforward(canonical) if canonical else p
    qh = q.pushforward(canonical) if canonical else q
    surplus = Fraction(0)
    for key, weight in ph.items_sorted:
        gap = weight - qh.get(key, Fraction(0))
        if gap > 0:
            surplus += gap
    return surplus


def hausdorff_witness(
    items_a: Sequence,
    items_b: Sequence,
    distance: Callable,
) -> tuple[Fraction, "tuple[int, int] | None"]:
    """Hausdorff lifting with an attaining index pair.

    Conventions for empty sets: the inner infimum over an empty set is 1 and
    the outer supremum over an empty set is 0.  The witness is the first
    (max-side, then min-side) pair in input order realizing the value; the
    first set wins ties between the two directions.
    """
    if not items_a and not items_b:
        return Fraction(0), None
    if not items_a or not items_b:
        return Fraction(1), None

    def directed(xs: Sequence, ys: Sequence) -> tuple[Fraction, int, int]:
        best = None
        for i, x in enumerate(xs):
            row_min = None
            row_arg = 0
            for j, y in enumerate(ys):
                d = distance(x, y)
                if row_min is None or d < row_min:
                    row_min, row_arg = d, j
            if best is None or row_min > best[0]:
                best = (row_min, i, row_arg)
        return best

    d_ab, i_ab, j_ab = directed(items_a, items_b)
    d_ba, j_ba, i_ba = directed(items_b, items_a)
    if d_ab >= d_ba:
        return d_ab, (i_ab, j_ab)
    return d_ba, (i_ba, j_ba)


def hausdorff(items_a: Sequence, items_b: Sequence, distance: Callable) -> Fraction:
    """max of the two directed sup-inf distances between finite sets;
    ``distance`` must be symmetric on the union."""
    return hausdorff_witness(list(items_a), list(items_b), distance)[0]


def quotient_cost(canonical: Callable | None) -> Callable:
    """The 0/1 ground cost on the classes of ``canonical`` (on the items
    themselves if it is None), one pair at a time."""
    if canonical is None:
        return lambda x, y: Fraction(x != y)
    return lambda x, y: Fraction(canonical(x) != canonical(y))


def integer_rows(canonical: Callable | None, *groups: Sequence[tm.Dist]) -> tuple[int, list]:
    """Each group of ``Dist``s as the kernel's integer rows, pushed through
    ``canonical`` if it is given, with the one common denominator of all
    groups, which is returned first.  Keys are numbered in order of first
    appearance across the groups."""
    if canonical is not None:
        groups = tuple([d.pushforward(canonical) for d in group] for group in groups)
    total = math.lcm(*(w.denominator for group in groups for d in group for _, w in d.items_sorted))
    numbers: dict = {}

    def row(d: tm.Dist) -> dict:
        return {
            numbers.setdefault(key, len(numbers)): w.numerator * (total // w.denominator)
            for key, w in d.items_sorted
        }

    return total, [[row(d) for d in group] for group in groups]


def kernel_hausdorff(
    items_a: Sequence[tm.Dist], items_b: Sequence[tm.Dist], canonical: Callable | None = None
) -> tuple[Fraction, tuple[int, int]]:
    """The kernel's max-min (``transport.hausdorff_rows``) between two
    nonempty lists of ``Dist``s, each side passed through
    ``transport.distinct_rows``, as (value, witness pair), for holding it
    to ``hausdorff_witness`` on ``Dist`` inputs.  The witness indexes the
    lists as given, repeats included."""
    total, (rows_a, rows_b) = integer_rows(canonical, items_a, items_b)
    d, i, j, _ = hausdorff_rows(distinct_rows(rows_a), distinct_rows(rows_b), total)
    return Fraction(d, total), (i, j)


def items_keyed(rows: Sequence[dict]) -> dict:
    """Each distinct row of ``rows``, keyed by ``frozenset(row.items())``,
    to the index where it first occurs, in first-index order: the keys the
    layer's int keys (``TraceLayer.distinct_keys``) must split rows as."""
    first: dict = {}
    for index, row in enumerate(rows):
        first.setdefault(frozenset(row.items()), index)
    return first


def formula_metric(weak: bool):
    return tm.erase_formula if weak else None


TOP_DIST = tm.Dist({tm.TOP: 1})


def trace_formula_distance(x: tm.TraceFormula, y: tm.TraceFormula, weak: bool = False) -> Fraction:
    """0/1 distance on trace formulae; weakly, 0 on erasure-equivalent ones."""
    if weak:
        x, y = tm.erase_formula(x), tm.erase_formula(y)
    return Fraction(x != y)


def formulas_weak_equivalent(x: tm.TraceFormula, y: tm.TraceFormula) -> bool:
    return tm.erase_formula(x) == tm.erase_formula(y)


def dist_formulas_weak_equivalent(p: tm.TraceDistFormula, q: tm.TraceDistFormula) -> bool:
    return p.pushforward(tm.erase_formula) == q.pushforward(tm.erase_formula)


def distance_to_set(psi: tm.Dist, formulas: list, weak: bool = False) -> Fraction:
    """Distance from a formula to a finite nonempty set (the minimum)."""
    if not formulas:
        raise ValueError("distance to an empty formula set is undefined")
    return min(tv_distance(psi, other, formula_metric(weak)) for other in formulas)


def sup_val_over(set_s: list, set_t: list, weak: bool) -> Fraction:
    """Largest gap between the real values of a member of either set at the
    two sets."""
    candidates: dict = {}
    for psi in set_s + set_t:
        candidates.setdefault(psi, None)
    best = Fraction(0)
    for psi in candidates:
        val_s = 1 - distance_to_set(psi, set_s, weak)
        val_t = 1 - distance_to_set(psi, set_t, weak)
        best = max(best, abs(val_s - val_t))
    return best


def formula_sets(layer: TraceLayer, sides: list[list[dict]]) -> list[tuple[list, list]]:
    """Each side's satisfied set as rows over formula ids, strong and weak,
    over the denominator of the side's rows.

    The formulae are numbered in a table of their own, not by trace id,
    so the package's sets, which are the layer's rows themselves strongly,
    match these only up to a one-to-one relabel: each distinct trace id is
    decoded once and spelled through ``tracing_formula``, and, where a
    silent step is reachable, each distinct formula is erased once through
    ``erase_formula`` into a second table.  A strong set is the side's
    distinct mimicking formulae, the halting row's being the top formula; a
    weak set is the strong one with every formula replaced by its erasure,
    and is the strong set itself where no silent step is reachable.
    """
    table: dict[tm.TraceFormula, int] = {}
    formula_of: dict[int, int] = {}
    strong_sides = []
    for rows in sides:
        strong = []
        for row in rows:
            frow: dict = {}
            for tid, w in row.items():
                fid = formula_of.get(tid)
                if fid is None:
                    phi = tm.tracing_formula(layer.trace(tid))
                    fid = formula_of[tid] = table.setdefault(phi, len(table))
                frow[fid] = frow.get(fid, 0) + w
            strong.append(frow)
        strong_sides.append(strong)
    if not layer.silent:
        return [(strong, strong) for strong in strong_sides]
    erased_table: dict[tm.TraceFormula, int] = {}
    erased = [erased_table.setdefault(tm.erase_formula(phi), len(erased_table)) for phi in table]
    out = []
    for strong in strong_sides:
        weak = []
        for frow in strong:
            wrow: dict = {}
            for fid, w in frow.items():
                wrow[erased[fid]] = wrow.get(erased[fid], 0) + w
            weak.append(wrow)
        out.append((strong, weak))
    return out


def _find_cycle(pts: PTS) -> list[ProcessId] | None:
    """Return one cycle of the support graph as [p0, ..., p0], or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {p: WHITE for p in pts.processes}

    def successors(p: ProcessId) -> list[ProcessId]:
        out: list[ProcessId] = []
        for row in pts.transitions.get(p, ()):
            out.extend(q for q in row.target.support if q in color)
        return out

    for start in sorted(pts.processes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[ProcessId, Iterator[ProcessId]]] = [(start, iter(successors(start)))]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


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


@dataclass(frozen=True, order=True)
class UnfoldNode:
    """A state of the unfolding: the path of (transition index, target) pairs
    taken from the root.  ``process`` is the process this node unfolds and
    always equals the last path target (or the root for the empty path)."""

    path: tuple[tuple[int, ProcessId], ...]
    process: ProcessId

    def child(self, index: int, target: ProcessId) -> "UnfoldNode":
        return UnfoldNode(self.path + ((index, target),), target)


Choices = dict[UnfoldNode, Choice]


def from_choices(pts: PTS, choices: Choices) -> Resolution:
    """The package's resolution with these choices: the nodes sorted by
    path, each linked to the node one step shorter."""
    order = sorted(choices)
    where = {node.path: k for k, node in enumerate(order)}
    return Resolution(
        pts,
        tuple(
            (where[node.path[:-1]] if node.path else None, node.process, choices[node])
            for node in order
        ),
    )


def choices_of(resolution: Resolution) -> Choices:
    """The path-keyed choices of a resolution; raises ValueError when a
    parent link does not name an earlier node that moves, or when two nodes
    have the same path."""
    unfold: list[UnfoldNode] = []
    choices: Choices = {}
    for k, (parent, process, choice) in enumerate(resolution.nodes):
        if parent is None and k == 0:
            node = UnfoldNode((), process)
        elif isinstance(parent, int) and 0 <= parent < k and resolution.nodes[parent][2] is not None:
            node = unfold[parent].child(resolution.nodes[parent][2], process)
        else:
            raise ValueError(f"node {k} has the bad parent {parent!r}")
        if node in choices:
            raise ValueError(f"node {k} repeats the path {node.path}")
        unfold.append(node)
        choices[node] = choice
    return choices


def _scheduled(pts: PTS, choices: Choices, node: UnfoldNode) -> Transition | None:
    """The transition taken at ``node``, or None when it halts."""
    choice = choices[node]
    return None if choice is None else pts.transitions_of(node.process)[choice]


def _materialize(pts: PTS, root: ProcessId, tree) -> Resolution:
    choices: Choices = {}

    def walk(node: UnfoldNode, subtree) -> None:
        if subtree is None:
            choices[node] = None
            return
        index, kids = subtree
        choices[node] = index
        for target, sub in kids:
            walk(node.child(index, target), sub)

    walk(UnfoldNode((), root), tree)
    return from_choices(pts, choices)


def _check_size_guard(pts: PTS, process: ProcessId, max_resolutions: int) -> None:
    count = tm.count_resolutions(pts, process)
    if count > max_resolutions:
        raise tm.SizeGuardExceeded(count, max_resolutions, process)


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
    _check_size_guard(pts, process, max_resolutions)
    trees = _choice_trees(pts, process, {})
    return [_materialize(pts, process, tree) for tree in trees]


def validate_resolution(pts: PTS, resolution: Resolution) -> bool:
    """Independent structural check of a resolution against a system.

    Walks the node set the choices *should* generate and requires the
    resolution to list exactly those nodes, in path order, with every
    taken index in range.  Does not share code with the enumerator, so it
    can vet its output.
    """
    if resolution.root not in pts.processes:
        return False
    try:
        choices = choices_of(resolution)
    except ValueError:
        return False
    if list(choices) != sorted(choices):
        return False
    expected: set[UnfoldNode] = set()
    stack = [UnfoldNode((), resolution.root)]
    while stack:
        node = stack.pop()
        if node in expected:
            return False
        expected.add(node)
        if node not in choices:
            return False
        choice = choices[node]
        if choice is None:
            continue
        rows = pts.transitions_of(node.process)
        if not isinstance(choice, int) or not 0 <= choice < len(rows):
            return False
        for target in rows[choice].target.support:
            stack.append(node.child(choice, target))
    return expected == set(choices)


def make_resolution(pts: PTS, root: ProcessId, plan) -> Resolution:
    """Build a resolution from a nested plan.

    A plan is ``None`` (halt) or ``(index, kids)`` where ``kids`` maps a
    target process to the plan for its node; targets omitted from ``kids``
    halt.  Convenient for spelling out a specific scheduler by hand.
    """
    choices: Choices = {}

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
    return from_choices(pts, choices)

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
    choices = choices_of(resolution)
    out: list[Computation] = []
    steps: list[Step] = []
    todo: list = [(UnfoldNode((), resolution.root), None, 0)]
    while todo:
        node, step, depth = todo.pop()
        del steps[depth:]
        if step is not None:
            steps.append(step)
        choice = choices[node]
        if choice is None:
            out.append(Computation(tuple(steps)))
            continue
        row = resolution.pts.transitions_of(node.process)[choice]
        for target in reversed(row.target.support):
            child = node.child(choice, target)
            todo.append((child, (node, row.action, row.target[target], child), len(steps)))
    return out


HALTED = tm.Dist({EPSILON: 1})


def trace_distributions(
    pts: PTS,
    process: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
    memo: dict | None = None,
) -> list[tm.TraceDistribution]:
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
    _check_size_guard(pts, process, max_resolutions)
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
            out.extend(tm.Dist.merged(chain.from_iterable(combo)) for combo in product(*parts))
        memo[(weak, p)] = out
    return memo[(weak, process)]


@dataclass(frozen=True)
class Matching:
    """A transport plan: joint weights whose marginals are the two inputs."""

    joint: Mapping[tuple, Fraction]

    def cost(self, cost_fn: Callable) -> Fraction:
        return sum((w * cost_fn(x, y) for (x, y), w in self.joint.items()), Fraction(0))

    def is_valid_for(self, p: tm.Dist, q: tm.Dist) -> bool:
        left: dict = {}
        right: dict = {}
        for (x, y), w in self.joint.items():
            if w < 0:
                return False
            left[x] = left.get(x, Fraction(0)) + w
            right[y] = right.get(y, Fraction(0)) + w
        return left == dict(p.items_sorted) and right == dict(q.items_sorted)


class _FlowNetwork:
    """Tiny exact min-cost-flow network (successive shortest paths with
    potentials; Dijkstra on reduced costs, all arithmetic in Fractions)."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # Parallel edge arrays: to, capacity, cost.
        self.to: list[int] = []
        self.cap: list[Fraction] = []
        self.cost: list[Fraction] = []

    def add_edge(self, u: int, v: int, cap: Fraction, cost: Fraction) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(Fraction(0))
        self.cost.append(-cost)
        return idx

    def min_cost_flow(self, source: int, sink: int, amount: Fraction) -> Fraction:
        total_cost = Fraction(0)
        potential = [Fraction(0)] * self.n
        remaining = amount
        while remaining > 0:
            dist: list[Fraction | None] = [None] * self.n
            parent_edge = [-1] * self.n
            dist[source] = Fraction(0)
            counter = 0
            heap: list[tuple[Fraction, int, int]] = [(Fraction(0), counter, source)]
            while heap:
                d, _, u = heapq.heappop(heap)
                if dist[u] is None or d > dist[u]:
                    continue
                for idx in self.adj[u]:
                    if self.cap[idx] <= 0:
                        continue
                    v = self.to[idx]
                    nd = d + self.cost[idx] + potential[u] - potential[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent_edge[v] = idx
                        counter += 1
                        heapq.heappush(heap, (nd, counter, v))
            if dist[sink] is None:
                raise ValueError("flow demand is infeasible")
            for v in range(self.n):
                if dist[v] is not None:
                    potential[v] += dist[v]
            # Bottleneck along the shortest path, then push.
            push = remaining
            v = sink
            while v != source:
                idx = parent_edge[v]
                push = min(push, self.cap[idx])
                v = self.to[idx ^ 1]
            v = sink
            while v != source:
                idx = parent_edge[v]
                self.cap[idx] -= push
                self.cap[idx ^ 1] += push
                total_cost += push * self.cost[idx]
                v = self.to[idx ^ 1]
            remaining -= push
        return total_cost


def kantorovich_oracle(
    p: tm.Dist,
    q: tm.Dist,
    cost: Callable,
    with_matching: bool = False,
) -> "Fraction | tuple[Fraction, Matching]":
    """Exact optimal transport cost by min-cost flow on the support graph.

    ``cost`` maps a pair of items to a nonnegative rational.  Independent of
    ``kantorovich_01``; used to vet it and to exhibit an optimal plan.
    """
    if not p.is_probability or not q.is_probability:
        raise ValueError("kantorovich_oracle requires probability distributions")
    left = p.support
    right = q.support
    n = len(left) + len(right) + 2
    source = n - 2
    sink = n - 1
    net = _FlowNetwork(n)
    for i, x in enumerate(left):
        net.add_edge(source, i, p[x], Fraction(0))
    pair_edges: dict[int, tuple] = {}
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            c = Fraction(cost(x, y))
            if c < 0:
                raise ValueError("ground costs must be nonnegative")
            idx = net.add_edge(i, len(left) + j, Fraction(1), c)
            pair_edges[idx] = (x, y)
    for j, y in enumerate(right):
        net.add_edge(len(left) + j, sink, q[y], Fraction(0))
    value = net.min_cost_flow(source, sink, Fraction(1))
    if not with_matching:
        return value
    joint = {}
    for idx, pair in pair_edges.items():
        flow = net.cap[idx ^ 1]  # reverse capacity equals pushed flow
        if flow > 0:
            joint[pair] = flow
    return value, Matching(joint)

def satisfies_trace(computation: Computation, phi: tm.TraceFormula) -> bool:
    """Structural satisfaction: top always holds; a diamond consumes one
    matching step.  A run longer than the formula still satisfies it."""

    def go(steps: tuple, diamonds: tuple) -> bool:
        if not diamonds:
            return True
        if not steps:
            return False
        return steps[0][1] == diamonds[0] and go(steps[1:], diamonds[1:])

    return go(computation.steps, phi.diamonds)


def compatible_with_formula(computation: Computation, phi: tm.TraceFormula) -> bool:
    """Satisfaction plus exact length: the run spells the formula and stops."""
    return len(computation) == len(phi.diamonds) and satisfies_trace(computation, phi)


def mimicking_formula(resolution: Resolution) -> tm.TraceDistFormula:
    """The distribution formula assigning each maximal trace its probability."""
    return tm.trace_distribution(resolution).pushforward(tm.tracing_formula)


def weak_mimicking_formula(resolution: Resolution) -> tm.TraceDistFormula:
    """Mimicking formula over tau-erased representative traces, weights
    aggregated per class."""
    return tm.weak_trace_distribution(resolution).pushforward(tm.tracing_formula)


def mimic_json(pts: PTS, process: ProcessId, weak: bool = False) -> list[list[dict]]:
    """The ``formulas`` of ``tracemet mimic --json``, spelled off the decoded
    ``mimicking_formulas`` as the CLI once did: one entry dict per (formula,
    weight), shared by every formula that lists it.  The key is the formula
    object's identity, valid while the formulae live, which rests on the
    layer's ``decode`` handing one ``TraceFormula`` object per trace."""
    formulas = tm.mimicking_formulas(pts, process, weak)
    entries: dict = {}
    out = []
    for psi in formulas:
        listed = []
        for phi, weight in psi.items_descending:
            key = (id(phi), weight.numerator, weight.denominator)
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = {
                    "diamonds": [a.name for a in phi.diamonds],
                    "weight": {"num": str(weight.numerator), "den": str(weight.denominator)},
                }
            listed.append(entry)
        out.append(listed)
    return out

WEAK_QUOTIENT = tm.tau_erase

def resolution_distance(r1: Resolution, r2: Resolution) -> Fraction:
    """Transport distance between the trace distributions of two resolutions."""
    return tm.kantorovich_01(tm.trace_distribution(r1), tm.trace_distribution(r2))


def weak_resolution_distance(r1: Resolution, r2: Resolution) -> Fraction:
    """Same, with traces compared up to tau erasure."""
    return tm.kantorovich_01(tm.trace_distribution(r1), tm.trace_distribution(r2), WEAK_QUOTIENT)


def pr_compatible(resolution: tm.Resolution, alpha: Trace) -> Fraction:
    """Total probability of runs (maximal or not) whose trace equals alpha.

    Runs compatible with a fixed trace all have the same length, so none is
    a prefix of another and the sum is well defined.
    """
    choices = choices_of(resolution)
    frontier = [(UnfoldNode((), resolution.root), Fraction(1))]
    for action in alpha:
        nxt = []
        for node, prob in frontier:
            row = _scheduled(resolution.pts, choices, node)
            if row is None or row.action != action:
                continue
            choice = choices[node]
            for target in row.target.support:
                nxt.append((node.child(choice, target), prob * row.target[target]))
        frontier = nxt
        if not frontier:
            return Fraction(0)
    return sum((prob for _, prob in frontier), Fraction(0))


def pr_weak_compatible(resolution: tm.Resolution, alpha: Trace) -> Fraction:
    """Probability mass of runs matching alpha up to tau erasure.

    Among the runs whose erased trace equals ``tau_erase(alpha)``, only those
    that are prefix-maximal within that set are summed; counting a run
    together with one of its extensions would tally the same probability
    twice.
    """
    target = tm.tau_erase(alpha)
    choices = choices_of(resolution)

    def walk(node, erased: Trace, prob: Fraction) -> tuple[Fraction, bool]:
        # Returns (mass of prefix-maximal matching runs below, match seen).
        if erased != target[: len(erased)]:
            return Fraction(0), False
        total = Fraction(0)
        matched_below = False
        row = _scheduled(resolution.pts, choices, node)
        if row is not None:
            choice = choices[node]
            grown = erased if row.action.is_tau else erased + (row.action,)
            for q in row.target.support:
                sub_total, sub_match = walk(node.child(choice, q), grown, prob * row.target[q])
                total += sub_total
                matched_below = matched_below or sub_match
        if erased == target:
            if matched_below:
                return total, True
            return prob, True
        return total, matched_below

    return walk(UnfoldNode((), resolution.root), EPSILON, Fraction(1))[0]


def compatible_probabilities(resolution: tm.Resolution) -> dict:
    """``pr_compatible`` evaluated at every trace the resolution can show.

    The returned map is total over all traces once completed with 0; its
    values generally sum to more than 1 (each run contributes at every
    prefix length).
    """
    acc: dict = {}
    choices = choices_of(resolution)

    def walk(node, trace: Trace, prob: Fraction) -> None:
        acc[trace] = acc.get(trace, Fraction(0)) + prob
        row = _scheduled(resolution.pts, choices, node)
        if row is None:
            return
        choice = choices[node]
        for q in row.target.support:
            walk(node.child(choice, q), trace + (row.action,), prob * row.target[q])

    walk(UnfoldNode((), resolution.root), EPSILON, Fraction(1))
    return acc


def weak_compatible_probabilities(resolution: tm.Resolution) -> dict:
    """``pr_weak_compatible`` at every tau-free trace the resolution can show."""
    candidates = {tm.tau_erase(trace) for trace in compatible_probabilities(resolution)}
    return {beta: pr_weak_compatible(resolution, beta) for beta in sorted(candidates)}


def satisfies(pts: tm.PTS, process: str, psi: tm.Dist):
    """Scans resolutions in canonical order for one where, for every listed
    formula, the probability of the maximal runs compatible with it equals
    the listed weight; returns (holds, first such resolution or None)."""
    if not psi.is_probability:
        raise ValueError("formula weights must sum to 1")
    for resolution in enumerate_resolutions(pts, process):
        runs = max_computations(resolution)
        for phi, weight in psi.items_sorted:
            mass = sum(
                (c.probability for c in runs if compatible_with_formula(c, phi)),
                Fraction(0),
            )
            if mass != weight:
                break
        else:
            return True, resolution
    return False, None


def weak_satisfies(pts: tm.PTS, process: str, psi: tm.Dist):
    """The first resolution whose mimicking formula is equivalent to ``psi``
    up to erasure of silent diamonds, as (holds, resolution or None)."""
    for resolution in enumerate_resolutions(pts, process):
        if dist_formulas_weak_equivalent(mimicking_formula(resolution), psi):
            return True, resolution
    return False, None


def nearest_row(
    pts: tm.PTS,
    process: str,
    psi: tm.Dist,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> tuple[int, Fraction]:
    """``(index, shared)``: the first of the process's (weak) layer rows
    sharing the most mass with ``psi``, and that mass; the scan that
    ``TraceLayer.nearest`` replaced.

    ``psi`` is read over ``full``, ``layer.den`` times the least common
    denominator of its weights, so a row's weight ``v`` is ``v * psi_den``.
    A trace the process never shows has no id in the layer's trie, shares
    nothing and is dropped.  The scan stops at the first row sharing all
    of ``full``.
    """
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    rows = layer.entries(process, weak)
    ids = {layer.trace(k): k for row in rows for k in row}
    psi_den = math.lcm(*(w.denominator for _, w in psi.items_sorted))
    full = layer.den * psi_den
    merged: dict[int, int] = {}
    for phi, weight in psi.items_sorted:
        key = ids.get(tm.tau_erase(phi.diamonds) if weak else phi.diamonds)
        if key is not None:
            merged[key] = merged.get(key, 0) + weight.numerator * (full // weight.denominator)
    best = index = 0
    for i, row in enumerate(rows):
        shared = sum(min(w, row.get(key, 0) * psi_den) for key, w in merged.items())
        if shared > best:
            best, index = shared, i
            if shared == full:
                break
    return index, Fraction(best, full)


def distinguishing_resolution(pts: tm.PTS, s: str, t: str, weak: bool = False):
    """The first resolution of ``s`` whose run-probability profile no
    resolution of ``t`` shows, else the first such of ``t``, else None;
    each scan builds the other side's profile set afresh."""
    profile_of = weak_compatible_probabilities if weak else compatible_probabilities

    def scan(p: str, other: str):
        other_profiles = {
            frozenset(profile_of(r).items()) for r in enumerate_resolutions(pts, other)
        }
        for resolution in enumerate_resolutions(pts, p):
            if frozenset(profile_of(resolution).items()) not in other_profiles:
                return p, resolution
        return None

    return scan(s, t) or scan(t, s)


_PROB_RE = re.compile(r"\d+/\d+|\d+\.\d+|\d+")


class _LineScanner:
    """Cursor over one line, producing spans for error messages."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def span(self, start: int, length: int = 1) -> SourceSpan:
        return SourceSpan(self.line_no, start + 1, max(length, 1))

    def here(self) -> SourceSpan:
        return self.span(self.pos)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take_regex(self, regex: re.Pattern, what: str) -> tuple[str, SourceSpan]:
        self.skip_ws()
        match = regex.match(self.text, self.pos)
        if not match:
            raise ParseError([ParseIssue(self.here(), f"expected {what}")])
        start = self.pos
        self.pos = match.end()
        return match.group(), self.span(start, match.end() - start)

    def take_literal(self, literal: str) -> SourceSpan:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise ParseError([ParseIssue(self.here(), f"expected {literal!r}")])
        start = self.pos
        self.pos += len(literal)
        return self.span(start, len(literal))

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False


def _parse_probability(scanner: _LineScanner) -> tuple[Fraction, SourceSpan]:
    token, span = scanner.take_regex(_PROB_RE, "a probability (1, 0.5 or p/q)")
    try:
        value = Fraction(token)
    except ZeroDivisionError:
        raise ParseError([ParseIssue(span, "zero denominator")]) from None
    if not 0 < value <= 1:
        raise ParseError([ParseIssue(span, f"probability {token} outside (0, 1]")])
    return value, span


def _parse_transition_line(scanner: _LineScanner):
    src, _ = scanner.take_regex(IDENTIFIER_RE, "a process identifier")
    scanner.take_literal("-")
    act, _ = scanner.take_regex(IDENTIFIER_RE, "an action name")
    scanner.take_literal("->")
    pairs: list[tuple[Fraction, str, SourceSpan]] = []
    while True:
        prob, prob_span = _parse_probability(scanner)
        target, _ = scanner.take_regex(IDENTIFIER_RE, "a target process identifier")
        pairs.append((prob, target, prob_span))
        if not scanner.try_literal(","):
            break
    if not scanner.at_end():
        raise ParseError([ParseIssue(scanner.here(), "trailing input after transition")])
    return src, tm.Action(act), pairs


def parse_pts(text: str) -> tm.PTS:
    """Reference system parser; raises ParseError carrying every issue."""
    issues: list[ParseIssue] = []
    rows: list[tuple[str, tm.Action, tm.Dist, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = (raw if cut < 0 else raw[:cut]).rstrip()
        if not line.strip():
            continue
        scanner = _LineScanner(line, line_no)
        try:
            src, action, pairs = _parse_transition_line(scanner)
        except ParseError as exc:
            issues.extend(exc.issues)
            continue
        weights: dict[str, Fraction] = {}
        for prob, target, _span in pairs:
            if target in weights:
                warnings.warn(
                    ParserWarning(f"line {line_no}: duplicate target {target!r} merged"),
                    stacklevel=2,
                )
            weights[target] = weights.get(target, Fraction(0)) + prob
        total = sum(weights.values(), Fraction(0))
        if total != 1:
            issues.append(
                ParseIssue(SourceSpan(line_no, 1, len(line)), f"weights sum to {total} != 1")
            )
            continue
        rows.append((src, action, tm.Dist(weights), line_no))
    if issues:
        raise ParseError(issues)

    transitions: dict[str, list[Transition]] = {}
    processes: set[str] = set()
    for src, action, dist, line_no in rows:
        processes.add(src)
        processes.update(dist.support)
        row = Transition(action, dist)
        bucket = transitions.setdefault(src, [])
        if row in bucket:
            warnings.warn(
                ParserWarning(f"line {line_no}: duplicate transition {src} -{action}-> collapsed"),
                stacklevel=2,
            )
            continue
        bucket.append(row)

    pts = tm.PTS(frozenset(processes), {p: tuple(rs) for p, rs in transitions.items()})
    report = validate_pts(pts)
    if report.errors:
        raise ParseError([ParseIssue(None, f"{loc}: {msg}") for loc, msg in report.errors])
    return pts
