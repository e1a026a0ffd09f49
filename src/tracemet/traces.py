"""Trace distributions of resolutions and of whole processes.

A resolution's trace distribution maps each trace to the probability of the
maximal runs spelling it: the product of the step probabilities read off
the distributions the scheduler picks.

The weak view erases the silent action from traces.  Weak trace
distributions live on tau-free representative traces, which keeps them
honest probability distributions; summing instead over every equivalent
tau-decorated spelling would overshoot 1.

``TraceLayer`` is the layer every command reads: the trace distributions of
all resolutions of the processes a call names as its roots, composed
bottom-up from those of the processes they reach, with no resolution built.
One post-order walk over those processes is the layer's only reading of the
system: it gives each one's resolution count, least denominator and last
reader, and fills the place table (``_places``: each transition's block of
indices and its targets' mixed-radix places), which every later read takes
the transitions from.  The layer alone knows the canonical order of a
process's resolutions: it builds its lists in that order (the halting
scheduler first, then the transitions in list order, later targets varying
fastest), and the place table serves ``TraceLayer.resolution``, which
decodes a witness's index back into its ``Resolution``, and
``TraceLayer.nearest``; ``count_resolutions`` and ``resolution_at`` read an
uncapped layer.  The layer is kept as integers.  Traces are interned in a
trie, one per layer: id 0 is the empty trace and every other id stands for
one (action, tail id) pair, keyed by the action's name.  A process's list
holds one ``{trace id: weight}`` row per resolution, all over one
denominator, which the layer alone computes; every row it hands out is over
``TraceLayer.den``, the least common multiple of its roots'.  Each read
builds the lists it needs anew and keeps none of them.  Every root is built
over ``den`` and keyed from its parts; every list that another reads, a
root's too, is built over the least denominator of its process, and nothing
is rescaled.  ``entries`` hands one root's full list, for
``trace_distributions``.  ``distinct`` hands every root's distinct rows in
the form the max-min takes (``transport.Side``), each keyed by one exact
int: its weight on each trace is one digit in base ``2**b``, ``b`` being
``den.bit_length()``, so no digit carries, equal keys mean equal rows, and
the key of a sum of rows is the sum of their keys.  A transition's rows are
keyed by adding their parts' keys, with no row's items hashed.
``distinct_keys`` hands the keys alone, for ``equiv``, and merges no root
row.  ``nearest``, the one reading of a formula against a process (``sat``
and ``val``), builds no list: it descends over the process's resolutions in
the canonical order, charging each halting node's mass against the
formula's residual weights in a trie of its own, and prunes every branch
that cannot beat the best resolution found.  Trace tuples and ``Dist``
objects are decoded only for output: ``decode`` spells each id of a list
once, ``trace`` one id.  ``mimic`` decodes neither: it writes its formulae
off the distinct rows through ``logic.mimicking_pairs``, which spells each
id once as action names.
``trace_distribution`` reads one resolution, for the resolutions a command
prints, in one pass over its preorder ``(parent, process, choice)`` nodes:
a node's run probability and a halting node's trace come off its parents.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Callable, Hashable, Iterable

from .core import PTS, Action, Dist, ProcessId, TraceDistribution, post_order
from .resolutions import DEFAULT_MAX_RESOLUTIONS, Node, Resolution, SizeGuardExceeded
from .transport import Side

Trace = tuple[Action, ...]
EPSILON: Trace = ()
Rows = list[dict[int, int]]  # {trace id: weight} rows over one denominator
Keys = dict[int, int]  # each distinct row's key to its first index


def trace_distribution(resolution: Resolution) -> TraceDistribution:
    """Map each trace to the probability of the maximal runs spelling it.

    Only maximal runs (those ending where the scheduler halts) carry mass:
    summing over all runs would count the same probability once per prefix.
    One pass over the nodes in preorder: each node's run probability is its
    parent's times the step into it, and a halting node's trace is read off
    its chain of parents, with no recursion.
    """
    transitions_of = resolution.pts.transitions_of
    nodes = resolution.nodes
    rows = []  # the transition taken at each node, None where it halts
    probs = []
    pairs = []
    for parent, process, choice in nodes:
        prob = Fraction(1) if parent is None else probs[parent] * rows[parent].target[process]
        probs.append(prob)
        if choice is not None:
            rows.append(transitions_of(process)[choice])
            continue
        rows.append(None)
        trace = []
        while parent is not None:
            trace.append(rows[parent].action)
            parent = nodes[parent][0]
        pairs.append((tuple(reversed(trace)), prob))
    return Dist.merged(pairs)


def tau_erase(alpha: Trace) -> Trace:
    """The canonical tau-free representative: alpha with every tau removed."""
    return tuple(action for action in alpha if not action.is_tau)


def weak_trace_distribution(resolution: Resolution) -> TraceDistribution:
    """The trace distribution pushed forward through tau erasure."""
    return trace_distribution(resolution).pushforward(tau_erase)


def count_resolutions(pts: PTS, process: ProcessId) -> int:
    """Number of resolutions of ``process`` without materializing them,
    off an uncapped layer's count table."""
    return TraceLayer(pts, process, max_resolutions=math.inf).count(process)


def resolution_at(pts: PTS, process: ProcessId, index: int) -> Resolution:
    """The resolution of ``process`` with the given index in the canonical
    order (``TraceLayer.resolution``), off an uncapped layer."""
    return TraceLayer(pts, process, max_resolutions=math.inf).resolution(process, index)


class TraceLayer:
    """The integer trace-distribution layer of one call's roots.

    A call names its roots up front: both sides of a comparison, or the
    one process it reads.  One walk over the processes they reach, in
    post-order, gives each one's resolution count, its list's least
    denominator and the last list that reads it, and tells whether a
    silent transition is reachable (``silent``); where none is, the weak
    lists are the strong ones and are never built.  The same walk fills
    the place table (``_places``), per process and per transition in list
    order: ``(transition, offset, block, targets)``, where the
    transition's resolutions are the ``block`` indices from ``offset`` on
    and ``targets`` lists ``(target, step, place)`` in support order.  The
    canonical order is lexicographic in the decisions: index 0 halts; past
    it, each transition in list order owns a block of indices, one per
    combination of sub-schedulers, read as a mixed-radix number whose
    digits are the targets' indices, the last target's digit varying
    fastest, so a target's place is the product of the later targets'
    resolution counts.  The walk is the layer's one reading of the
    system: the size guard (each root in the given order) reads its count
    table, and the build, every witness (``resolution``) and the search
    for a formula's nearest resolution (``nearest``) its place table.
    ``den`` is the least common multiple of the roots' denominators, and
    every row the layer hands out is over it.
    Each read (``entries``, ``distinct``, ``distinct_keys``) builds every
    reachable list of its mode once, in post-order, and keeps none of them:
    between reads the layer holds only its trie, its digit tables
    (``_shifts``) and its count, denominator and place tables, and those
    keep trace ids, and the digits keys give them, the same across
    everything the layer returns.  A build follows one of two rules.  Every
    root is built over ``den`` and keyed from its parts as it is built, its
    rows merged for ``entries`` and ``distinct`` and not for
    ``distinct_keys``.  Every process that some reachable list reads, a
    root too, is built over its own least denominator, which its readers'
    step factors are taken against, and dropped once its last reader has
    been built.  So a root that another list reads is built twice, once by
    each rule, and no key or row is rescaled.
    """

    __slots__ = (
        "pts", "roots", "den", "silent", "actions", "tails", "_children", "_counts",
        "_dens", "_read", "_dying", "_places", "_bits", "_shifts",
    )

    def __init__(
        self, pts: PTS, *roots: ProcessId, max_resolutions: int = DEFAULT_MAX_RESOLUTIONS
    ):
        self.pts = pts
        self.roots = roots
        # Id i spells actions[i] followed by the trace with id tails[i].
        self.actions: list[Action | None] = [None]
        self.tails: list[int] = [0]
        self._children: dict[str, dict[int, int]] = {}
        self._places: dict[ProcessId, list] = {}
        counts: dict[ProcessId, int] = {}
        dens: dict[ProcessId, int] = {}
        last_reader: dict[ProcessId, ProcessId] = {}
        silent = False
        for p in post_order(pts, *roots):
            # The halting scheduler, plus one per transition and combination
            # of the targets' schedulers: a transition's block of indices
            # starts at the count so far, and a target's place is the
            # product of the later targets' counts.
            places = self._places[p] = []
            count = den = 1
            for row in pts.transitions_of(p):
                silent = silent or row.action.is_tau
                targets, block = [], 1
                for q, step in reversed(row.target.items_sorted):
                    targets.append((q, step, block))
                    block *= counts[q]
                    den = math.lcm(den, step.denominator * dens[q])
                    last_reader[q] = p
                places.append((row, count, block, targets[::-1]))
                count += block
            counts[p] = count
            dens[p] = den
        for root in roots:
            if counts[root] > max_resolutions:
                raise SizeGuardExceeded(counts[root], max_resolutions, root)
        self._counts = counts
        self.den = math.lcm(*(dens[root] for root in roots))
        self._bits = self.den.bit_length()
        self._shifts: dict[bool, dict[int, int]] = {False: {0: 0}, True: {0: 0}}
        self._dens, self.silent = dens, silent
        self._read = last_reader.keys()
        self._dying: dict[ProcessId, list[ProcessId]] = {}
        for q, p in last_reader.items():
            self._dying.setdefault(p, []).append(q)

    def entries(self, root: ProcessId, weak: bool = False) -> Rows:
        """The (weak) trace distribution of every resolution of ``root``,
        in the canonical order of ``resolution``, as rows over ``den``:
        row ``{id: w}`` gives the trace with that id probability
        ``w / den``.  Rows may be shared and are never modified.

        A process's list is the halting scheduler's point mass on the empty
        trace, then, per transition, one row for every combination of one
        row per target (later targets varying fastest): the targets' rows
        weighted by the step probabilities and summed, with the action
        prepended (weakly, unless it is silent, which keeps the ids).
        Where ``silent`` is False a weak read builds the strong list.
        """
        return self._roots(weak, True)[root][1]

    def distinct(self, weak: bool = False) -> list[Side]:
        """Every root's distinct rows over ``den`` in the form the max-min
        takes (``transport.Side``): a dict from each distinct row's key to
        the index of the first resolution that shows it, and the rows, both
        in first-index order.  Keys are those of ``distinct_keys``."""
        roots = self._roots(weak, True)
        sides = []
        for root in self.roots:
            first, rows = roots[root]
            sides.append((first, [rows[i] for i in first.values()]))
        return sides

    def distinct_keys(self, weak: bool = False) -> list[Keys]:
        """Every root's distinct row keys, each with the index of the first
        resolution that shows it, in first-index order: ``distinct``'s
        dicts, with no root row merged.

        A key is one int: the weight ``w`` of the trace numbered ``i`` in
        this mode's digit table (``_key_combos``) is its ``i``-th digit in
        base ``2**b``, ``b`` being ``den.bit_length()``.  A row over ``den``
        puts at most ``den < 2**b`` on each trace, so no digit carries into
        the next: two rows have the same key exactly when they are equal,
        and the key of a sum of rows is the sum of their keys.  So the key
        of a transition's row is the sum of its parts' keys, each part
        packed once per row of its target's list, and no row is merged to
        key it.  A key holds at most ``(highest digit + 1) * b`` bits;
        digits are numbered densely per mode, the empty trace first, then
        as keying first meets their traces, so only traces of the roots'
        rows take one.
        """
        roots = self._roots(weak, False)
        return [roots[root][0] for root in self.roots]

    def count(self, process: ProcessId) -> int:
        """The number of resolutions of ``process``, off the count table."""
        return self._counts[process]

    def resolution(self, process: ProcessId, index: int) -> Resolution:
        """The resolution of ``process`` with the given index in the
        canonical order, decoded off the place table; the layer's lists
        are built in the same order."""
        if not 0 <= index < self._counts[process]:
            raise IndexError(f"resolution index {index} out of range for {process!r}")
        nodes: list[Node] = []
        todo = [(None, process, index)]
        while todo:
            parent, p, k = todo.pop()
            if k == 0:
                nodes.append((parent, p, None))
                continue
            for choice, (_, offset, block, targets) in enumerate(self._places[p]):
                if k < offset + block:
                    break
            k -= offset
            here = len(nodes)
            nodes.append((parent, p, choice))
            digits = []
            for q, _, place in targets:
                digit, k = divmod(k, place)
                digits.append((here, q, digit))
            # Pushed last target first, so nodes are filled in preorder.
            todo.extend(reversed(digits))
        return Resolution(self.pts, tuple(nodes))

    def nearest(
        self,
        process: ProcessId,
        budget: Iterable[tuple[Trace, Fraction]],
        weak: bool = False,
        exact: bool = False,
    ) -> tuple[int, Fraction] | None:
        """``(index, shared)``: the first resolution of ``process`` in the
        canonical order whose (weak) trace distribution shares the most
        mass with ``budget``, a probability distribution over traces given
        as pairs (weakly, read up to erasure of silent steps), and that
        mass.  With ``exact``, only a resolution sharing all of it counts,
        and None says there is none.  No row is built.

        A descent over the decisions of a resolution in preorder: a node
        halts (the first choice) or takes a transition in list order, whose
        targets are decided in turn, so resolutions are met in index order.
        The budget is a prefix trie of its traces with the residual weight
        of each and the residual mass below each node.  A node carries its
        run's mass and the trie node its trace has reached so far; a
        halting node charges ``min(mass, residual)`` to its trace, which
        sums to the mass shared, as min(x + y, b) = min(x, b) +
        min(y, (b - x)+).  A branch stops once what it has charged plus,
        for each node still to decide, the smaller of its mass and the
        residual below its trie node cannot beat the best found, or (with
        ``exact``) lose no mass.  A node whose trace has left the trie, or
        has no residual below it, can charge nothing whatever it does, so
        it halts, the first choice.  Weights are integers over ``full``,
        ``den`` times the budget's least denominator, where every run's
        mass is whole.  An explicit stack, with a trail of charges undone
        on backtracking.
        """
        budget = list(budget)
        full = self.den * math.lcm(*(w.denominator for _, w in budget))
        kids: list[dict[str, int]] = [{}]
        resid, up = [0], [-1]  # per trie node: weight of its trace, parent
        for trace, w in budget:
            node = 0
            for action in trace:
                if weak and action.is_tau:
                    continue
                child = kids[node].get(action.name)
                if child is None:
                    child = kids[node][action.name] = len(kids)
                    kids.append({})
                    resid.append(0)
                    up.append(node)
                node = child
            resid[node] += w.numerator * (full // w.denominator)
        below = resid[:]
        for node in range(len(kids) - 1, 0, -1):  # a child's id is above its parent's
            below[up[node]] += below[node]

        best = full - 1 if exact else -1
        found = None
        trail: list[tuple[int, int]] = []  # (trie node, mass charged)
        # A node to decide is (process, mass, trie node, place of its index
        # digit in the root's index); the nodes still to decide after it
        # are a linked list of (node, rest) pairs.  Each entry of ``todo``
        # takes one choice at a node: (node, rest, charged, index, trail
        # length, choice).
        todo = [((process, full, 0, 1), None, 0, 0, 0, 0)]
        while todo:
            task, rest, acc, index, mark, choice = todo.pop()
            while len(trail) > mark:
                node, x = trail.pop()
                resid[node] += x
                while node >= 0:
                    below[node] += x
                    node = up[node]
            p, mass, node, place = task
            places = self._places[p]
            if choice < len(places):
                todo.append((task, rest, acc, index, mark, choice + 1))
            if choice == 0:
                x = resid[node]
                if x > mass:
                    x = mass
                if x:
                    trail.append((node, x))
                    resid[node] -= x
                    acc += x
                    while node >= 0:
                        below[node] -= x
                        node = up[node]
            else:
                row, offset, _, targets = places[choice - 1]
                index += place * offset
                action = row.action
                child = node if weak and action.is_tau else kids[node].get(action.name)
                if child is not None and below[child]:
                    for q, step, digit_place in reversed(targets):
                        share = mass * step.numerator // step.denominator
                        rest = ((q, share, child, place * digit_place), rest)
            bound, later = acc, rest
            while later is not None:
                (_, share, node, _), later = later
                room = below[node]
                bound += share if share < room else room
            if bound <= best:
                continue
            while rest is not None and not below[rest[0][2]]:
                rest = rest[1]
            if rest is None:
                best, found = acc, index
                if best == full:
                    break
                continue
            todo.append((rest[0], rest[1], acc, index, len(trail), 0))
        if found is None:
            return None
        return found, Fraction(best, full)

    def _roots(self, weak: bool, merge: bool) -> dict[ProcessId, tuple[Keys, Rows | None]]:
        """Each root's keys and, with ``merge``, its list over ``den``, off
        one pass over the reachable processes in post-order, in the (weak)
        mode.  A root is built over ``den`` and keyed from its parts as it
        is built.  A process that some list reads, a root too, is built
        again over its own denominator for its readers, and dropped after
        its last reader."""
        weak = weak and self.silent
        lists: dict[ProcessId, Rows] = {}
        roots: dict[ProcessId, tuple[Keys, Rows | None]] = {}
        for p in self._counts:  # in post-order
            if p in self.roots:
                first: Keys = {}
                rows = self._build(p, weak, lists, first, merge)
                roots[p] = (first, rows if merge else None)
            if p in self._read:  # some list reads p
                lists[p] = self._build(p, weak, lists)
            for q in self._dying.get(p, ()):
                del lists[q]
        return roots

    def _build(
        self,
        p: ProcessId,
        weak: bool,
        lists: dict[ProcessId, Rows],
        first: Keys | None = None,
        merge: bool = True,
    ) -> Rows:
        """``p``'s list, off its targets' ``lists``: per transition in list
        order, its targets' rows weighted by their steps, with the action
        prepended unless it is silent under ``weak``, are its parts, one per
        target in support order, and every combination of one row per part
        is merged into one row.  With ``first``, a root's build: the list is
        over ``den``, and each distinct row's key also goes into ``first``
        with its first index, composed from the parts' keys
        (``_key_combos``); without ``merge``, no row is merged and the list
        holds the halting row alone.  Without ``first``, the list is over
        ``p``'s own least denominator, for its readers."""
        dens = self._dens
        den = dens[p] if first is None else self.den
        out = [{0: den}]
        if first is not None:
            first[den] = 0  # the empty trace is digit 0
        index = 1
        for row, _, _, targets in self._places[p]:
            silent = weak and row.action.is_tau
            parts = []
            for q, step, _ in targets:
                sub = lists[q]
                factor = step.numerator * (den // (step.denominator * dens[q]))
                if silent:
                    parts.append([{k: w * factor for k, w in r.items()} for r in sub])
                else:
                    parts.append(self._prefixed(row.action, sub, factor))
            if first is not None:
                index = self._key_combos(parts, weak, first, index)
            if not merge:
                continue
            if len(parts) == 1:  # each row is used once: no copy needed
                out.extend(parts[0])
                continue
            for head, *rest in product(*parts):
                acc = head.copy()
                for part in rest:
                    for k, w in part.items():
                        acc[k] = acc[k] + w if k in acc else w
                out.append(acc)
        return out

    def _key_combos(self, parts: list[Rows], weak: bool, first: Keys, index: int) -> int:
        """Key every combination of one row per part, in ``product``
        order, as the sum of the parts' keys; enter each new key in
        ``first`` with its index, counting from ``index``, and return the
        index after the last.  A row's key (``distinct_keys``) adds ``w <<
        shift`` for weight ``w`` on the trace with id ``k``, where ``shift``
        is ``b`` times the digit ``k`` takes in the mode's table, numbered
        on first sight."""
        shifts, bits = self._shifts[weak], self._bits
        packed = []
        for part in parts:
            keys = []
            for r in part:
                key = 0
                for k, w in r.items():
                    shift = shifts.get(k)
                    if shift is None:
                        shift = shifts[k] = bits * len(shifts)
                    key += w << shift
                keys.append(key)
            packed.append(keys)
        for key in packed[0] if len(packed) == 1 else map(sum, product(*packed)):
            first.setdefault(key, index)
            index += 1
        return index

    def _prefixed(self, action: Action, rows: list[dict], factor: int) -> list[dict]:
        """``rows`` with ``action`` prepended to every trace and every weight
        multiplied by ``factor``, interning the new traces."""
        children = self._children.setdefault(action.name, {})
        actions, tails = self.actions, self.tails
        out = []
        for r in rows:
            new = {}
            for k, w in r.items():
                child = children.get(k)
                if child is None:
                    child = children[k] = len(tails)
                    tails.append(k)
                    actions.append(action)
                new[child] = w * factor
            out.append(new)
        return out

    def trace(self, tid: int) -> Trace:
        """The trace with id ``tid``."""
        out = []
        while tid:
            out.append(self.actions[tid])
            tid = self.tails[tid]
        return tuple(out)

    def decode(self, rows: Rows, spell: Callable[[Trace], Hashable] = tuple) -> list[Dist]:
        """Rows over ``den`` as distributions over ``spell`` of their traces
        (by default the trace tuples), each distinct id decoded and spelled
        once, so every row that shows a trace holds the same key object."""
        spelled: dict[int, Hashable] = {}
        out = []
        for r in rows:
            pairs = {}
            for k, w in r.items():
                key = spelled.get(k)
                if key is None:
                    key = spelled[k] = spell(self.trace(k))
                pairs[key] = Fraction(w, self.den)
            out.append(Dist(pairs))
        return out


def trace_distributions(
    pts: PTS,
    process: ProcessId,
    weak: bool = False,
    max_resolutions: int = DEFAULT_MAX_RESOLUTIONS,
) -> list[TraceDistribution]:
    """The (weak) trace distribution of every resolution of ``process``, in
    the canonical order of ``resolution_at``, without building any: the
    layer's list (``TraceLayer.entries``), decoded."""
    layer = TraceLayer(pts, process, max_resolutions=max_resolutions)
    return layer.decode(layer.entries(process, weak))
