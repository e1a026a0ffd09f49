"""The integer trace-distribution layer against the tuple-based builder.

``tracemet.traces.TraceLayer`` keeps each process's list as integer rows
over one denominator per process, with traces interned in a trie, and
hands its roots' rows over ``layer.den``, the least common multiple of
theirs.  Its decoded lists must equal ``oracles.trace_distributions`` (the
builder it replaced) entry by entry and in order.  Roots of one layer may
sit on different denominators, so the readers (metric, equivalence,
``sat``, ``val``, ``crosscheck``) are also held to the oracle routes on
such roots, on formulae naming actions the system lacks, on weights the
layer cannot carry, and on silent diamonds.  The layer's reader of its
roots, their distinct rows keyed by their items with first indices, is
held to the oracles for one to three roots, along with the size guard's
order and the lists the layer drops.
"""
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from genpts import random_pts, with_tau_prefix
from golden.generate import ladder_text
from tracemet.core import post_order
from tracemet.traces import TraceLayer

DENOMINATORS = (3, 5, 61)


@st.composite
def mixed_denominator_systems(draw):
    """A seeded ``genpts`` system plus one root per denominator in
    ``DENOMINATORS``, whose transitions reach into it with weights k/den;
    some systems put the first root behind a silent step."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = random_pts(rng, max_states=6, max_layers=3, max_support=3, tau_bias=0.3)
    spec = {p: list(rows) for p, rows in base.transitions.items()}
    targets = sorted(base.processes)
    roots = []
    for den in DENOMINATORS:
        rows = []
        for _ in range(draw(st.integers(1, 2))):
            support = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True))
            k = Fraction(draw(st.integers(1, den - 1)), den)
            weights = [Fraction(1)] if len(support) == 1 else [k, 1 - k]
            row = (draw(st.sampled_from(("a", "b", "tau"))), dict(zip(support, weights)))
            if row not in rows:
                rows.append(row)
        spec[f"r{den}"] = rows
        roots.append(f"r{den}")
    pts = tm.PTS.build(spec)
    if draw(st.booleans()):
        pts = with_tau_prefix(pts, roots[0])
        roots.append("ptau")
    assume(all(tm.count_resolutions(pts, p) <= 300 for p in roots + ["p0"]))
    return pts, roots + ["p0"]


def deduplicated(dists: list) -> tuple[list, list]:
    """The first index of each distinct distribution, and those entries."""
    first: dict = {}
    for index, dist in enumerate(dists):
        first.setdefault(dist, index)
    kept = list(first.values())
    return kept, [dists[i] for i in kept]


def first_indices(pts, process, weak: bool) -> list[int]:
    """The index of the first resolution showing each distinct (weak) trace
    distribution, over ``oracles.enumerate_resolutions``."""
    spell = tm.weak_trace_distribution if weak else tm.trace_distribution
    return deduplicated([spell(r) for r in oracles.enumerate_resolutions(pts, process)])[0]


def oracle_metric(pts, s, t, weak: bool):
    """Hausdorff max-min over the oracle layer, pair by pair, with the
    first-occurrence dedup; the witness as resolutions."""
    kept_s, dists_s = deduplicated(oracles.trace_distributions(pts, s, weak))
    kept_t, dists_t = deduplicated(oracles.trace_distributions(pts, t, weak))
    value, (i, j) = oracles.hausdorff_witness(dists_s, dists_t, oracles.tv_distance)
    return value, (tm.resolution_at(pts, s, kept_s[i]), tm.resolution_at(pts, t, kept_t[j]))


def oracle_satisfied_set(pts, process) -> list:
    formulas = {oracles.TOP_DIST} | {
        d.pushforward(tm.tracing_formula) for d in oracles.trace_distributions(pts, process)
    }
    return sorted(formulas, key=tm.logic.formula_sort_key)


def oracle_value(pts, process, psi, weak: bool) -> Fraction:
    return 1 - oracles.distance_to_set(psi, oracle_satisfied_set(pts, process), weak)


def oracle_sat(pts, process, psi, weak: bool):
    return (oracles.weak_satisfies if weak else oracles.satisfies)(pts, process, psi)


def check_readers(pts, s, t) -> None:
    for weak in (False, True):
        metric = tm.weak_trace_metric if weak else tm.strong_trace_metric
        for a, b in ((s, t), (t, s)):
            result = metric(pts, a, b)
            assert (result.value, result.witness) == oracle_metric(pts, a, b, weak)
            found = tm.find_distinguishing_resolution(pts, a, b, weak)
            assert found == oracles.distinguishing_resolution(pts, a, b, weak)
            assert (found is None) == (result.value == 0)


@settings(max_examples=60, deadline=None)
@given(mixed_denominator_systems())
def test_decoded_layer_equals_the_tuple_builder(drawn):
    pts, processes = drawn
    for weak in (False, True):
        layer = TraceLayer(pts, *processes)
        for process in processes:
            decoded = layer.decode(layer.entries(process, weak))
            assert decoded == oracles.trace_distributions(pts, process, weak)
    check_readers(pts, processes[0], processes[1])


class RecordingLayer(TraceLayer):
    """A layer that keeps every list its build returns, by (process, mode)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built: dict = {}

    def _build(self, p, weak, lists, first=None, merge=True):
        rows = super()._build(p, weak, lists, first, merge)
        if merge:  # a keys-only build merges no row
            self.built[p, weak] = rows
        return rows


def digits(key: int, den: int) -> list[int]:
    """The nonzero digits of a row key in base ``2**den.bit_length()``,
    sorted: the row's weights over ``den``."""
    bits = den.bit_length()
    out = []
    while key:
        out.append(key & ((1 << bits) - 1))
        key >>= bits
    return sorted(filter(None, out))


@settings(max_examples=80, deadline=None)
@given(mixed_denominator_systems(), st.data())
def test_readers_share_one_denominator_and_keep_the_roots(drawn, data):
    pts, processes = drawn
    roots = data.draw(st.lists(st.sampled_from(processes), min_size=1, max_size=3))
    counts = [tm.count_resolutions(pts, root) for root in roots]
    cap = data.draw(st.one_of(st.just(tm.DEFAULT_MAX_RESOLUTIONS), st.integers(0, max(counts))))
    over = [(root, n) for root, n in zip(roots, counts) if n > cap]
    if over:
        # The guard checks the roots in the given order, before any build.
        with pytest.raises(tm.SizeGuardExceeded) as raised:
            TraceLayer(pts, *roots, max_resolutions=cap)
        assert (raised.value.process, raised.value.count, raised.value.limit) == (*over[0], cap)
        return
    layer = RecordingLayer(pts, *roots, max_resolutions=cap)
    read = {q for p in post_order(pts, *roots) for row in pts.transitions_of(p) for q in row.target}
    first = data.draw(st.booleans())
    # The first mode is read again after the second mode's build: every
    # read builds its lists anew, off the layer's one trie.
    for weak in (first, not first, first):
        expected = [oracles.trace_distributions(pts, root, weak) for root in roots]
        sides = layer.distinct(weak)
        built = dict(layer.built)  # the lists distinct's own build returned
        assert layer.den == math.lcm(*(TraceLayer(pts, root).den for root in roots))
        assert len(sides) == len(roots)
        for root, (first, rows), dists in zip(roots, sides, expected):
            entries = layer.entries(root, weak)
            assert all(sum(row.values()) == layer.den for row in entries)
            assert layer.decode(entries) == dists
            assert [digits(key, layer.den) for key in first] == [
                sorted(row.values()) for row in rows
            ]
            assert list(first.values()) == list(oracles.items_keyed(entries).values())
            assert (list(first.values()), layer.decode(rows)) == deduplicated(dists)
            assert list(first.values()) == first_indices(pts, root, weak)
            assert all(row == entries[i] for row, i in zip(rows, first.values()))
            # A root no list of the layer reads is built over layer.den and
            # hands its own rows.  A root that another root reaches is built
            # over its own denominator, for its readers, and is scaled once,
            # when the build hands it back, unless that is layer.den.
            mode = weak and layer.silent
            own = built[root, mode]
            den = layer.den if root not in read else TraceLayer(pts, root).den
            assert all(sum(row.values()) == den for row in own)
            assert all(row is own[i] for row, i in zip(rows, first.values())) == (den == layer.den)
            assert (entries is layer.built[root, mode]) == (den == layer.den)
        for process in set(pts.processes) - set(roots):
            with pytest.raises(KeyError):
                layer.entries(process, weak)


@st.composite
def keyed_roots(draw):
    """A seeded ``genpts`` system and one to three of its processes as
    roots: drawn freely, a process with one of its targets (a root that
    another root reads), or a repeated root."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pts = random_pts(rng, max_states=6, max_layers=3, max_support=3, tau_bias=0.3)
    processes = sorted(post_order(pts, "p0"))
    assume(all(tm.count_resolutions(pts, p) <= 300 for p in processes))
    roots = draw(st.lists(st.sampled_from(processes), min_size=1, max_size=3))
    shape = draw(st.sampled_from(("drawn", "reads", "repeats")))
    readers = [p for p in processes if pts.transitions_of(p)]
    if shape == "reads" and readers:
        reader = draw(st.sampled_from(readers))
        row = draw(st.sampled_from(pts.transitions_of(reader)))
        read = draw(st.sampled_from(sorted(row.target)))
        roots = draw(st.permutations([reader, read])) + roots[:1]
    elif shape == "repeats":
        roots = [roots[0], *roots[:2]]
    return pts, roots


@settings(max_examples=120, deadline=None)
@given(keyed_roots(), st.booleans())
def test_int_keys_split_rows_as_their_items_do(drawn, weak):
    # The keys-only read (no root row merged where no list reads the
    # root) and the merged read must both split each root's rows exactly
    # as frozenset(row.items()) does, with the same first indices, and an
    # int key must stand for one row across all roots, as equiv compares
    # the two sides' keys.
    pts, roots = drawn
    layer = TraceLayer(pts, *roots)
    keys = layer.distinct_keys(weak)
    merged = [first for first, _ in TraceLayer(pts, *roots).distinct(weak)]
    assert keys == layer.distinct_keys(weak)
    pairs = set()
    for root, first, again in zip(roots, keys, merged):
        entries = layer.entries(root, weak)
        oracle = oracles.items_keyed(entries)
        assert list(first.values()) == list(oracle.values())
        assert first == again and list(first) == list(again)
        assert [digits(key, layer.den) for key in first] == [
            sorted(entries[i].values()) for i in first.values()
        ]
        pairs.update(zip(first, oracle))
    assert len({key for key, _ in pairs}) == len({items for _, items in pairs}) == len(pairs)


@pytest.mark.parametrize(
    "s, t, merged",
    [
        ("x0", "w0", set()),
        # x0 reads x1, so x1's list is merged for it, and keyed from its parts.
        ("x0", "x1", {"x1"}),
        ("x1", "x0", {"x1"}),
        ("x0", "x0", set()),
    ],
)
def test_keys_only_read_merges_no_root_row(s, t, merged):
    # A root that no list reads is keyed by its parts' keys alone: its list
    # is never built.  A root that another reads is built as it is read.
    for weak in (False, True):
        layer = RecordingLayer(LADDER3, s, t)
        keys = layer.distinct_keys(weak)
        assert {s, t} & {p for p, _ in layer.built} == merged
        assert keys == [first for first, _ in layer.distinct(weak)]
        assert {s, t} <= {p for p, _ in layer.built}


READS = ("distinct", "distinct_keys", "entries")


def read_out(layer: TraceLayer, read: str, weak: bool) -> list:
    """One read of every root of ``layer``: its keys with their first
    indices, and its rows decoded, as trace ids depend on the order in which
    the layer's trie met their traces."""
    if read == "distinct_keys":
        return [list(first.items()) for first in layer.distinct_keys(weak)]
    if read == "distinct":
        return [(list(first.items()), layer.decode(rows)) for first, rows in layer.distinct(weak)]
    return [layer.decode(layer.entries(root, weak)) for root in layer.roots]


@settings(max_examples=80, deadline=None)
@given(keyed_roots(), st.lists(st.tuples(st.sampled_from(READS), st.booleans()), max_size=6))
def test_the_order_of_reads_does_not_matter(drawn, reads):
    # Every read builds its lists anew, so only the trie and the digit
    # tables carry over from one read to the next: each read must give the
    # keys, first indices and rows of the same read on a fresh layer.
    pts, roots = drawn
    layer = TraceLayer(pts, *roots)
    for read, weak in reads:
        assert read_out(layer, read, weak) == read_out(TraceLayer(pts, *roots), read, weak)


LADDER4 = tm.parse_pts(ladder_text(4))


@pytest.mark.parametrize("weak", [False, True])
@pytest.mark.parametrize("read", READS)
def test_a_layer_keeps_no_rows_between_reads(read, weak):
    # Between reads the layer holds its trie and digit tables, not the
    # rows or keys it handed out.  Caching every root's keys and lists per
    # mode kept 435,304 of the 446,056 bytes of ladder(4)'s distinct read.
    layer = TraceLayer(LADDER4, "x0", "w0")
    tracemalloc.start()
    try:
        if read == "entries":
            result = [layer.entries(root, weak) for root in layer.roots]
        else:
            result = getattr(layer, read)(weak)
        held = tracemalloc.get_traced_memory()[0]
        del result
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < held / 10, (kept, held)


# ---------------------------------------------------------------------------
# Interning edge cases.

EDGE = tm.parse_pts(
    """
s -a-> 1/2 x, 1/2 y
t -a-> 1/2 x, 1/2 y
t -b-> 1/3 x, 2/3 y
e -a-> 1/2 x, 1/2 y
e -b-> 1 nil
f -a-> 1/2 x, 1/2 y
f -b-> 1/3 nil, 2/3 nil2
x -c-> 1 nil
y -d-> 1 nil
u -tau-> 1 s
v -tau-> 1/5 x, 4/5 y
v -a-> 1/2 u, 1/2 y
"""
)


def formula(text: str) -> tm.TraceDistFormula:
    return tm.parse_formula(text)


class TestDifferentDenominators:
    def test_dens_differ_and_entries_are_shared(self):
        assert (TraceLayer(EDGE, "s").den, TraceLayer(EDGE, "t").den) == (2, 6)
        layer = TraceLayer(EDGE, "s", "t")
        assert layer.den == 6
        side_s, side_t = layer.entries("s"), layer.entries("t")
        # s's list is scaled from halves to sixths: the first rows of t's.
        assert side_s == side_t[: len(side_s)]

    def test_metric_and_equivalence_against_oracles(self):
        for s, t in (("s", "t"), ("s", "v"), ("t", "v"), ("u", "t")):
            check_readers(EDGE, s, t)

    def test_equal_sets_over_different_denominators(self):
        # f's b-step splits 1/3, 2/3 over two terminal states, so its list
        # is over sixths while e's is over halves; the sets are equal.
        assert (TraceLayer(EDGE, "e").den, TraceLayer(EDGE, "f").den) == (2, 6)
        assert TraceLayer(EDGE, "e", "f").den == 6
        for weak in (False, True):
            assert tm.find_distinguishing_resolution(EDGE, "e", "f", weak) is None
            metric = tm.weak_trace_metric if weak else tm.strong_trace_metric
            assert metric(EDGE, "e", "f").value == 0
        check_readers(EDGE, "e", "f")


# q's list is over halves and p reaches q through a 1/3 step, so p's list
# is over sixths: q's rows are scaled when handed back, and p's build reads
# them over halves.  The silent step gives the weak lists builds of their
# own.
THIRDS = tm.parse_pts(
    """
p -a-> 1/3 q, 2/3 y
p -b-> 1/2 x, 1/2 y
q -b-> 1/2 x, 1/2 y
q -a-> 1 y
x -c-> 1 nil
y -d-> 1 nil
y -tau-> 1 x
"""
)


def check_crosscheck(pts, s, t) -> tm.CrossCheckReport:
    """``tm.crosscheck`` on ``s``, ``t``, held to the oracle routes."""
    report = tm.crosscheck(pts, s, t)
    set_s, set_t = oracle_satisfied_set(pts, s), oracle_satisfied_set(pts, t)
    for weak, metric, logical, sup_val in (
        (False, report.strong_metric, report.logical_distance, report.sup_val_distance),
        (True, report.weak_metric, report.weak_logical_distance, report.weak_sup_val_distance),
    ):
        tv = oracles.formula_metric(weak)
        assert metric == oracle_metric(pts, s, t, weak)[0]
        assert logical == oracles.hausdorff(
            set_s, set_t, lambda a, b: oracles.tv_distance(a, b, tv)
        )
        assert sup_val == oracles.sup_val_over(set_s, set_t, weak)
    assert report.all_equal
    return report


@pytest.mark.parametrize("s, t", [("p", "q"), ("q", "p")])
def test_root_reached_by_the_other_through_a_third(s, t):
    layer = TraceLayer(THIRDS, s, t)
    assert (TraceLayer(THIRDS, "q").den, layer.den) == (2, 6)
    for weak in (False, True):
        for root in (s, t):
            rows = layer.entries(root, weak)
            assert all(sum(row.values()) == layer.den for row in rows)
            assert layer.decode(rows) == oracles.trace_distributions(THIRDS, root, weak)
    check_readers(THIRDS, s, t)
    report = check_crosscheck(THIRDS, s, t)
    assert 0 < report.strong_metric < 1


LADDER3 = tm.parse_pts(ladder_text(3))


@pytest.mark.parametrize(
    "pts, s, t, dens, scaled",
    [
        # x0 reads x1, so x1 is built over its quarters for x0 and scaled
        # to eighths once; x0, which no list reads, is built over eighths.
        (LADDER3, "x0", "x1", (8, 4, 8), {"x1"}),
        (LADDER3, "x1", "x0", (4, 8, 8), {"x1"}),
        (LADDER3, "x0", "x0", (8, 8, 8), set()),
        (THIRDS, "p", "q", (6, 2, 6), {"q"}),
        (THIRDS, "q", "q", (2, 2, 2), set()),
        # Neither root reads the other: s is built over sixths at once.
        (EDGE, "s", "t", (2, 6, 6), set()),
    ],
)
def test_roots_that_reach_each_other_or_repeat(pts, s, t, dens, scaled):
    layer = RecordingLayer(pts, s, t)
    assert (TraceLayer(pts, s).den, TraceLayer(pts, t).den, layer.den) == dens
    for weak in (False, True):
        for root in (s, t):
            rows = layer.entries(root, weak)
            own = layer.built[root, weak and layer.silent]
            # The halting row is the point mass over the build's denominator.
            assert own[0] == {0: TraceLayer(pts, root).den if root in scaled else layer.den}
            assert (rows is not own) == (root in scaled)
            assert all(sum(row.values()) == layer.den for row in rows)
            assert layer.decode(rows) == oracles.trace_distributions(pts, root, weak)
    check_readers(pts, s, t)
    check_crosscheck(pts, s, t)


SAT_CASES = [
    # Actions absent from the system.
    ("s", "1 <q>T"),
    ("s", "1/2 <a>T (+) 1/2 <q>T"),
    ("s", "1/2 <a><c>T (+) 1/2 <a><q>T"),
    # Weights whose denominator does not divide the layer's (halves).
    ("s", "1/3 <a>T (+) 2/3 T"),
    ("s", "1/3 <a><c>T (+) 2/3 <a><d>T"),
    ("t", "1/3 <b><c>T (+) 2/3 <b><d>T"),
    ("t", "1/2 <a><c>T (+) 1/2 <a><d>T"),
    # Silent diamonds.
    ("u", "1 <tau>T"),
    ("s", "1 <tau>T"),
    ("s", "1/4 <tau>T (+) 3/4 T"),
    ("s", "1/4 <tau><tau>T (+) 3/4 <tau>T"),
    ("u", "1/2 <tau><a><c>T (+) 1/2 <tau><a><d>T"),
    ("u", "1/2 <a><c>T (+) 1/2 <a><d>T"),
    ("v", "1/5 <tau><c>T (+) 4/5 <tau><d>T"),
    ("v", "1/5 <c>T (+) 4/5 <d>T"),
    ("v", "1/2 <a><tau>T (+) 1/2 <a><d>T"),
]


@pytest.mark.parametrize("process, text", SAT_CASES)
@pytest.mark.parametrize("weak", [False, True])
def test_sat_and_val_against_oracles(process, text, weak):
    psi = formula(text)
    assert tm.satisfies(EDGE, process, psi, weak=weak) == oracle_sat(EDGE, process, psi, weak)
    assert tm.real_value(EDGE, process, psi, weak) == oracle_value(EDGE, process, psi, weak)


def test_edge_cases_reach_both_answers():
    # The table above is not vacuous: it holds strongly and weakly only
    # where expected.
    def holds(process, text, weak):
        return tm.satisfies(EDGE, process, formula(text), weak=weak)[0]

    assert not holds("s", "1 <q>T", True)
    assert not holds("s", "1/3 <a>T (+) 2/3 T", False)
    assert holds("t", "1/3 <b><c>T (+) 2/3 <b><d>T", False)
    assert holds("u", "1 <tau>T", False) and holds("u", "1 <tau>T", True)
    assert not holds("s", "1 <tau>T", False) and holds("s", "1 <tau>T", True)
    # Weakly the two tau-formulae merge into one weight, a multiple of 1.
    assert holds("s", "1/4 <tau><tau>T (+) 3/4 <tau>T", True)
    assert holds("u", "1/2 <a><c>T (+) 1/2 <a><d>T", True)
    assert not holds("u", "1/2 <a><c>T (+) 1/2 <a><d>T", False)
    assert tm.real_value(EDGE, "s", formula("1 <q>T")) == 0
    # Nearest is the halting row, which carries the 2/3 on the empty trace.
    assert tm.real_value(EDGE, "s", formula("1/3 <a>T (+) 2/3 T")) == Fraction(2, 3)


def formula_of(*dists: tm.Dist) -> tm.TraceDistFormula:
    """The even mixture of trace distributions, as a formula."""
    pairs = [(trace, w / len(dists)) for d in dists for trace, w in d.items_sorted]
    return tm.Dist.merged(pairs).pushforward(tm.tracing_formula)


def with_silent_steps(d: tm.Dist) -> tm.Dist:
    """Every trace of ``d`` with a silent step after its first action."""
    return tm.Dist.merged((trace[:1] + (tm.TAU,) + trace[1:], w) for trace, w in d.items_sorted)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_descent_finds_the_scans_first_nearest_row(seed):
    # ``TraceLayer.nearest`` descends over resolutions without building a
    # row; the scan over the layer's rows (``oracles.nearest_row``) must
    # name the same first row sharing the most mass, strongly and weakly,
    # for a resolution's own distribution, half-half mixtures of two, a
    # mixture with a trace the process never shows, and (strongly) silent
    # diamonds the rows may or may not carry.
    rng = random.Random(seed)
    pts = random_pts(rng, max_states=8, max_layers=4, max_support=3, tau_bias=0.3)
    assume(tm.count_resolutions(pts, "p0") <= 2000)
    unseen = tm.Dist({(tm.Action("q"),): 1})
    layer = TraceLayer(pts, "p0")
    for weak in (False, True):
        rows = layer.decode(layer.entries("p0", weak))
        a, b = rng.choice(rows), rng.choice(rows)
        psis = [formula_of(a), formula_of(a, b), formula_of(a, unseen)]
        if not weak:
            psis.append(formula_of(with_silent_steps(a)))
            psis.append(formula_of(with_silent_steps(a), b))
        for psi in psis:
            index, value = oracles.nearest_row(pts, "p0", psi, weak)
            traces = [(phi.diamonds, w) for phi, w in psi.items_sorted]
            assert layer.nearest("p0", traces, weak) == (index, value)
            assert tm.real_value(pts, "p0", psi, weak) == value
            witness = tm.resolution_at(pts, "p0", index) if value == 1 else None
            assert tm.satisfies(pts, "p0", psi, weak=weak) == (value == 1, witness)
            exact = layer.nearest("p0", traces, weak, exact=True)
            assert exact == ((index, value) if value == 1 else None)


def test_deep_chain_answers_without_recursion():
    # The descent keeps its own stack: 3,000 nested decisions, strongly on
    # chain(3000) and weakly on its copy with every odd step silent, where
    # halting at c2999 is the first resolution to show a^1500.  The source
    # scan in test_no_recursion only sees a function calling itself
    # directly, not a cycle through two.
    a = tm.Action("a")
    for pts, weak, length, first in (
        (chain(3000), False, 3000, 3000),
        (tau_chain(3000), True, 1500, 2999),
    ):
        for extra, index in ((0, first), (-1, first - 2 if weak else first - 1), (1, None)):
            psi = tm.Dist({tm.TraceFormula((a,) * (length + extra)): 1})
            witness = None if index is None else tm.resolution_at(pts, "c0", index)
            assert tm.satisfies(pts, "c0", psi, weak=weak) == (index is not None, witness)
            assert tm.real_value(pts, "c0", psi, weak) == (0 if index is None else 1)


# ---------------------------------------------------------------------------
# Structure of the layer.


def chain(n: int) -> tm.PTS:
    return tm.PTS.build({f"c{i}": [("a", {f"c{i + 1}": 1})] for i in range(n)})


def test_chain_interns_one_id_per_trace():
    # c0 of chain(200) shows the 201 traces a^0 .. a^200; rebuilding trace
    # tuples at every level would cost cubic time, interning them linear ids.
    pts = chain(200)
    assert tm.strong_trace_metric(pts, "c0", "c1").value == 1
    layer = TraceLayer(pts, "c0", "c1")
    side = layer.entries("c0")
    assert len(layer.tails) == 201
    assert layer.den == 1 and len(side) == 201
    assert [layer.trace(k) for row in side for k in row] == [
        (tm.Action("a"),) * n for n in range(201)
    ]
    assert len(layer.entries("c1")) == 200
    assert len(layer.tails) == 201


def tau_chain(n: int) -> tm.PTS:
    """chain(n) with every odd step silent, as ``c``, beside chain(n) as ``d``."""
    spec = {f"c{i}": [("tau" if i % 2 else "a", {f"c{i + 1}": 1})] for i in range(n)}
    spec.update({f"d{i}": [("a", {f"d{i + 1}": 1})] for i in range(n)})
    return tm.PTS.build(spec)


# ladder(5) with r0, x0 with its two transitions swapped: the same rows in
# another order.
LADDER5 = tm.parse_pts(ladder_text(5) + "r0 -b-> 1 x1\nr0 -a-> 1/2 x1, 1/2 y1\n")


@pytest.mark.parametrize("query, limit_mib, pts, s, t", [
    pytest.param(tm.strong_trace_metric, 4, chain(400), "c0", "c1", id="strong_trace_metric-4"),
    pytest.param(tm.crosscheck, 8, chain(400), "c0", "c1", id="crosscheck-8"),
    pytest.param(tm.crosscheck, 2, tau_chain(400), "c0", "d0", id="crosscheck-tau-chain-2"),
    pytest.param(
        tm.real_value, 1, tm.parse_pts(ladder_text(5)), "x0",
        tm.parse_formula("17/61 <a>T (+) 44/61 <b>T"), id="real_value-ladder5-1",
    ),
    pytest.param(
        tm.satisfies, 1, tm.parse_pts(ladder_text(5)), "x0",
        tm.parse_formula("1 <b><b><b><b><b>T"), id="satisfies-ladder5-1",
    ),
    pytest.param(
        tm.find_distinguishing_resolution, 24, LADDER5, "x0", "w0",
        id="find_distinguishing_resolution-ladder5-w0-24",
    ),
    pytest.param(
        tm.find_distinguishing_resolution, 24, LADDER5, "x0", "r0",
        id="find_distinguishing_resolution-ladder5-r0-24",
    ),
    pytest.param(
        partial(tm.real_value, max_resolutions=10**8), 1, tm.parse_pts(ladder_text(6)), "x0",
        tm.parse_formula("17/61 <a>T (+) 44/61 <b>T"), id="real_value-ladder6-1",
    ),
    pytest.param(
        partial(tm.satisfies, max_resolutions=10**8), 1, tm.parse_pts(ladder_text(6)), "x0",
        tm.parse_formula("1 <b><b><b><b><b><b>T"), id="satisfies-ladder6-1",
    ),
])
def test_chain_keeps_the_roots_lists_only(query, limit_mib, pts, s, t):
    # A level's list is dropped once the level above it is built, so the
    # peak is a few levels' rows, not the n²/2 of every list: chain(400)
    # peaked at 18.2 MiB (metric) and 37.8 MiB (crosscheck) when the
    # layer kept them all.  The formula route numbers trace ids, weakly
    # through (action, erased tail) pairs, so its tables stay linear in
    # depth: spelling every trace id as a formula peaked at 2.9 MiB on the
    # silent chain.  ``real_value`` and ``satisfies`` build no row: the
    # descent holds the formula's trie and one resolution's decisions, on
    # ladder(5) as on ladder(6), whose 19,981,351 resolutions no list of
    # rows holds.  Scanning ladder(5)'s 32,490 rows peaked at 9.9 MiB, and
    # indexing and rescaling them at 24.1 MiB.  The all-b formula is
    # satisfied only by the last resolution.  ``find_distinguishing_resolution``
    # reads int row keys alone, each the sum of its parts' keys, so neither
    # root of ladder(5) has a row merged: 9.6 to 12.2 MiB, where merging
    # every row and keying it by frozenset(row.items()) peaked at 84.6 MiB.
    tracemalloc.start()
    try:
        query(pts, s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_silent_steps_keep_trace_ids():
    pts = tm.PTS.build({f"c{i}": [("tau", {f"c{i + 1}": 1})] for i in range(50)})
    layer = TraceLayer(pts, "c0")
    assert layer.entries("c0", weak=True) == [{0: 1}] * 51
    assert len(layer.tails) == 1
    layer.entries("c0")
    assert len(layer.tails) == 51


def test_one_trie_serves_both_sides_and_modes():
    # Every id the three roots' lists show, strongly and weakly, is an id of
    # the one trie, and no two ids spell the same trace.
    layer = TraceLayer(EDGE, "v", "t", "u")
    sides = [layer.entries(p, weak) for weak in (False, True) for p in ("v", "t", "u")]
    spelled = [layer.trace(k) for k in range(len(layer.tails))]
    assert len(set(spelled)) == len(spelled) and spelled[0] == ()
    assert {k for side in sides for row in side for k in row} <= set(range(len(spelled)))
