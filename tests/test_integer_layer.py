"""The integer trace-distribution layer against the tuple-based builder.

``tracemet.traces.TraceLayer`` keeps each process's list as integer rows
over one denominator per process, with traces interned in a trie.  Its
decoded lists must equal ``oracles.trace_distributions`` (the builder it
replaced) entry by entry and in order.  Sides of one comparison may sit
on different denominators, so the readers (metric, equivalence, ``sat``,
``val``) are also held to the oracle routes on such sides, on formulae
naming actions the system lacks, on weights the layer cannot carry, and
on silent diamonds.  The layer's two readers, every root's full list and
its distinct rows over the roots' common denominator, are held to the
oracle for one to three roots, along with the size guard's order and the
lists the layer drops.
"""
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import tracemet as tm
from genpts import random_pts, with_tau_prefix
from tracemet.traces import Entries, TraceLayer

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


def oracle_metric(pts, s, t, weak: bool):
    """Hausdorff max-min over the oracle layer, pair by pair, with the
    first-occurrence dedup; the witness as resolutions."""
    kept_s, dists_s = deduplicated(oracles.trace_distributions(pts, s, weak))
    kept_t, dists_t = deduplicated(oracles.trace_distributions(pts, t, weak))
    value, (i, j) = oracles.hausdorff_witness(dists_s, dists_t, oracles.tv_distance)
    return value, (tm.resolution_at(pts, s, kept_s[i]), tm.resolution_at(pts, t, kept_t[j]))


def oracle_value(pts, process, psi, weak: bool) -> Fraction:
    formulas = {oracles.TOP_DIST} | {
        d.pushforward(tm.tracing_formula) for d in oracles.trace_distributions(pts, process)
    }
    return 1 - oracles.distance_to_set(psi, sorted(formulas, key=tm.logic.formula_sort_key), weak)


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
    layer = TraceLayer(pts, *roots, max_resolutions=cap)
    first = data.draw(st.booleans())
    # The first mode is read again after the second mode's build, which
    # drops every non-root list of that mode.
    for weak in (first, not first, first):
        expected = [oracles.trace_distributions(pts, root, weak) for root in roots]
        total, full = layer.lists(weak)
        assert total == math.lcm(*(layer.entries(root, weak).den for root in roots))
        assert [layer.decode(Entries(total, rows)) for rows in full] == expected
        distinct_total, sides = layer.distinct(weak)
        assert distinct_total == total
        for (kept, rows), dists in zip(sides, expected):
            assert (kept, layer.decode(Entries(total, rows))) == deduplicated(dists)
        for process in set(pts.processes) - set(roots):
            with pytest.raises(KeyError):
                layer.entries(process, weak)


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
        layer = TraceLayer(EDGE, "s", "t")
        side_s, side_t = layer.entries("s"), layer.entries("t")
        assert (side_s.den, side_t.den) == (2, 6)
        scaled = [{k: w * 3 for k, w in row.items()} for row in side_s.rows]
        assert scaled == side_t.rows[: len(scaled)]

    def test_metric_and_equivalence_against_oracles(self):
        for s, t in (("s", "t"), ("s", "v"), ("t", "v"), ("u", "t")):
            check_readers(EDGE, s, t)

    def test_equal_sets_over_different_denominators(self):
        # f's b-step splits 1/3, 2/3 over two terminal states, so its list
        # is over sixths while e's is over halves; the sets are equal.
        layer = TraceLayer(EDGE, "e", "f")
        assert (layer.entries("e").den, layer.entries("f").den) == (2, 6)
        for weak in (False, True):
            assert tm.find_distinguishing_resolution(EDGE, "e", "f", weak) is None
            metric = tm.weak_trace_metric if weak else tm.strong_trace_metric
            assert metric(EDGE, "e", "f").value == 0
        check_readers(EDGE, "e", "f")


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
    assert len(layer) == 201
    assert side.den == 1 and len(side.rows) == 201
    assert [layer.trace(k) for row in side.rows for k in row] == [
        (tm.Action("a"),) * n for n in range(201)
    ]
    assert len(layer.entries("c1").rows) == 200
    assert len(layer) == 201


@pytest.mark.parametrize("query, limit_mib", [
    (tm.strong_trace_metric, 4),
    (tm.crosscheck, 8),
])
def test_chain_keeps_the_roots_lists_only(query, limit_mib):
    # A level's list is dropped once the level above it is built, so the
    # peak is a few levels' rows, not the n²/2 of every list: chain(400)
    # peaked at 18.2 MiB (metric) and 37.8 MiB (crosscheck) when the
    # layer kept them all.
    pts = chain(400)
    tracemalloc.start()
    try:
        query(pts, "c0", "c1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_silent_steps_keep_trace_ids():
    pts = tm.PTS.build({f"c{i}": [("tau", {f"c{i + 1}": 1})] for i in range(50)})
    layer = TraceLayer(pts, "c0")
    assert layer.entries("c0", weak=True).rows == [{0: 1}] * 51
    assert len(layer) == 1
    layer.entries("c0")
    assert len(layer) == 51


def test_one_trie_serves_both_sides_and_modes():
    layer = TraceLayer(EDGE, "v", "t", "u")
    sides = [layer.entries(p, weak) for weak in (False, True) for p in ("v", "t", "u")]
    for side in sides:
        for row in side.rows:
            for k in row:
                assert layer.find(layer.trace(k)) == k
    assert layer.find((tm.Action("q"),)) is None
    assert layer.find(()) == 0
