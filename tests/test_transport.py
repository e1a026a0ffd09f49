import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
import tracemet as tm
from conftest import half_zs, half_zt, dist
from genpts import random_distribution
from oracles import hausdorff, hausdorff_witness


def _vertex_enumeration_optimum(p, q, cost):
    """Independent minimum: evaluate the cost at every basic feasible
    solution of the transportation polytope (bases = spanning trees of the
    bipartite support graph; flows on a tree are forced by peeling leaves).
    """
    left, right = list(p.support), list(q.support)
    m, n = len(left), len(right)
    nodes = [("L", i) for i in range(m)] + [("R", j) for j in range(n)]
    edges = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for basis in combinations(edges, m + n - 1):
        balance = {("L", i): p[left[i]] for i in range(m)}
        balance.update({("R", j): -q[right[j]] for j in range(n)})
        incident = {node: [] for node in nodes}
        for e in basis:
            incident[("L", e[0])].append(e)
            incident[("R", e[1])].append(e)
        remaining = set(basis)
        flows = {}
        feasible = True
        while remaining:
            leaf = next(
                (node for node in nodes if len([e for e in incident[node] if e in remaining]) == 1),
                None,
            )
            if leaf is None:  # not a forest: contains a cycle
                feasible = False
                break
            (edge,) = [e for e in incident[leaf] if e in remaining]
            value = balance[leaf] if leaf[0] == "L" else -balance[leaf]
            if value < 0:
                feasible = False
                break
            flows[edge] = value
            balance[("L", edge[0])] -= value
            balance[("R", edge[1])] += value
            remaining.discard(edge)
        if not feasible or any(v != 0 for v in balance.values()):
            continue
        total = sum(
            (w * cost(left[i], right[j]) for (i, j), w in flows.items()), Fraction(0)
        )
        if best is None or total < best:
            best = total
    return best


class TestKantorovich01:
    def test_half_pair_trace_distributions(self, half_pair):
        td_s = tm.trace_distribution(half_zs(half_pair))
        td_t = tm.trace_distribution(half_zt(half_pair))
        assert tm.kantorovich_01(td_s, td_t) == Fraction(1, 2)

    def test_identity(self):
        p = dist({"x": "1/3", "y": "2/3"})
        assert tm.kantorovich_01(p, p) == 0
        assert tm.kantorovich_01(p, p, lambda s: s[0]) == 0

    def test_known_optimum(self):
        p = dist({"ab": "3/5", "ac": "2/5"})
        q = dist({"ac": "7/10", "ab": "3/10"})
        assert tm.kantorovich_01(p, q) == Fraction(3, 10)

    def test_rejects_non_distributions(self):
        with pytest.raises(ValueError):
            tm.kantorovich_01(tm.Dist({"x": Fraction(1, 2)}), tm.Dist({"x": 1}))

    def test_zero_iff_canonicalized_equal(self):
        rng = random.Random(41)
        quotient = lambda s: s.rstrip("0123456789")
        for _ in range(60):
            p = random_distribution(rng, max_support=5)
            q = random_distribution(rng, max_support=5)
            for canonical in (None, quotient):
                zero = tm.kantorovich_01(p, q, canonical) == 0
                push = canonical or (lambda s: s)
                assert zero == (p.pushforward(push) == q.pushforward(push))

    def test_symmetry_and_triangle(self):
        rng = random.Random(42)
        for _ in range(60):
            p, q, r = (random_distribution(rng, max_support=5) for _ in range(3))
            dpq = tm.kantorovich_01(p, q)
            assert dpq == tm.kantorovich_01(q, p)
            assert dpq <= tm.kantorovich_01(p, r) + tm.kantorovich_01(r, q)

    def test_quotient_never_exceeds_discrete(self):
        rng = random.Random(43)
        quotient = lambda s: s.rstrip("0123456789")
        for _ in range(60):
            p = random_distribution(rng)
            q = random_distribution(rng)
            assert tm.kantorovich_01(p, q, quotient) <= tm.kantorovich_01(p, q)


class TestOracle:
    def test_zero_cost(self):
        p = dist({"x": "1/2", "y": "1/2"})
        q = dist({"u": 1})
        assert oracles.kantorovich_oracle(p, q, lambda a, b: 0) == 0

    def test_disjoint_supports_unit_cost(self):
        p = dist({"x": "1/2", "y": "1/2"})
        q = dist({"u": "1/4", "v": "3/4"})
        assert oracles.kantorovich_oracle(p, q, lambda a, b: 1) == 1

    def test_known_optimum_with_matching(self):
        p = dist({"ab": "3/5", "ac": "2/5"})
        q = dist({"ac": "7/10", "ab": "3/10"})
        value, matching = oracles.kantorovich_oracle(
            p, q, lambda a, b: 0 if a == b else 1, with_matching=True
        )
        assert value == Fraction(3, 10)
        assert matching.is_valid_for(p, q)
        assert matching.cost(lambda a, b: Fraction(0 if a == b else 1)) == value

    def test_agrees_with_closed_form_on_01_costs(self):
        rng = random.Random(44)
        quotient = lambda s: s.rstrip("0123456789")
        for _ in range(150):
            p = random_distribution(rng)
            q = random_distribution(rng)
            canonical = quotient if rng.random() < 0.5 else None
            cost = oracles.quotient_cost(canonical)
            assert oracles.kantorovich_oracle(p, q, cost) == tm.kantorovich_01(p, q, canonical)

    def test_agrees_with_vertex_enumeration(self):
        rng = random.Random(45)
        for _ in range(60):
            p = random_distribution(rng, max_support=3, universe=5)
            q = random_distribution(rng, max_support=3, universe=5)
            costs = {}

            def cost(a, b):
                if (a, b) not in costs:
                    costs[(a, b)] = Fraction(rng.randint(0, 4), rng.randint(1, 4))
                return costs[(a, b)]

            value, matching = oracles.kantorovich_oracle(p, q, cost, with_matching=True)
            assert value == _vertex_enumeration_optimum(p, q, cost)
            assert matching.is_valid_for(p, q)

    def test_rejects_non_distribution_input(self):
        short = tm.Dist({"x": Fraction(1, 2)})
        with pytest.raises(ValueError, match="probability"):
            oracles.kantorovich_oracle(short, tm.Dist({"x": 1}), lambda a, b: 0)

    def test_rejects_negative_costs(self):
        p = dist({"x": 1})
        q = dist({"y": 1})
        with pytest.raises(ValueError, match="nonnegative"):
            oracles.kantorovich_oracle(p, q, lambda a, b: Fraction(-1))

    def test_general_costs_respect_tv_lower_bound(self):
        # With costs >= 1 off the diagonal and 0 on it, the optimum is
        # bounded below by total variation.
        rng = random.Random(46)
        for _ in range(40):
            p = random_distribution(rng, max_support=4)
            q = random_distribution(rng, max_support=4)
            value = oracles.kantorovich_oracle(
                p, q, lambda a, b: Fraction(0) if a == b else Fraction(3, 2)
            )
            assert value >= tm.kantorovich_01(p, q)


class TestHausdorff:
    def test_identical_sets(self):
        items = [dist({"x": 1}), dist({"y": 1})]
        assert hausdorff(items, items, tm.kantorovich_01) == 0

    def test_singletons(self):
        a, b = dist({"x": 1}), dist({"y": 1})
        assert hausdorff([a], [b], tm.kantorovich_01) == tm.kantorovich_01(a, b)

    def test_empty_set_conventions(self):
        d = tm.kantorovich_01
        assert hausdorff([], [], d) == 0
        assert hausdorff([dist({"x": 1})], [], d) == 1
        assert hausdorff([], [dist({"x": 1})], d) == 1

    def test_half_pair_resolution_sets(self, half_pair):
        tds_s = [tm.trace_distribution(r) for r in oracles.enumerate_resolutions(half_pair, "s")]
        tds_t = [tm.trace_distribution(r) for r in oracles.enumerate_resolutions(half_pair, "t")]
        assert hausdorff(tds_s, tds_t, tm.kantorovich_01) == Fraction(1, 2)

    def test_symmetry_and_triangle_on_random_sets(self):
        rng = random.Random(47)
        for _ in range(40):
            sets = [
                [random_distribution(rng, max_support=3, universe=4) for _ in range(rng.randint(1, 4))]
                for _ in range(3)
            ]
            a, b, c = sets
            dab = hausdorff(a, b, tm.kantorovich_01)
            assert dab == hausdorff(b, a, tm.kantorovich_01)
            assert dab <= hausdorff(a, c, tm.kantorovich_01) + hausdorff(c, b, tm.kantorovich_01)

    def test_witness_attains_value(self):
        rng = random.Random(48)
        for _ in range(30):
            a = [random_distribution(rng, max_support=3, universe=4) for _ in range(rng.randint(1, 4))]
            b = [random_distribution(rng, max_support=3, universe=4) for _ in range(rng.randint(1, 4))]
            value, pair = hausdorff_witness(a, b, tm.kantorovich_01)
            assert pair is not None
            i, j = pair
            d = tm.kantorovich_01(a[i], b[j])
            # the witness realizes the max-min: its distance is the value
            assert d == value
