"""Seeded inputs, query rounds and independent answer checks.

Stdlib only, and nothing here imports ``tracemet``: the generators write the
systems as text, and the reference computations (canonical scheduler
enumeration, trace distributions, total variation, the Hausdorff witness
rule) are written again from their definitions, so an answer they vouch for
does not vouch for itself.

A seed changes the inputs but never their size: the ladders keep their
shape and only the a-split of ``w0`` moves, and the random pool draws its
shapes from fixed per-slot generators, so the seed only relabels actions,
re-weights branches and chooses perturbations.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

HALF = Fraction(1, 2)

# Commands and the fields of their ``--json`` output that carry the answer.
# Every other key (a later "stats" block, say) is ignored.
ANSWER_FIELDS = {
    "validate": ("valid",),
    "metric": ("value", "witness"),
    "equiv": ("equivalent", "distinguishing"),
    "sat": ("satisfied", "witness"),
    "val": ("value",),
    "mimic": ("formulas",),
    "crosscheck": (
        "strong_metric",
        "logical_distance",
        "sup_val_distance",
        "weak_metric",
        "weak_logical_distance",
        "weak_sup_val_distance",
        "all_equal",
    ),
}


class Query(NamedTuple):
    command: str
    argv: tuple[str, ...]  # without --json; file names are relative to the work dir


class Workload(NamedTuple):
    name: str
    files: dict[str, str]  # file name -> system text
    round: list[Query]  # one round: a fixed list of queries
    check: Callable  # answers of one round -> list of failed independent checks


# ---------------------------------------------------------------------------
# Systems: {process: [(action, ((target, weight), ...)), ...]}, targets in
# ascending order, the order tracemet stores supports in.


def system_text(system: dict) -> str:
    lines = []
    for src, rows in system.items():
        for action, targets in rows:
            body = ", ".join(f"{w} {t}" for t, w in targets)
            lines.append(f"{src} -{action}-> {body}")
    return "\n".join(lines) + "\n"


def _row(action: str, *pairs) -> tuple:
    return action, tuple(sorted((t, Fraction(w)) for t, w in pairs))


def ladder(levels: int, p: Fraction) -> dict:
    """x_i -a-> 1/2 x_{i+1}, 1/2 y_{i+1} and -b-> x_{i+1}; y_i -c-> x_{i+1}.

    z0 copies x0; w0 splits its a-step p, 1-p (distance |p - 1/2| from x0);
    v0 relabels both first actions (distance 1, strong and weak).
    """
    system: dict = {}
    for i in range(levels):
        system[f"x{i}"] = [
            _row("a", (f"x{i + 1}", HALF), (f"y{i + 1}", HALF)),
            _row("b", (f"x{i + 1}", 1)),
        ]
        if i:
            system[f"y{i}"] = [_row("c", (f"x{i + 1}", 1))]
    system["z0"] = [_row("a", ("x1", HALF), ("y1", HALF)), _row("b", ("x1", 1))]
    system["w0"] = [_row("a", ("x1", p), ("y1", 1 - p)), _row("b", ("x1", 1))]
    system["v0"] = [_row("d", ("x1", HALF), ("y1", HALF)), _row("e", ("x1", 1))]
    return system


# ---------------------------------------------------------------------------
# Reference computations over schedulers.  A scheduler tree is None (halt)
# or (index, ((target, subtree), ...)); trees are listed in tracemet's
# canonical order: halt first, then transitions in list order, the
# sub-schedulers of later targets varying fastest.


def scheduler_trees(system: dict, process: str, memo: dict) -> list:
    if process not in memo:
        options: list = [None]
        for index, (_, targets) in enumerate(system.get(process, ())):
            names = [t for t, _ in targets]
            subs = [scheduler_trees(system, t, memo) for t in names]
            options += [(index, tuple(zip(names, combo))) for combo in product(*subs)]
        memo[process] = options
    return memo[process]


def tree_distribution(system: dict, process: str, tree) -> dict:
    """Trace distribution of one scheduler: {trace tuple: probability}."""
    if tree is None:
        return {(): Fraction(1)}
    index, kids = tree
    action, targets = system[process][index]
    weights = dict(targets)
    out: dict = {}
    for target, sub in kids:
        for trace, prob in tree_distribution(system, target, sub).items():
            key = (action,) + trace
            out[key] = out.get(key, 0) + weights[target] * prob
    return out


def erase_tau(dist: dict) -> dict:
    out: dict = {}
    for trace, prob in dist.items():
        key = tuple(a for a in trace if a != "tau")
        out[key] = out.get(key, 0) + prob
    return out


def total_variation(p: dict, q: dict) -> Fraction:
    return 1 - sum((min(w, q[k]) for k, w in p.items() if k in q), Fraction(0))


def tree_json(process: str, tree) -> dict:
    """The resolution as ``tracemet --json`` prints it."""
    entries = []

    def walk(path: tuple, proc: str, sub) -> None:
        entries.append((path, proc, None if sub is None else sub[0]))
        if sub is not None:
            for target, kid in sub[1]:
                walk(path + ((sub[0], target),), target, kid)

    walk((), process, tree)
    entries.sort(key=lambda e: e[0])
    return {
        "root": process,
        "choices": [
            {"path": [list(step) for step in path], "process": proc, "choice": choice}
            for path, proc, choice in entries
        ],
    }


class Side(NamedTuple):
    trees: list  # first scheduler of each distinct distribution, in order
    dists: list  # those distinct distributions


def distinct_side(system: dict, process: str, weak: bool) -> Side:
    trees, dists, seen = [], [], set()
    for tree in scheduler_trees(system, process, {}):
        dist = tree_distribution(system, process, tree)
        if weak:
            dist = erase_tau(dist)
        key = frozenset(dist.items())
        if key not in seen:
            seen.add(key)
            trees.append(tree)
            dists.append(dist)
    return Side(trees, dists)


def reference_metric(system: dict, s: str, t: str, weak: bool) -> tuple[Fraction, list]:
    """Hausdorff max-min of total variation, with tracemet's witness rule:
    first maximizing row, first minimizing column, the s-side direction
    winning ties between the two directions."""
    left, right = distinct_side(system, s, weak), distinct_side(system, t, weak)

    def directed(xs, ys):
        best = None
        for i, x in enumerate(xs):
            row = [total_variation(x, y) for y in ys]
            low = min(row)
            if best is None or low > best[0]:
                best = (low, i, row.index(low))
        return best

    d_st, i_st, j_st = directed(left.dists, right.dists)
    d_ts, j_ts, i_ts = directed(right.dists, left.dists)
    value, i, j = (d_st, i_st, j_st) if d_st >= d_ts else (d_ts, i_ts, j_ts)
    return value, [tree_json(s, left.trees[i]), tree_json(t, right.trees[j])]


def formula_json(dist: dict) -> list:
    items = sorted(dist.items(), key=lambda kv: kv[0], reverse=True)
    return [{"diamonds": list(trace), "weight": frac_json(w)} for trace, w in items]


def formula_text(dist: dict) -> str:
    return " (+) ".join(
        f"{w} " + "".join(f"<{a}>" for a in trace) + "T" for trace, w in sorted(dist.items())
    )


def frac_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def frac(doc) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


# ---------------------------------------------------------------------------
# Checks.  ``answers`` holds one entry per query of a round: the exit code
# and the answer fields of the parsed output.


class Checker:
    def __init__(self, answers: list):
        self.answers = answers
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def field(self, index: int, name: str):
        return self.answers[index][name]

    def value(self, index: int, name: str = "value") -> Fraction:
        return frac(self.field(index, name))


def _round_checker(check_fn):
    def check(answers: list) -> list[str]:
        checker = Checker(answers)
        for index, answer in enumerate(answers):
            checker.expect(answer["exit"] == 0, f"query {index} exited {answer['exit']}")
        if checker.failures:
            return checker.failures
        try:
            check_fn(checker)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            checker.failures.append(f"malformed answer: {exc!r}")
        return checker.failures

    return check


def _check_metric(c: Checker, index: int, system: dict, s: str, t: str, weak: bool) -> Fraction:
    value, witness = reference_metric(system, s, t, weak)
    label = f"metric{' --weak' if weak else ''} {s}/{t}"
    c.expect(c.value(index) == value, f"{label}: value {c.value(index)} != reference {value}")
    c.expect(c.field(index, "witness") == witness, f"{label}: witness differs from the reference")
    return value


def _check_crosscheck(c: Checker, index: int, strong: Fraction, weak: Fraction) -> None:
    c.expect(c.field(index, "all_equal") is True, "crosscheck: all_equal is not true")
    for name, want in (
        ("strong_metric", strong),
        ("logical_distance", strong),
        ("sup_val_distance", strong),
        ("weak_metric", weak),
        ("weak_logical_distance", weak),
    ):
        c.expect(c.value(index, name) == want, f"crosscheck: {name} != {want}")


def _check_sat_val(c: Checker, sat: int, val: int) -> None:
    c.expect(
        c.field(sat, "satisfied") == (c.value(val) == 1),
        "sat does not hold exactly when val = 1",
    )


# ---------------------------------------------------------------------------
# Workloads.


def _ladder_p(seed: int) -> Fraction:
    # A fixed denominator keeps the arithmetic the same size for every seed;
    # 61 is odd, so p is never 1/2.
    return Fraction(random.Random(seed).randrange(1, 61), 61)


def ladder_hausdorff(seed: int) -> Workload:
    """ladder(3), 51 resolutions per side: the all-pairs Hausdorff pass
    dominates.  Covers an identical pair, a general pair and disjoint
    supports."""
    p = _ladder_p(seed)
    system = ladder(3, p)
    f = "ladder3.pts"
    round_ = [
        Query("metric", ("metric", f, "-p", "x0", "-q", "z0")),
        Query("metric", ("metric", f, "-p", "x0", "-q", "w0")),
        Query("metric", ("metric", f, "-p", "x0", "-q", "v0", "--weak")),
        Query("equiv", ("equiv", f, "-p", "x0", "-q", "w0")),
        Query("crosscheck", ("crosscheck", f, "-p", "x0", "-q", "w0")),
    ]
    gap = abs(p - HALF)

    def check(c: Checker) -> None:
        for index, want in ((0, Fraction(0)), (1, gap), (2, Fraction(1))):
            c.expect(c.value(index) == want, f"query {index}: value != {want} by construction")
        _check_metric(c, 0, system, "x0", "z0", weak=False)
        strong = _check_metric(c, 1, system, "x0", "w0", weak=False)
        _check_metric(c, 2, system, "x0", "v0", weak=True)
        c.expect(c.field(3, "equivalent") is (strong == 0), "equiv x0/w0 disagrees with metric = 0")
        c.expect(c.field(3, "distinguishing") is not None, "equiv x0/w0: no distinguishing resolution")
        # No silent steps, so weak and strong coincide.
        _check_crosscheck(c, 4, strong, strong)

    return Workload("ladder-hausdorff", {f: system_text(system)}, round_, _round_checker(check))


def ladder_scan(seed: int) -> Workload:
    """ladder(4), 613 resolutions per side, commands linear in the
    resolution count only: the Hausdorff pass does almost no work."""
    p = _ladder_p(seed)
    system = ladder(4, p)
    f = "ladder4.pts"
    # Nothing satisfies p <a>T (+) (1-p) <b>T: an a-first scheduler is at
    # distance >= 1-p, a b-first one >= p, so val = max(p, 1-p).  The last
    # scheduler in canonical order is the all-b chain, so 1 <b><b><b><b>T
    # holds only after a full scan.
    unsatisfied = f"{p} <a>T (+) {1 - p} <b>T"
    satisfied = "1 <b><b><b><b>T"
    round_ = [
        Query("equiv", ("equiv", f, "-p", "x0", "-q", "z0")),
        Query("equiv", ("equiv", f, "-p", "x0", "-q", "w0")),
        Query("equiv", ("equiv", f, "-p", "x0", "-q", "w0", "--weak")),
        Query("sat", ("sat", f, "-p", "x0", "-f", unsatisfied)),
        Query("sat", ("sat", f, "-p", "x0", "-f", satisfied, "--weak")),
        Query("val", ("val", f, "-p", "x0", "-f", unsatisfied)),
        Query("mimic", ("mimic", f, "-p", "x0")),
    ]

    def check(c: Checker) -> None:
        c.expect(c.field(0, "equivalent") is True, "equiv x0/z0 is not true (z0 copies x0)")
        c.expect(c.field(0, "distinguishing") is None, "equiv x0/z0 names a distinguishing resolution")
        for index in (1, 2):
            c.expect(c.field(index, "equivalent") is False, f"query {index}: x0/w0 equivalent, p != 1/2")
            c.expect(c.field(index, "distinguishing") is not None, f"query {index}: no distinguishing resolution")
        c.expect(c.field(3, "satisfied") is False, "sat: unsatisfiable formula holds")
        c.expect(c.field(4, "satisfied") is True, "sat --weak: the all-b chain formula fails")
        c.expect(c.value(5) == max(p, 1 - p), "val != max(p, 1-p) by construction")
        _check_sat_val(c, 3, 5)
        side = distinct_side(system, "x0", weak=False)
        c.expect(
            c.field(6, "formulas") == [formula_json(d) for d in side.dists],
            "mimic: formula list differs from the reference",
        )

    return Workload("ladder-scan", {f: system_text(system)}, round_, _round_checker(check))


POOL_SIZE = 100
MAX_RESOLUTIONS = 12
SPLITS = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)),
          (Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(3, 4)),
          (Fraction(3, 4), Fraction(1, 4))]


def _shape(slot: int) -> list:
    """Seed-independent shape of one pool slot: per state, its transitions
    as lists of target state indices.  State 0 is the root; layers grow
    downwards so the system is acyclic."""
    rng = random.Random(f"tracemet-pool-shape-{slot}")
    while True:
        layers = [[0]]
        next_id = 1
        for _ in range(rng.choice((2, 3, 3))):
            width = rng.randint(1, 3)
            layers.append(list(range(next_id, next_id + width)))
            next_id += width
        shape: list = [[] for _ in range(next_id)]
        for depth, layer in enumerate(layers[:-1]):
            below = [q for deeper in layers[depth + 1:] for q in deeper]
            for state in layer:
                for _ in range(rng.randint(1, 2) if depth else rng.randint(1, 3)):
                    support = rng.sample(below, min(len(below), rng.choice((1, 2, 2))))
                    shape[state].append(sorted(support))
        counts: dict = {}
        for state in reversed(range(next_id)):
            total = 1
            for targets in shape[state]:
                combos = 1
                for q in targets:
                    combos *= counts[q]
                total += combos
            counts[state] = total
        if 3 <= counts[0] <= MAX_RESOLUTIONS:
            return shape


def _pool_system(slot: int, rng: random.Random) -> dict:
    """Processes s and t: t is a copy of s, perturbed in two of three slots.

    Redrawn until no state has two equal transitions, which the parser
    would collapse into one, shifting the transition indices."""
    shape = _shape(slot)
    while True:
        system = _draw_labels(shape, rng)
        if all(len(set(rows)) == len(rows) for rows in system.values()):
            return system


def _draw_labels(shape: list, rng: random.Random) -> dict:
    rows = []
    for state, transitions in enumerate(shape):
        for targets in transitions:
            action = "tau" if rng.random() < 0.2 else rng.choice("abc")
            weights = rng.choice(SPLITS) if len(targets) == 2 else (Fraction(1),)
            rows.append((state, action, list(zip(targets, weights))))
    perturbed = rng.randrange(len(rows)) if rng.random() < 2 / 3 else None
    system: dict = {}
    for side in ("s", "t"):
        def name(q: int) -> str:
            return side if q == 0 else f"{side}{q}"

        for index, (state, action, pairs) in enumerate(rows):
            if side == "t" and index == perturbed:
                if len(pairs) == 2:
                    pairs = list(zip([q for q, _ in pairs], reversed([w for _, w in pairs])))
                action = "abc"[("abc".find(action) + 1) % 3] if action != "tau" else "a"
            system.setdefault(name(state), []).append(
                (action, tuple(sorted((name(q), w) for q, w in pairs)))
            )
    return system


def random_small(seed: int) -> Workload:
    """A pool of small acyclic pairs, at most 12 resolutions per side, tau
    on about one action in five: per-call CLI and parser costs dominate."""
    rng = random.Random(seed)
    files, round_, checks = {}, [], []
    for slot in range(POOL_SIZE):
        system = _pool_system(slot, rng)
        f = f"pool{slot:03d}.pts"
        files[f] = system_text(system)
        # A formula some scheduler of t satisfies; s may or may not.
        trees = scheduler_trees(system, "t", {})
        dist = tree_distribution(system, "t", trees[rng.randrange(len(trees))])
        formula = formula_text(dist)
        base = len(round_)
        round_ += [
            Query("validate", ("validate", f)),
            Query("metric", ("metric", f, "-p", "s", "-q", "t")),
            Query("metric", ("metric", f, "-p", "s", "-q", "t", "--weak")),
            Query("equiv", ("equiv", f, "-p", "s", "-q", "t")),
            Query("equiv", ("equiv", f, "-p", "s", "-q", "t", "--weak")),
            Query("sat", ("sat", f, "-p", "s", "-f", formula)),
            Query("val", ("val", f, "-p", "s", "-f", formula)),
            Query("mimic", ("mimic", f, "-p", "s")),
            Query("crosscheck", ("crosscheck", f, "-p", "s", "-q", "t")),
        ]
        checks.append((base, system, dist))

    def check(c: Checker) -> None:
        for base, system, dist in checks:
            at = f"pool slot {base // 9}"
            c.expect(c.field(base, "valid") is True, f"{at}: validate says invalid")
            strong = _check_metric(c, base + 1, system, "s", "t", weak=False)
            weak = _check_metric(c, base + 2, system, "s", "t", weak=True)
            c.expect(weak <= strong, f"{at}: weak metric above strong")
            c.expect(c.field(base + 3, "equivalent") is (strong == 0), f"{at}: equiv != (metric = 0)")
            c.expect(c.field(base + 4, "equivalent") is (weak == 0), f"{at}: weak equiv != (metric = 0)")
            side = distinct_side(system, "s", weak=False)
            val = 1 - min(total_variation(dist, d) for d in side.dists)
            c.expect(c.value(base + 6) == val, f"{at}: val != reference {val}")
            _check_sat_val(c, base + 5, base + 6)
            c.expect(
                c.field(base + 7, "formulas") == [formula_json(d) for d in side.dists],
                f"{at}: mimic formula list differs from the reference",
            )
            _check_crosscheck(c, base + 8, strong, weak)

    return Workload("random-small", files, round_, _round_checker(check))


WORKLOADS = {
    "ladder-hausdorff": ladder_hausdorff,
    "ladder-scan": ladder_scan,
    "random-small": random_small,
}
