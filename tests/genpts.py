"""Seeded random generators for systems, distributions and formulae.

Everything here is deterministic given the Random instance, so the whole
suite reproduces bit-for-bit from its fixed seeds.  Systems are generated
layered (transitions only go to strictly deeper layers), which bounds the
depth and guarantees acyclicity by construction.
"""
from __future__ import annotations

import random
from fractions import Fraction

import tracemet as tm

ALPHABET = ("a", "b", "c")


def random_weights(rng: random.Random, n: int) -> list[Fraction]:
    """n strictly positive exact weights summing to 1."""
    if n == 1:
        return [Fraction(1)]
    den = max(n, rng.choice((2, 3, 4, 5, 6, 8)))
    cuts = sorted(rng.sample(range(1, den), n - 1))
    bounds = [0] + cuts + [den]
    return [Fraction(bounds[i + 1] - bounds[i], den) for i in range(n)]


def random_pts(
    rng: random.Random,
    max_states: int = 5,
    max_layers: int = 3,
    max_transitions: int = 3,
    max_support: int = 2,
    alphabet: tuple[str, ...] = ALPHABET,
    tau_bias: float = 0.0,
    clone_root: bool = False,
) -> tm.PTS:
    """A random acyclic system rooted at p0 with depth <= max_layers.

    With ``clone_root`` a process q0 with exactly p0's transitions is added,
    giving a pair of distinct but trace-equivalent processes.
    """
    n = rng.randint(2, max_states)
    names = [f"p{i}" for i in range(n)]
    layer = {names[0]: 0}
    for name in names[1:]:
        layer[name] = rng.randint(1, max_layers)
    spec: dict = {}
    for name in names:
        deeper = [q for q in names if layer[q] > layer[name]]
        if not deeper:
            continue
        count = rng.choice((0, 1, 1, 2, 2, max_transitions))
        rows = []
        for _ in range(count):
            size = rng.randint(1, min(max_support, len(deeper)))
            support = rng.sample(deeper, size)
            weights = random_weights(rng, size)
            if tau_bias and rng.random() < tau_bias:
                act = "tau"
            else:
                act = rng.choice(alphabet)
            row = (act, dict(zip(support, weights)))
            if row not in rows:  # duplicate transitions are redundant
                rows.append(row)
        if rows:
            spec[name] = rows
    if clone_root:
        spec["q0"] = list(spec.get(names[0], []))
    spec.setdefault(names[0], [])
    return tm.PTS.build(spec)


def with_tau_prefix(pts: tm.PTS, process: str, name: str = "ptau") -> tm.PTS:
    """The same system plus one process doing a single silent step into
    ``process``."""
    transitions = dict(pts.transitions)
    transitions[name] = (tm.Transition(tm.TAU, tm.Dist({process: 1})),)
    return tm.PTS(pts.processes | {name}, transitions)


def random_case(
    rng: random.Random,
    max_count: int = 300,
    tau_bias: float = 0.0,
) -> tuple[tm.PTS, str, str]:
    """A system plus two processes to compare, with a bounded resolution
    count so exhaustive checks stay fast.  Half the cases clone the root,
    so equivalent distinct processes occur regularly.  At most five states
    either way, leaving room for a silent-prefix state within a six-state
    budget."""
    while True:
        clone = rng.random() < 0.5
        pts = random_pts(rng, max_states=4 if clone else 5, tau_bias=tau_bias, clone_root=clone)
        s = "p0"
        others = sorted(pts.processes - {s})
        if not others:
            continue
        t = "q0" if clone and "q0" in pts.processes else rng.choice(others)
        if (
            tm.count_resolutions(pts, s) <= max_count
            and tm.count_resolutions(pts, t) <= max_count
        ):
            return pts, s, t


def random_distribution(rng: random.Random, max_support: int = 8, universe: int = 12) -> tm.Dist:
    """A probability distribution over string items x0..x{universe-1}."""
    size = rng.randint(1, max_support)
    items = rng.sample([f"x{i}" for i in range(universe)], size)
    return tm.Dist(dict(zip(items, random_weights(rng, size))))


def random_formula(
    rng: random.Random,
    max_terms: int = 3,
    max_depth: int = 3,
    alphabet: tuple[str, ...] = ALPHABET,
    tau_bias: float = 0.0,
) -> tm.TraceDistFormula:
    """A random distribution formula with distinct trace formulae."""
    wanted = rng.randint(1, max_terms)
    shapes: set[tm.TraceFormula] = set()
    while len(shapes) < wanted:
        depth = rng.randint(0, max_depth)
        diamonds = tuple(
            tm.TAU if tau_bias and rng.random() < tau_bias else tm.Action(rng.choice(alphabet))
            for _ in range(depth)
        )
        shapes.add(tm.TraceFormula(diamonds))
    ordered = sorted(shapes)
    return tm.Dist(dict(zip(ordered, random_weights(rng, len(ordered)))))
