from fractions import Fraction

import pytest

import oracles
import tracemet as tm

# Two strong-trace-equivalent processes: s resolves its nondeterminism in the
# first step (three a-branches), t defers it to the second step.
EQUIV_PAIR_TEXT = """
s -a-> 1/2 s1, 1/2 s2
s -a-> 1/2 s3, 1/2 s4
s -a-> 1 s5
s1 -b-> 1 nil
s1 -c-> 1 nil
s2 -d-> 1 nil
s3 -b-> 1 nil
s3 -d-> 1 nil
s4 -c-> 1 nil
s5 -b-> 1 nil
t -a-> 1/2 t1, 1/2 t2
t1 -b-> 1 nil
t1 -c-> 1 nil
t2 -b-> 1 nil
t2 -d-> 1 nil
"""

# Two processes at strong trace distance exactly 1/2: t has a scheduler
# showing both ab and ac, s has none.
HALF_PAIR_TEXT = """
s -a-> 1/2 s1, 1/2 s2
s -a-> 1 s3
s1 -b-> 1 nil
s1 -c-> 1 nil
s2 -d-> 1 nil
s3 -b-> 1 nil
t -a-> 1/2 t1, 1/2 t2
t1 -b-> 1 nil
t1 -c-> 1 nil
t2 -b-> 1 nil
t2 -d-> 1 nil
"""


@pytest.fixture(scope="session")
def equiv_pair() -> tm.PTS:
    return tm.parse_pts(EQUIV_PAIR_TEXT)


@pytest.fixture(scope="session")
def half_pair() -> tm.PTS:
    return tm.parse_pts(HALF_PAIR_TEXT)


def trace(text: str) -> tm.Trace:
    """'a c' -> (Action('a'), Action('c')); '' -> empty trace."""
    return tuple(tm.Action(name) for name in text.split())


def dist(weights: dict) -> tm.Dist:
    return tm.Dist({key: Fraction(value) for key, value in weights.items()})


def trace_dist(weights: dict) -> tm.Dist:
    """{'a c': '1/2', ...} -> trace distribution with exact weights."""
    return tm.Dist({trace(key): Fraction(value) for key, value in weights.items()})


# The deferred process t halting at t1 and taking d at t2; its trace
# distribution is {a: 1/2, ad: 1/2}.
def late_halting_resolution(pts: tm.PTS) -> tm.Resolution:
    return oracles.make_resolution(pts, "t", (0, {"t1": None, "t2": (1, {})}))


# The s-side scheduler of the half-apart pair with trace distribution
# {ac: 1/2, a: 1/2}, and the t-side one with {ac: 1/2, ab: 1/2}.
def half_zs(pts: tm.PTS) -> tm.Resolution:
    return oracles.make_resolution(pts, "s", (0, {"s1": (1, {}), "s2": None}))


def half_zt(pts: tm.PTS) -> tm.Resolution:
    return oracles.make_resolution(pts, "t", (0, {"t1": (1, {}), "t2": (0, {})}))
