"""Exact detailed balance of the coupled chain's generator on small windows.

For every window of width <= 8, particle count and d <= 2, the states
reachable from the packed ground state are enumerated through the moves
enabled_transitions offers.  Each move is checked against its reverse in
exact rational arithmetic at q = 1/2:

    w(s) r(s -> s') = w(s') r(s' -> s),

where w is the blocking product measure restricted to the window times the
label law pi_label.  This tests the simulator's move rules directly; the
Monte Carlo checks do not, because they start in the stationary law.

The same states then check the sampler: with a stub generator,
choose_transition must pick each enabled move for a uniform draw at the
move's left end, its midpoint and the last reachable value below its right
end, and draw the holding time at scale 1/total.
"""

import functools
from fractions import Fraction
from math import comb, nextafter

import numpy as np
import pytest

from aseplab.blocking import AsepParams, WindowState
from aseplab.coupling import (
    CoupledState,
    apply_transition,
    choose_transition,
    enabled_transitions,
    pi_label,
)

Q = Fraction(1, 2)
# the float q = 1/2 makes every rate and running sum dyadic: Fraction(r)
# reads a rate exactly, and the sampler's float sums are exact
P = AsepParams(q=0.5, c=0)


def key(s):
    return bytes(s.occ), s.labels


def weight(s):
    """Blocking measure of the window configuration (c = 0) times pi."""
    w = Fraction(1)
    for site, z in zip(range(s.xi.lo, s.xi.hi + 1), s.occ):
        t = Q ** site
        w *= (1 if z else t) / (1 + t)
    # at q = 1/2 every factor of pi is a dyadic rational, exact in a float
    return w * Fraction(pi_label(s.labels, Q))


def explore(start):
    """Reachable states from start and the rate of every enabled move."""
    states = {key(start): start}
    rates = {}
    todo = [start]
    while todo:
        s = todo.pop()
        out = rates[key(s)] = {}
        for tr, r in enabled_transitions(s, P):
            t = apply_transition(s.copy(), tr)
            assert key(t) not in out and key(t) != key(s)
            out[key(t)] = Fraction(r)
            if key(t) not in states:
                states[key(t)] = t
                todo.append(t)
    return states, rates


@functools.lru_cache(maxsize=None)
def reachable(width):
    """((n, d), states, rates) for every particle count n and d <= 2 on a
    window of the given width; both tests below share one exploration."""
    lo = -(width // 2)
    hi = lo + width - 1
    out = []
    for n in range(width + 1):
        for d in range(min(n, 2) + 1):
            bits = np.array([0] * (width - n) + [1] * n, dtype=np.uint8)
            start = CoupledState(xi=WindowState(lo, hi, bits), labels=tuple(range(d)))
            out.append(((n, d), *explore(start)))
    return out


@pytest.mark.parametrize("width", range(1, 9))
def test_detailed_balance_exact(width):
    for (n, d), states, rates in reachable(width):
        # particle count and d are the only conserved quantities
        assert len(states) == comb(width, n) * comb(n, d)
        w = {k: weight(s) for k, s in states.items()}
        for a, out in rates.items():
            for b, r in out.items():
                assert w[a] * r == w[b] * rates[b][a], (a, b)


class StubRng:
    """Returns the given uniform draw and records the exponential's scale."""

    def __init__(self, r):
        self.r, self.scale = r, None

    def exponential(self, scale):
        self.scale = scale
        return 1.0

    def random(self):
        return self.r


def draw_at_least(target, total):
    """The smallest float r with r * total >= target."""
    r = target / total
    while r * total < target:
        r = nextafter(r, 1.0)
    while r > 0.0 and nextafter(r, 0.0) * total >= target:
        r = nextafter(r, 0.0)
    return r


def draw_below(target, total):
    """The largest float r with r * total < target."""
    r = target / total
    while r * total >= target:
        r = nextafter(r, 0.0)
    while nextafter(r, 1.0) * total < target:
        r = nextafter(r, 1.0)
    return r


@pytest.mark.parametrize("width", range(1, 9))
def test_sampler_picks_each_move_on_its_interval(width):
    for _, states, _ in reachable(width):
        for s in states.values():
            moves = enabled_transitions(s, P)
            total = sum(r for _, r in moves)
            left = 0.0
            for tr, rate in moves:
                right = left + rate
                for r in (draw_at_least(left, total),
                          (left + right) / 2 / total,
                          draw_below(right, total)):
                    assert 0.0 <= r < 1.0 and left <= r * total < right
                    rng = StubRng(r)
                    assert choose_transition(s, P, rng) == (tr, 1.0), (key(s), r)
                    assert rng.scale == 1.0 / total
                left = right
