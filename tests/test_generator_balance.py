"""Exact detailed balance of the coupled chain's generator on small windows,
and simulate checked against it one event at a time.

For every window of width <= 8, particle count and d <= 2, the states
reachable from the packed ground state are enumerated through the moves of
the oracle in tests/oracle.py, the earlier stepper written from the model
rules.  Each move is checked against its reverse in exact rational
arithmetic at q = 1/2, and again at the Fraction q = 1/3, 2/3 and 9/10:

    w(s) r(s -> s') = w(s') r(s' -> s),

where w is the blocking product measure restricted to the window times the
label law pi.  This tests the move rules directly; the Monte Carlo checks
do not, because they start in the stationary law.

The states of width <= 6 then check simulate itself: with a stub
generator, one event of simulate must make each of the oracle's moves for
a uniform draw at the move's left end, its midpoint and the last reachable
value below its right end, draw the holding time at scale 1/total, and
leave the state the oracle's move gives.  Wider windows are left to the
balance check above and to the multi-event comparisons of
tests/test_stepper_differential.py.
"""

import functools
from fractions import Fraction
from math import comb, nextafter

import numpy as np
import pytest

from aseplab.blocking import AsepParams, WindowState
from oracle import (
    OracleState,
    assert_one_event,
    oracle_apply_transition,
    oracle_enabled_transitions,
)

Q = Fraction(1, 2)
# the float q = 1/2 makes every rate and running sum dyadic: Fraction(r)
# reads a rate exactly, and the sampler's float sums are exact
P = AsepParams(q=0.5, c=0)


def key(s):
    return bytes(s.xi.bits), s.labels


def weights(states, q):
    """{key: w} for states of one window at the Fraction q: the blocking
    measure of the window configuration (c = 0) times pi, both in exact
    arithmetic.  pi_label is a float, exact only at dyadic q, so pi is
    built here.  Each site's two factors are computed once."""
    s = next(iter(states.values()))
    factors = [((t := q ** site) / (1 + t), 1 / (1 + t))
               for site in range(s.xi.lo, s.xi.hi + 1)]
    out = {}
    for k, s in states.items():
        w = Fraction(1)
        for (empty, full), z in zip(factors, s.xi.bits):
            w *= full if z else empty
        d = len(s.labels)
        for i in range(1, d + 1):
            w *= 1 - q ** i
        out[k] = w * q ** (sum(s.labels) - d * (d - 1) // 2)
    return out


def explore(start):
    """Reachable states from start and the rate of every enabled move."""
    states = {key(start): start}
    rates = {}
    todo = [start]
    while todo:
        s = todo.pop()
        out = rates[key(s)] = {}
        for tr, r in oracle_enabled_transitions(s, P):
            t = oracle_apply_transition(s, tr)
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
            start = OracleState(xi=WindowState(lo, hi, bits), labels=tuple(range(d)))
            out.append(((n, d), *explore(start)))
    return out


@pytest.mark.parametrize("width", range(1, 9))
def test_detailed_balance_exact(width):
    for (n, d), states, rates in reachable(width):
        # particle count and d are the only conserved quantities
        assert len(states) == comb(width, n) * comb(n, d)
        w = weights(states, Q)
        for a, out in rates.items():
            for b, r in out.items():
                assert w[a] * r == w[b] * rates[b][a], (a, b)


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)],
                         ids=str)
def test_detailed_balance_exact_at_fraction_q(q, width):
    p = AsepParams(q=q, c=0)
    for _, states, rates in reachable(width):
        # which moves are enabled does not depend on q, so the targets
        # explored at q = 1/2 pair with the moves offered at q, in order
        at_q = {}
        for a, s in states.items():
            moves = oracle_enabled_transitions(s, p)
            assert len(moves) == len(rates[a]), a
            at_q[a] = {b: Fraction(r) for b, (_, r) in zip(rates[a], moves)}
        w = weights(states, q)
        for a, out in at_q.items():
            for b, r in out.items():
                assert w[a] * r == w[b] * at_q[b][a], (a, b)


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


@pytest.mark.parametrize("width", range(1, 7))
def test_sampler_picks_each_move_on_its_interval(width):
    for _, states, _ in reachable(width):
        for s in states.values():
            moves = oracle_enabled_transitions(s, P)
            total = sum(r for _, r in moves)
            left = 0.0
            for tr, rate in moves:
                right = left + rate
                for r in (draw_at_least(left, total),
                          (left + right) / 2 / total,
                          draw_below(right, total)):
                    assert 0.0 <= r < 1.0 and left <= r * total < right
                    assert_one_event(s, P, r, tr, total)
                left = right
