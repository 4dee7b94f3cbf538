"""Exact detailed balance of the coupled chain's generator on small windows.

For every window of width <= 8, particle count and d <= 2, the states
reachable from the packed ground state are enumerated through the moves
enabled_transitions offers.  Each move is checked against its reverse in
exact rational arithmetic at q = 1/2:

    w(s) r(s -> s') = w(s') r(s' -> s),

where w is the blocking product measure restricted to the window times the
label law pi_label.  This tests the simulator's move rules directly; the
Monte Carlo checks do not, because they start in the stationary law.
"""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from aseplab.blocking import AsepParams, WindowState
from aseplab.coupling import CoupledState, apply_transition, enabled_transitions, pi_label

Q = Fraction(1, 2)
P = AsepParams(q=Q, c=0)


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


@pytest.mark.parametrize("width", range(1, 9))
def test_detailed_balance_exact(width):
    lo = -(width // 2)
    hi = lo + width - 1
    for n in range(width + 1):
        for d in range(min(n, 2) + 1):
            bits = np.array([0] * (width - n) + [1] * n, dtype=np.uint8)
            start = CoupledState(xi=WindowState(lo, hi, bits), labels=tuple(range(d)))
            states, rates = explore(start)
            # particle count and d are the only conserved quantities
            assert len(states) == comb(width, n) * comb(n, d)
            w = {k: weight(s) for k, s in states.items()}
            for a, out in rates.items():
                for b, r in out.items():
                    assert w[a] * r == w[b] * rates[b][a], (a, b)
