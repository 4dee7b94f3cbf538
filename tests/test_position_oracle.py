"""The second-class laws against an enumeration of the blocking measure.

The stationary law of the coupled chain is the blocking measure times the
label law pi, and label j marks the particle with x_j particles to its
left.  brute_force_position_law enumerates every configuration of a window
ending at site 3 and reads the labels off the ranks, so it checks
`prob_positions` and `prob_second_class_at` without their closed forms.
pi enters only as a weight: the label law itself is not checked here.
"""

from functools import reduce
import itertools
import math

import numpy as np
import pytest

from aseplab.blocking import AsepParams, marginal
from aseplab.coupling import pi_label_table, prob_positions, prob_second_class_at

SITES = range(-3, 4)
# the sums run over at most 2^18 configurations of probabilities below 1
ROUNDING = 1e-12


def brute_force_position_law(p, d, lo):
    """The law of the d second-class sites on the increasing d-tuples of
    SITES, and P(a second class particle sits at m) for m in SITES, by
    enumerating every configuration of the sites lo..3.

    A configuration is weighted by its product of `marginal` values, and a
    label's rank is the number of window particles left of its site; the
    sites right of 3 move no rank of a particle at a site in SITES.  Only a
    particle left of lo could shift the ranks, and the measure is a product,
    so every probability is off by at most tail = sum_{i<lo} marginal(i, 1,
    p); the terms left of lo - 500, under q^500 / (1 - q), are left out.
    The one-site law weights rank k by the mass of the tuples of
    pi_label_table with x_d <= cap that hold k, which misses at most
    pi_tail, pi's mass beyond the cap.  Returns (joint, one_site, tail,
    pi_tail).
    """
    hi = SITES[-1]
    width = hi - lo + 1
    cfg = np.arange(2 ** width)
    # bits[:, j] is site lo + j; np.kron makes site lo the leading factor
    bits = np.empty((len(cfg), width), dtype=np.uint8)
    for j in range(width):
        bits[:, j] = (cfg >> (width - 1 - j)) & 1
    weight = reduce(np.kron, ([marginal(i, 0, p), marginal(i, 1, p)]
                              for i in range(lo, hi + 1)))
    ranks = np.cumsum(bits, axis=1, dtype=np.uint8) - bits
    cap = width - 1  # no window rank exceeds it
    pi = np.zeros((cap + 1,) * d)
    for x, v in pi_label_table(d, p.q, cap):
        pi[x] = v
    pi_tail = max(0.0, 1.0 - math.fsum(pi.flat))
    # a tuple holds k in at most one slot, so k's label mass is the sum
    # over slots of that slot's marginal of pi
    label_mass = sum(pi.sum(axis=tuple(a for a in range(d) if a != j))
                     for j in range(d))
    joint = {}
    for m in itertools.combinations(SITES, d):
        cols = [site - lo for site in m]
        on = bits[:, cols].all(axis=1)
        joint[m] = float(weight[on] @ pi[tuple(ranks[on][:, cols].T)])
    one_site = {}
    for m in SITES:
        on = bits[:, m - lo] == 1
        one_site[m] = float(weight[on] @ label_mass[ranks[on, m - lo]])
    tail = math.fsum(marginal(i, 1, p) for i in range(lo - 500, lo))
    return joint, one_site, tail, pi_tail


# (q, c, d, lo); q = 0.5 would need about 21 window sites
CASES = [(0.2, 0.3, 1, -12), (0.2, -0.4, 2, -12), (0.3, 0.0, 2, -14),
         (0.25, 0.6, 3, -13)]


@pytest.fixture(scope="module", params=CASES, ids=lambda case: "q{},c{},d{},lo{}".format(*case))
def law(request):
    q, c, d, lo = request.param
    p = AsepParams(q=q, c=c)
    return p, d, brute_force_position_law(p, d, lo)


def test_prob_positions_matches_the_enumeration(law):
    p, d, (joint, _, tail, _) = law
    assert len(joint) == math.comb(len(SITES), d)
    # the bound is below a thousandth of every value checked
    assert tail < 1e-3 * min(joint.values())
    for m, brute in joint.items():
        assert abs(prob_positions(m, p) - brute) <= tail + ROUNDING, m


def test_prob_second_class_at_matches_the_enumeration(law):
    p, d, (_, one_site, tail, pi_tail) = law
    bound = tail + pi_tail
    assert bound < 1e-3 * min(one_site.values())
    for m, brute in one_site.items():
        assert abs(prob_second_class_at(m, p, d) - brute) <= bound + ROUNDING, m
