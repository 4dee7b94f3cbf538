"""The rank process of the second class particles.

Tagging d of the particles and tracking their ranks (position in the sorted
particle order, counted from the leftmost) turns the coupled dynamics into a
d-dimensional chain on 0 <= x_1 < ... < x_d that moves right at rate q and
left at rate 1, one coordinate at a time.  Its stationary law pi is explicit
and the sampler below draws from it exactly.
"""

import numpy as np

from aseplab.blocking import AsepParams, WindowState
from aseplab.coupling import (
    CoupledState,
    pi_detailed_balance_check,
    pi_label,
    sample_pi,
    second_class_positions,
    simulate,
)

p = AsepParams(q=0.5, c=0.0)

# a small coupled state: particles at -2,-1,1,3,4 in window [-3,4], the
# particle of rank 1 (site -1) carries the tag
bits = np.array([0, 1, 1, 0, 1, 0, 1, 1])
state = CoupledState(xi=WindowState(lo=-3, hi=4, bits=bits), labels=(1,))
tagged = second_class_positions(state)
print("tagged particle sits at", tagged)
print("first class config occupies",
      [i for i, b in zip(range(-3, 5), bits) if b and i not in tagged])

# a short run from that state, changed in place, logging every event
rep = simulate(state, p, 2.0, np.random.default_rng(0), keep_log=True)
print("\nfirst events of a short run:")
for t, tr in rep.event_log[:6]:
    print(f"  t={t:.3f}  {tr.kind:8s} idx={tr.idx:2d} step={tr.step:+d}")

# detailed balance pi(x) q = pi(x + e_j), every admissible move up to a cap
checks = pi_detailed_balance_check(3, p.q, cap=7)
print(f"\npi detailed balance, d=3, {len(checks)} relations, "
      f"worst rel dev {max(c.rel_dev for c in checks):.2e}")

# exact sampler vs the closed form, d=2
rng = np.random.default_rng(5)
draws = [sample_pi(2, p.q, rng) for _ in range(40_000)]
counts = {}
for x in draws:
    counts[x] = counts.get(x, 0) + 1
print("\n  x       pi(x)      empirical")
for x in sorted(counts, key=lambda t: -pi_label(t, p.q))[:8]:
    print(f"  {x}  {pi_label(x, p.q):.6f}   {counts[x] / len(draws):.6f}")
print("mean x_2 sampled:", np.mean([x[1] for x in draws]))
print("mean x_2 analytic:",
      sum(x2 * sum(pi_label((x1, x2), p.q) for x1 in range(x2))
          for x2 in range(1, 60)))
