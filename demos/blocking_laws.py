"""Closed-form laws of the product blocking measure.

The measure fills site i with probability 1/(1 + q^(i-c)): empty far to the
left, full far to the right, interface of width ~ 1/log(1/q) around c.  The
script prints the occupation profile, the law of the conserved quantity N,
and the particle-count laws for half-infinite and windowed stretches, each
cross-checked against an independent route.
"""

from aseplab.blocking import (
    AsepParams,
    brute_force_window_law,
    marginal,
    prob_N,
    prob_left_particles,
    prob_right_holes,
    prob_window_particles,
    shift_relation_checks,
)

p = AsepParams(q=0.5, c=0.0)

sites = range(-6, 7)
occ = [marginal(i, 1, p) for i in sites]
print("site      " + " ".join(f"{s:6d}" for s in sites))
print("P(occ)    " + " ".join(f"{v:6.4f}" for v in occ))

# N = holes right of the origin minus particles left of it; its law is a
# discrete Gaussian with lattice ratio q^(n-c)
print("\n n   P(N=n)       ratio to n-1   q^(n-c)")
for n in range(-3, 4):
    r = prob_N(n, p) / prob_N(n - 1, p)
    print(f"{n:2d}  {prob_N(n, p):.6e}  {r:.6f}      {p.q ** (n - p.c):.6f}")

# particles at sites <= m: normalized, and the k=0 term is explicit
m = 1
dist = [prob_left_particles(m, k, p) for k in range(0, 40)]
print(f"\nP(k particles at sites <= {m}):",
      " ".join(f"{v:.5f}" for v in dist[:6]), "...")
print("total:", sum(dist))

# windowed law against summing the 2^width product measure directly
m1, m2 = -3, 4
ref = brute_force_window_law(m1, m2, p)
worst = max(
    abs(prob_window_particles(m1, m2, k, p) - ref.prob(k)) / ref.prob(k)
    for k in range(0, m2 - m1)
)
print(f"\nwindow ({m1},{m2}) law vs brute force over occupancies: "
      f"max rel dev {worst:.2e}")

# reflecting holes to particles maps the right law onto the left one
k = 2
print(f"P({k} holes at sites >= {m}) = {prob_right_holes(m, k, p):.8e}")
print(f"reflected left law          = "
      f"{prob_left_particles(m, k, AsepParams(q=p.q, c=2 * m + 1 - p.c)):.8e}")

# lattice-shift and c-shift relations, worst case over a small grid
worst = max(
    check.rel_dev
    for mm in (-2, 0, 3)
    for kk in range(4)
    for check in shift_relation_checks(p, mm, kk)
)
print(f"\nshift relations, worst rel dev: {worst:.2e}")
print(f"marginal(0) at c=0 is 1/2: {marginal(0, 1, p)}")
