"""Identity verification in both modes.

Numeric mode evaluates both sides in floating point and reports the relative
deviation next to a rigorous truncation bound for whatever tail was dropped.
Exact mode works in integer polynomial arithmetic and partition counts, so a
pass means coefficient-for-coefficient equality, no tolerance involved.
"""

from aseplab.verify import (
    verify_durfee,
    verify_durfee_exact,
    verify_euler,
    verify_euler_exact,
    verify_jacobi,
    verify_qbinomial,
    verify_qbinomial_exact,
)

print("numeric reports")
for q in (0.3, 0.9):
    for n in (-2, 0, 3):
        print(" ", verify_durfee(q, n).summary())
print(" ", verify_euler(0.5, 1.7).summary())
print(" ", verify_qbinomial(0.5, 0.8, 9).summary())
print(" ", verify_jacobi(0.7, 2.0).summary())

# the product and the sum side stop on one rule, and what they drop
# surfaces in the reported truncation bound
print("\ntruncation bounds")
for r in (verify_durfee(0.9, 0), verify_euler(0.5, 1.7)):
    print(f"  {r.name}: rel dev {r.rel_dev:.2e}, tail bound {r.trunc_bound:.2e}")

print("\nexact suites (integer arithmetic, no tolerances)")
offsets = range(-3, 4)
for n, passed in zip(offsets, verify_durfee_exact(18, offsets)):
    print(f"  rectangle decomposition, offset {n:+d}, all partitions <= 18:",
          passed)
print("  product coefficient triangle N=12, z-degree <= 5:",
      verify_euler_exact(12, 5))
for m in (4, 9):
    print(f"  q-binomial coefficients vs distinct-part counts, m={m}:",
          verify_qbinomial_exact(m))
