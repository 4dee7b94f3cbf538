"""Tour of the q-series toolkit: Pochhammer symbols with truncation bounds,
q-binomials as numbers and as exact integer polynomials, and the triple
product evaluator that backs the theta-function checks."""

from aseplab.qseries import (
    SERIES_EPS,
    SERIES_MAX_TERMS,
    jacobi_triple_product,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_inversion,
    q_pascal_check,
    qbinomial,
    qbinomial_poly,
)

q = 0.6

# finite products are plain loops, the infinite one stops on the package's
# one rule and reports how much tail it dropped
print(f"(q;q)_5 at q={q}: {pochhammer_finite(q, q, 5):.12f}")
val, bound = pochhammer_infinite(q, q)
print(f"(q;q)_inf        : {val:.12f}  (tail bound {bound:.1e}, "
      f"eps={SERIES_EPS:g}, max_terms={SERIES_MAX_TERMS})")

# q-binomials: float evaluation vs the exact coefficient polynomial
m, k = 7, 3
num = qbinomial(m, k, q)
poly = qbinomial_poly(m, k)
print(f"\n[{m} {k}]_q at q={q}: {num:.10f}")
print(f"coefficients of [{m} {k}]_q: {poly.coeffs}")
print(f"polynomial at q={q}:  {poly(q):.10f}")
print(f"q-Pascal rows hold exactly: "
      f"{all(q_pascal_check(mm) for mm in range(1, 11))}")

# the inversion identity behind reflecting a law off the lattice
lhs, rhs = pochhammer_inversion(4, q)
print(f"\n(q^-4;q)_4 inversion: lhs={lhs:.10f} rhs={rhs:.10f}")

# theta sum against its product form
for z in (0.5, 1.0, 2.0):
    lhs, rhs = jacobi_triple_product(z, q)
    print(f"triple product z={z}: sum={lhs:.12f} product={rhs:.12f} "
          f"rel dev {abs(lhs - rhs) / abs(rhs):.1e}")
