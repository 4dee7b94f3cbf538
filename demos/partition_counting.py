"""Partition counting and the rectangle decomposition.

Every partition splits uniquely around its maximal square (more generally an
(n+k) x k rectangle) into a piece to the right, with at most k parts, and a
piece below, with parts at most k.  Summing the product of the two bounded
generating functions over k rebuilds the full partition generating function;
here we watch the decomposition act on concrete partitions and cross-check
the counts against the DP counters.
"""

from aseplab.partitions import (
    _reassemble,
    count_bounded,
    count_distinct_bounded,
    count_distinct_exactly_k,
    count_partitions,
    durfee_decompose,
    enumerate_partitions,
    series_bounded_parts,
    series_partition_gf,
)
from aseplab.qseries import IntPoly


def main():
    print("p(n) for n = 0..12:", [count_partitions(n) for n in range(13)])

    # decompose one partition at a few rectangle offsets
    lam = (6, 5, 5, 2, 1, 1)
    for n in (-1, 0, 2):
        k, right, below = durfee_decompose(lam, n)
        print(f"lam={lam} offset n={n}: rectangle {n + k}x{k}, "
              f"right={right}, below={below}")

    # reassembly is injective: every partition of 9 comes back intact
    ok = all(
        _reassemble(0, *durfee_decompose(mu, 0)) == mu
        for mu in enumerate_partitions(9)
    )
    print("all partitions of 9 reassemble:", ok)

    # rebuild p(0..N) from the square decomposition: right and below pieces
    # are both bounded-part partitions (conjugating the right one)
    N = 12
    gf = series_partition_gf(N)
    acc = IntPoly()
    k = 0
    while k * k <= N:
        blk = series_bounded_parts(k, N)
        acc = acc + (blk * blk).shift(k * k)
        k += 1
    # both pieces are exact up to q^N only, so compare that prefix
    print("square-rectangle sum over k rebuilds the gf:",
          IntPoly(acc.coeffs[:N + 1]) == gf)

    # bounded double DP against the series on a slice
    print("count_bounded(n, 3 parts, size 4) for n=0..12:",
          [count_bounded(n, 3, 4) for n in range(13)])

    # distinct parts two ways: direct DP and the product prod (1 + q^i)
    prod = IntPoly.one()
    for i in range(1, N + 1):
        prod = prod + prod.shift(i)
    n = 8
    by_dp = sum(count_distinct_exactly_k(n, k) for k in range(n + 1))
    print(f"partitions of {n} into distinct parts: dp={by_dp}, "
          f"product coeff={prod.coeff(n)}")
    print("distinct parts of 9 capped at 5, by count:",
          [count_distinct_bounded(9, k, 5) for k in range(5)])


if __name__ == "__main__":
    main()
