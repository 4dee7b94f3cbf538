"""Exact integer partition engine.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the partition of 0.  Everything here is exact integer arithmetic:
enumeration (capped), bounded-part counting DPs, Durfee rectangle
decomposition at an integer offset, and generating-function coefficients
up to q^N as IntPoly.  The bijection sending a finite occupancy window to
the partition of its total left displacement is a test oracle, in
tests/test_partitions.py.
"""

from typing import NamedTuple

from .qseries import IntPoly


class SizeLimit(ValueError):
    """Raised when an exhaustive computation is asked beyond its cap."""


ENUMERATION_CAP = 60


def as_partition(parts):
    """Validate and canonicalize to a tuple; rejects non-monotone input."""
    p = tuple(map(int, parts))
    if p != tuple(sorted(p, reverse=True)):
        raise ValueError(f"parts must be weakly decreasing, got {p}")
    if p and p[-1] < 1:
        raise ValueError(f"parts must be positive, got {p}")
    return p


def enumerate_partitions(n):
    """All partitions of n in lexicographically decreasing order.

    Iterative (Zoghbi-Stojmenovic ZS1): x holds the current partition in its
    first m entries and 1 everywhere past index h, the last part above 1.
    The successor lowers x[h] by one and refills the parts from h on, as
    many copies of the lowered value as fit in the freed total, then the
    remainder.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise SizeLimit(f"enumeration capped at n={ENUMERATION_CAP}, got {n}")
    if n == 0:
        return [()]
    x = [1] * n
    x[0] = n
    m, h = 1, 0
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[:m]))
    return out


def count_partitions(n):
    """p(n) by the Euler product DP."""
    return series_partition_gf(n).coeff(n)


def count_bounded(n, max_parts, max_size):
    """Partitions of n into at most max_parts parts, each at most max_size.
    A negative argument counts nothing, as in count_distinct_bounded."""
    if n < 0 or max_parts < 0 or max_size < 0:
        return 0
    return bounded_counts(n, max_parts, max_size)[n]


def bounded_counts(n_max, max_parts, max_size):
    """[count_bounded(v, max_parts, max_size) for v in 0..n_max] from one DP,
    for nonnegative bounds.

    DP over allowed part sizes s = 1..max_size with
    B_s(v, j) = B_{s-1}(v, j) + B_s(v - s, j - 1): either no part equals s,
    or remove one copy of s (spending one of the j part slots).
    """
    # B[v][j], updated in increasing v so the second term sees the same s
    B = [[1 if v == 0 else 0 for _ in range(max_parts + 1)]
         for v in range(n_max + 1)]
    for s in range(1, max_size + 1):
        for v in range(s, n_max + 1):
            for j in range(1, max_parts + 1):
                B[v][j] += B[v - s][j - 1]
    return [row[max_parts] for row in B]


class DurfeeDecomposition(NamedTuple):
    """Maximal (n_offset+k) x k rectangle of a partition plus the leftover
    partitions to its right and below; zero parts are dropped from right."""

    n_offset: int
    k: int
    right: tuple
    below: tuple

    def reassemble(self):
        """The partition put back together.  Its parts are not validated
        again: durfee_decompose validated the partition they came from."""
        n_offset, k, right, below = self
        side = n_offset + k
        parts = [v for r in right if (v := r + side) > 0]
        # rows past the right partition hold side alone; side 0 rows carry
        # nothing
        if side > 0:
            parts += [side] * (k - len(right))
        parts += below
        return tuple(parts)


def durfee_decompose(p, n_offset):
    """Decompose around the maximal rectangle of side lengths n_offset+k by k.

    k is the unique index >= max(-n_offset, 0) with lam_k >= n_offset+k and
    lam_{k+1} <= n_offset+k, reading lam_0 = +inf and lam_i = 0 past the last
    part.
    """
    return _decompose_valid(as_partition(p), n_offset)


def _decompose_valid(lam, n):
    """durfee_decompose of lam, a partition as_partition already returned."""
    ell = len(lam)
    k_lo = -n if n < 0 else 0
    # lam_k >= n+k holds on a prefix of k >= k_lo (it holds at k_lo), and
    # lam_{k+1} <= n+k on a suffix (it holds from max(ell, k_lo) on): scan
    # up to the prefix's end and down to the suffix's start.
    k = k_lo
    while k < ell and lam[k] > n + k:  # lam_{k+1} >= n+k+1: prefix goes on
        k += 1
    b = ell if ell > k_lo else k_lo
    while b > k_lo and lam[b - 1] < n + b:  # lam_b <= n+b-1: suffix goes on
        b -= 1
    assert k == b, f"rectangle index not unique: {k} != {b} for {lam}, n={n}"
    side = n + k
    right = tuple([x - side for x in lam[:k] if x > side])
    return DurfeeDecomposition._make((n, k, right, lam[k:]))


def count_distinct_exactly_k(n, k):
    """Partitions of n into exactly k distinct positive parts."""
    return count_distinct_bounded(n, k, n)


def count_distinct_bounded(n, k, m):
    """Partitions of n into exactly k distinct parts, each in 1..m."""
    if k < 0 or n < 0 or m < 0:
        return 0
    return distinct_bounded_counts(n, k, m)[n]


def distinct_bounded_counts(n_max, k, m):
    """[count_distinct_bounded(v, k, m) for v in 0..n_max] from one DP, for
    nonnegative k and m.

    Each part s = 1..m is used or not; deliberately not derived from the
    q-binomial polynomial so the two can cross-check each other.
    """
    # D[j][v]: sets of j distinct parts from 1..s summing to v, updated in
    # decreasing j and v so that every part is used at most once
    D = [[0] * (n_max + 1) for _ in range(k + 1)]
    D[0][0] = 1
    for s in range(1, m + 1):
        for j in range(min(s, k), 0, -1):
            row, fewer = D[j], D[j - 1]
            for v in range(n_max, s - 1, -1):
                row[v] += fewer[v - s]
    return D[k]


def series_partition_gf(N):
    """p(0..N) as the IntPoly of prod_{s>=1} 1/(1-q^s) up to q^N."""
    return series_bounded_parts(N, N)


def series_bounded_parts(max_size, N):
    """prod_{s=1}^{max_size} 1/(1-q^s) up to q^N as an IntPoly, by the
    Euler DP: partitions with all parts <= max_size.  By conjugation this
    also counts partitions into at most max_size parts."""
    p = [0] * (N + 1)
    p[0] = 1
    for s in range(1, min(max_size, N) + 1):
        for v in range(s, N + 1):
            p[v] += p[v - s]
    return IntPoly(p)
