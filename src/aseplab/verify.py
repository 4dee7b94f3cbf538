"""Checks of the partition identities behind the stationary window laws.

Each numeric verifier evaluates both sides of an identity independently in
floating point and reports the relative deviation next to a rigorous bound
on what truncation alone could contribute; a check passes only when the
deviation is explained by tolerance plus truncation.  The *_exact variants
avoid floats entirely: integer polynomial arithmetic on one side, explicit
partition counting on the other, so they either agree coefficient by
coefficient or the identity is simply false in that range.
"""

from collections import namedtuple
import math

from .partitions import (
    _decompose_valid,
    _reassemble,
    as_partition,
    bounded_counts,
    distinct_bounded_counts,
    enumerate_partitions,
    series_bounded_parts,
    series_partition_gf,
)
from .qseries import (
    SERIES_EPS,
    SERIES_MAX_TERMS,
    IntPoly,
    TruncationNotConverged,
    _check_q,
    _normal_qq,
    jacobi_triple_product,
    pochhammer_finite,
    pochhammer_infinite,
    qbinomial,
    qbinomial_row,
)

DEFAULT_TOL = 1e-10


class IdentityReport(namedtuple("IdentityReport",
                                 "name params lhs rhs tol trunc_bound",
                                 defaults=(0.0,))):
    __slots__ = ()

    @property
    def abs_dev(self):
        return abs(self.lhs - self.rhs)

    @property
    def rel_dev(self):
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.abs_dev / scale

    @property
    def passed(self):
        return self.rel_dev <= self.tol + self.trunc_bound

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        pstr = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"{status} {self.name} [{pstr}] lhs={self.lhs:.12e} "
            f"rhs={self.rhs:.12e} rel_dev={self.rel_dev:.2e} "
            f"bound={self.tol + self.trunc_bound:.2e}"
        )


def _ratio_sum(term, k, ratio, what):
    """Sum the series whose terms from index k on are term, term * ratio(k),
    term * ratio(k) * ratio(k + 1), ...  Stops once the geometric bound
    |term| r / (1 - r), r = |ratio| < 1, on everything after the current
    term drops below SERIES_EPS of |sum|; returns (sum, that bound).  Raises
    TruncationNotConverged, naming `what`, after SERIES_MAX_TERMS ratios."""
    acc = term
    for k in range(k, k + SERIES_MAX_TERMS + 1):
        r = ratio(k)
        a = abs(r)
        if a < 1.0:
            tail = abs(term) * a / (1.0 - a)
            if tail < SERIES_EPS * abs(acc):
                return acc, tail
        term *= r
        acc += term
    raise TruncationNotConverged(what)


def verify_durfee(q, n_offset=0, tol=DEFAULT_TOL):
    """Rectangle sum against the full partition generating function:
    sum_{k >= max(-n,0)} q^{k(n+k)} / ((q;q)_{n+k} (q;q)_k) = 1/(q;q)_infty."""
    _check_q(q)
    n = int(n_offset)
    denom, dbound = pochhammer_infinite(q, q)
    denom = _normal_qq(denom, q)

    k = max(-n, 0)
    term = q ** (k * (n + k)) / (
        pochhammer_finite(q, q, n + k) * pochhammer_finite(q, q, k)
    )
    acc, tail = _ratio_sum(
        term, k,
        lambda k: q ** (n + 2 * k + 1) / (
            (1.0 - q ** (n + k + 1)) * (1.0 - q ** (k + 1))),
        f"rectangle sum at q={q}, n={n}")
    return IdentityReport(
        name="durfee",
        params={"q": q, "n_offset": n},
        lhs=1.0 / denom,
        rhs=acc,
        tol=tol,
        trunc_bound=dbound + tail / acc,
    )


def verify_durfee_exact(N, n_offsets):
    """Exact version, two independent ways, at each offset n of n_offsets:
    every partition of every size <= N reassembles from its rectangle
    decomposition at n, and the rectangle sum of integer series reproduces
    the partition generating function mod q^{N+1}.  One bool per offset, in
    order.  Each size is enumerated, and each partition validated, once for
    all offsets."""
    offsets = [(i, n, max(-n, 0)) for i, n in enumerate(map(int, n_offsets))]
    ok = [True] * len(offsets)
    for size in range(0, N + 1):
        for lam in enumerate_partitions(size):
            lam = as_partition(lam)
            for i, n, k_lo in offsets:
                k, right, below = _decompose_valid(lam, n)
                # below is a tail of lam, so its first part is its largest
                if (_reassemble(n, k, right, below) != lam or k < k_lo
                        or len(right) > k or below and below[0] > n + k):
                    ok[i] = False

    p = series_partition_gf(N)
    for i, n, k_lo in offsets:
        total = IntPoly()
        k = k_lo
        while k * (n + k) <= N:
            right = series_bounded_parts(k, N)  # <= k parts, by conjugation
            below = series_bounded_parts(n + k, N)
            total = total + (right * below).shift(k * (n + k))
            k += 1
        # the factors are exact only up to q^N, so only that prefix is
        # compared
        ok[i] &= IntPoly(total.coeffs[:N + 1]) == p
    return ok


def verify_euler(q, z, tol=DEFAULT_TOL):
    """prod_{i>=0} (1 + z q^i) = sum_k z^k q^{k(k-1)/2} / (q;q)_k."""
    _check_q(q)
    lhs, lbound = pochhammer_infinite(-z, q)

    acc, tail = _ratio_sum(1.0, 0, lambda k: z * q**k / (1.0 - q ** (k + 1)),
                           f"euler sum at q={q}, z={z}")
    return IdentityReport(
        name="euler",
        params={"q": q, "z": z},
        lhs=lhs,
        rhs=acc,
        tol=tol,
        trunc_bound=lbound + tail / max(abs(acc), 1e-300),
    )


def _z_coefficients(n_factors, max_k):
    """Integer q-polynomial coefficients of z^0 .. z^min(n_factors, max_k)
    in prod_{i=0}^{n_factors-1} (1 + z q^i), by z-degree."""
    cur = [IntPoly.one()]
    for i in range(0, n_factors):
        new = []
        for k in range(0, min(len(cur), max_k) + 1):
            poly = IntPoly([])
            if k < len(cur):
                poly = poly + cur[k]
            if k >= 1:
                poly = poly + cur[k - 1].shift(i)
            new.append(poly)
        cur = new
    return cur


def verify_euler_exact(N, K):
    """Coefficient triangle of prod_{i=0}^{N} (1 + z q^i) for z-degree <= K,
    checked against two partition counts: staircase-shifted box partitions
    and partitions into distinct nonnegative parts."""
    # z-degrees above N + 1 have no term and are not listed
    fewer = [0] * (N + 1)  # k - 1 distinct positive parts; none at k = 0
    for k, poly in enumerate(_z_coefficients(N + 1, K)):
        deg = poly.degree if poly.coeffs else 0
        stair = k * (k - 1) // 2
        boxes = bounded_counts(max(deg - stair, 0), k, N - k + 1)
        # k distinct positive parts summing to n <= N are all at most N
        exactly = distinct_bounded_counts(N, k, N)
        for n in range(0, deg + 1):
            c = poly.coeff(n)
            boxed = boxes[n - stair] if n >= stair else 0
            if c != boxed:
                return False
            # up to q^N the truncated product agrees with the infinite one,
            # whose z^k q^n coefficient counts k distinct parts >= 0: either
            # all positive or a zero part plus k-1 positive
            if n <= N and c != exactly[n] + fewer[n]:
                return False
        fewer = exactly
    return True


def verify_qbinomial(q, z, m, tol=DEFAULT_TOL):
    """Finite form: prod_{i=0}^{m-1} (1 + z q^i)
    = sum_k qbinom(m,k) q^{k(k-1)/2} z^k.  No truncation on either side."""
    _check_q(q)
    lhs = 1.0
    for i in range(m):
        lhs *= 1.0 + z * q**i
    rhs = 0.0
    try:
        for k in range(m + 1):
            rhs += qbinomial(m, k, q) * q ** (k * (k - 1) // 2) * z**k
    except OverflowError:  # z ** k
        rhs = math.inf
    for side, value in (("product", lhs), ("sum", rhs)):
        if not math.isfinite(value):
            raise OverflowError(
                f"q-binomial {side} overflows at q={q}, z={z}, m={m}")
    return IdentityReport(
        name="qbinomial",
        params={"q": q, "z": z, "m": m},
        lhs=lhs,
        rhs=rhs,
        tol=tol,
    )


def verify_qbinomial_exact(m):
    """z-degree k coefficient of prod_{i=0}^{m-1} (1 + z q^i) equals
    q^{k(k-1)/2} qbinom(m,k) as integer polynomials, and its q-coefficients
    count partitions into k distinct parts from {1..m}."""
    cur = _z_coefficients(m, m)
    row = qbinomial_row(m)
    for k in range(0, m + 1):
        expect = row[k].shift(k * (k - 1) // 2)
        if cur[k] != expect:
            return False
        deg = cur[k].degree if cur[k].coeffs else 0
        distinct = distinct_bounded_counts(deg + k, k, m)
        for t in range(0, deg + 1):
            if cur[k].coeff(t) != distinct[t + k]:
                return False
    return True


def verify_jacobi(q, z, tol=DEFAULT_TOL):
    """Two-sided theta sum against its triple product."""
    lhs, rhs = jacobi_triple_product(z, q)
    return IdentityReport(
        name="jacobi",
        params={"q": q, "z": z},
        lhs=lhs,
        rhs=rhs,
        tol=tol,
    )
