"""q-series kernel: q-Pochhammer symbols, q-binomial coefficients and the
classical manipulation identities built from them.

Floating evaluators use plain double precision; infinite products truncate
on term magnitude and return a rigorous geometric tail bound alongside the
value.  Exact identity checks go through IntPoly, a minimal arbitrary
precision integer polynomial in q.
"""

from itertools import zip_longest
import math
import sys


class TruncationNotConverged(ValueError):
    """Raised when an infinite product/sum hits SERIES_MAX_TERMS terms before
    reaching SERIES_EPS."""


# The one stop rule of every infinite product and sum in the package, so
# both sides of an identity truncate alike: stop once what is dropped falls
# below SERIES_EPS (of the running sum, for a sum), give up after
# SERIES_MAX_TERMS terms.  A loop reads the binding of its own module.
SERIES_EPS = 1e-16
SERIES_MAX_TERMS = 100_000


def _check_q(q):
    """q itself, once it lies strictly inside (0,1)."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly in (0,1), got {q}")
    return q


def pochhammer_finite(a, q, n):
    """(a;q)_n = prod_{i=0}^{n-1} (1 - a q^i); empty product is 1."""
    qv = _check_q(q)
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1.0
    aq = float(a)
    for _ in range(n):
        out *= 1.0 - aq
        aq *= qv
    return out


def log_pochhammer_finite(a, q, n):
    """log (a;q)_n for a < 1 where every factor is positive."""
    qv = _check_q(q)
    out = 0.0
    aq = float(a)
    for _ in range(n):
        f = 1.0 - aq
        if f <= 0.0:
            raise ValueError("log form needs all factors positive")
        out += math.log(f)
        aq *= qv
    return out


def pochhammer_infinite(a, q):
    """(a;q)_infty with truncation on |a q^i| < SERIES_EPS.

    Returns (value, bound) where bound is a rigorous relative error bound for
    the dropped tail, from sum_{i>=K} |a| q^i <= |a| q^K / (1-q).
    """
    qv = _check_q(q)
    av = float(a)
    out = 1.0
    t = av
    for _ in range(SERIES_MAX_TERMS):
        if abs(t) < SERIES_EPS:
            # |log prod_{i>=K}(1-t_i)| <= sum |t_i|/(1-|t_i|), geometric in i
            s = abs(t) / ((1.0 - qv) * (1.0 - abs(t)))
            return out, math.expm1(s)
        out *= 1.0 - t
        t *= qv
    raise TruncationNotConverged(
        f"(a;q)_infty with a={av}, q={qv} did not reach eps={SERIES_EPS} "
        f"in {SERIES_MAX_TERMS} terms"
    )


def _normal_qq(value, q):
    """value, (q;q)_infty at q, once it is a normal float.  A subnormal no
    longer tracks its factors, so below that OverflowError names it."""
    if value < sys.float_info.min:
        raise OverflowError(f"(q;q)_infty underflows at q={q}")
    return value


def log_neg_pochhammer_infinite(x, q):
    """log (-q^x;q)_infty = sum_{i>=0} log(1+q^{x+i}), stable for any real x.

    Returns (logvalue, bound); bound is relative on the value, as in
    pochhammer_infinite.
    """
    qv = _check_q(q)
    lq = math.log(qv)
    out = 0.0
    for i in range(SERIES_MAX_TERMS):
        t = (x + i) * lq
        if t > 0:
            # q^{x+i} > 1: log(1+e^t) = t + log1p(e^-t)
            out += t + math.log1p(math.exp(-t))
        else:
            term = math.exp(t)
            if term < SERIES_EPS:
                s = term / ((1.0 - qv) * (1.0 - term))
                return out, math.expm1(s)
            out += math.log1p(term)
    raise TruncationNotConverged(
        f"(-q^{x};q)_infty with q={qv} did not reach eps={SERIES_EPS} "
        f"in {SERIES_MAX_TERMS} terms"
    )


def qbinomial(m, k, q):
    """Gaussian binomial [m k]_q; 0 outside 0 <= k <= m.

    The out of range convention matches the combinatorial count (no
    partitions fit in a negative box) and closes the Pascal recursion.
    """
    if k < 0 or k > m:
        return 0.0
    qv = _check_q(q)
    out = 1.0
    for i in range(k):
        out *= (1.0 - qv ** (m - i)) / (1.0 - qv ** (i + 1))
    return out


def log_qbinomial(m, k, q):
    if k < 0 or k > m:
        raise ValueError("log form needs 0 <= k <= m")
    qv = _check_q(q)
    out = 0.0
    for i in range(k):
        out += math.log1p(-qv ** (m - i)) - math.log1p(-qv ** (i + 1))
    return out


class IntPoly:
    """Exact integer polynomial in q, coefficients indexed by power.

    Stored with trailing zeros stripped; the zero polynomial has empty
    coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(map(int, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        return IntPoly(
            map(sum, zip_longest(self.coeffs, other.coeffs, fillvalue=0))
        )

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def shift(self, k):
        """Multiply by q^k."""
        return IntPoly((0,) * k + self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, q):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    @staticmethod
    def one():
        return IntPoly((1,))


def qbinomial_row(m):
    """[[m 0]_q, ..., [m m]_q] as exact IntPolys, built row by row from the
    q-Pascal recursion [r j] = q^j [r-1 j] + [r-1 j-1]."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    # rows of coefficient lists; only the returned row becomes IntPolys
    row = [[1]]
    for r in range(1, m + 1):
        row = ([[1]]
               + [[a + b for a, b in zip_longest([0] * j + row[j], row[j - 1],
                                                 fillvalue=0)]
                  for j in range(1, r)]
               + [[1]])
    return [IntPoly(c) for c in row]


def qbinomial_poly(m, k):
    """[m k]_q as an exact IntPoly, from qbinomial_row(m)."""
    if not (0 <= k <= m):
        raise ValueError(f"need 0 <= k <= m, got m={m}, k={k}")
    return qbinomial_row(m)[k]


def q_pascal_check(m):
    """Exact check of [m k]_q == q^k [m-1 k]_q + [m-1 k-1]_q for every
    k = 0..m, from one pair of rows."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    prev = qbinomial_row(m - 1)
    zero = [IntPoly()]  # [m-1 k]_q at k = m and at k = -1
    return all(
        poly == a.shift(k) + b
        for k, (poly, a, b) in enumerate(
            zip(qbinomial_row(m), prev + zero, zero + prev)))


def pochhammer_inversion(k, q):
    """Both sides of (q^{-k};q)_k = (q;q)_k / ((-1)^k q^{k(k+1)/2})."""
    qv = _check_q(q)
    lhs = pochhammer_finite(qv ** (-k) if k > 0 else 1.0, qv, k)
    rhs = pochhammer_finite(qv, qv, k) / ((-1.0) ** k * qv ** (k * (k + 1) / 2))
    return lhs, rhs


def jacobi_triple_product(z, q):
    """Both sides of sum_l q^{l(l+1)/2} z^l = (q;q)_inf (-qz;q)_inf (-1/z;q)_inf.

    The sum truncates over a symmetric range in l once both wing terms drop
    below SERIES_EPS relative to the running sum.  Raises OverflowError,
    naming the quantity, when the sum or (q;q)_inf leaves the float range.
    """
    if z == 0.0:
        raise ValueError("z must be nonzero")
    qv = _check_q(q)

    total = 1.0  # l = 0 term
    try:
        for l in range(1, SERIES_MAX_TERMS):
            t_pos = qv ** (l * (l + 1) / 2) * z ** l
            t_neg = qv ** (l * (l - 1) / 2) * z ** (-l)
            total += t_pos + t_neg
            bound = SERIES_EPS * max(1.0, abs(total))
            if abs(t_pos) < bound and abs(t_neg) < bound:
                break
        else:
            raise TruncationNotConverged("triple product sum did not converge")
    except OverflowError:  # z ** l or z ** -l
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"theta sum overflows at q={qv}, z={z}")

    p1 = _normal_qq(pochhammer_infinite(qv, qv)[0], qv)
    p2, _ = pochhammer_infinite(-qv * z, qv)
    p3, _ = pochhammer_infinite(-1.0 / z, qv)
    return total, p1 * p2 * p3
