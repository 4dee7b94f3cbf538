"""Table-at-a-time closed forms against their per-element definitions.

The dist grids (`prob_positions_table`, `pi_label_table`) must give the
same floats as `prob_positions` / `pi_label` row by row, and the positions
table the same floats as a frozen copy of the earlier per-tuple evaluation.
The DP tables behind the exact suites (`bounded_counts`,
`distinct_bounded_counts`, `qbinomial_row`) must hold the per-element counts
for every total.  The scan-based `durfee_decompose` and the iterative
`enumerate_partitions` must agree with frozen copies of their earlier
definitions, and the float kernels (the shared ratio-series sum, the shared
softplus, the left-to-right sums, the left-particle and right-hole tables)
with frozen copies of the hand-written loops, builtin sums and per-row
evaluations they replaced, bit for bit.  The power tests plant one error in
what an exact suite is handed and require the suite to fail.
"""

import itertools
import math
import random
import re
import sys

import pytest

from aseplab import verify
from aseplab.blocking import (
    AsepParams,
    _log1p_qpow,
    marginal,
    prob_left_particles_table,
    prob_right_holes_table,
    prob_window_particles,
)
from aseplab.coupling import (
    pi_label,
    pi_label_table,
    prob_positions,
    prob_positions_of,
    prob_positions_table,
)
from aseplab.partitions import (
    _reassemble,
    as_partition,
    bounded_counts,
    count_bounded,
    count_distinct_bounded,
    distinct_bounded_counts,
    durfee_decompose,
    enumerate_partitions,
)
from aseplab.qseries import (
    IntPoly,
    TruncationNotConverged,
    log_neg_pochhammer_infinite,
    log_qbinomial,
    pochhammer_finite,
    pochhammer_infinite,
    qbinomial,
    qbinomial_row,
)
from oracle import log_pochhammer_finite


# ------------------------------------------------- frozen reference copies


def frozen_enumerate_partitions(n):
    """The recursive enumeration, lexicographically decreasing."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def frozen_durfee_decompose(p, n_offset):
    """k found by testing every candidate index; returns (k, right, below)."""
    lam = as_partition(p)
    ell = len(lam)

    def lam_at(i):
        if i == 0:
            return float("inf")
        return lam[i - 1] if i <= ell else 0

    k_lo = max(-n_offset, 0)
    k_hi = max(ell, -n_offset) + 1
    hits = [
        k
        for k in range(k_lo, k_hi + 1)
        if lam_at(k) >= n_offset + k and lam_at(k + 1) <= n_offset + k
    ]
    assert len(hits) == 1
    k = hits[0]
    side = n_offset + k
    right = tuple(lam[i] - side for i in range(min(k, ell)) if lam[i] - side > 0)
    return k, right, lam[k:]


def frozen_reassemble(n_offset, k, right, below):
    """The decomposition's reassemble method as written before it unpacked
    its fields once."""
    side = n_offset + k
    parts = [v for r in right if (v := r + side) > 0]
    if side > 0:
        parts += [side] * (k - len(right))
    return (*parts, *below)


def frozen_prob_positions(mvec, p, d):
    """The per-tuple position law as evaluated before the table existed."""
    lq = math.log(p.q)
    logv = 0.0
    for i in range(1, d + 1):
        logv += math.log1p(-(p.q ** i))
    for j, mj in enumerate(mvec, start=1):
        u = p.c - mj
        logv += u * lq
        logv -= _log1p_qpow(u + d - j, lq)
        logv -= _log1p_qpow(u + d + 1 - j, lq)
    return math.exp(logv)


def frozen_qbinomial_poly(m, k):
    """[m k]_q from the full Pascal triangle, one coefficient list per entry."""
    row = [[1]]
    for r in range(1, m + 1):
        new = [[1]]
        for j in range(1, r):
            shifted = [0] * j + row[j]
            below = row[j - 1]
            n = max(len(shifted), len(below))
            new.append([(shifted[i] if i < len(shifted) else 0)
                        + (below[i] if i < len(below) else 0) for i in range(n)])
        new.append([1])
        row = new
    return IntPoly(row[k])


def frozen_marginal(i, z, p):
    """The site marginal through its own log-sigmoid."""
    t = (i - p.c) * math.log(p.q)
    if z != 1:
        t = -t
    if t >= 0:
        return math.exp(-t - math.log1p(math.exp(-t)))
    return math.exp(-math.log1p(math.exp(t)))


def frozen_durfee(q, n, eps=1e-16, max_terms=100_000):
    """(lhs, rhs, trunc_bound) of verify_durfee from its own ratio loop;
    eps and max_terms set only the loop's stop rule."""
    denom, dbound = pochhammer_infinite(q, q)
    lhs = 1.0 / denom
    k = max(-n, 0)
    k0 = k
    term = q ** (k * (n + k)) / (
        pochhammer_finite(q, q, n + k) * pochhammer_finite(q, q, k)
    )
    acc = term
    while True:
        r = q ** (n + 2 * k + 1) / (
            (1.0 - q ** (n + k + 1)) * (1.0 - q ** (k + 1))
        )
        if r < 1.0 and term * r / (1.0 - r) < eps * acc:
            tail = term * r / (1.0 - r)
            break
        term *= r
        acc += term
        k += 1
        if k - k0 > max_terms:
            raise TruncationNotConverged(f"rectangle sum at q={q}, n={n}")
    return lhs, acc, dbound + tail / acc


def frozen_euler(q, z, eps=1e-16, max_terms=100_000):
    """(lhs, rhs, trunc_bound) of verify_euler from its own ratio loop, whose
    stop test reads abs(z) where the term update reads z; eps and max_terms
    set only the loop's stop rule."""
    lhs, lbound = pochhammer_infinite(-z, q)
    term = 1.0
    acc = 1.0
    k = 0
    while True:
        r = abs(z) * q**k / (1.0 - q ** (k + 1))
        if r < 1.0 and abs(term) * r / (1.0 - r) < eps * abs(acc):
            tail = abs(term) * r / (1.0 - r)
            break
        term *= z * q**k / (1.0 - q ** (k + 1))
        acc += term
        k += 1
        if k > max_terms:
            raise TruncationNotConverged(f"euler sum at q={q}, z={z}")
    return lhs, acc, lbound + tail / max(abs(acc), 1e-300)


def frozen_prob_window_particles(m1, m2, k, p):
    """The window law with its normalizer subtracted as one builtin sum."""
    mhat = m2 - m1 - 1
    lq = math.log(p.q)
    logp = (k * (p.c + 1 - m2) + k * (k - 1) / 2.0) * lq
    logp -= sum(_log1p_qpow(p.c + 1 - m2 + i, lq) for i in range(mhat))
    logp += log_qbinomial(mhat, k, p.q)
    return math.exp(logp)


def frozen_prob_left_particles_table(m, ks, p):
    """The left-particle law row by row, log (q;q)_k taken afresh per row."""
    lq = math.log(p.q)
    log_tail, _ = log_neg_pochhammer_infinite(p.c - m, p.q)
    out = []
    for k in ks:
        logp = (k * (p.c - m) + k * (k - 1) / 2.0) * lq
        logp -= log_pochhammer_finite(p.q, p.q, k)
        out.append(math.exp(logp - log_tail))
    return out


def frozen_qbinomial_rhs(q, z, m):
    """The finite Euler sum of verify_qbinomial as one builtin sum."""
    return sum(
        qbinomial(m, k, q) * q ** (k * (k - 1) // 2) * z**k for k in range(m + 1)
    )


# The builtin sum is a plain left-to-right fold from 0 up to Python 3.11 and
# compensated from 3.12 on, where the builtin-sum forms print other digits.
builtin_sum_is_a_fold = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="the builtin sum is compensated from Python 3.12 on",
)


# ------------------------------------------------------------ float kernels


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("c", [0.0, 0.37, -1.7, 2.0])
def test_marginal_equals_frozen_log_sigmoid_form(q, c):
    # integral c puts t = +-0 on a site; the far sites saturate to 0 and 1
    p = AsepParams(q=q, c=c)
    for i in [*range(-60, 61), -5000, 5000]:
        for z in (0, 1):
            assert marginal(i, z, p) == frozen_marginal(i, z, p)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", range(-3, 4))
def test_durfee_equals_frozen_ratio_loop(q, n):
    r = verify.verify_durfee(q, n)
    assert (r.lhs, r.rhs, r.trunc_bound) == frozen_durfee(q, n)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("z", [-0.8, 0.3, 1.0, 1.7])
def test_euler_equals_frozen_ratio_loop(q, z):
    r = verify.verify_euler(q, z)
    assert (r.lhs, r.rhs, r.trunc_bound) == frozen_euler(q, z)


@pytest.mark.parametrize(
    "identity",
    [
        (lambda: verify.verify_durfee(0.5, -2),
         lambda max_terms: frozen_durfee(0.5, -2, max_terms=max_terms)),
        (lambda: verify.verify_euler(0.5, -1.7),
         lambda max_terms: frozen_euler(0.5, -1.7, max_terms=max_terms)),
    ],
    ids=["durfee", "euler"],
)
def test_ratio_sum_gives_up_after_the_same_term(identity, monkeypatch):
    # each max_terms either stops both sums at the same value or fails both;
    # the products, which need more terms than the sums, read qseries's
    # constants and keep the default
    new, old = identity
    outcomes = set()
    for max_terms in range(1, 40):
        monkeypatch.setattr(verify, "SERIES_MAX_TERMS", max_terms)
        try:
            want = old(max_terms)
        except TruncationNotConverged as e:
            with pytest.raises(TruncationNotConverged, match=re.escape(str(e))):
                new()
            outcomes.add("raised")
            continue
        r = new()
        assert (r.lhs, r.rhs, r.trunc_bound) == want
        outcomes.add("stopped")
    assert outcomes == {"raised", "stopped"}


@builtin_sum_is_a_fold
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("c", [0.37, -1.7])
@pytest.mark.parametrize("window", [(-7, 6), (-20, 15), (3, 5), (-300, -250)])
def test_window_particles_equals_frozen_builtin_sum(q, c, window):
    p = AsepParams(q=q, c=c)
    m1, m2 = window
    for k in range(0, m2 - m1):
        assert (prob_window_particles(m1, m2, k, p)
                == frozen_prob_window_particles(m1, m2, k, p))


@pytest.mark.parametrize("q", [0.3, 0.9, 0.999])
@pytest.mark.parametrize("c", [0.0, 0.37, -2.5])
def test_left_particles_and_right_holes_tables_equal_frozen_rows(q, c):
    # the tables read log (q;q)_k from one running sum; each row keeps the
    # bits of the per-row evaluation, in any row order
    p = AsepParams(q=q, c=c)
    ks = [*range(0, 601), 7, 0, 3]
    for m in (-2, 5):
        assert (prob_left_particles_table(m, ks, p)
                == frozen_prob_left_particles_table(m, ks, p))
        assert (prob_right_holes_table(m, iter(ks), p)
                == frozen_prob_left_particles_table(m, ks, p.with_c(2 * m + 1 - c)))


@pytest.mark.parametrize("table", [prob_left_particles_table,
                                   prob_right_holes_table])
def test_left_particles_and_right_holes_tables_reject_negative_rows(table):
    assert table(0, [], AsepParams(q=0.5)) == []
    with pytest.raises(ValueError, match="nonnegative"):
        table(0, [3, 0, -1], AsepParams(q=0.5))


@builtin_sum_is_a_fold
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("z", [-0.8, 0.3, 1.0, 1.7])
def test_qbinomial_rhs_equals_frozen_builtin_sum(q, z):
    for m in range(0, 13):
        assert verify.verify_qbinomial(q, z, m).rhs == frozen_qbinomial_rhs(q, z, m)


# ------------------------------------------------------------ dist grids


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("c", [0.0, 0.37, -1.7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_positions_table_rows_equal_prob_positions(q, c, d):
    p = AsepParams(q=q, c=c)
    sites = range(-6, 8)
    rows = list(prob_positions_table(sites, p, d))
    assert [m for m, _ in rows] == list(itertools.combinations(sites, d))
    for m, prob in rows:
        assert prob == prob_positions(m, p) == frozen_prob_positions(m, p, d)


def test_positions_table_far_from_c():
    # q^{c+d-j-m} is huge here; the log terms take the other branch
    p = AsepParams(q=0.2, c=0.37)
    for m, prob in prob_positions_table(range(-400, -395), p, 2):
        assert prob == prob_positions(m, p) == frozen_prob_positions(m, p, 2)


def assert_table_is_frozen(sites, p, d):
    """Every row of the table in combinations order, each float the
    frozen per-tuple evaluation bit for bit."""
    rows = list(prob_positions_table(sites, p, d))
    assert [m for m, _ in rows] == list(itertools.combinations(sites, d))
    for m, prob in rows:
        assert prob == frozen_prob_positions(m, p, d)
    return rows


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_positions_table_on_non_contiguous_sites(d):
    # a row's last slot starts right after its prefix's last index, not
    # after its last site
    sites = (-9, -4, -3, 0, 2, 7, 8, 15)
    assert_table_is_frozen(sites, AsepParams(q=0.5, c=0.37), d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_positions_table_with_exactly_d_sites(d):
    # the one-row table prob_positions evaluates
    sites = (-3, 0, 4, 5)[:d]
    p = AsepParams(q=0.7, c=-1.7)
    (row,) = assert_table_is_frozen(sites, p, d)
    assert row == (sites, prob_positions(sites, p))


@pytest.mark.parametrize("sites", [range(-400, -392), range(392, 400)],
                         ids=["left", "right"])
def test_positions_table_d3_far_from_c(sites):
    rows = assert_table_is_frozen(sites, AsepParams(q=0.2, c=0.37), 3)
    assert len(rows) == 56


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pi_table_rows_equal_pi_label(q, d):
    cap = 14
    rows = list(pi_label_table(d, q, cap))
    assert [x for x, _ in rows] == list(itertools.combinations(range(cap + 1), d))
    for x, prob in rows:
        assert prob == pi_label(x, q)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_positions_of_keys_equal_prob_positions(q, d):
    # the simulate x table: scattered keys, sharing some sites and not
    # others, in no particular order, with c near and far from the keys
    rng = random.Random(d * 10 + int(q * 10))
    for c in (0.0, 0.37, -3.2, 17.5, 40.0, -40.0):
        p = AsepParams(q=q, c=c)
        keys = [tuple(sorted(rng.sample(range(-45, 46), d))) for _ in range(30)]
        keys += keys[:3]  # a key asked twice gets the same float twice
        got = list(prob_positions_of(keys, p, d))
        assert len(got) == len(keys)
        for key, prob in zip(keys, got):
            assert prob == prob_positions(key, p) == frozen_prob_positions(key, p, d)
    assert list(prob_positions_of([], p, d)) == []


# ------------------------------------------------------- exact DP tables


def box_count(n, max_parts, max_size):
    return sum(
        1 for lam in frozen_enumerate_partitions(n)
        if len(lam) <= max_parts and (not lam or lam[0] <= max_size)
    )


@pytest.mark.parametrize("k", range(0, 7))
def test_bounded_counts_table_equals_count_bounded(k):
    for max_size in range(0, 9):
        n_max = k * max_size + 3
        table = bounded_counts(n_max, k, max_size)
        assert len(table) == n_max + 1
        for n, got in enumerate(table):
            assert got == count_bounded(n, k, max_size)
            if n <= 12:
                assert got == box_count(n, k, max_size)


@pytest.mark.parametrize("k", range(0, 6))
def test_distinct_bounded_counts_table(k):
    for m in range(0, 9):
        n_max = m * (m + 1) // 2 + 2
        table = distinct_bounded_counts(n_max, k, m)
        for n, got in enumerate(table):
            assert got == count_distinct_bounded(n, k, m)
            brute = sum(
                1 for parts in itertools.combinations(range(1, m + 1), k)
                if sum(parts) == n
            )
            assert got == brute


def test_qbinomial_row_equals_frozen_triangle():
    for m in range(0, 13):
        row = qbinomial_row(m)
        assert len(row) == m + 1
        for k in range(0, m + 1):
            assert row[k] == frozen_qbinomial_poly(m, k)


def test_qbinomial_row_rejects_negative_m():
    with pytest.raises(ValueError):
        qbinomial_row(-1)


# ------------------------------------------------------------ partitions


def test_enumeration_order_equals_frozen_recursion():
    for n in range(0, 36):
        assert enumerate_partitions(n) == frozen_enumerate_partitions(n)


def test_durfee_decompose_equals_frozen_copy():
    for n in range(0, 19):
        for lam in frozen_enumerate_partitions(n):
            for n_offset in range(-5, 6):
                assert (durfee_decompose(lam, n_offset)
                        == frozen_durfee_decompose(lam, n_offset))


def test_reassemble_equals_frozen_copy_on_any_fields():
    # hand-built decompositions too: nonpositive right rows, more rows than
    # k, negative sides and below parts of any size
    for n_offset, k in itertools.product(range(-3, 4), range(0, 4)):
        for right in itertools.chain.from_iterable(
                itertools.product(range(-3, 4), repeat=r) for r in range(4)):
            for below in ((), (1,), (5, 2, 2), (0, -1)):
                assert (_reassemble(n_offset, k, right, below)
                        == frozen_reassemble(n_offset, k, right, below))


def test_durfee_decompose_still_validates():
    with pytest.raises(ValueError):
        durfee_decompose((1, 2), 0)
    with pytest.raises(ValueError):
        durfee_decompose((2, 0), 0)


# ------------------------------------------------------------ suite power


def test_euler_suite_catches_one_bounded_count_off_by_one(monkeypatch):
    assert verify.verify_euler_exact(12, 5)
    real = verify.bounded_counts

    def bumped(n_max, max_parts, max_size):
        table = real(n_max, max_parts, max_size)
        if max_parts == 3:
            table[4] += 1
        return table

    monkeypatch.setattr(verify, "bounded_counts", bumped)
    assert not verify.verify_euler_exact(12, 5)


def test_durfee_suite_catches_one_dropped_below_part(monkeypatch):
    assert verify.verify_durfee_exact(10, [-1]) == [True]
    real = verify._decompose_valid
    planted = []

    def drop_once(lam, n_offset):
        k, right, below = real(lam, n_offset)
        if below and not planted:
            planted.append(lam)
            below = below[:-1]
        return k, right, below

    monkeypatch.setattr(verify, "_decompose_valid", drop_once)
    assert verify.verify_durfee_exact(10, [-1]) == [False]
    assert planted


def test_qbinomial_suite_catches_one_bumped_row_coefficient(monkeypatch):
    assert verify.verify_qbinomial_exact(7)
    real = verify.qbinomial_row

    def bumped(m):
        row = real(m)
        coeffs = list(row[3].coeffs)
        coeffs[2] += 1
        row[3] = IntPoly(coeffs)
        return row

    monkeypatch.setattr(verify, "qbinomial_row", bumped)
    assert not verify.verify_qbinomial_exact(7)


def test_durfee_suite_catches_one_bumped_series_coefficient(monkeypatch):
    assert verify.verify_durfee_exact(10, [0]) == [True]
    real = verify.series_bounded_parts

    def bumped(max_size, N):
        series = real(max_size, N)
        if max_size == 2:
            coeffs = list(series.coeffs)
            coeffs[5] += 1
            series = IntPoly(coeffs)
        return series

    monkeypatch.setattr(verify, "series_bounded_parts", bumped)
    assert verify.verify_durfee_exact(10, [0]) == [False]


def test_euler_suite_catches_one_bumped_distinct_count(monkeypatch):
    assert verify.verify_euler_exact(12, 5)
    real = verify.distinct_bounded_counts

    def bumped(n_max, k, m):
        table = real(n_max, k, m)
        if k == 3:
            table[7] += 1
        return table

    monkeypatch.setattr(verify, "distinct_bounded_counts", bumped)
    assert not verify.verify_euler_exact(12, 5)
