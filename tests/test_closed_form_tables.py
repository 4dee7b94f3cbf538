"""Table-at-a-time closed forms against their per-element definitions.

The dist grids (`prob_positions_table`, `pi_label_table`) must give the
same floats as `prob_positions` / `pi_label` row by row, and the positions
table the same floats as a frozen copy of the earlier per-tuple evaluation.
The DP tables behind the exact suites (`bounded_counts`,
`distinct_bounded_counts`, `qbinomial_row`) must hold the per-element counts
for every total.  The scan-based `durfee_decompose` and the iterative
`enumerate_partitions` must agree with frozen copies of their earlier
definitions.  The power tests plant one error in what an exact suite is
handed and require the suite to fail.
"""

import itertools
import math

import pytest

from aseplab import verify
from aseplab.blocking import AsepParams, _log1p_qpow
from aseplab.coupling import (
    pi_label,
    pi_label_table,
    prob_positions,
    prob_positions_table,
)
from aseplab.partitions import (
    as_partition,
    bounded_counts,
    count_bounded,
    count_distinct_bounded,
    distinct_bounded_counts,
    durfee_decompose,
    enumerate_partitions,
)
from aseplab.qseries import IntPoly, qbinomial_row


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
        assert prob == prob_positions(m, p, d) == frozen_prob_positions(m, p, d)


def test_positions_table_far_from_c():
    # q^{c+d-j-m} is huge here; the log terms take the other branch
    p = AsepParams(q=0.2, c=0.37)
    for m, prob in prob_positions_table(range(-400, -395), p, 2):
        assert prob == prob_positions(m, p, 2) == frozen_prob_positions(m, p, 2)


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
    assert row == (sites, prob_positions(sites, p, d))


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
                dec = durfee_decompose(lam, n_offset)
                assert (dec.k, dec.right, dec.below) == frozen_durfee_decompose(
                    lam, n_offset
                )
                assert dec.n_offset == n_offset


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
    assert verify.verify_durfee_exact(10, -1)
    real = verify.durfee_decompose
    planted = []

    def drop_once(lam, n_offset):
        dec = real(lam, n_offset)
        if dec.below and not planted:
            planted.append(lam)
            return dec._replace(below=dec.below[:-1])
        return dec

    monkeypatch.setattr(verify, "durfee_decompose", drop_once)
    assert not verify.verify_durfee_exact(10, -1)
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
    assert verify.verify_durfee_exact(10, 0)
    real = verify.series_bounded_parts

    def bumped(max_size, N):
        series = real(max_size, N)
        if max_size == 2:
            coeffs = list(series.coeffs)
            coeffs[5] += 1
            series = IntPoly(coeffs)
        return series

    monkeypatch.setattr(verify, "series_bounded_parts", bumped)
    assert not verify.verify_durfee_exact(10, 0)


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
