"""Tests for the exact partition engine.

Counting oracles are exhaustive enumeration (n small) and independent DP
recursions; the Figure-style Durfee examples were decomposed by hand.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aseplab.partitions import (
    SizeLimit,
    _reassemble,
    as_partition,
    count_bounded,
    count_distinct_bounded,
    count_distinct_exactly_k,
    count_partitions,
    durfee_decompose,
    enumerate_partitions,
    series_bounded_parts,
    series_partition_gf,
)
from aseplab.qseries import IntPoly, qbinomial_poly


def window_state_to_partition(bits, k):
    """Partition of the total left displacement of k particles in a finite
    window, relative to the packed state with all k at the right end.

    bits[j] is the occupancy of the j-th window site, left to right.  The
    i-th particle from the left at (1-indexed) position p_i contributes the
    part (width - k + i) - p_i; zero parts are dropped.
    """
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    width = len(bits)
    positions = [j + 1 for j, b in enumerate(bits) if b == 1]
    if len(positions) != k:
        raise ValueError(f"window holds {len(positions)} particles, expected {k}")
    parts = [(width - k + i + 1) - p for i, p in enumerate(positions)]
    return as_partition([d for d in parts if d > 0])


def test_enumerate_small():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_order_is_lex_decreasing():
    for n in (6, 9):
        ps = enumerate_partitions(n)
        assert ps == sorted(ps, reverse=True)
        assert len(set(ps)) == len(ps)


def test_enumerate_count_matches_gf():
    gf = series_partition_gf(30)
    for n in (5, 12, 20, 30):
        assert len(enumerate_partitions(n)) == gf.coeff(n)
    assert gf.coeff(30) == 5604


def test_enumerate_contains_running_example():
    assert (8, 8, 7, 3, 2, 1, 1) in enumerate_partitions(30)


def test_enumerate_cap():
    with pytest.raises(SizeLimit):
        enumerate_partitions(61)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))


def test_count_bounded_basics():
    assert count_bounded(0, 0, 0) == 1
    assert count_bounded(5, 0, 7) == 0
    assert count_bounded(4, 2, 2) == 1  # only 2+2


def test_count_bounded_negative_arguments():
    # the q-binomial convention: a negative bound counts nothing, the empty
    # partition included, as count_distinct_bounded does
    assert count_bounded(2, -1, 3) == 0
    assert count_bounded(0, 0, -1) == 0
    assert count_bounded(0, 0, -1) == count_distinct_bounded(0, 0, -1)


def test_count_bounded_vs_enumeration():
    for n in range(0, 13):
        ps = enumerate_partitions(n)
        for k in (0, 1, 2, 3, 5):
            for m in (0, 1, 2, 4, 7):
                want = sum(
                    1 for p in ps if len(p) <= k and all(x <= m for x in p)
                )
                assert count_bounded(n, k, m) == want


def test_count_bounded_is_qbinomial_coefficient():
    # partitions in a k x m box generate [k+m, k]_q
    for k in (1, 2, 3):
        for m in (1, 2, 4):
            poly = qbinomial_poly(k + m, k)
            for n in range(0, k * m + 1):
                assert count_bounded(n, k, m) == poly.coeff(n)
            assert count_bounded(k * m + 1, k, m) == 0


RUNNING_EXAMPLE = (8, 8, 7, 3, 2, 1, 1)


def test_durfee_running_example_offsets():
    for n_offset, dec in (
            (0, (3, (5, 5, 4), (3, 2, 1, 1))),
            (2, (3, (3, 3, 2), (3, 2, 1, 1))),
            # fifth part of the right partition is 0 and gets dropped
            (-3, (5, (6, 6, 5, 1), (1, 1)))):
        assert durfee_decompose(RUNNING_EXAMPLE, n_offset) == dec
        assert _reassemble(n_offset, *dec) == RUNNING_EXAMPLE


def test_durfee_empty_partition():
    for n_offset in range(-4, 5):
        k, right, below = durfee_decompose((), n_offset)
        assert _reassemble(n_offset, k, right, below) == ()
        assert k == max(-n_offset, 0)


def test_durfee_reassembles_exhaustively():
    # every partition of every n <= 25, offsets -4..4
    for n in range(0, 26):
        for lam in enumerate_partitions(n):
            for n_offset in range(-4, 5):
                k, right, below = durfee_decompose(lam, n_offset)
                assert _reassemble(n_offset, k, right, below) == lam
                assert k >= max(-n_offset, 0)
                assert len(right) <= k
                assert all(x <= n_offset + k for x in below)


@given(
    parts=st.lists(st.integers(min_value=1, max_value=40), max_size=25),
    n_offset=st.integers(min_value=-6, max_value=6),
)
@settings(max_examples=300)
def test_durfee_reassembles_random(parts, n_offset):
    lam = tuple(sorted(parts, reverse=True))
    assert _reassemble(n_offset, *durfee_decompose(lam, n_offset)) == lam


def test_count_distinct_exactly_k_basics():
    assert count_distinct_exactly_k(0, 0) == 1
    assert count_distinct_exactly_k(3, 2) == 1  # 2+1
    assert count_distinct_exactly_k(5, 0) == 0


def test_count_distinct_exactly_k_vs_enumeration():
    for n in range(0, 16):
        ps = enumerate_partitions(n)
        for k in range(0, 6):
            want = sum(1 for p in ps if len(p) == k and len(set(p)) == k)
            assert count_distinct_exactly_k(n, k) == want


def test_count_distinct_exactly_k_staircase_shift():
    # removing the staircase (k, k-1, .., 1) leaves <= k unrestricted parts
    for n in range(0, 31):
        for k in range(0, 7):
            want = count_bounded(n - k * (k + 1) // 2, k, max(n, 1))
            assert count_distinct_exactly_k(n, k) == want


def test_count_distinct_bounded_basics():
    assert count_distinct_bounded(0, 0, 5) == 1
    assert count_distinct_bounded(3, 0, 5) == 0
    assert count_distinct_bounded(5, 2, 4) == 2  # 4+1, 3+2
    # maximal packing m + (m-1) + ... + (m-k+1) is unique
    for k, m in [(3, 5), (4, 6), (2, 9)]:
        n = m * k - k * (k - 1) // 2
        assert count_distinct_bounded(n, k, m) == 1
        assert count_distinct_bounded(n + 1, k, m) == 0


def test_count_distinct_bounded_negative_arguments():
    assert count_distinct_bounded(-1, 1, 3) == 0
    assert count_distinct_bounded(2, -1, 3) == 0


def test_count_distinct_bounded_vs_enumeration():
    for n in range(0, 14):
        ps = enumerate_partitions(n)
        for k in range(0, 5):
            for m in (1, 3, 5, 8):
                want = sum(
                    1
                    for p in ps
                    if len(p) == k and len(set(p)) == k and all(x <= m for x in p)
                )
                assert count_distinct_bounded(n, k, m) == want


def test_count_distinct_bounded_vs_qbinomial():
    # staircase shift puts the count inside a k x (m-k) box
    for m in range(0, 13):
        for k in range(0, m + 1):
            poly = qbinomial_poly(m, k)
            for n in range(0, m * k + 1):
                shifted = n - k * (k + 1) // 2
                want = (
                    poly.coeff(shifted) if 0 <= shifted <= poly.degree else 0
                )
                assert count_distinct_bounded(n, k, m) == want


def test_series_partition_gf_values():
    gf = series_partition_gf(30)
    assert gf.coeff(0) == 1
    assert gf.coeff(4) == 5
    assert gf.coeff(30) == 5604
    assert count_partitions(10) == 42


def test_series_bounded_parts_matches_dp():
    N = 20
    for m in (1, 2, 3, 6):
        s = series_bounded_parts(m, N)
        for n in range(N + 1):
            assert s.coeff(n) == count_bounded(n, n, m)


def test_rectangle_sum_identity_intpoly():
    # p(N) recovered by summing over rectangle decompositions:
    # every partition splits as a (n+k) x k rectangle, a partition with
    # <= k parts to its right, and one with parts <= n+k below; the pieces
    # are exact up to q^N, so the sum is compared there
    N = 40
    p = series_partition_gf(N)
    for n_offset in range(-3, 4):
        total = IntPoly()
        k = max(-n_offset, 0)
        while k * (n_offset + k) <= N:
            right = series_bounded_parts(k, N)  # <= k parts, by conjugation
            below = series_bounded_parts(n_offset + k, N)
            total = total + (right * below).shift(k * (n_offset + k))
            k += 1
        assert IntPoly(total.coeffs[:N + 1]) == p, n_offset


def test_window_state_to_partition_examples():
    assert window_state_to_partition([0, 0, 1], 1) == ()
    assert window_state_to_partition([1, 0, 0], 1) == (2,)
    assert window_state_to_partition([1, 0, 1, 0], 2) == (2, 1)
    with pytest.raises(ValueError):
        window_state_to_partition([1, 0, 0], 2)


def test_window_bijection_generating_function():
    # displacement sizes over all k-particle windows of width w generate
    # the q-binomial polynomial [w k]_q exactly
    for w in range(0, 11):
        for k in range(0, w + 1):
            poly = qbinomial_poly(w, k)
            counts = {}
            for occupied in itertools.combinations(range(w), k):
                bits = [0] * w
                for j in occupied:
                    bits[j] = 1
                s = sum(window_state_to_partition(bits, k))
                counts[s] = counts.get(s, 0) + 1
            for n in range(0, poly.degree + 1 if poly.coeffs else 1):
                assert counts.get(n, 0) == poly.coeff(n)
            assert sum(counts.values()) == poly(1.0)


def test_durfee_reassemble_pads_zero_parts():
    assert _reassemble(-3, 5, (6, 6, 5, 1), (1, 1)) == RUNNING_EXAMPLE
