"""Oracle tests for the q-series kernel.

Expected values were produced independently of the implementation: by hand
for the small closed forms, and by exact Fraction arithmetic for truncated
infinite products.
"""

from fractions import Fraction
import math

import numpy as np
import pytest

from aseplab import qseries
from aseplab.qseries import (
    IntPoly,
    TruncationNotConverged,
    jacobi_triple_product,
    log_neg_pochhammer_infinite,
    log_qbinomial,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_inversion,
    q_pascal_check,
    qbinomial,
    qbinomial_poly,
)


def frac_pochhammer_infinite(a, q, terms=120):
    """Truncated (a;q)_infty in exact rational arithmetic.

    Keep q a small rational with q <= 1/2 so the truncation tail is far below
    double precision and the exact denominators stay manageable.
    """
    out = Fraction(1)
    t = Fraction(a)
    for _ in range(terms):
        out *= 1 - t
        t *= Fraction(q)
    return float(out)


def test_qparam_rejects_boundary():
    with pytest.raises(ValueError):
        pochhammer_finite(0.5, 0.0, 1)
    with pytest.raises(ValueError):
        pochhammer_finite(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        pochhammer_finite(0.5, 1.3, 1)


def test_pochhammer_finite_hand_values():
    # (1/2;1/2)_3 = (1/2)(3/4)(7/8)
    assert pochhammer_finite(0.5, 0.5, 3) == pytest.approx(0.328125, rel=0, abs=0)
    assert pochhammer_finite(0.3, 0.7, 0) == 1.0
    # (-1;1/2)_2 = 2 * 3/2
    assert pochhammer_finite(-1.0, 0.5, 2) == pytest.approx(3.0)


def test_pochhammer_finite_negative_n_rejected():
    with pytest.raises(ValueError):
        pochhammer_finite(0.5, 0.5, -1)


def test_pochhammer_infinite_matches_fraction_oracle():
    cases = [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(-1), Fraction(1, 2)),
        (Fraction(9, 10), Fraction(3, 10)),
        (Fraction(-2), Fraction(1, 4)),
        (Fraction(1, 10), Fraction(2, 5)),
    ]
    for a, q in cases:
        want = frac_pochhammer_infinite(a, q)
        got, bound = pochhammer_infinite(float(a), float(q))
        assert bound < 1e-12
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_pochhammer_infinite_slow_q_self_consistent():
    # at q = 0.9 check the peel off identity (a;q)_infty = (1-a)(aq;q)_infty
    # instead of an exact rational oracle (the tail needs hundreds of terms)
    for a in (0.5, -1.0, 0.37):
        full, _ = pochhammer_infinite(a, 0.9)
        tail, _ = pochhammer_infinite(a * 0.9, 0.9)
        np.testing.assert_allclose(full, (1.0 - a) * tail, rtol=1e-12)


def test_pochhammer_infinite_split_factor():
    # (-1;q)_infty = 2 (-q;q)_infty, peeling the i=0 factor
    got, _ = pochhammer_infinite(-1.0, 0.5)
    tail, _ = pochhammer_infinite(-0.5, 0.5)
    np.testing.assert_allclose(got, 2.0 * tail, rtol=1e-13)


def test_pochhammer_infinite_tail_bound_honest(monkeypatch):
    # with a loose eps both products stop early, and each value differs
    # from the tight one by less than its reported bound
    v_tight, _ = pochhammer_infinite(0.7, 0.5)
    lv_tight, _ = log_neg_pochhammer_infinite(-1.7, 0.5)
    monkeypatch.setattr(qseries, "SERIES_EPS", 1e-6)
    v_loose, b_loose = pochhammer_infinite(0.7, 0.5)
    lv_loose, lb_loose = log_neg_pochhammer_infinite(-1.7, 0.5)
    assert v_loose != v_tight and lv_loose != lv_tight
    assert abs(v_loose - v_tight) <= b_loose * abs(v_tight)
    assert (abs(math.exp(lv_loose) - math.exp(lv_tight))
            <= lb_loose * math.exp(lv_tight))


def test_pochhammer_infinite_not_converged(monkeypatch):
    monkeypatch.setattr(qseries, "SERIES_EPS", 1e-30)
    monkeypatch.setattr(qseries, "SERIES_MAX_TERMS", 3)
    with pytest.raises(TruncationNotConverged):
        pochhammer_infinite(0.5, 0.99)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.99])
@pytest.mark.parametrize("a", [0.0, -0.0])
def test_pochhammer_infinite_at_zero_is_exactly_one(a, q):
    # verify --identity euler --z 0 reaches a = -0.0
    value, bound = pochhammer_infinite(a, q)
    assert (value, bound) == (1.0, 0.0)
    assert math.copysign(1.0, value) == 1.0 and math.copysign(1.0, bound) == 1.0


def test_log_neg_pochhammer_infinite_consistent():
    for x, q in [(0.0, 0.5), (2.5, 0.5), (-3.0, 0.5), (-1.7, 0.9), (4.0, 0.1)]:
        lv, bound = log_neg_pochhammer_infinite(x, q)
        direct, _ = pochhammer_infinite(-(q ** x), q)
        assert bound < 1e-12
        np.testing.assert_allclose(math.exp(lv), direct, rtol=1e-12)


def test_qbinomial_hand_value():
    # [4 2]_{1/2} = (15/16)(7/8) / ((1/2)(3/4))
    assert qbinomial(4, 2, 0.5) == pytest.approx(2.1875, rel=1e-15)


def test_qbinomial_out_of_range_is_zero():
    assert qbinomial(4, -1, 0.5) == 0.0
    assert qbinomial(4, 5, 0.5) == 0.0
    assert qbinomial(0, 0, 0.5) == 1.0


def test_log_qbinomial_matches():
    for m in range(0, 14):
        for k in range(0, m + 1):
            np.testing.assert_allclose(
                math.exp(log_qbinomial(m, k, 0.5)),
                qbinomial(m, k, 0.5),
                rtol=1e-13,
            )


def test_qbinomial_poly_hand_coeffs():
    # [4 2]_q = 1 + q + 2q^2 + q^3 + q^4
    assert qbinomial_poly(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert qbinomial_poly(3, 1).coeffs == (1, 1, 1)
    assert qbinomial_poly(5, 0).coeffs == (1,)


def test_qbinomial_poly_matches_float():
    for m in range(0, 13):
        for k in range(0, m + 1):
            for q in (0.1, 0.5, 0.9):
                np.testing.assert_allclose(
                    qbinomial_poly(m, k)(q), qbinomial(m, k, q), rtol=1e-12
                )


def test_qbinomial_poly_symmetry():
    for m in range(0, 13):
        for k in range(0, m + 1):
            assert qbinomial_poly(m, k) == qbinomial_poly(m, m - k)


def test_q_pascal_exact():
    # each row m = 1..12 is checked at every k = 0..m
    for m in range(1, 13):
        assert q_pascal_check(m)


@pytest.mark.parametrize("k", [0, 3, 7])
def test_q_pascal_catches_one_bumped_coefficient_at_every_k(monkeypatch, k):
    real = qseries.qbinomial_row

    def bumped(m):
        row = real(m)
        if m == 7:
            coeffs = list(row[k].coeffs)
            coeffs[-1] += 1
            row[k] = IntPoly(coeffs)
        return row

    monkeypatch.setattr(qseries, "qbinomial_row", bumped)
    # row 7 is checked against row 6, and row 8 against row 7
    assert [q_pascal_check(m) for m in range(1, 10)] == [
        m not in (7, 8) for m in range(1, 10)]


def test_q_pascal_rejects_m_below_1():
    with pytest.raises(ValueError):
        q_pascal_check(0)


def test_intpoly_arithmetic():
    p = IntPoly((1, 2))
    r = IntPoly((0, 1))
    assert (p * r).coeffs == (0, 1, 2)
    assert (p + r).coeffs == (1, 3)
    assert p.shift(2).coeffs == (0, 0, 1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert p(2.0) == 5.0


def test_intpoly_zero_products_and_shift():
    p = IntPoly((1, 2))
    assert IntPoly() * p == IntPoly()
    assert p * IntPoly() == IntPoly()
    assert IntPoly() * IntPoly() == IntPoly()
    assert IntPoly().shift(3) == IntPoly()


def test_pochhammer_inversion_grid():
    for q in (0.1, 0.5, 0.9):
        for k in range(0, 21):
            lhs, rhs = pochhammer_inversion(k, q)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def shifted_pochhammer_ratio(c, d, j, m_j, m_prev, q):
    """Both sides of the shifted Pochhammer ratio used when telescoping the
    second class position law:

      (-q^{c+d+2-j-m_j};q)_{mhat} / (-q^{c+d-j-m_j};q)_infty
        = 1 / ((1+q^{c+d-j-m_j})(1+q^{c+d+1-j-m_j})(-q^{c+d-(j-1)-m_prev};q)_infty)

    with mhat = m_j - m_prev - 1.
    """
    assert 2 <= j <= d and m_prev < m_j
    mhat = m_j - m_prev - 1

    num = pochhammer_finite(-(q ** (c + d + 2 - j - m_j)), q, mhat)
    den, _ = pochhammer_infinite(-(q ** (c + d - j - m_j)), q)
    lhs = num / den

    f1 = 1.0 + q ** (c + d - j - m_j)
    f2 = 1.0 + q ** (c + d + 1 - j - m_j)
    tail, _ = pochhammer_infinite(-(q ** (c + d - (j - 1) - m_prev)), q)
    rhs = 1.0 / (f1 * f2 * tail)
    return lhs, rhs


def test_shifted_pochhammer_ratio_points():
    for c, d, j, m_j, m_prev, q in [
        (0.0, 3, 2, 4, 1, 0.5),
        (1.5, 2, 2, 0, -5, 0.3),
        (-2.0, 4, 4, 7, 2, 0.9),
        (0.7, 3, 3, -1, -4, 0.5),
    ]:
        lhs, rhs = shifted_pochhammer_ratio(c, d, j, m_j, m_prev, q)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-11)


def test_jacobi_triple_product_points():
    for z, q in [(1.0, 0.5), (2.0, 0.5), (0.7, 0.8), (-0.5, 0.3), (4.0, 0.1)]:
        s, p = jacobi_triple_product(z, q)
        np.testing.assert_allclose(s, p, rtol=1e-11)


def test_jacobi_theta_sum_not_converged(monkeypatch):
    monkeypatch.setattr(qseries, "SERIES_MAX_TERMS", 3)
    with pytest.raises(TruncationNotConverged, match="triple product sum"):
        jacobi_triple_product(1.0, 0.9)


def test_jacobi_triple_product_rejects_zero():
    with pytest.raises(ValueError):
        jacobi_triple_product(0.0, 0.5)
