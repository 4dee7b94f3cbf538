"""Tests for the blocking-measure evaluators and sampler.

Oracles: direct products/sums evaluated with plain floats over ranges wide
enough that cut tails sit far below the comparison tolerance, a site-by-site
convolution DP for the left-particle law and for the law of N (the latter
also in exact rational arithmetic, as is the window law), the paper's
Durfee route for the law of N, and full pattern enumeration for windows.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
import math

import numpy as np
import pytest

from aseplab import blocking
from aseplab.blocking import (
    AsepParams,
    CountDist,
    RelationCheck,
    WindowState,
    WindowTooNarrow,
    brute_force_window_law,
    draw_window,
    marginal,
    prob_N,
    prob_N_at,
    prob_N_table,
    prob_left_particles,
    prob_right_holes,
    prob_window_particles,
    sample_blocking,
    shift_relation_checks,
    site_profile,
)
from aseplab.partitions import SizeLimit, enumerate_partitions
from aseplab.qseries import (
    SERIES_EPS,
    TruncationNotConverged,
    jacobi_triple_product,
    log_qbinomial,
    pochhammer_finite,
    pochhammer_infinite,
)


def test_params_validation():
    with pytest.raises(ValueError):
        AsepParams(q=1.0)
    with pytest.raises(ValueError):
        AsepParams(q=0.0, c=1.0)
    with pytest.raises(ValueError):
        AsepParams(1.5)
    assert AsepParams(0.5).with_c(2.5) == AsepParams(q=0.5, c=2.5)


def test_params_rebuilt_through_replace_or_make_check_q():
    with pytest.raises(ValueError):
        AsepParams(0.5)._replace(q=2.0)
    with pytest.raises(ValueError):
        AsepParams._make((2.0, 0.0))
    assert AsepParams._make((0.25, 1.0)) == AsepParams(0.25, 1.0)


def test_marginal_hand_values():
    p = AsepParams(0.5, 0.0)
    assert marginal(0, 1, p) == pytest.approx(0.5, rel=1e-15)
    # site 3 is deep on the full side: 1/(1+q^3) = 8/9
    assert marginal(3, 1, p) == pytest.approx(8.0 / 9.0, rel=1e-14)
    assert marginal(-3, 1, p) == pytest.approx(1.0 / 9.0, rel=1e-14)
    # the centered site is a fair coin for any q, including non-integer c
    assert marginal(3, 0, AsepParams(0.3, 3.0)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        marginal(0, 2, p)


def test_marginal_pair_sums_to_one():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q, c)
            for i in (-30, -3, 0, 1, 17):
                assert marginal(i, 0, p) + marginal(i, 1, p) == pytest.approx(
                    1.0, rel=1e-14
                )


def test_marginal_within_its_budget_of_decimal_reference():
    # 1/(1 + q^(i-c)) from the float inputs in 60-digit decimal, q^(-c)
    # taken once per (q, c).  The error grows with u = (i-c) log q, since
    # exp(u) magnifies the rounding of log q by |u|: measured, it stays
    # within 2 (1 + |u|) ulp on every cell (worst ratio 1.95 at q = 0.3,
    # c = -20.3, site -56), and the worst absolute error, 209 ulp, sits at
    # q = 0.05, c = 10.1, site -55, where |u| = 195 and the value is 2e-85
    with localcontext() as ctx:
        ctx.prec = 60
        for q in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
            dq = Decimal(q)
            for c in (0.0, 0.25, -0.5, 0.37, -3.7, 1.5, 10.1, -20.3):
                p = AsepParams(q, c)
                scale = (-Decimal(c) * dq.ln()).exp()
                for i in range(-60, 61):
                    want = 1 / (1 + dq**i * scale)
                    got = marginal(i, 1, p)
                    budget = 2 * (1 + abs((i - c) * math.log(q)))
                    ulp = Decimal(math.ulp(float(want)))
                    assert abs(Decimal(got) - want) <= Decimal(budget) * ulp, (
                        q, c, i)


def test_window_state_conserved_N():
    # ground state on [-2,3]: empty then full from site 1 on
    assert WindowState(-2, 3, [0, 0, 0, 1, 1, 1]).conserved_N() == 0
    # a hole at site 1
    assert WindowState(-2, 3, [0, 0, 0, 0, 1, 1]).conserved_N() == 1
    # a particle at site 0
    assert WindowState(-2, 3, [0, 0, 1, 1, 1, 1]).conserved_N() == -1
    # window fully right of 1: site 1 is an outside hole
    assert WindowState(2, 5, [1, 1, 1, 1]).conserved_N() == 1
    # window fully left of 0: sites -1, 0 are outside particles
    assert WindowState(-5, -2, [0, 0, 0, 0]).conserved_N() == -2


def test_window_state_outside_convention():
    ws = WindowState(-2, 3, [0, 0, 0, 1, 1, 1])
    assert ws.occupancy(-10) == 0
    assert ws.occupancy(10) == 1
    assert ws.occupancy(-2) == 0
    assert ws.particle_count() == 3
    assert ws.width == 6


def test_window_state_validation():
    with pytest.raises(ValueError):
        WindowState(3, 2, [])
    with pytest.raises(ValueError):
        WindowState(0, 2, [1, 0])
    with pytest.raises(ValueError):
        WindowState(0, 1, [2, 0])


def test_sample_blocking_deterministic():
    p = AsepParams(0.5, 0.0)
    a = sample_blocking((-45, 45), p, np.random.default_rng(42))
    b = sample_blocking((-45, 45), p, np.random.default_rng(42))
    assert np.array_equal(a.bits, b.bits)
    assert (a.lo, a.hi) == (-45, 45)


def test_sample_blocking_rejects_narrow_window():
    p = AsepParams(0.5, 0.0)
    with pytest.raises(WindowTooNarrow):
        sample_blocking((-10, 10), p, np.random.default_rng(0))
    # loosening eps admits the same window
    s = sample_blocking((-10, 10), p, np.random.default_rng(0), eps=1e-2)
    assert s.width == 21


def test_sample_blocking_near_ground_state_at_small_q():
    p = AsepParams(0.01, 0.0)
    s = sample_blocking((-10, 10), p, np.random.default_rng(7))
    want = (s.sites >= 1).astype(np.uint8)
    offsite = s.sites != 0
    # away from the center site the state is ground with prob 1-O(q)
    assert (s.bits[offsite] == want[offsite]).mean() >= 0.9


class UniformStub:
    """rng stand-in: random(n) returns the given draws and records n."""

    def __init__(self, draws):
        self.draws, self.calls = draws, []

    def random(self, n):
        self.calls.append(n)
        return self.draws


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("c", [0.0, 0.37, -2.5])
def test_sample_blocking_occupies_exactly_below_its_threshold(q, c):
    # site i is occupied iff its draw r_i < marginal(i, 1, p), the law every
    # closed form reads: a draw at the threshold leaves the site empty, one
    # ulp below fills it
    p = AsepParams(q, c)
    half = math.ceil(math.log(1e-6) / math.log(q)) + 1
    lo, hi = math.floor(c) - half, math.ceil(c) + half
    thr = np.array([marginal(i, 1, p) for i in range(lo, hi + 1)])
    assert (thr > 0).all()
    below = np.nextafter(thr, 0.0)
    n = hi - lo + 1
    for fill in (np.zeros(n, bool), np.ones(n, bool), np.arange(n) % 3 == 1):
        rng = UniformStub(np.where(fill, below, thr))
        s = sample_blocking((lo, hi), p, rng, eps=1e-6)
        assert rng.calls == [n]
        assert s.bits.tolist() == fill.astype(np.uint8).tolist()


def test_sample_blocking_occupancy_statistics():
    p = AsepParams(0.5, 0.0)
    rng = np.random.default_rng(123)
    n = 20_000
    # sample_blocking is draw_window against site_profile, so the windows
    # are drawn against one profile; a twin rng shows the draws are its own
    profile = site_profile((-45, 45), p)
    twin = np.random.default_rng(123)
    hits_p2 = 0
    hits_m2 = 0
    for i in range(n):
        s = draw_window((-45, 45), profile, rng)
        if i < 3:
            want = sample_blocking((-45, 45), p, twin)
            assert s.bits.tolist() == want.bits.tolist()
        hits_p2 += s.occupancy(2)
        hits_m2 += s.occupancy(-2)
    want_p2 = marginal(2, 1, p)  # 0.8
    want_m2 = marginal(-2, 1, p)  # 0.2
    sigma = math.sqrt(want_p2 * (1 - want_p2) / n)
    assert abs(hits_p2 / n - want_p2) < 3 * sigma
    assert abs(hits_m2 / n - want_m2) < 3 * sigma


def test_prob_N_recursion_ratio():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q, c)
            for n in range(-20, 21):
                ratio = prob_N(n, p) / prob_N(n - 1, p)
                np.testing.assert_allclose(ratio, q ** (n - c), rtol=1e-10)


def test_prob_N_normalizes():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 2.0):
            p = AsepParams(q, c)
            total = sum(prob_N(n, p) for n in range(-40, 41))
            np.testing.assert_allclose(total, 1.0, rtol=1e-10)


def test_prob_N_zero_against_direct_sum():
    p = AsepParams(0.5, 0.0)
    norm = sum(0.5 ** (l * (l + 1) / 2) for l in range(-60, 61))
    np.testing.assert_allclose(prob_N(0, p), 1.0 / norm, rtol=1e-12)


def frozen_prob_N(n, p, eps=1e-18, max_terms=100_000):
    """prob_N with its own normalizer loop, stopping on terms below eps
    (by default two orders below SERIES_EPS), the exponents taken relative
    to the center as in prob_N_table."""
    center = round(p.c - 0.5)

    def expo(l):
        j = l - center
        return j * (j + 1) / 2 + j * (center - p.c)

    total = 0.0
    for direction in (1, -1):
        l = center if direction == 1 else center - 1
        for _ in range(max_terms):
            term = p.q ** expo(l)
            total += term
            if term < eps:
                break
            l += direction
        else:
            raise TruncationNotConverged("normalizer of the N law")
    return p.q ** expo(n) / total


def test_prob_N_default_policy_matches_frozen_threshold():
    # the largest term is 1, so every term below eps = 1e-16 is under half
    # an ulp of the running total and stopping there changes no bit
    for q in (0.1, 0.5, 0.9, 0.99, 0.999):
        for c in (-40.0, -3.3, 0.0, 0.37, 17.25):
            p = AsepParams(q, c)
            for n in range(round(c) - 10, round(c) + 11):
                assert prob_N(n, p) == frozen_prob_N(n, p), (q, c, n)


def test_prob_N_table_sums_the_normalizer_once():
    # every row divides by the one normalizer the per-n evaluation sums
    for q, c in ((0.5, 0.37), (0.99, -3.3), (0.999, 17.25)):
        p = AsepParams(q, c)
        ns = range(round(c) - 12, round(c) + 13)
        assert prob_N_table(ns, p) == [frozen_prob_N(n, p) for n in ns]


def decimal_prob_N_table(ns, q, c):
    """prob_N_table from the float inputs q and c in 60-digit decimal
    arithmetic, the normalizer summed until its terms fall below 1e-75."""
    with localcontext() as ctx:
        ctx.prec = 60
        center = round(c - 0.5)  # any integer center gives the same law
        offset = center - Decimal(c)
        lq = Decimal(q).ln()

        def weight(l):
            j = l - center
            return ((j * (j + 1) // 2 + j * offset) * lq).exp()

        total = Decimal(0)
        for l, step in ((center, 1), (center - 1, -1)):
            while True:
                term = weight(l)
                total += term
                if term < Decimal("1e-75"):
                    break
                l += step
        return [weight(n) / total for n in ns]


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_prob_N_within_25_ulp_of_decimal_reference(q):
    # 13 rows around each c; the worst cell measured 23.7 ulp (q = 0.1,
    # c = -3.3), where ln q magnifies the rounding of the exponent.  Taken
    # in absolute terms, l(l+1)/2 - lc cancels and the law loses every
    # digit at large |c|.
    for c in (0.37, -3.3, 17.25, -40.5, 1000.1, -12345.678, 1e6 + 0.37,
              2.0**30 + 0.375, -1e8 + 0.37, 1e8 + 0.37):
        ns = range(round(c) - 6, round(c) + 7)
        got = prob_N_table(ns, AsepParams(q, c))
        for n, g, want in zip(ns, got, decimal_prob_N_table(ns, q, c)):
            ulp = Decimal(math.ulp(float(want)))
            assert abs(Decimal(g) - want) <= 25 * ulp, (c, n)


def test_prob_N_stops_on_policy_eps(monkeypatch):
    p = AsepParams(0.9, 0.37)
    tight = prob_N(0, p)
    monkeypatch.setattr(blocking, "SERIES_EPS", 1e-3)
    loose = prob_N(0, p)
    assert loose != tight
    # dropping terms below 1e-3 of the largest one makes the normalizer
    # smaller, so the probability larger
    assert tight < loose < tight * (1 + 1e-2)
    assert loose == frozen_prob_N(0, p, eps=1e-3)


def test_prob_N_normalizer_not_converged(monkeypatch):
    monkeypatch.setattr(blocking, "SERIES_MAX_TERMS", 5)
    with pytest.raises(TruncationNotConverged, match="normalizer of the N law"):
        prob_N(0, AsepParams(0.99, 0.0))


def test_prob_N_at_shifts():
    p = AsepParams(0.5, 1.0)
    for n in range(-10, 11):
        assert prob_N_at(0, n, p) == prob_N(n, p)
        assert prob_N_at(1, n, p) == prob_N(n + 1, p)
    total = sum(prob_N_at(3, n, p) for n in range(-40, 41))
    np.testing.assert_allclose(total, 1.0, rtol=1e-10)


# (q, c, L): the law of N against the product measure, with the half-width
# L of the convolution window
N_CASES = [(0.5, 0.0, 60), (0.5, 0.37, 60), (0.9, -1.3, 400), (0.2, 2.5, 40)]


def n_near(c):
    """The n with |n - c| <= 8."""
    return range(math.ceil(c - 8), math.floor(c + 8) + 1)


@pytest.mark.parametrize("q,c,L", N_CASES)
def test_prob_N_against_site_convolution(q, c, L):
    # N = (holes at i > 0) - (particles at i <= 0), convolved site by site
    # over [-L, L].  The window's N differs from the measure's only when a
    # particle sits left of -L or a hole right of L, whose probability is
    # at most sum_{i<-L} marginal(i, 1) + sum_{i>L} marginal(i, 0), and
    # marginal(i, 1) <= q^(c-i), marginal(i, 0) <= q^(i-c)
    p = AsepParams(q, c)
    f = np.zeros(2 * L + 2)  # f[N + L + 1] = P(N) for N in -L-1..L
    f[L + 1] = 1.0
    for i in range(-L, L + 1):
        empty, full = marginal(i, 0, p), marginal(i, 1, p)
        if i <= 0:  # a particle lowers N by one
            g = f * empty
            g[:-1] += f[1:] * full
        else:  # a hole raises it by one
            g = f * full
            g[1:] += f[:-1] * empty
        f = g
    tail = (q ** (c + L + 1) + q ** (L + 1 - c)) / (1 - q)
    ns = n_near(c)
    for n, got in zip(ns, prob_N_table(ns, p)):
        assert abs(got - f[n + L + 1]) <= tail + 1e-15, n


def exact_N_law(q, c, L):
    """{n: P(N = n)} over the sites of [-L, L] alone, N as in
    test_prob_N_against_site_convolution, for a Fraction q and an integer
    c: site i is full with weight b and empty with weight a for
    q^(i-c) = a/b, so the convolution runs in integers over one common
    denominator, and every probability is an exact Fraction."""
    law, denominator = {0: 1}, 1
    for i in range(-L, L + 1):
        u = q ** (i - c)
        empty, full = u.numerator, u.denominator
        # a particle at i <= 0 lowers N by one, a hole at i > 0 raises it
        move, stay, step = (full, empty, -1) if i <= 0 else (empty, full, 1)
        nxt = {}
        for n, w in law.items():
            nxt[n] = nxt.get(n, 0) + stay * w
            nxt[n + step] = nxt.get(n + step, 0) + move * w
        law, denominator = nxt, denominator * (empty + full)
    return {n: Fraction(w, denominator) for n, w in law.items()}


@pytest.mark.parametrize("q,c,L", [(Fraction(1, 2), 0, 100), (Fraction(1, 2), 3, 100),
                                   (Fraction(1, 4), -2, 70), (Fraction(1, 4), 1, 70)])
def test_prob_N_against_exact_site_convolution(q, c, L):
    # q exact in binary and c an integer, so prob_N's inputs hold q and c
    # without rounding.  The window's law differs from the measure's by at
    # most the mass outside it, bounded exactly as in the float convolution
    # above, and L puts that below an ulp of every row.  The rest is
    # prob_N's own rounding: 0.47 ulp at most measured on these cases and
    # at q = 1/8, so two ulps are allowed
    law = exact_N_law(q, c, L)
    outside = (q ** (c + L + 1) + q ** (L + 1 - c)) / (1 - q)
    ns = n_near(c)
    got = prob_N_table(ns, AsepParams(float(q), float(c)))
    assert outside < Fraction(math.ulp(min(got)))
    for n, g in zip(ns, got):
        assert abs(Fraction(g) - law[n]) <= outside + 2 * Fraction(math.ulp(g)), n


def exact_window_law(q, c, first, n):
    """[P(k of the sites first..first+n-1 are full) for k = 0..n], exact,
    for a Fraction q and an integer c, with the site weights of
    exact_N_law convolved in integers over one common denominator."""
    law, denominator = [1], 1
    for i in range(first, first + n):
        u = q ** (i - c)
        empty, full = u.numerator, u.denominator
        nxt = [0] * (len(law) + 1)
        for k, w in enumerate(law):
            nxt[k] += empty * w
            nxt[k + 1] += full * w
        law, denominator = nxt, denominator * (empty + full)
    return [Fraction(w, denominator) for w in law]


# prob_window_particles is exp(A - B + C): A the exponent term, B the
# normalizer sum and C log_qbinomial.  Rounding each is good to a few ulps
# of its own size, and exp turns that absolute error into a relative one,
# so the bound is K (1 + |A| + |B| + |C|) ulps.  K reached 3.66 over the
# 3,528 rows below, and 4.95 over 21,224 rows with every first site from
# c - n - 3 to c + 3; K = 8 leaves a margin.  Right of c, A and B cancel:
# 420 ulps at q = 1/4, c = 2, sites 4..16, k = 13, where both are about
# 144 (ROADMAP item 8)
WINDOW_ULPS_K = 8


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 4)])
@pytest.mark.parametrize("c", [-3, 0, 2, 5])
def test_prob_window_particles_against_exact_site_convolution(q, c):
    # q exact in binary and c an integer, so the function's inputs hold q
    # and c without rounding, and a window is finite: no truncation
    p = AsepParams(float(q), float(c))
    lq = math.log(p.q)
    for n in range(3, 17):
        # windows left of c, around c and right of c
        for first in (c - n - 1, c - n // 2, c + 2):
            m1, m2 = first - 1, first + n
            B = sum(blocking._log1p_qpow(p.c + 1 - m2 + i, lq) for i in range(n))
            for k, exact in enumerate(exact_window_law(q, c, first, n)):
                got = prob_window_particles(m1, m2, k, p)
                A = (k * (p.c + 1 - m2) + k * (k - 1) / 2.0) * lq
                C = log_qbinomial(n, k, p.q)
                ulps = abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))
                assert ulps <= WINDOW_ULPS_K * (1 + abs(A) + abs(B) + abs(C)), (n, first, k)


@pytest.mark.parametrize("q,c", [(q, c) for q, c, _ in N_CASES])
def test_prob_N_by_the_durfee_route(q, c):
    # the paper's route: N = H - K for K the particles at or left of 0 and
    # H the holes right of 0, independent under the product measure, so
    # P(N = n) = sum_k P(K = k) P(H = n + k).  P(K = k+1) / P(K = k) is
    # q^(c+k) / (1 - q^(k+1)), which falls with k, so the terms past k = 80
    # weigh at most P(K = 80) r / (1 - r) for r that ratio at k = 80
    p = AsepParams(q, c)
    K = 80
    ns = n_near(c)
    want = prob_N_table(ns, p)
    left = [prob_left_particles(0, k, p) for k in range(K + 1)]
    right = [prob_right_holes(0, j, p) for j in range(K + ns[-1] + 1)]
    r = q ** (c + K) / (1 - q ** (K + 1))
    assert r < 1 and left[K] * r / (1 - r) < 1e-30 * min(want)
    for n, w in zip(ns, want):
        durfee = math.fsum(left[k] * right[n + k] for k in range(max(0, -n), K + 1))
        # each factor is an exp of a log sum, good to about 1e-14 here
        assert durfee == pytest.approx(w, rel=1e-13, abs=0), n


@pytest.mark.parametrize("q,c", [(0.5, 0.0), (0.5, 0.37), (0.9, -1.3)])
def test_prob_N_by_the_jacobi_route(q, c):
    # the normalizer sum_l q^(l(l+1)/2 - lc) of the law of N is (q;q)_inf
    # times the site normalizers, prod_{m>=1} (1 + q^(m-c)) for the sites
    # right of 0 and prod_{m>=1} (1 + q^(m-1+c)) for the others: the
    # product side of Jacobi's triple product at z = q^-c.  So prob_N(n)
    # times that product is q^(n(n+1)/2 - nc)
    p = AsepParams(q, c)
    z = q ** -c
    _, product = jacobi_triple_product(z, q)
    lq, u = math.log(q), 2.0 ** -53
    starts = (q, -q * z, -1.0 / z)  # (a; q)_inf for a in these
    # truncation: the three products' dropped tails, as pochhammer_infinite
    # bounds them, and the normalizer's two wings, each cut at a term below
    # SERIES_EPS past which the terms fall by a factor q or more, against a
    # sum of at least 1
    trunc = (sum(pochhammer_infinite(a, q)[1] for a in starts)
             + 2 * SERIES_EPS * q / (1 - q))
    # rounding, to first order in u: each factor 1 - a q^i of a product
    # takes two roundings and its a q^i, built by i multiplications, i more;
    # the normalizer has fewer terms than (q;q)_inf has factors, and each
    # of its powers, additions and the final division takes at most four
    factors = [max(0, math.ceil(math.log(SERIES_EPS / abs(a)) / lq)) for a in starts]
    drift = sum(abs(a) * q / (1 - q) ** 2 for a in starts)
    rounding = 2 * sum(factors) + drift + 4 * factors[0]
    for n in n_near(c):
        e = n * (n + 1) / 2 - n * c
        # the power q^e itself: its exponent and its result are rounded
        tol = trunc + u * (rounding + 2 + abs(e * lq))
        assert abs(prob_N(n, p) * product / q ** e - 1) <= tol, n


def test_prob_left_particles_k0_product_form():
    # P(no particles at or left of m) = prod_{j<=m} 1/(1+q^{c-j})
    for q, c, m in [(0.5, 0.0, 0), (0.5, 2.0, -3), (0.9, 0.7, 1), (0.1, -1.5, 4)]:
        p = AsepParams(q, c)
        direct = 1.0
        for j in range(m, m - 500, -1):
            direct /= 1.0 + q ** (c - j)
        np.testing.assert_allclose(prob_left_particles(m, 0, p), direct, rtol=1e-11)


def test_prob_left_particles_normalizes():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q, c)
            for m in (-2, 0, 3):
                total = sum(prob_left_particles(m, k, p) for k in range(61))
                np.testing.assert_allclose(total, 1.0, rtol=1e-9)


def test_prob_left_particles_convolution_oracle():
    # site-by-site DP for the particle count on [m-L, m]; sites further left
    # carry mass ~ q^L, far below tolerance
    cases = [(0.5, 0.0, 0, 60), (0.5, 2.0, -1, 60), (0.9, 0.7, 2, 420)]
    for q, c, m, L in cases:
        p = AsepParams(q, c)
        f = np.array([1.0])
        for j in range(m - L, m + 1):
            occ = marginal(j, 1, p)
            g = np.zeros(len(f) + 1)
            g[: len(f)] += f * (1.0 - occ)
            g[1:] += f * occ
            f = g
        for k in range(9):
            np.testing.assert_allclose(
                prob_left_particles(m, k, p), f[k], rtol=1e-10
            )


def test_prob_left_particles_rejects_negative_k():
    with pytest.raises(ValueError):
        prob_left_particles(0, -1, AsepParams(0.5))


def test_prob_window_particles_edge_cases():
    # empty window: all sites empty; full window: all occupied
    for q, c, m1, m2 in [(0.5, 0.0, -3, 2), (0.9, 0.7, 0, 4), (0.1, -1.5, -5, -1)]:
        p = AsepParams(q, c)
        mhat = m2 - m1 - 1
        empty = math.prod(marginal(i, 0, p) for i in range(m1 + 1, m2))
        full = math.prod(marginal(i, 1, p) for i in range(m1 + 1, m2))
        np.testing.assert_allclose(prob_window_particles(m1, m2, 0, p), empty, rtol=1e-12)
        np.testing.assert_allclose(
            prob_window_particles(m1, m2, mhat, p), full, rtol=1e-12
        )
        # k=0 is also 1/(-q^{c-m2+1};q)_mhat
        pf = pochhammer_finite(-(q ** (c - m2 + 1)), q, mhat)
        np.testing.assert_allclose(
            prob_window_particles(m1, m2, 0, p), 1.0 / pf, rtol=1e-12
        )


def test_prob_window_particles_domain_errors():
    p = AsepParams(0.5)
    with pytest.raises(ValueError):
        prob_window_particles(0, 1, 0, p)  # empty between-range
    with pytest.raises(ValueError):
        prob_window_particles(0, 5, 5, p)  # k > mhat = 4
    with pytest.raises(ValueError):
        prob_window_particles(0, 5, -1, p)


def test_prob_window_particles_normalizes_exactly():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q, c)
            for m1, m2 in [(-3, 2), (0, 8), (-7, -2)]:
                mhat = m2 - m1 - 1
                total = sum(
                    prob_window_particles(m1, m2, k, p) for k in range(mhat + 1)
                )
                np.testing.assert_allclose(total, 1.0, rtol=1e-12)


def test_window_law_matches_brute_force():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 2.0):
            p = AsepParams(q, c)
            for m1, m2 in [(-1, 1), (-3, 2), (0, 8)]:
                dist = brute_force_window_law(m1, m2, p)
                assert dist.total == pytest.approx(1.0, rel=1e-12)
                for k in range(m2 - m1):
                    np.testing.assert_allclose(
                        prob_window_particles(m1, m2, k, p),
                        dist.prob(k),
                        rtol=1e-10,
                    )


def test_brute_force_single_site():
    q, c, m2 = 0.5, 0.0, 2
    dist = brute_force_window_law(m2 - 2, m2, AsepParams(q, c))
    z = q ** (c - m2 + 1)
    np.testing.assert_allclose(dist.prob(0), 1.0 / (1.0 + z), rtol=1e-13)
    np.testing.assert_allclose(dist.prob(1), z / (1.0 + z), rtol=1e-13)


def test_brute_force_cap():
    with pytest.raises(SizeLimit):
        brute_force_window_law(0, 22, AsepParams(0.5))


def test_size_limits_are_input_errors():
    # like every other input error of the library, a cap is a ValueError
    with pytest.raises(ValueError):
        enumerate_partitions(61)
    with pytest.raises(ValueError):
        brute_force_window_law(0, 22, AsepParams(0.5))


def test_window_law_limit_to_half_infinite():
    # m1 -> -infty recovers the left-particle law at m2 - 1
    p = AsepParams(0.5, 0.0)
    m = 0
    for k in range(6):
        np.testing.assert_allclose(
            prob_window_particles(m - 40, m, k, p),
            prob_left_particles(m - 1, k, p),
            rtol=1e-8,
        )


def test_prob_right_holes_closed_form():
    # the delegated evaluation equals the displayed formula
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q, c)
            for m in range(-3, 4):
                tail, _ = pochhammer_infinite(-(q ** (1 + m - c)), q)
                for n in range(0, 21):
                    direct = q ** (n * (m - c) + n * (n + 1) / 2) / (
                        pochhammer_finite(q, q, n) * tail
                    )
                    np.testing.assert_allclose(
                        prob_right_holes(m, n, p), direct, rtol=1e-10
                    )


def test_prob_right_holes_normalizes():
    p = AsepParams(0.5, 0.7)
    for m in (-2, 0, 3):
        total = sum(prob_right_holes(m, n, p) for n in range(61))
        np.testing.assert_allclose(total, 1.0, rtol=1e-9)


def test_shift_relations_hold():
    for q in (0.1, 0.5, 0.9):
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q, c)
            for m in (-2, 0, 3):
                for k in range(6):
                    for chk in shift_relation_checks(p, m, k):
                        assert chk.rel_dev < 1e-10, (chk, q, c, m, k)


def test_shift_relations_where_both_sides_underflow():
    # 60 particles left of site 0 at q = 0.5: every law underflows to 0.0
    checks = shift_relation_checks(AsepParams(0.5), 0, 60)
    assert len(checks) == 6
    for chk in checks:
        assert chk.lhs == chk.rhs == 0.0
        assert chk.rel_dev == 0.0


def test_params_are_immutable_values():
    p = AsepParams(0.5)
    assert p == AsepParams(q=0.5, c=0.0)
    assert hash(p) == hash(AsepParams(q=0.5, c=0.0))
    assert p != AsepParams(0.5, 1.0)
    with pytest.raises(AttributeError):
        p.q = 0.25
    with pytest.raises(AttributeError):
        p.c = 1.0
    assert type(p.with_c(2.5)) is AsepParams and p.c == 0.0
    assert repr(p) == "AsepParams(q=0.5, c=0.0)"


def test_count_dist_and_relation_check_reject_assignment():
    d = CountDist(n_min=0, probs=np.array([1.0]))
    chk = RelationCheck("x", 1.0, 2.0)
    for obj, name in ((d, "n_min"), (d, "probs"), (chk, "lhs"), (chk, "name")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    assert chk.rel_dev == 0.5


def test_count_dist_compares_by_value():
    p = AsepParams(0.5)
    a, b = brute_force_window_law(-3, 3, p), brute_force_window_law(-3, 3, p)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != brute_force_window_law(-3, 3, AsepParams(0.25))
    assert type(a.probs) is tuple and {type(x) for x in a.probs} == {float}


def test_count_dist_accessors():
    d = CountDist(n_min=-1, probs=np.array([0.25, 0.5, 0.25]))
    assert d.prob(-1) == 0.25
    assert d.prob(5) == 0.0
    assert list(d.support) == [-1, 0, 1]
    assert d.total == pytest.approx(1.0)
