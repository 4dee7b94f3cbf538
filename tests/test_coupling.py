from collections import Counter
import copy
from fractions import Fraction
import functools
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from aseplab import blocking, coupling
from aseplab.blocking import (
    AsepParams,
    WindowState,
    marginal,
    prob_left_particles,
    prob_window_particles,
    sample_blocking,
)
from aseplab.coupling import (
    CoupledState,
    LabelOutOfRange,
    SimulationReport,
    as_labels,
    mean_and_sem,
    pi_detailed_balance_check,
    pi_label,
    prob_positions,
    prob_second_class_at,
    replica_rng,
    run_ensemble,
    sample_pi,
    simulate,
)
from aseplab.qseries import pochhammer_infinite
from oracle import (
    Absorbing,
    Move,
    OracleState,
    RecordingRng,
    StubRng,
    assert_consistent,
    assert_one_event,
    conditional_xi_given_labels,
    hat_pairs,
    midpoint_draw,
    one_event,
    oracle_apply_transition,
    oracle_enabled_transitions,
    oracle_simulate_stationary,
)


# a value differing from the run (-20, 20), d=1, q=0.5, c=0, T=1 with
# the default ten probes, for every layout field of SimulationReport
OTHER_LAYOUT = {
    "lo": -21,
    "hi": 21,
    "d": 2,
    "q": 0.6,
    "c": 0.5,
    "T": 2.0,
    "probe_times": (0.0, 0.5, 1.0),
}


def window_from_sites(lo, hi, occupied):
    bits = np.zeros(hi - lo + 1, dtype=np.uint8)
    for site in occupied:
        bits[site - lo] = 1
    return WindowState(lo=lo, hi=hi, bits=bits)


def state_from_sites(lo, hi, occupied, labels):
    return CoupledState(xi=window_from_sites(lo, hi, occupied), labels=labels)


def stationary_state(p, d, window, rng, eps):
    """The exact (mu^c x pi) start that run_ensemble draws for a replica:
    the window, then the labels, from rng."""
    return CoupledState(sample_blocking(window, p, rng, eps=eps), sample_pi(d, p.q, rng))


def window_of(s):
    """A copy of the state's xi-configuration as a WindowState."""
    return WindowState(s.lo, s.hi, np.array(s.occ))


def eta_of(s):
    """The first-class configuration: xi with the labeled particles removed."""
    eta = window_of(s)
    for site in s.positions:
        eta.bits[site - s.lo] = 0
    return eta


P5 = AsepParams(q=0.5, c=0.0)


class GeometricStub:
    """rng stand-in: geometric(p) records p and returns the next value."""

    def __init__(self, values):
        self.values, self.params = iter(values), []

    def geometric(self, p):
        self.params.append(p)
        return next(self.values)


def conditional_xi_given_labels_factored(m, k, p):
    """conditional_xi_given_labels assembled from the independent pieces the
    product measure splits it into: site marginals, the left-tail count
    law, and the between-window count laws."""
    mvec = tuple(int(v) for v in m)
    kvec = as_labels(k)
    d = len(mvec)
    assert d == len(kvec) >= 1 and all(a < b for a, b in zip(mvec, mvec[1:]))
    if any(kh > mh for kh, mh in hat_pairs(mvec, kvec)):
        return 0.0
    out = 1.0
    for mj in mvec:
        out *= marginal(mj, 1, p)
    out *= prob_left_particles(mvec[0] - 1, kvec[0], p)
    for j in range(1, d):
        kh = kvec[j] - kvec[j - 1] - 1
        mh = mvec[j] - mvec[j - 1] - 1
        if mh == 0:
            continue  # adjacent marked sites, nothing in between
        out *= prob_window_particles(mvec[j - 1], mvec[j], kh, p)
    return out


class TestLabelMapping:
    # eleven particles, labels picking the 1st,2nd,4th,6th,7th from the left
    OCC = (-9, -8, -7, -6, -4, -1, 3, 5, 8, 9, 10)
    LAB = (0, 1, 3, 5, 6)

    @staticmethod
    def ranks(s, X):
        """The rank, from the leftmost, of the particle at each site of X."""
        occupied = [s.lo + i for i, b in enumerate(s.occ) if b]
        return tuple(occupied.index(x) for x in X)

    def test_positions(self):
        s = state_from_sites(-10, 10, self.OCC, self.LAB)
        assert s.positions == [-9, -8, -6, -1, 3]

    def test_roundtrip(self):
        s = state_from_sites(-10, 10, self.OCC, self.LAB)
        assert self.ranks(s, s.positions) == self.LAB

    def test_eta_removes_labeled(self):
        s = state_from_sites(-10, 10, self.OCC, self.LAB)
        eta = eta_of(s)
        remaining = tuple(eta.sites[eta.bits == 1])
        assert remaining == (-7, -4, 5, 8, 9, 10)
        # xi untouched
        assert sum(s.occ) == 11

    def test_conserved_N_offset(self):
        s = state_from_sites(-10, 10, self.OCC, self.LAB)
        eta = eta_of(s)
        assert window_of(s).conserved_N() == -1
        assert eta.conserved_N() == 4
        assert window_of(s).conserved_N() == eta.conserved_N() - len(self.LAB)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            bits = (rng.random(21) < 0.5).astype(np.uint8)
            n = int(bits.sum())
            if n == 0:
                continue
            d = int(rng.integers(0, min(n, 4) + 1))
            labels = tuple(sorted(rng.choice(n, size=d, replace=False).tolist()))
            s = CoupledState(xi=WindowState(lo=-10, hi=10, bits=bits), labels=labels)
            assert self.ranks(s, s.positions) == labels


class TestTransitionTable:
    # the oracle's move tables, checked by hand; one event of simulate must
    # make each move the oracle lists
    def crafted(self, labels):
        return OracleState(window_from_sites(-3, 4, (-2, -1, 1, 3, 4)), labels)

    @staticmethod
    def audit(o):
        """The oracle's moves from o, once one event of simulate, drawn at
        the middle of each move's interval, has made that move."""
        moves = oracle_enabled_transitions(o, P5)
        total = sum(r for _, r in moves)
        for tr, _ in moves:
            assert_one_event(o, P5, midpoint_draw(moves, tr), tr, total)
        return moves

    def test_full_audit_one_label(self):
        trans = dict(self.audit(self.crafted((1,))))
        expected = {
            Move("particle", -2, -1): 0.5,
            Move("particle", -1, 1): 1.0,
            Move("particle", 1, -1): 0.5,
            Move("particle", 1, 1): 1.0,
            Move("particle", 3, -1): 0.5,
            Move("label", 0, -1): 1.0,
        }
        assert trans == expected

    def test_labeled_pair_swap_excluded(self):
        # both adjacent particles labeled: the swap changes nothing, so the
        # move must not appear at all
        trans = self.audit(self.crafted((0, 1)))
        assert all(tr.kind == "particle" for tr, _ in trans)
        assert len(trans) == 5

    def test_label_needs_site_adjacency(self):
        # particle 2 sits at site 1, particle 1 at site -1: no right swap
        trans = self.audit(self.crafted((1,)))
        assert Move("label", 0, 1) not in dict(trans)

    def test_label_right_swap_when_adjacent(self):
        o = OracleState(window_from_sites(-3, 4, (-2, 0, 1, 3)), (1,))
        trans = dict(self.audit(o))
        assert trans[Move("label", 0, 1)] == 0.5

    def test_ground_state_interface_only(self):
        bits = np.array([0] * 6 + [1] * 5, dtype=np.uint8)
        o = OracleState(xi=WindowState(lo=-5, hi=5, bits=bits), labels=())
        assert self.audit(o) == [(Move("particle", 1, -1), 0.5)]

    def test_boundary_hops_disabled(self):
        # full window: the rightmost particle may not leave, the frozen
        # particle at hi+1 may not enter
        xi = WindowState(lo=1, hi=5, bits=np.ones(5, dtype=np.uint8))
        assert oracle_enabled_transitions(OracleState(xi=xi, labels=()), P5) == []
        # so simulate draws nothing and makes no move
        rng = StubRng(0.5)
        rep = simulate(CoupledState(xi=xi, labels=()), P5, 1.0, rng, probes=1)
        assert rep.n_events == 0 and rng.scale is None

    def test_apply_particle_keeps_labels_valid(self):
        o = self.crafted((1,))
        s = CoupledState(xi=o.xi, labels=o.labels)
        tr = Move("particle", -1, 1)
        u = midpoint_draw(oracle_enabled_transitions(o, P5), tr)
        assert one_event(s, P5, u)[0] == tr
        # the labeled particle itself moved; rank ordering is unchanged
        assert s.labels == (1,)
        assert s.positions == [0]

    def test_apply_label(self):
        o = self.crafted((1,))
        s = CoupledState(xi=o.xi, labels=o.labels)
        tr = Move("label", 0, -1)
        u = midpoint_draw(oracle_enabled_transitions(o, P5), tr)
        assert one_event(s, P5, u)[0] == tr
        assert s.labels == (0,)
        assert list(s.occ) == o.xi.bits.tolist()


class TestGillespie:
    # simulate from given states; which move an event makes, and the scale
    # of its holding time, are checked exactly in test_generator_balance.py
    def test_absorbing(self):
        s = CoupledState(
            xi=WindowState(lo=5, hi=8, bits=np.zeros(4, dtype=np.uint8)), labels=()
        )
        rng = RecordingRng(0)
        rep = simulate(s, P5, 1.0, rng, probes=3)
        assert rep.n_events == 0 and rep.total_probes == 4
        assert rng.record == []  # nothing was drawn

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            s = state_from_sites(-3, 4, (-2, -1, 1, 3, 4), (1,))
            rng = RecordingRng(123)
            rep = simulate(s, P5, 100.0, rng, probes=30)
            runs.append((rng.record, rep.n_events, rep.x_rows, bytes(s.occ), s.labels))
        assert runs[0][1] >= 200
        assert runs[0] == runs[1]

    def test_invariants_along_trajectory(self):
        # from one stationary start, simulate draws what the oracle draws
        # and ends in the state the oracle's moves give, and its labeled
        # particles always raise N by their number
        p = AsepParams(q=0.5, c=0.0)
        rng, want_rng = RecordingRng(21), RecordingRng(21)
        s = stationary_state(p, 2, (-12, 12), rng, eps=1e-3)
        start = OracleState(xi=window_of(s), labels=s.labels)
        rep = simulate(s, p, 150.0, rng, probes=50)
        _, log = oracle_simulate_stationary(p, 2, (-12, 12), 150.0, want_rng,
                                            probes=50, eps=1e-3)
        assert rng.record == want_rng.record
        assert rep.n_events == len(log) >= 450
        o = functools.reduce(oracle_apply_transition, (tr for _, tr in log), start)
        assert bytes(s.occ) == bytes(o.xi.bits) and s.labels == o.labels
        assert_consistent(s)
        assert rep.N_violations == 0


class TestLabelLaw:
    def test_pi_values(self):
        q = 0.5
        assert pi_label((0,), q) == pytest.approx(1 - q)
        assert pi_label((3,), q) == pytest.approx((1 - q) * q**3)
        assert pi_label((0, 1), q) == pytest.approx((1 - q) * (1 - q * q))
        assert pi_label((2, 5), q) == pytest.approx((1 - q) * (1 - q * q) * q**6)

    def test_pi_normalizes(self):
        q = 0.6
        total = sum(
            pi_label(x, q) for x in itertools.combinations(range(60), 2)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_pi_validation(self):
        with pytest.raises(ValueError):
            pi_label((1, 1), 0.5)
        with pytest.raises(ValueError):
            pi_label((-1,), 0.5)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_detailed_balance(self, d, q):
        checks = pi_detailed_balance_check(d, q, cap=8)
        assert checks
        assert max(ch.rel_dev for ch in checks) < 1e-12

    def test_sample_pi_mean(self):
        rng = np.random.default_rng(5)
        draws = np.array([sample_pi(1, 0.5, rng)[0] for _ in range(100_000)])
        # geometric on {0,1,...} with ratio q: mean q/(1-q)=1, var q/(1-q)^2=2
        assert abs(draws.mean() - 1.0) < 3.5 * math.sqrt(2.0 / len(draws))

    def test_sample_pi_chisquare_d2(self):
        q = 0.5
        rng = np.random.default_rng(17)
        n = 100_000
        counts = {}
        for _ in range(n):
            x = sample_pi(2, q, rng)
            counts[x] = counts.get(x, 0) + 1
        cells = [x for x in itertools.combinations(range(13), 2)]
        probs = [pi_label(x, q) for x in cells]
        f_obs = [counts.get(x, 0) for x in cells]
        f_exp = [n * pr for pr in probs]
        # lump everything outside the enumerated cells
        f_obs.append(n - sum(f_obs))
        f_exp.append(n * (1.0 - sum(probs)))
        assert stats.chisquare(f_obs, f_exp).pvalue > 0.01

    def test_sample_pi_empty(self):
        assert sample_pi(0, 0.5, np.random.default_rng(0)) == ()

    def test_sample_pi_d0_draws_nothing(self):
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        assert sample_pi(0, 0.5, rng) == ()
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("q", [0.5, 1 / 3, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sample_pi_gap_parameters(self, d, q):
        # x_1 and the gaps x_j - x_{j-1} - 1 are geometric with success
        # probabilities 1 - q^(d+1-j), drawn for j = 1..d in that order
        rng = GeometricStub([1] * d)
        assert sample_pi(d, q, rng) == tuple(range(d))
        assert rng.params == [1.0 - q ** (d + 1 - j) for j in range(1, d + 1)]

    @pytest.mark.parametrize("q", [0.5, 1 / 3, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sample_pi_gap_law_is_pi(self, d, q):
        # feed every tuple of geometric values up to a cap, read each draw's
        # ratio exponent k (its parameter is 1 - q^k), and convolve the gap
        # laws in Fraction arithmetic at the exact q they approximate:
        # every label tuple with x_d <= cap must get exactly pi(x)
        cap = 8
        Q = Fraction(q).limit_denominator(10)
        law = {}
        for values in itertools.product(range(1, cap + 2), repeat=d):
            rng = GeometricStub(values)
            x = sample_pi(d, q, rng)
            prob = Fraction(1)
            for g, param in zip(values, rng.params):
                k, = [k for k in range(1, d + 1) if param == 1.0 - q ** k]
                prob *= (1 - Q ** k) * Q ** (k * (g - 1))
            if x[-1] <= cap:
                law[x] = law.get(x, 0) + prob
        norm = math.prod(1 - Q ** i for i in range(1, d + 1))
        assert law == {x: norm * Q ** (sum(x) - d * (d - 1) // 2)
                       for x in itertools.combinations(range(cap + 1), d)}


class TestSecondClassLaws:
    def test_known_sixth(self):
        assert prob_second_class_at(0, P5, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_discrete_logistic_match(self):
        # site law of the single second-class particle is a discrete
        # logistic reflected at the origin with location -c
        q, c = 0.45, 0.7
        p = AsepParams(q=q, c=c)

        def dlogistic(y, mu):
            t = q ** (y - mu)
            return (1 - q) * t / ((1 + t) * (1 + q * t))

        for m in range(-8, 9):
            assert prob_second_class_at(m, p, 1) == pytest.approx(
                dlogistic(-m, -c), rel=1e-12
            )

    @pytest.mark.parametrize("q,span", [(0.5, 80), (0.9, 300)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sums_to_d(self, d, q, span):
        p = AsepParams(q=q, c=0.3)
        total = sum(prob_second_class_at(m, p, d) for m in range(-span, span + 1))
        assert total == pytest.approx(d, abs=1e-9)

    def test_prob_positions_d1_matches_site_law(self):
        p = AsepParams(q=0.7, c=-0.4)
        for m in range(-6, 7):
            assert prob_positions((m,), p) == pytest.approx(
                prob_second_class_at(m, p, 1), rel=1e-13
            )

    def test_prob_positions_normalizes_d2(self):
        p = AsepParams(q=0.5, c=0.0)
        total = 0.0
        for m1 in range(-40, 40):
            for m2 in range(m1 + 1, 41):
                total += prob_positions((m1, m2), p)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_prob_positions_validation(self):
        with pytest.raises(ValueError):
            prob_positions((3, 3), P5)
        with pytest.raises(ValueError):
            prob_positions((1, 0), P5)
        with pytest.raises(ValueError):
            prob_positions((), P5)
        with pytest.raises(ValueError):
            prob_second_class_at(0, P5, 0)


class TestConditionalLaw:
    def test_d1_closed_value(self):
        q, c = 0.5, 0.7
        p = AsepParams(q=q, c=c)
        denom, _ = pochhammer_infinite(-(q**c), q)
        expected = q**c / denom
        assert conditional_xi_given_labels((0,), (0,), p) == pytest.approx(
            expected, rel=1e-12
        )
        assert conditional_xi_given_labels_factored((0,), (0,), p) == pytest.approx(
            expected, rel=1e-12
        )

    def test_factored_matches_closed_random(self):
        rng = np.random.default_rng(99)
        for q, c in [(0.3, -0.5), (0.8, 1.2)]:
            p = AsepParams(q=q, c=c)
            for _ in range(8):
                m = tuple(
                    sorted(rng.choice(np.arange(-6, 9), size=3, replace=False).tolist())
                )
                k1 = int(rng.integers(0, 8))
                k = [k1]
                for j in (1, 2):
                    mh = m[j] - m[j - 1] - 1
                    k.append(k[-1] + 1 + int(rng.integers(0, mh + 1)))
                k = tuple(k)
                a = conditional_xi_given_labels(m, k, p)
                b = conditional_xi_given_labels_factored(m, k, p)
                assert a == pytest.approx(b, rel=1e-10)
                assert a > 0

    def test_adjacent_marked_sites(self):
        p = AsepParams(q=0.6, c=0.1)
        m, k = (0, 1, 5), (0, 1, 3)
        a = conditional_xi_given_labels(m, k, p)
        b = conditional_xi_given_labels_factored(m, k, p)
        assert a == pytest.approx(b, rel=1e-10)
        assert a > 0

    def test_overfull_window_is_zero(self):
        p = AsepParams(q=0.6, c=0.1)
        # two sites strictly between m_1=0 and m_2=3 cannot hold three
        m, k = (0, 3), (0, 4)
        assert conditional_xi_given_labels(m, k, p) == 0.0
        assert conditional_xi_given_labels_factored(m, k, p) == 0.0

    def test_mixture_recovers_position_law(self):
        # labels with x_d > 45 carry pi mass below 2e-13 for d <= 3, under
        # 1e-10 of the smallest position probability checked here
        p = AsepParams(q=0.5, c=0.2)
        for m in ((0,), (-3,), (-2, 1), (-2, 0, 3), (-1, 0, 1)):
            total = 0.0
            for k in itertools.combinations(range(46), len(m)):
                w = pi_label(k, p.q)
                if w == 0.0:
                    continue
                total += w * conditional_xi_given_labels(m, k, p)
            assert total == pytest.approx(prob_positions(m, p), rel=1e-8), m

    def test_left_count_c_recursion(self):
        # one-step relation behind the mixture law: condition on whether the
        # extra particle of the c-shifted measure sits left of the window
        for q, c in [(0.5, 0.0), (0.9, 0.7)]:
            for m in (-2, 0, 3):
                pc = AsepParams(q=q, c=c)
                pm = AsepParams(q=q, c=c - 1.0)
                for k in range(0, 11):
                    lhs = prob_left_particles(m, k, pc)
                    rhs = prob_left_particles(m, k, pm) * q**k + prob_left_particles(
                        m, k + 1, pm
                    ) * (1 - q ** (k + 1))
                    assert lhs == pytest.approx(rhs, rel=1e-10)


class TestStateValidation:
    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            state_from_sites(0, 4, (1, 3), (0, 5))

    def test_label_ordering(self):
        with pytest.raises(ValueError):
            state_from_sites(0, 4, (1, 3), (1, 1))
        with pytest.raises(ValueError):
            state_from_sites(0, 4, (1, 3), (-1,))

    def test_copy_isolated(self):
        # a state built from another's window copies it
        s = state_from_sites(0, 4, (1, 3), (0,))
        xi = window_of(s)
        s2 = CoupledState(xi=xi, labels=s.labels)
        s2.occ[0] = 1
        assert xi.bits[0] == 0 and s.occ[0] == 0


class TestSimulation:
    def test_t0_matches_initial_laws(self):
        p = AsepParams(q=0.5, c=0.0)
        rep = run_ensemble(p, d=1, window=(-30, 30), T=0.0, replicas=400, seed=11)
        assert rep.n_events == 0
        assert rep.N_violations == 0
        mean, sem = rep.xi_site_stats()
        target = np.array([marginal(int(i), 1, p) for i in rep.sites])
        binom = np.sqrt(target * (1 - target) / rep.n_replicas)
        sigma = np.maximum(sem, binom)
        assert np.all(np.abs(mean - target) <= 3.5 * sigma + 1e-9)
        # label start is an exact pi sample
        _, f0, _ = rep.key_stats(rep.label_rows).get((0,), (0, 0.0, None))
        assert abs(f0 - (1 - p.q)) < 3.5 * math.sqrt(0.25 / rep.n_replicas)

    def test_short_run_stays_stationary(self):
        p = AsepParams(q=0.5, c=0.0)
        rep = run_ensemble(
            p, d=1, window=(-30, 30), T=10.0, replicas=150, seed=97, probes=5
        )
        assert rep.N_violations == 0
        assert rep.contamination_fraction < 0.01
        cells = rep.key_stats(rep.x_rows)
        for m in (-1, 0, 1):
            _, mean, sem = cells[(m,)]
            target = prob_second_class_at(m, p, 1)
            assert abs(mean - target) <= 3.5 * max(sem, 1e-4)
        # eta is the blocking measure one c-step up
        mean, sem = rep.eta_site_stats()
        pe = AsepParams(q=p.q, c=p.c + 1)
        i = 30  # site 0
        assert abs(mean[i] - marginal(0, 1, pe)) <= 3.5 * max(float(sem[i]), 1e-4)

    def test_determinism(self):
        p = AsepParams(q=0.5, c=0.0)
        kw = dict(window=(-20, 20), T=2.0, replicas=6, seed=5, probes=3, eps=1e-4)
        a = run_ensemble(p, 1, **kw)
        b = run_ensemble(p, 1, **kw)
        assert a.x_rows == b.x_rows
        assert a.n_events == b.n_events
        assert [r.tolist() for r in a.xi_rows] == [r.tolist() for r in b.xi_rows]

    def test_replica_streams(self):
        r0 = replica_rng(7, 0).random(4).tolist()
        r1 = replica_rng(7, 1).random(4).tolist()
        assert r0 != r1
        assert replica_rng(7, 0).random(4).tolist() == r0

    def test_contamination_is_reported(self):
        # margin 7 on 13 sites contaminates every probe, whatever the seed;
        # the report counts it and the caller judges it
        p = AsepParams(q=0.5, c=0.0)
        rep = run_ensemble(p, 1, (-6, 6), 1.0, replicas=1, seed=3, probes=2,
                           eps=0.1, margin=7)
        assert rep.contamination_fraction == 1.0
        assert rep.contaminated_probes == rep.total_probes == 3

    def test_new_reports_share_no_row_list(self):
        a, b = (SimulationReport(0, 1, 1, 0.5, 0.0, 1.0, (0.0,)) for _ in range(2))
        rows = ("xi_rows", "eta_rows", "x_rows", "label_rows")
        for name in rows:
            getattr(a, name).append(None)
        assert [getattr(b, name) for name in rows] == [[], [], [], []]

    def test_contamination_fraction_without_replicas(self):
        rep = SimulationReport(0, 1, 1, 0.5, 0.0, 1.0, (0.0,))
        assert rep.total_probes == 0
        assert rep.contamination_fraction == 0.0

    def test_frozen_window_holds_its_state(self):
        # c far left of the window fills every site (each marginal rounds
        # to 1), so no move is ever enabled
        p = AsepParams(q=0.5, c=-60.0)
        rng = RecordingRng(4)
        rep = simulate(stationary_state(p, 0, (0, 5), rng, eps=1.0), p, 10.0, rng,
                       probes=4)
        # the start sample is the only draw: the stepper takes none
        assert [(name, arg) for name, arg, _ in rng.record] == [("random", 6)]
        assert rep.n_events == 0 and rep.total_probes == 5
        assert [r.tolist() for r in rep.xi_rows] == [[1.0] * 6]
        mean, sem = rep.xi_site_stats()
        assert mean.tolist() == [1.0] * 6 and sem is None

    @pytest.mark.parametrize("lo,hi", [(-6, 5), (3, 9), (-9, -2), (0, 0)])
    def test_removed_particles_raise_N_by_their_count(self, lo, hi):
        # the identity N_violations counts by: clearing any set of occupied
        # sites, on either side of 0, raises N by the number cleared
        rng = np.random.default_rng(lo + 100)
        for _ in range(40):
            xi = (rng.random(hi - lo + 1) < 0.5).astype(np.uint8)
            eta = xi & (rng.random(hi - lo + 1) < 0.5)
            gained = (WindowState(lo, hi, eta).conserved_N()
                      - WindowState(lo, hi, xi).conserved_N())
            assert gained == int(xi.sum()) - int(eta.sum())

    def test_label_on_an_empty_site_counts_its_probes(self):
        # the one label is pinned to site 0 whether or not a particle sits
        # there: its site list ignores every move.  A probe that saw site 0
        # empty removes no particle, so it, and only it, violates
        # N(eta) - N(xi) = d; particles hopping into and out of site 0 are
        # the only changes that tell the count so
        class Pinned(list):
            def __setitem__(self, i, v):
                pass

        p = AsepParams(q=0.5, c=0.0)
        rng = np.random.default_rng(2)
        state = stationary_state(p, 1, (-20, 20), rng, eps=1e-4)
        state.positions = Pinned([0])
        rep = simulate(state, p, 20.0, rng, probes=40)
        empty = round((1.0 - rep.xi_rows[0][20]) * rep.total_probes)
        assert 0 < empty < rep.total_probes
        assert rep.N_violations == empty

    def test_label_on_an_empty_frozen_window_counts_every_probe(self):
        # no particle, so no move is enabled and nothing changes after t = 0:
        # every probe, all of them counted at T, sees the label on an empty
        # site
        state = state_from_sites(-3, 3, [], ())
        state.labels, state.positions = (0,), [0]
        rep = simulate(state, P5, 5.0, np.random.default_rng(0), probes=8)
        assert rep.n_events == 0
        assert rep.N_violations == rep.total_probes == 9

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_label_moves_are_refreshed_only_when_a_hop_changes_them(self, d,
                                                                     monkeypatch):
        # every label move is followed by a refresh, so a refresh that finds
        # the labels of the one before follows a hop, and must be needed;
        # a refresh a hop needs but does not get fails the stepper
        # differential
        calls = []

        def recorded(s, q):
            moves = label_moves(s, q)
            calls.append((s, s.labels, moves))
            return moves

        label_moves = coupling._label_moves
        monkeypatch.setattr(coupling, "_label_moves", recorded)
        p = AsepParams(q=0.7, c=0.3)
        after_hops = 0
        for seed in range(1, 9):
            rng = np.random.default_rng([seed, d])
            try:
                simulate(stationary_state(p, d, (-16, 16), rng, eps=0.45), p, 10.0, rng)
            except LabelOutOfRange:  # the pi sample outranks the particles
                continue
            for (s0, labels0, moves0), (s1, labels1, moves1) in zip(calls, calls[1:]):
                if s1 is s0 and labels1 == labels0:
                    assert moves1 != moves0
                    after_hops += 1
            calls.clear()
        assert after_hops >= 20

    @pytest.mark.parametrize("name", list(OTHER_LAYOUT))
    def test_merge_layout_mismatch(self, name):
        p = AsepParams(q=0.5, c=0.0)
        a, b = (simulate(stationary_state(p, 1, (-20, 20), rng, eps=1e-4), p, 1.0, rng)
                for rng in map(np.random.default_rng, (1, 2)))
        assert getattr(b, name) != OTHER_LAYOUT[name]
        setattr(b, name, OTHER_LAYOUT[name])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_adds_every_statistic(self):
        p = AsepParams(q=0.5, c=0.0)
        a, b, c = (
            simulate(stationary_state(p, 2, (-20, 20), rng, eps=1e-4), p, 2.0, rng,
                     probes=6)
            for rng in map(np.random.default_rng, (3, 4, 5))
        )
        assert b.merge(c) is b  # b now holds two replicas
        assert set(a.x_rows[0]) ^ set(b.x_rows[0])  # keys on one side only
        # every attribute outside the layout, named from the instance rather
        # than from merge's own list
        additive = [n for n in vars(a) if n not in OTHER_LAYOUT]
        assert len(additive) == len(vars(a)) - len(OTHER_LAYOUT)
        for n in additive:  # no count 0, so a count that merge skips shows
            if not isinstance(getattr(b, n), list):
                setattr(b, n, getattr(b, n) + 1)
        before = {n: (copy.deepcopy(getattr(a, n)), getattr(b, n)) for n in additive}
        assert a.merge(b) is a
        for n in additive:
            mine, theirs = before[n]
            got = getattr(a, n)
            if isinstance(mine, list):
                # rows concatenate in replica order
                assert len(got) == len(mine) + len(theirs) == 3, n
                for row, want in zip(got, mine + theirs):
                    if isinstance(want, np.ndarray):
                        assert np.array_equal(row, want), n
                    else:
                        assert row == want, n
            else:
                assert got == mine + theirs, n
        assert a.n_replicas == 3 and a.total_probes == 3 * 7

    def test_ensemble_rows_are_its_replicas_in_order(self):
        rep = run_ensemble(P5, 2, (-20, 20), 2.0, replicas=3, seed=8, probes=4,
                           eps=1e-4)
        for i in range(3):
            rng = replica_rng(8, i)
            one = simulate(stationary_state(P5, 2, (-20, 20), rng, eps=1e-4), P5, 2.0,
                           rng, probes=4)
            assert np.array_equal(rep.xi_rows[i], one.xi_rows[0])
            assert np.array_equal(rep.eta_rows[i], one.eta_rows[0])
            assert rep.x_rows[i] == one.x_rows[0]
            assert rep.label_rows[i] == one.label_rows[0]

    def test_ensemble_needs_replicas(self):
        with pytest.raises(ValueError):
            run_ensemble(P5, 1, (-20, 20), 1.0, replicas=0, seed=1)

    def test_ensemble_builds_its_site_profile_once(self, monkeypatch):
        calls = []

        def counted(i, z, p):
            calls.append((i, z))
            return marginal(i, z, p)

        monkeypatch.setattr(blocking, "marginal", counted)
        counts = []
        for replicas in (1, 40):
            calls.clear()
            run_ensemble(P5, 1, (-20, 20), 0.5, replicas=replicas, seed=3)
            counts.append(len(calls))
        # the boundary check and one threshold per site, for any replica count
        assert counts == [2 + 41, 2 + 41]


def left_fold_stats(rows, n):
    """mean_and_sem written out: both sums added one row at a time."""
    total, total_sq = rows[0], rows[0] * rows[0]
    for r in rows[1:]:
        total = total + r
        total_sq = total_sq + r * r
    mean = total / n
    var = np.maximum((total_sq - total * mean) / (n - 1), 0.0)
    return mean, np.sqrt(var / n)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestMeanAndSem:
    @pytest.mark.parametrize("shape", [(), (1,), (51,)])
    def test_left_fold_bit_for_bit(self, shape):
        # a pairwise or compensated sum differs in the last bits here
        rng = np.random.default_rng(sum(shape))
        for n in (2, 3, 200, 250, 251, 256, 300, 999, 1000, 1500):
            rows = [rng.random(shape) for _ in range(n)]
            if not shape:
                rows = [float(r) for r in rows]
            mean, sem = mean_and_sem(rows, n)
            want_mean, want_sem = left_fold_stats(rows, n)
            assert bits(mean) == bits(want_mean) and bits(sem) == bits(want_sem)

    def test_sparse_rows_equal_zero_filled_rows(self):
        rng = np.random.default_rng(5)
        n = 300
        for _ in range(20):
            seen = rng.random(n) < 0.3
            freqs = rng.integers(1, 12, n) / 11
            sparse = [float(f) for f, hit in zip(freqs, seen) if hit]
            dense = [float(f) if hit else 0.0 for f, hit in zip(freqs, seen)]
            got, want = mean_and_sem(sparse, n), mean_and_sem(dense, n)
            assert bits(got) == bits(want)

    def test_one_replica_has_no_sem(self):
        assert mean_and_sem([0.25], 1) == (0.25, None)
        mean, sem = mean_and_sem([np.array([0.5, 1.0])], 1)
        assert mean.tolist() == [0.5, 1.0] and sem is None
        rep = run_ensemble(P5, 1, (-20, 20), 1.0, replicas=1, seed=2, eps=1e-4)
        for mean, sem in (rep.xi_site_stats(), rep.eta_site_stats()):
            assert mean.shape == (41,) and sem is None
        assert all(sem is None for _, _, sem in rep.key_stats(rep.x_rows).values())


def replay(p, d, window, T, seed, probes, eps, margin, log):
    """Rebuild a replica's rows and counts from its event log alone.

    The start is re-drawn from the seed, the logged moves are applied to a
    plain list of occupancies and a list of labels, and each probe time,
    i T / probes, reads the state holding there: the one before the first
    event after it."""
    lo, hi = window
    rng = np.random.default_rng(seed)
    occ = sample_blocking(window, p, rng, eps=eps).bits.tolist()
    labels = list(sample_pi(d, p.q, rng))
    times = [i * T / probes for i in range(probes + 1)] if T > 0 and probes else [0.0]
    xi_sum, eta_sum = np.zeros(len(occ), dtype=int), np.zeros(len(occ), dtype=int)
    x_seen, label_seen = Counter(), Counter()
    out = dict(contaminated_probes=0, N_violations=0)

    def conserved_N(config):
        holes_right = sum(1 for i, b in enumerate(config) if lo + i >= 1 and not b)
        parts_left = sum(1 for i, b in enumerate(config) if lo + i <= 0 and b)
        return holes_right + max(lo - 1, 0) - parts_left - max(-hi, 0)

    def record():
        sites = [lo + i for i, b in enumerate(occ) if b]
        X = tuple(sites[x] for x in labels)
        eta = list(occ)
        for site in X:
            eta[site - lo] = 0
        xi_sum[:] += occ
        eta_sum[:] += eta
        if d:
            x_seen[X] += 1
            label_seen[tuple(labels)] += 1
            out["contaminated_probes"] += X[0] < lo + margin or X[-1] > hi - margin
        out["N_violations"] += conserved_N(occ) != conserved_N(eta) - d

    k = 0
    for t, tr in log:
        while k < len(times) and times[k] <= t:
            record()
            k += 1
        if tr.kind == "particle":
            i = tr.idx - lo
            assert occ[i] == 1 and occ[i + tr.step] == 0
            occ[i], occ[i + tr.step] = 0, 1
        else:
            labels[tr.idx] += tr.step
            assert labels == sorted(set(labels))
    while k < len(times):  # a state with no enabled move holds for ever
        record()
        k += 1
    n = len(times)
    return dict(out, probe_times=tuple(times), xi_rows=[xi_sum / n],
                eta_rows=[eta_sum / n], x_rows=[x_seen], label_rows=[label_seen])


class TestEventLogReplay:
    # once simulate's recorded draws equal the oracle's, the oracle's log,
    # replayed on plain lists, must rebuild simulate's report
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_replay_rebuilds_the_report(self, d):
        # a wide margin, so that some probes of a replica count as
        # contaminated and others do not
        p = AsepParams(q=0.7, c=0.3)
        kw = dict(probes=15, eps=0.45, margin=12)
        replayed = 0
        for seed in range(1, 6):
            rng, want_rng = RecordingRng(seed), RecordingRng(seed)
            try:
                rep = simulate(stationary_state(p, d, (-16, 16), rng, eps=0.45), p, 4.0,
                               rng, probes=15, margin=12)
            except LabelOutOfRange:  # the pi sample outranks the particles
                continue
            _, log = oracle_simulate_stationary(p, d, (-16, 16), 4.0, want_rng, **kw)
            assert rng.record == want_rng.record
            assert rep.n_events == len(log) > 0
            want = replay(p, d, (-16, 16), 4.0, seed, log=log, **kw)
            for name, value in want.items():
                got = getattr(rep, name)
                if name in ("xi_rows", "eta_rows"):
                    assert bits(got) == bits(value), name
                else:
                    assert got == value, name
            replayed += 1
        assert replayed >= 3

    def test_replay_of_a_window_that_freezes(self):
        # a two-site window that starts at 00 or 11 holds there for ever.  A
        # hop keeps the particle count, so only a start freezes, and the
        # oracle, which cannot step it, raises before its first event
        p = AsepParams(q=0.5, c=0.5)
        kw = dict(probes=10, eps=0.9, margin=0)
        frozen = 0
        for seed in range(8):
            rng, want_rng = RecordingRng(seed), RecordingRng(seed)
            rep = simulate(stationary_state(p, 0, (0, 1), rng, eps=0.9), p, 5.0, rng,
                           probes=10, margin=0)
            try:
                _, log = oracle_simulate_stationary(p, 0, (0, 1), 5.0, want_rng, **kw)
            except Absorbing:
                log = []
                frozen += 1
            assert rng.record == want_rng.record
            want = replay(p, 0, (0, 1), 5.0, seed, log=log, **kw)
            assert bits(rep.xi_rows) == bits(want["xi_rows"])
            assert bits(rep.eta_rows) == bits(want["eta_rows"])
            assert rep.N_violations == want["N_violations"]
        assert 0 < frozen < 8
