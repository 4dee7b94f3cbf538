"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Statistical criteria use a fixed seed that was pinned after validating the
test logic; z-tests use cross-replica standard errors, falling back to an
exact two-sided Poisson tail when a cell's expected count is below 5.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from aseplab.blocking import (
    AsepParams,
    brute_force_window_law,
    marginal,
    prob_left_particles,
    prob_N,
    prob_right_holes,
    prob_window_particles,
    shift_relation_checks,
)
from aseplab.coupling import (
    pi_detailed_balance_check,
    pi_label,
    prob_positions,
    prob_second_class_at,
    run_ensemble,
    sample_pi,
)
from aseplab.qseries import pochhammer_finite, pochhammer_infinite, q_pascal_check
from aseplab.verify import (
    verify_durfee,
    verify_durfee_exact,
    verify_euler,
    verify_euler_exact,
    verify_jacobi,
    verify_qbinomial,
    verify_qbinomial_exact,
)
from oracle import conditional_xi_given_labels

Q_GRID = (0.1, 0.5, 0.9)
C_GRID = (-1.5, 0.0, 2.0)
SEED = 20260817


def criterion(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def cell_ok(observed_freq, sem, count, prob, total_probes):
    """3-sigma z-test on replica frequencies; exact Poisson two-sided tail
    for sparse cells.  The z path needs count >= 25 as well as expected
    count >= 5: with only a handful of hit replicas the replica-level sem
    collapses and the z statistic is nowhere near normal."""
    lam = total_probes * prob
    if lam >= 5.0 and count >= 25 and sem > 0:
        return abs(observed_freq - prob) <= 3.0 * sem
    p_two = 2.0 * min(
        stats.poisson.cdf(count, lam), stats.poisson.sf(count - 1, lam)
    )
    return min(p_two, 1.0) > 0.0027


@pytest.fixture(scope="module")
def mc_runs():
    runs = {}
    t0 = time.monotonic()
    for d in (1, 2):
        runs[d] = run_ensemble(
            AsepParams(q=0.5, c=0.0),
            d,
            (-25, 25),
            T=50.0,
            replicas=1500,
            seed=SEED + d,
            probes=10,
            eps=1e-6,
        )
    runs["elapsed"] = time.monotonic() - t0
    return runs


def test_criterion_01_window_law_matches_brute_force():
    t0 = time.monotonic()
    worst = 0.0
    for q, c, m1 in itertools.product(Q_GRID, C_GRID, (-3, 2)):
        p = AsepParams(q=q, c=c)
        for mhat in range(1, 13):
            m2 = m1 + mhat + 1
            ref = brute_force_window_law(m1, m2, p)
            for k in range(0, mhat + 1):
                b = ref.prob(k)
                a = prob_window_particles(m1, m2, k, p)
                worst = max(worst, abs(a - b) / b)
    elapsed = time.monotonic() - t0
    criterion(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"window law vs 2^m brute force: max rel dev {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_left_particle_law_normalizes_and_is_window_limit():
    # The window (m-40, m) law differs from its m1 -> -inf limit by the
    # exact factor prod_{i>mhat}(1+x q^i) * prod_{i=mhat-k+1}^{mhat}(1-q^i)
    # with mhat=39, x=q^(c-m+1), so the comparison carries the rigorous
    # finite-offset bound S1 + expm1(S2) on top of the 1e-8 tolerance.
    # Without it the check is unattainable at q=0.9 (gap ~ q^(mhat-k+1)/(1-q)).
    worst_sum = 0.0
    worst_excess = -math.inf
    mhat = 39
    for q, c in itertools.product(Q_GRID, C_GRID):
        p = AsepParams(q=q, c=c)
        for m in (-2, 0, 3):
            total = sum(prob_left_particles(m, k, p) for k in range(0, 61))
            worst_sum = max(worst_sum, abs(total - 1.0))
            for k in range(0, 13):
                a = prob_left_particles(m - 1, k, p)
                b = prob_window_particles(m - 40, m, k, p)
                dev = abs(a - b) / max(a, 1e-300)
                s1 = q ** (mhat - k + 1) * (1.0 - q**k) / (1.0 - q)
                s2 = q ** (c - m + 1) * q**mhat / (1.0 - q)
                worst_excess = max(worst_excess, dev - (s1 + math.expm1(s2)))
    criterion(
        2,
        worst_sum <= 1e-9 and worst_excess <= 1e-8,
        f"half-infinite law: normalization defect {worst_sum:.2e}, "
        f"window-limit dev minus offset-40 bound {worst_excess:.2e}",
    )


def test_criterion_03_conserved_N_recursion():
    worst = 0.0
    for q, c in itertools.product(Q_GRID, C_GRID):
        p = AsepParams(q=q, c=c)
        for n in range(-20, 21):
            ratio = prob_N(n, p) / prob_N(n - 1, p)
            expected = q ** (n - c)
            worst = max(worst, abs(ratio - expected) / expected)
    criterion(3, worst <= 1e-10, f"prob_N ratio q^(n-c): max rel dev {worst:.2e}")


def test_criterion_04_shift_relations():
    worst = 0.0
    for q in Q_GRID:
        for c in (-1.5, 0.0, 0.7, 2.0):
            p = AsepParams(q=q, c=c)
            for m in (-2, 0, 3):
                for k in range(0, 6):
                    for check in shift_relation_checks(p, m, k):
                        worst = max(worst, check.rel_dev)
    criterion(
        4,
        worst <= 1e-10,
        f"lattice and c-step shift relations (incl. non-integer c): "
        f"max rel dev {worst:.2e}",
    )


def test_criterion_05_particle_hole_symmetry():
    worst = 0.0
    for q in Q_GRID:
        for c in C_GRID:
            for m in range(-3, 4):
                p = AsepParams(q=q, c=c)
                mirrored = AsepParams(q=q, c=2 * m + 1 - c)
                lq = math.log(q)
                for n in range(0, 21):
                    a = prob_right_holes(m, n, p)
                    b = prob_left_particles(m, n, mirrored)
                    # independent closed form
                    tail, _ = pochhammer_infinite(-(q ** (1 + m - c)), q)
                    direct = math.exp(
                        (n * (m - c) + n * (n + 1) / 2.0) * lq
                    ) / (pochhammer_finite(q, q, n) * tail)
                    worst = max(worst, abs(a - b) / max(a, 1e-300))
                    worst = max(worst, abs(a - direct) / max(a, 1e-300))
    criterion(
        5, worst <= 1e-10, f"hole/particle reflection: max rel dev {worst:.2e}"
    )


def test_criterion_06_exact_identity_suites():
    t0 = time.monotonic()
    ok = all(verify_durfee_exact(25, range(-3, 4)))
    ok &= verify_euler_exact(25, 6)
    ok &= all(verify_qbinomial_exact(m) for m in range(0, 13))
    ok &= all(q_pascal_check(m) for m in range(1, 13))  # k = 0..m each
    elapsed = time.monotonic() - t0
    criterion(
        6,
        ok and elapsed < 30.0,
        f"exact rectangle/euler/qbinomial/pascal suites: {elapsed:.1f}s",
    )


def test_criterion_07_numeric_identity_suites():
    reports = []
    for q in Q_GRID:
        for n in (-2, 0, 3):
            reports.append(verify_durfee(q, n, tol=1e-8))
        for z in (0.3, 1.0):
            reports.append(verify_euler(q, z, tol=1e-8))
            reports.append(verify_jacobi(q, z, tol=1e-8))
        reports.append(verify_qbinomial(q, 1.3, 8, tol=1e-8))
    worst = max(r.rel_dev for r in reports)
    criterion(
        7,
        all(r.passed for r in reports),
        f"numeric identity reports at q in {Q_GRID}: max rel dev {worst:.2e}",
    )


def test_criterion_08_label_detailed_balance_and_normalization():
    worst = 0.0
    n_checks = 0
    for q in Q_GRID:
        for d in (1, 2, 3):
            checks = pi_detailed_balance_check(d, q, cap=12)
            n_checks += len(checks)
            worst = max(worst, max(ch.rel_dev for ch in checks))
    norm_defect = 0.0
    for q, cap, dmax in ((0.1, 15, 3), (0.5, 45, 3), (0.9, 260, 2)):
        for d in range(1, dmax + 1):
            total = sum(
                pi_label(x, q) for x in itertools.combinations(range(cap + 1), d)
            )
            norm_defect = max(norm_defect, abs(total - 1.0))
    criterion(
        8,
        worst <= 1e-12 and norm_defect <= 1e-10,
        f"pi detailed balance ({n_checks} relations, max dev {worst:.2e}), "
        f"normalization defect {norm_defect:.2e}",
    )


def test_criterion_09_pi_sampler_chisquare():
    q = 0.5
    n = 100_000
    pvals = []
    for d in (1, 2, 3):
        rng = np.random.default_rng(SEED + 10 * d)
        counts = {}
        for _ in range(n):
            x = sample_pi(d, q, rng)
            counts[x] = counts.get(x, 0) + 1
        cells = [
            x
            for x in itertools.combinations(range(16), d)
            if n * pi_label(x, q) >= 5.0
        ]
        probs = [pi_label(x, q) for x in cells]
        f_obs = [counts.get(x, 0) for x in cells]
        f_exp = [n * pr for pr in probs]
        f_obs.append(n - sum(f_obs))
        f_exp.append(n * (1.0 - sum(probs)))
        pvals.append(stats.chisquare(f_obs, f_exp).pvalue)
    criterion(
        9,
        all(pv > 0.01 for pv in pvals),
        "sample_pi chi-square p-values d=1,2,3: "
        + ", ".join(f"{pv:.3f}" for pv in pvals),
    )


def test_criterion_10_monte_carlo_matches_position_laws(mc_runs):
    p = AsepParams(q=0.5, c=0.0)
    failures = []

    rep1 = mc_runs[1]
    cells = rep1.key_stats(rep1.x_rows)
    for m in range(-10, 11):
        key = (m,)
        count, mean, sem = cells.get(key, (0, 0.0, 0.0))
        target = prob_second_class_at(m, p, 1)
        if not cell_ok(mean, sem, count, target, rep1.total_probes):
            failures.append(f"d=1 m={m}")

    rep2 = mc_runs[2]
    cells2 = rep2.key_stats(rep2.x_rows)
    for m1 in range(-8, 9):
        for m2 in range(m1 + 1, 9):
            key = (m1, m2)
            count, mean, sem = cells2.get(key, (0, 0.0, 0.0))
            target = prob_positions(key, p)
            if not cell_ok(mean, sem, count, target, rep2.total_probes):
                failures.append(f"d=2 m={key}")

    contamination = max(rep1.contamination_fraction, rep2.contamination_fraction)
    ok = (
        not failures
        and contamination < 1e-3
        and mc_runs["elapsed"] < 300.0
    )
    criterion(
        10,
        ok,
        f"Monte Carlo X-laws, {rep1.n_replicas}+{rep2.n_replicas} replicas "
        f"x T=50: cell failures {failures or 'none'}, contamination "
        f"{contamination:.1e}, {mc_runs['elapsed']:.1f}s",
    )


def test_criterion_11_coupling_consistency(mc_runs):
    worst_z = 0.0
    violations = 0
    for d in (1, 2):
        rep = mc_runs[d]
        violations += rep.N_violations
        pe = AsepParams(q=0.5, c=0.0 + d)
        mean, sem = rep.eta_site_stats()
        for j, site in enumerate(rep.sites):
            t = marginal(int(site), 1, pe)
            sigma = max(
                float(sem[j]), math.sqrt(t * (1 - t) / rep.total_probes), 1e-12
            )
            worst_z = max(worst_z, abs(float(mean[j]) - t) / sigma)
    criterion(
        11,
        worst_z <= 3.0 and violations == 0,
        f"eta marginals vs c+d blocking measure: max |z| {worst_z:.2f}; "
        f"N(xi)=N(eta)-d violations {violations}",
    )


def test_criterion_12_conditional_mixture_rebuilds_position_law():
    p = AsepParams(q=0.5, c=0.0)
    worst = 0.0
    for m1 in range(-6, 7):
        for m2 in range(m1 + 1, 7):
            m = (m1, m2)
            total = 0.0
            for k1 in range(0, 45):
                for k2 in range(k1 + 1, 46):
                    w = pi_label((k1, k2), p.q)
                    total += w * conditional_xi_given_labels(m, (k1, k2), p)
            target = prob_positions(m, p)
            worst = max(worst, abs(total - target) / target)
    criterion(
        12,
        worst <= 1e-8,
        f"sum_k pi(k) conditional == joint position law: max rel dev {worst:.2e}",
    )
