"""Stationary simulation of the coupled two-species process.

Each replica starts from an exact sample of the stationary pair (product
blocking measure for the particles, rank law pi for the tags), runs the
Gillespie dynamics to time T inside a finite window with frozen boundary
tails, and records occupancies plus tagged-particle positions at evenly
spaced probes.  The report keeps one row per replica -- its time-mean
occupancy of each site and a Counter of the positions its probes saw -- and
every mean and standard error below is folded from those rows.  Everything
printed is compared against a closed form.
"""

import numpy as np

from aseplab.blocking import AsepParams, marginal
from aseplab.coupling import (
    prob_positions,
    prob_second_class_at,
    run_ensemble,
)


def main():
    p = AsepParams(q=0.5, c=0.0)
    d = 1
    rep = run_ensemble(p, d, (-20, 20), T=30.0, replicas=300, seed=7, probes=6)
    meta = rep.meta()
    print(f"{meta['replicas']} replicas x T={meta['T']}, "
          f"{meta['events']} events, {meta['total_probes']} probes, "
          f"contamination {rep.contamination_fraction:.1e}, "
          f"N identity violations {meta['N_violations']}")

    def worst_z(mean, sem, target):
        # replica sem collapses at sites pinned by the frozen tails, so
        # floor it with the binomial scale of the probe count
        floor = np.sqrt(target * (1.0 - target) / rep.total_probes)
        return np.abs((mean - target) / np.maximum(sem, floor + 1e-12)).max()

    def profile(law):
        return np.array([marginal(int(i), 1, law) for i in rep.sites])

    # two-species occupancies against the blocking profile at c
    mean, sem = rep.xi_site_stats()
    target = profile(p)
    print(f"xi site marginals: worst |z| {worst_z(mean, sem, target):.2f} "
          f"over {len(mean)} sites")

    # removing the tagged particle shifts the interface one step left,
    # i.e. the first class config follows the blocking measure at c + d
    mean_e, sem_e = rep.eta_site_stats()
    target_e = profile(AsepParams(q=p.q, c=p.c + d))
    print(f"eta site marginals vs c+{d} profile: worst |z| "
          f"{worst_z(mean_e, sem_e, target_e):.2f}")

    # tagged position law: discrete logistic in q^(c-m); key_stats gives
    # (probe count, mean, sem) per position over the replicas' Counters
    cells = rep.key_stats(rep.x_rows)
    print("\n  m   P(X=m)      empirical    z")
    for m in range(-4, 5):
        t = prob_second_class_at(m, p, d)
        _, f, s = cells.get((m,), (0, 0.0, 0.0))
        zz = (f - t) / s if s > 0 else float("nan")
        print(f" {m:3d}  {t:.6f}    {f:.6f}  {zz:+5.2f}")

    # the d=2 pair law is normalized, and summing it over pairs through a
    # fixed site recovers the one-site intensity at d=2
    box = range(-30, 31)
    p2 = sum(
        prob_positions((m1, m2), p) for m1 in box for m2 in range(m1 + 1, 31)
    )
    inten = sum(
        prob_positions(tuple(sorted((0, m))), p) for m in box if m != 0
    )
    print(f"\nd=2 pair law total mass over a wide box: {p2:.6f}")
    print(f"pair mass through site 0: {inten:.8f}  one-site law: "
          f"{prob_second_class_at(0, p, 2):.8f}")
    print("site-0 occupancy, c=0 blocking measure:", marginal(0, 1, p))


if __name__ == "__main__":
    main()
