"""Two-species basic coupling for ASEP in a finite window.

The pair (xi, x) carries a xi-configuration (rate 1 right, rate q left,
exclusion) plus d labels x_1 < ... < x_d marking which particles, counted
from the leftmost, are second class.  Labels swap with neighbouring
unlabeled particles only when the two particles sit on adjacent sites:
label right-jump rate q, left-jump rate 1, never moving past another label.
Removing the labeled particles from xi yields the first-class process eta.

The label chain alone is positive recurrent with the product-form law pi;
jointly, blocking measure times pi is reversible, so a replica started from
an exact sample stays in law for all t.  Site exchanges across the frozen
window boundary are disabled; the simulator counts how often the labels get
near enough to the edge for that truncation to matter instead of assuming
it never does.

The label and position laws need only the standard library; numpy is
imported inside the simulator's functions that build or read arrays.
"""

from bisect import bisect_right
from collections import Counter
from functools import lru_cache, reduce
import itertools
import math
import operator

from .blocking import (RelationCheck, WindowState, _log1p_qpow, draw_window,
                       site_profile)


class LabelOutOfRange(ValueError):
    """A label exceeds the number of particles present in the window."""


def as_labels(x):
    labels = tuple(int(v) for v in x)
    if any(b <= a for a, b in zip(labels, labels[1:])) or (
        labels and labels[0] < 0
    ):
        raise ValueError(f"labels must satisfy 0 <= x1 < ... < xd, got {labels}")
    return labels


class CoupledState:
    """Mutable engine state of the coupled chain.

    The occupancies live in the bytearray `occ`; `xi.bits` is a numpy view
    of that same buffer.  Construction copies the given window in, so the
    caller's WindowState is never touched.  `positions` lists the site of
    each labeled particle, in slot order; particles never pass each other,
    so a site moves only with its particle's hop or its label's swap onto
    the adjacent particle, by the same step.  `walls` lists, in increasing
    order, the window indices k with occ[k] != occ[k-1]: the domain walls,
    one per enabled particle hop.  A hop keeps its own bond a wall and
    toggles only the two bonds beside it, so an event costs O(log walls + d)
    Python steps rather than a walk over every wall.  Change the state only
    through simulate, which keeps `occ`, `positions`, `walls` and `labels`
    consistent and counts its probes where they change.  These fields are
    all the state holds; it keeps no record of the probes.
    """

    def __init__(self, xi, labels):
        import numpy as np
        self.labels = as_labels(labels)
        lo, hi = xi.lo, xi.hi
        occ = self.occ = bytearray(xi.bits.tobytes())
        self.xi = WindowState(lo, hi, np.frombuffer(occ, dtype=np.uint8))
        occupied = [lo + i for i, b in enumerate(occ) if b]
        self.walls = [k for k in range(1, len(occ)) if occ[k] != occ[k - 1]]
        if self.labels and self.labels[-1] >= len(occupied):
            raise LabelOutOfRange(
                f"label {self.labels[-1]} but only "
                f"{len(occupied)} particles in window"
            )
        self.positions = [occupied[x] for x in self.labels]


@lru_cache(maxsize=16, typed=True)
def _wall_sums(n, q):
    """Running sums of the particle-hop rates at the walls of a window of n
    bonds, left to right: the sums if site lo is empty, then the sums if it
    holds a particle.  A 1->0 wall is a right hop at rate 1, a 0->1 wall a
    left hop at rate q, and the wall types alternate, so the rates are q, 1,
    q, ... when site lo is empty and 1, q, 1, ... when it is not.  Each
    tuple has one entry per bond; the first len(walls) entries are the live
    ones.  An ensemble builds them once."""
    return tuple(tuple(itertools.accumulate(([a, b] * n)[:n]))
                 for a, b in ((q, 1.0), (1.0, q)))


@lru_cache(maxsize=16, typed=True)
def _probe_times(T, probes):
    """t = 0 and, if T > 0 and probes >= 1, the probes evenly spaced times
    up to T.  An ensemble builds them once."""
    if T > 0 and probes >= 1:
        return (0.0,) + tuple(i * T / probes for i in range(1, probes + 1))
    return (0.0,)


def _label_moves(s, q):
    """Enabled label swaps as (slot, step) codes and their rates, by slot,
    right swap before left swap: a label swaps with the particle on the
    window site next to its own if that particle is unlabeled."""
    codes, rates = [], []
    occ, positions = s.occ, s.positions
    lo, n = s.xi.lo, len(occ)
    for slot, site in enumerate(positions):
        i = site - lo
        if i + 1 < n and occ[i + 1] and site + 1 not in positions:
            codes.append((slot, 1))
            rates.append(q)
        if i and occ[i - 1] and site - 1 not in positions:
            codes.append((slot, -1))
            rates.append(1.0)
    return codes, rates


def _pi_norm(qv, d):
    """prod_{i<=d} (1-q^i), the normalization of pi."""
    out = 1.0
    for i in range(1, d + 1):
        out *= 1.0 - qv ** i
    return out


def pi_label(x, q):
    """Stationary label law pi(x) = prod_{i<=d}(1-q^i) * q^{sum x - d(d-1)/2}."""
    labels = as_labels(x)
    d = len(labels)
    return _pi_norm(q, d) * q ** (sum(labels) - d * (d - 1) // 2)


def pi_label_table(d, q, cap):
    """(x, pi_label(x, q)) for every label tuple x with x_d <= cap, in
    itertools.combinations order; the normalization is computed once."""
    norm = _pi_norm(q, d)
    shift = d * (d - 1) // 2
    for x in itertools.combinations(range(cap + 1), d):
        yield x, norm * q ** (sum(x) - shift)


def pi_detailed_balance_check(d, q, cap):
    """All balance relations pi(x) q = pi(x + e_j) over states with
    x_d <= cap; returns RelationCheck rows."""
    checks = []
    for x in itertools.combinations(range(cap + 1), d):
        for j in range(d):
            y = list(x)
            y[j] += 1
            if j + 1 < d and y[j] == x[j + 1]:
                continue  # ordering broken, move not allowed
            checks.append(
                RelationCheck(
                    f"pi balance {x} -> {tuple(y)}",
                    pi_label(x, q) * q,
                    pi_label(tuple(y), q),
                )
            )
    return checks


def sample_pi(d, q, rng):
    """Exact pi sample via independent geometric gaps.

    x_1 and the successive gaps x_j - x_{j-1} - 1 are geometric on {0,1,...}
    with ratios q^d, q^{d-1}, ..., q: the nested-sum form of the
    normalization read backwards.
    """
    x, cur = [], -1  # x_0 = -1 makes x_1 the first gap
    for j in range(1, d + 1):
        cur += int(rng.geometric(1.0 - q ** (d + 1 - j)))  # 1 + gap
        x.append(cur)
    return tuple(x)


def prob_second_class_at(m, p, d):
    """P(a second class particle occupies site m) at stationarity:
    (1-q^d) q^{c-m} / ((1+q^{c-m})(1+q^{c+d-m}))."""
    if d < 1:
        raise ValueError("d must be positive")
    lq = math.log(p.q)
    u = p.c - m
    logv = (
        math.log1p(-(p.q ** d))
        + u * lq
        - _log1p_qpow(u, lq)
        - _log1p_qpow(u + d, lq)
    )
    return math.exp(logv)


def prob_positions(m, p):
    """Joint law of the d = len(m) second-class positions (Thm of the d-label
    chain): prod_i (1-q^i) * q^{dc - sum m_j} / prod_j (1+q^{c+d-j-m_j})(1+q^{c+d+1-j-m_j})."""
    mvec = tuple(int(v) for v in m)
    if not mvec:
        raise ValueError("m must have length d >= 1")
    if any(b <= a for a, b in zip(mvec, mvec[1:])):
        raise ValueError("positions must be strictly increasing")
    return next(prob_positions_of([mvec], p, len(mvec)))


def _position_terms(sites, p, d):
    """log prod_i (1-q^i), and slots[j-1][i]: (c-m) log q and the logs of slot
    j's two denominator factors at m = sites[i], then (m,).  Added left to right."""
    lq = math.log(p.q)
    base = reduce(operator.add, (math.log1p(-(p.q ** i)) for i in range(1, d + 1)), 0.0)
    return base, [[(u * lq, _log1p_qpow(u + d - j, lq), _log1p_qpow(u + d + 1 - j, lq),
                    (m,)) for m in sites for u in (p.c - m,)] for j in range(1, d + 1)]


def prob_positions_of(keys, p, d):
    """prob_positions(m, p) for each increasing int d-tuple m of the list
    keys, in order, with the terms of each (slot, site) computed once."""
    sites = sorted({m for key in keys for m in key})
    index = {m: i for i, m in enumerate(sites)}
    base, slots = _position_terms(sites, p, d)
    for key in keys:
        logv = base
        for terms, m in zip(slots, key):
            ul, a, b, _ = terms[index[m]]
            logv = logv + ul - a - b
        yield math.exp(logv)


def prob_positions_table(sites, p, d):
    """(m, prob_positions(m, p)) for every increasing d-tuple m of the
    increasing int sites, in itertools.combinations order.

    The log sum of each (d-1)-slot prefix is computed once for all its rows;
    a row adds only its last slot's terms, still left to right, so every
    float is bit for bit the per-tuple evaluation's.
    """
    sites = tuple(sites)
    base, (*head, last) = _position_terms(sites, p, d)
    # prefixes in order, each then with its last sites: combinations order
    for prefix in itertools.combinations(range(len(sites) - 1), d - 1):
        logv, m = base, ()
        for terms, i in zip(head, prefix):
            ul, a, b, site = terms[i]
            logv = logv + ul - a - b
            m += site
        for ul, a, b, site in last[prefix[-1] + 1 if prefix else 0:]:
            yield m + site, math.exp(logv + ul - a - b)


def mean_and_sem(rows, n):
    """Mean and standard error over n replicas of their rows: one value or
    array per replica, in replica order.  A key table passes only the
    replicas that saw the key; a replica left out would add exactly 0 to
    both sums.  Both sums are plain left folds in replica order, never
    pairwise (numpy's sum) or compensated (the builtin float sum from
    Python 3.12), so the printed bits do not depend on either.  With fewer
    than two replicas there is no error estimate, and sem is None."""
    import numpy as np
    total = reduce(operator.add, rows)
    mean = total / n
    if n < 2:
        return mean, None
    total_sq = reduce(operator.add, (r * r for r in rows))
    var = np.maximum((total_sq - total * mean) / (n - 1), 0.0)
    return mean, np.sqrt(var / n)


class SimulationReport:
    """Mergeable record of replicas of the coupled simulation.

    Counts add over replicas.  The rest is one row per replica, in replica
    order: the time-mean xi and eta occupancy of each site over the probes,
    and a Counter of the probes that saw each second-class position vector
    and each label vector.  Rows cost O(replicas x (width + keys per
    replica)) memory; every mean and standard error is computed from them
    on demand.
    """

    # the run layout, which merged reports share, and what merge adds up
    LAYOUT = ("lo", "hi", "d", "q", "c", "T", "probe_times")
    SUMMED = ("n_events", "contaminated_probes", "N_violations",
              "xi_rows", "eta_rows", "x_rows", "label_rows")

    def __init__(self, lo, hi, d, q, c, T, probe_times, n_events=0,
                 contaminated_probes=0, N_violations=0, xi_rows=(),
                 eta_rows=(), x_rows=(), label_rows=()):
        self.lo, self.hi, self.d, self.q, self.c, self.T = lo, hi, d, q, c, T
        self.probe_times = probe_times
        self.n_events = n_events
        self.contaminated_probes = contaminated_probes
        self.N_violations = N_violations
        # each report owns its row lists, which merge extends in place
        self.xi_rows, self.eta_rows = list(xi_rows), list(eta_rows)
        self.x_rows, self.label_rows = list(x_rows), list(label_rows)

    @property
    def sites(self):
        import numpy as np
        return np.arange(self.lo, self.hi + 1)

    @property
    def n_probes(self):
        return len(self.probe_times)

    @property
    def n_replicas(self):
        return len(self.xi_rows)

    @property
    def total_probes(self):
        return self.n_replicas * self.n_probes

    @property
    def contamination_fraction(self):
        if self.total_probes == 0:
            return 0.0
        return self.contaminated_probes / self.total_probes

    def meta(self):
        return {
            "lo": self.lo,
            "hi": self.hi,
            "d": self.d,
            "q": self.q,
            "c": self.c,
            "T": self.T,
            "replicas": self.n_replicas,
            "probes_per_replica": self.n_probes,
            "events": self.n_events,
            "contaminated_probes": self.contaminated_probes,
            "total_probes": self.total_probes,
            "N_violations": self.N_violations,
        }

    def xi_site_stats(self):
        return mean_and_sem(self.xi_rows, self.n_replicas)

    def eta_site_stats(self):
        return mean_and_sem(self.eta_rows, self.n_replicas)

    def key_stats(self, rows):
        """{key: (count, mean, sem)} in sorted key order for x_rows or
        label_rows: the probes that saw the key, and the mean and standard
        error over replicas of the fraction of a replica's probes that saw
        it.  Each (replica, key) entry is read once."""
        seen = {}
        for row in rows:
            for key, cnt in row.items():
                seen.setdefault(key, []).append(cnt)
        n, probes = self.n_replicas, self.n_probes
        return {
            key: (sum(cnts), *mean_and_sem([cnt / probes for cnt in cnts], n))
            for key, cnts in sorted(seen.items())
        }

    def merge(self, other):
        """Add other's replicas after self's and return self.

        The LAYOUT fields must agree.  Every SUMMED field is a count, which
        adds, or a list of rows, which extends: operator.iadd does both.
        """
        if any(getattr(self, n) != getattr(other, n) for n in self.LAYOUT):
            raise ValueError("cannot merge reports with different run layouts")
        for name in self.SUMMED:
            setattr(self, name,
                    operator.iadd(getattr(self, name), getattr(other, name)))
        return self


def simulate(state, p, T, rng, probes=10, margin=5):
    """Gillespie from the given state, changed in place, to time T, the
    state recorded at probes+1 evenly spaced times including t=0.

    The probe at a time inside a holding interval sees the state holding
    there; a state with no enabled move holds for ever, so every later probe
    sees it.  Contamination = probes where some second-class particle sits
    within `margin` sites of the window edge.  N_violations = probes where
    the labeled sites are not d distinct occupied sites, so that removing
    the labeled particles would not raise N by d.

    Each event draws its holding time, then one uniform that picks its move:
    the live wall sums first, walls left to right, then the label moves in
    _label_moves order.  So a run is reproducible from its seed.  The label
    moves are listed again only when an event changes them.  Probes are
    counted only where what they see changes, as the number of probe times
    passed since the last change, and once more at T: a site's occupied
    probes when its particle leaves, the label vector's probes at a label
    swap, and the position vector's probes and the violations at a label
    swap or a hop from or onto a labeled site.  A change that no probe saw
    counts nothing, so no key gets a count of 0.  Contamination is read off
    the position vectors' counts at T.
    """
    import numpy as np
    lo, hi = state.xi.lo, state.xi.hi
    d = len(state.labels)
    probe_times = _probe_times(T, probes)
    rep = SimulationReport(lo, hi, d, p.q, p.c, T, probe_times,
                           x_rows=[Counter()], label_rows=[Counter()])
    n_probes = len(probe_times)
    occ, walls, positions = state.occ, state.walls, state.positions
    width = len(occ)
    sums_by_lo = _wall_sums(width - 1, p.q)
    exponential, random = rng.exponential, rng.random
    codes, label_rates = _label_moves(state, p.q)
    x_seen, labels_seen = rep.x_rows[0], rep.label_rows[0]
    # seen[k] + idx * occ[k] is the number of probes before idx that saw
    # window index k occupied: a hop adds idx where it leaves, takes idx
    # off where it lands
    seen = [0] * width
    # the position vector and whether it violates, from probe held on, and
    # the labels from probe labels_held on
    x = tuple(positions)
    bad = len({site for site in x if occ[site - lo]}) != d
    held = labels_held = violations = 0
    idx, n_events, t = 1, 0, 0.0
    while idx < n_probes:
        n = len(walls)
        sums = sums_by_lo[occ[0]]
        acc = total = sums[n - 1] if n else 0.0
        for r in label_rates:
            total += r
        if total <= 0.0:
            break  # nothing is enabled: the state holds for ever
        t += exponential(1.0 / total)
        u = random() * total
        # first move whose running rate sum exceeds u.  For r < 1, u = r*total
        # rounds below total, the running sum over every move, so i < n when no
        # label move is enabled, and the label loop always breaks
        i = bisect_right(sums, u, 0, n)
        if i == n:
            for i, r in enumerate(label_rates, n):
                acc += r
                if u < acc:
                    break
        if probe_times[idx] <= t:
            # probes idx..nxt-1, the ones at or before t, saw the state
            # that held until this event
            idx = bisect_right(probe_times, t, idx)
        if i < n:
            # the particle hop across wall k: right from window index k-1 if
            # it holds the particle, left from k otherwise
            k = walls[i]
            step = 1 if occ[k - 1] else -1
            src = k - (step > 0)
            site = lo + src
            moved = site in positions
            if moved:  # the labeled hopper takes its site along
                positions[positions.index(site)] += step
            elif site + step in positions:
                moved = True
            occ[src] = 0
            occ[src + step] = 1
            seen[src] += idx
            seen[src + step] -= idx
            # the hop's bond k stays a wall; the bonds k-1 and k+1 toggle
            if k + 1 < width:
                if i + 1 < len(walls) and walls[i + 1] == k + 1:
                    del walls[i + 1]
                else:
                    walls.insert(i + 1, k + 1)
            if k > 1:
                if i and walls[i - 1] == k - 1:
                    del walls[i - 1]
                else:
                    walls.insert(i, k - 1)
            # the hopper, now at b + occ[k], left one of the window indices
            # k-2, k+1 and met the other; the label moves change iff either
            # holds a particle labeled unlike the hopper
            b = lo + k - 1  # the hop is between sites b and b+1
            mine = b + occ[k] in positions
            if (k > 1 and occ[k - 2] and (b - 1 in positions) != mine
                    or k + 1 < width and occ[k + 1]
                    and (b + 2 in positions) != mine):
                codes, label_rates = _label_moves(state, p.q)
        else:
            slot, step = codes[i - n]
            labels = state.labels
            if idx > labels_held:
                labels_seen[labels] += idx - labels_held
                labels_held = idx
            state.labels = labels[:slot] + (labels[slot] + step,) + labels[slot + 1:]
            positions[slot] += step
            codes, label_rates = _label_moves(state, p.q)
            moved = True
        n_events += 1
        if moved:
            if idx > held:
                x_seen[x] += idx - held
                violations += (idx - held) * bad
                held = idx
            x = tuple(positions)
            bad = len({site for site in x if occ[site - lo]}) != d
    rep.n_events = n_events
    if d:
        if n_probes > held:
            x_seen[x] += n_probes - held
        if n_probes > labels_held:
            labels_seen[state.labels] += n_probes - labels_held
        rep.contaminated_probes = sum(
            c for key, c in x_seen.items()
            if key[0] < lo + margin or key[-1] > hi - margin)
    rep.N_violations = violations + (n_probes - held) * bad

    # every count is an exact integer before the rows' one division; eta
    # drops the probes at which a label sat on the site
    xi = [c + n_probes * b for c, b in zip(seen, occ)]
    eta = xi.copy()
    for key, c in x_seen.items():
        for site in key:
            eta[site - lo] -= c
    rep.xi_rows.append(np.array(xi) / n_probes)
    rep.eta_rows.append(np.array(eta) / n_probes)
    return rep


def replica_rng(seed, index):
    """Documented stream-splitting rule: replica i draws from
    default_rng(SeedSequence([seed, i]))."""
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def run_ensemble(p, d, window, T, replicas, seed, probes=10, eps=1e-6, margin=5):
    """Independent replicas with per-replica RNG streams, merged into one
    report in replica order as each completes.  Each replica draws its
    exact (mu^c x pi) start on its own stream, the window against one site
    profile computed for the whole ensemble and then the labels, and runs
    simulate from it.  The report keeps every replica's rows, so it grows
    with the replica count.  It carries the contamination count; judging
    it is the caller's business."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    profile = site_profile(window, p, eps)

    def replica(i):
        rng = replica_rng(seed, i)
        state = CoupledState(draw_window(window, profile, rng), sample_pi(d, p.q, rng))
        return simulate(state, p, T, rng, probes, margin)

    return reduce(SimulationReport.merge, map(replica, range(replicas)))
