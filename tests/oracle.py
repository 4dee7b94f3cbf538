"""Test oracles for the coupled chain, written apart from the package's stepper.

The stepper here is the earlier per-event one, kept but for the log of
(time, Move) pairs it returns beside its report and for its loop standing
apart from its stationary start, so that it also runs from a given state: it
rescans every bond, builds a Move for every enabled move from the model
rules and copies the whole state on each event.  The tests take their move
rules from it and the package's behaviour from `simulate` alone, through the
generator calls a RecordingRng records, the report and the state it leaves;
`one_event` runs `simulate` for exactly one event with a stub generator and
reads the move from the state change.

`conditional_xi_given_labels` is the closed form of the xi-event on which
the labels point at given sites, which the position-law checks mix over pi;
`log_pochhammer_finite` is its log (a;q)_n.
"""

from collections import Counter
from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from aseplab.blocking import WindowState, sample_blocking
from aseplab.coupling import (
    CoupledState,
    LabelOutOfRange,
    SimulationReport,
    as_labels,
    sample_pi,
    simulate,
)
from aseplab.qseries import _check_q, log_neg_pochhammer_infinite


class Absorbing(Exception):
    """The oracle's total rate is zero; the window holds no movable matter."""


class Move(NamedTuple):
    """kind 'particle': the particle at site idx hops to idx+step.
    kind 'label': label slot j=idx moves to particle index x_j + step."""

    kind: str
    idx: int
    step: int


@dataclass
class OracleState:
    xi: WindowState
    labels: tuple

    def __post_init__(self):
        self.labels = as_labels(self.labels)
        if self.labels and self.labels[-1] >= self.xi.particle_count():
            raise LabelOutOfRange(
                f"label {self.labels[-1]} but only "
                f"{self.xi.particle_count()} particles in window"
            )

    @property
    def d(self):
        return len(self.labels)

    def particle_sites(self):
        return self.xi.sites[self.xi.bits == 1]


def oracle_enabled_transitions(s, p):
    """Every enabled move and its rate: particle hops by bond from left to
    right, then label swaps by slot, right swap before left swap."""
    q = p.q
    xi = s.xi
    bits = xi.bits
    out = []
    for j in range(xi.width - 1):
        a, b = bits[j], bits[j + 1]
        if a == 1 and b == 0:
            out.append((Move("particle", xi.lo + j, 1), 1.0))
        elif a == 0 and b == 1:
            out.append((Move("particle", xi.lo + j + 1, -1), q))
    if s.labels:
        pos = np.flatnonzero(bits) + xi.lo
        n_part = len(pos)
        label_set = set(s.labels)
        for slot, x in enumerate(s.labels):
            right = x + 1
            if right < n_part and right not in label_set and pos[right] == pos[x] + 1:
                out.append((Move("label", slot, 1), q))
            left = x - 1
            if left >= 0 and left not in label_set and pos[left] == pos[x] - 1:
                out.append((Move("label", slot, -1), 1.0))
    return out


def oracle_apply_transition(s, tr):
    """A new state: s after the move tr."""
    if tr.kind == "particle":
        xi = s.xi.copy()
        i = tr.idx - xi.lo
        xi.bits[i] = 0
        xi.bits[i + tr.step] = 1
        return OracleState(xi=xi, labels=s.labels)
    labels = list(s.labels)
    labels[tr.idx] += tr.step
    return OracleState(xi=s.xi, labels=tuple(labels))


def oracle_choose_transition(s, p, rng):
    trans = oracle_enabled_transitions(s, p)
    total = sum(r for _, r in trans)
    if total <= 0.0:
        raise Absorbing("no enabled transitions")
    dt = rng.exponential(1.0 / total)
    u = rng.random() * total
    acc = 0.0
    chosen = trans[-1][0]
    for tr, r in trans:
        acc += r
        if u < acc:
            chosen = tr
            break
    return chosen, dt


def oracle_second_class_positions(s):
    pos = s.particle_sites()
    if s.labels and s.labels[-1] >= len(pos):
        raise LabelOutOfRange("labels exceed particles present")
    return tuple(int(pos[x]) for x in s.labels)


def oracle_eta_from(s):
    eta = s.xi.copy()
    for site in oracle_second_class_positions(s):
        eta.bits[site - eta.lo] = 0
    return eta


def oracle_simulate_stationary(p, d, window, T, rng, probes=10, eps=1e-6, margin=5):
    xi = sample_blocking(window, p, rng, eps=eps)
    labels = sample_pi(d, p.q, rng)
    return oracle_simulate(OracleState(xi=xi, labels=labels), p, T, rng, probes, margin)


def oracle_simulate(state, p, T, rng, probes=10, margin=5):
    """The report of a run from state and the run's log of (time, Move)
    pairs, one per event."""
    lo, hi = state.xi.lo, state.xi.hi
    d = state.d
    if T > 0 and probes >= 1:
        probe_times = [0.0] + [i * T / probes for i in range(1, probes + 1)]
    else:
        probe_times = [0.0]
    rep = SimulationReport(lo, hi, d, p.q, p.c, T, tuple(probe_times))
    log = []

    n_probes = len(probe_times)
    xi_acc = np.zeros(state.xi.width)
    eta_acc = np.zeros(state.xi.width)
    x_local = {}
    label_local = {}

    def record(idx):
        bits = state.xi.bits
        xi_acc[:] += bits
        X = oracle_second_class_positions(state) if d else ()
        eta = oracle_eta_from(state) if d else state.xi
        eta_acc[:] += eta.bits
        if d:
            x_local[X] = x_local.get(X, 0) + 1
            label_local[state.labels] = label_local.get(state.labels, 0) + 1
            if X[0] < lo + margin or X[-1] > hi - margin:
                rep.contaminated_probes += 1
        if state.xi.conserved_N() != eta.conserved_N() - d:
            rep.N_violations += 1

    record(0)
    idx = 1
    t = 0.0
    while idx < n_probes:
        tr, dt = oracle_choose_transition(state, p, rng)
        t_next = t + dt
        while idx < n_probes and probe_times[idx] <= t_next:
            record(idx)
            idx += 1
        log.append((t_next, tr))
        state = oracle_apply_transition(state, tr)
        t = t_next
        rep.n_events += 1

    assert sum(x_local.values()) == sum(label_local.values()) == (n_probes if d else 0)
    rep.xi_rows.append(xi_acc / n_probes)
    rep.eta_rows.append(eta_acc / n_probes)
    rep.x_rows.append(Counter(x_local))
    rep.label_rows.append(Counter(label_local))
    return rep, log


# ------------------------------------------------- the package, event by event


class RecordingRng:
    """Forwards each draw to default_rng(seed) and records, in call order,
    the method, its argument and what it returned, an array as a tuple."""

    def __init__(self, seed):
        self.rng, self.record = np.random.default_rng(seed), []

    def _draw(self, name, arg):
        out = getattr(self.rng, name)(arg)
        kept = tuple(out.tolist()) if isinstance(out, np.ndarray) else out
        self.record.append((name, arg, kept))
        return out

    def exponential(self, scale):
        return self._draw("exponential", scale)

    def random(self, size=None):
        return self._draw("random", size)

    def geometric(self, p):
        return self._draw("geometric", p)


class StubRng:
    """Returns the uniform draw u and records the exponential's scale."""

    def __init__(self, u):
        self.u, self.scale = u, None

    def exponential(self, scale):
        self.scale = scale
        return 2.0

    def random(self):
        return self.u


def one_event(state, p, u):
    """Step the CoupledState state, in place, by exactly one event of
    simulate, its move picked by the uniform draw u.  Returns the move and
    the scale of the holding time's draw.  With one probe at T = 1 and a
    holding time of 2, simulate records t = 0, makes the one move and stops.

    The move is read from the state change: a hop empties one site and fills
    the adjacent one, and leaves the labels; a label swap moves one label by
    one and leaves the occupancies."""
    rng = StubRng(u)
    occ, labels = bytes(state.occ), state.labels
    assert simulate(state, p, 1.0, rng, probes=1).n_events == 1
    sites = [i for i, (a, b) in enumerate(zip(occ, state.occ)) if a != b]
    slots = [j for j, (a, b) in enumerate(zip(labels, state.labels)) if a != b]
    if sites:
        assert not slots and len(sites) == 2 and sites[1] == sites[0] + 1, sites
        i = sites[0]
        step = 1 if occ[i] else -1
        move = Move("particle", state.xi.lo + i + (step < 0), step)
    else:
        slot, = slots
        move = Move("label", slot, state.labels[slot] - labels[slot])
        assert abs(move.step) == 1, move
    return move, rng.scale


def midpoint_draw(moves, tr):
    """The uniform draw at the middle of tr's interval among the (move,
    rate) list moves."""
    total = sum(r for _, r in moves)
    left = 0.0
    for move, r in moves:
        if move == tr:
            return (left + r / 2) / total
        left += r
    raise ValueError(f"{tr} is not among the moves")


def assert_one_event(o, p, u, tr, total):
    """One event of simulate from the oracle state o's configuration, drawn
    at u, makes the move tr, draws its holding time at scale 1/total and
    leaves the state oracle_apply_transition gives."""
    s = CoupledState(xi=o.xi, labels=o.labels)
    assert one_event(s, p, u) == (tr, 1.0 / total), (bytes(o.xi.bits), o.labels, u)
    want = oracle_apply_transition(o, tr)
    assert bytes(s.occ) == bytes(want.xi.bits) and s.labels == want.labels
    assert_consistent(s)


def assert_consistent(s):
    """The CoupledState's sites of the labeled particles and its ordered
    domain walls are the ones its occupancy bits and labels give."""
    bits = s.xi.bits
    assert s.positions == (np.flatnonzero(bits) + s.xi.lo)[list(s.labels)].tolist()
    assert s.walls == (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
    assert bytes(bits) == bytes(s.occ)


def assert_same_report(a, b):
    """Every attribute equal, the rows row by row and arrays to the dtype;
    the Counters of x_rows and label_rows as plain dicts, since Counter
    equality takes a key counted 0 for an absent one.  The names come from
    the instances, so a field that merge leaves out is still compared."""
    assert vars(a).keys() == vars(b).keys()
    for name, x in vars(a).items():
        y = getattr(b, name)
        if name in ("xi_rows", "eta_rows"):
            assert len(x) == len(y), name
            for u, v in zip(x, y):
                assert u.dtype == v.dtype and np.array_equal(u, v), name
        elif name in ("x_rows", "label_rows"):
            assert list(map(dict, x)) == list(map(dict, y)), name
        else:
            assert x == y, name
    assert (a.n_replicas, a.total_probes) == (b.n_replicas, b.total_probes)


# ------------------------------------------------------- the conditional law


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


def hat_pairs(mvec, kvec):
    for j in range(1, len(mvec)):
        yield kvec[j] - kvec[j - 1] - 1, mvec[j] - mvec[j - 1] - 1


def conditional_xi_given_labels(m, k, p):
    """P(xi has particles at every m_j with exactly k_1 particles strictly
    left of m_1 and k_j - k_{j-1} - 1 strictly between m_{j-1} and m_j).

    This is the xi-event on which the labels k point at the sites m.
    Returns 0 when some between-window would need more particles than sites.
    """
    mvec = tuple(int(v) for v in m)
    kvec = as_labels(k)
    d = len(mvec)
    if d != len(kvec) or d < 1:
        raise ValueError("m and k must share a positive length")
    if any(b <= a for a, b in zip(mvec, mvec[1:])):
        raise ValueError("positions must be strictly increasing")
    if any(kh > mh for kh, mh in hat_pairs(mvec, kvec)):
        return 0.0
    q, c = p.q, p.c
    lq = math.log(q)
    k1 = kvec[0]
    logv = (k1 + 1) * (c - mvec[0]) * lq + k1 * (k1 + 1) / 2.0 * lq
    logv -= log_pochhammer_finite(q, q, k1)
    log_tail, _ = log_neg_pochhammer_infinite(c - mvec[-1], q)
    logv -= log_tail
    for j in range(1, d):
        kh = kvec[j] - kvec[j - 1] - 1
        mh = mvec[j] - mvec[j - 1] - 1
        logv += (kh + 1) * (c - mvec[j]) * lq + kh * (kh + 1) / 2.0 * lq
        logv += log_pochhammer_finite(q, q, mh)
        logv -= log_pochhammer_finite(q, q, kh)
        logv -= log_pochhammer_finite(q, q, mh - kh)
    return math.exp(logv)
