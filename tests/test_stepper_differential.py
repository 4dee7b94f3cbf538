"""Differential test of the in-place Gillespie stepper.

The oracle below is the earlier per-event stepper, kept verbatim but for
the (time, Transition) pairs of its event log and for its loop standing
apart from its stationary start, so that it also runs from a given state:
it rescans every bond, builds a Transition for every enabled move and
copies the whole state on each event.  The package's stepper must
reproduce it exactly -- same enabled moves in the same order, same draws,
same event log and the same report, field by field -- and keep its
labeled particles' sites and its ordered list of domain walls equal to the
ones the occupancy bits and labels give after every step.
"""

from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
import pytest

from aseplab.blocking import AsepParams, WindowState, sample_blocking
from aseplab.coupling import (
    AbsorbingState,
    CoupledState,
    LabelOutOfRange,
    SimulationReport,
    Transition,
    apply_transition,
    as_labels,
    choose_transition,
    enabled_transitions,
    sample_pi,
    simulate,
    simulate_stationary,
)
from test_coupling import gillespie_step

# ------------------------------------------------------------------ oracle


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

    def copy(self):
        return OracleState(xi=self.xi.copy(), labels=self.labels)


def oracle_enabled_transitions(s, p):
    q = p.q
    xi = s.xi
    bits = xi.bits
    out = []
    for j in range(xi.width - 1):
        a, b = bits[j], bits[j + 1]
        if a == 1 and b == 0:
            out.append((Transition("particle", xi.lo + j, 1), 1.0))
        elif a == 0 and b == 1:
            out.append((Transition("particle", xi.lo + j + 1, -1), q))
    if s.labels:
        pos = np.flatnonzero(bits) + xi.lo
        n_part = len(pos)
        label_set = set(s.labels)
        for slot, x in enumerate(s.labels):
            right = x + 1
            if right < n_part and right not in label_set and pos[right] == pos[x] + 1:
                out.append((Transition("label", slot, 1), q))
            left = x - 1
            if left >= 0 and left not in label_set and pos[left] == pos[x] - 1:
                out.append((Transition("label", slot, -1), 1.0))
    return out


def oracle_apply_transition(s, tr):
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
        raise AbsorbingState("no enabled transitions")
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
    lo, hi = state.xi.lo, state.xi.hi
    d = state.d
    if T > 0 and probes >= 1:
        probe_times = [0.0] + [i * T / probes for i in range(1, probes + 1)]
    else:
        probe_times = [0.0]
    rep = SimulationReport(lo, hi, d, p.q, p.c, T, tuple(probe_times), event_log=[])

    n_probes = len(probe_times)
    xi_acc = np.zeros(rep.width)
    eta_acc = np.zeros(rep.width)
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
        rep.event_log.append((t_next, tr))
        state = oracle_apply_transition(state, tr)
        t = t_next
        rep.n_events += 1

    assert sum(x_local.values()) == sum(label_local.values()) == (n_probes if d else 0)
    rep.xi_rows.append(xi_acc / n_probes)
    rep.eta_rows.append(eta_acc / n_probes)
    rep.x_rows.append(Counter(x_local))
    rep.label_rows.append(Counter(label_local))
    return rep


# ------------------------------------------------------------------- tests

CS = (0.0, 0.3, -1.7)
# A loose boundary tolerance keeps the windows narrow and the frozen edges
# busy, so hops against the boundary are exercised too.  Wider windows at
# larger q hold enough particles for three labels.
WINDOWS = {0.1: (-8, 8), 0.5: (-12, 12), 0.7: (-16, 16), 0.9: (-30, 30)}
EPS = 0.45


def assert_consistent(s):
    bits = s.xi.bits
    assert s.positions == (np.flatnonzero(bits) + s.xi.lo)[list(s.labels)].tolist()
    assert s.walls == (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
    assert bytes(bits) == bytes(s.occ)


def assert_same_report(a, b):
    """Every field equal, the rows row by row and arrays to the dtype."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("xi_rows", "eta_rows"):
            assert len(x) == len(y), f.name
            for u, v in zip(x, y):
                assert u.dtype == v.dtype and np.array_equal(u, v), f.name
        else:
            assert x == y, f.name
    assert (a.n_replicas, a.total_probes) == (b.n_replicas, b.total_probes)


def lockstep(s, o, p, seed, steps):
    """Step the in-place state s and the oracle state o from one seed,
    comparing the enabled moves, the draw and the state after each event.
    Returns the moves taken."""
    rng_s, rng_o = np.random.default_rng(seed), np.random.default_rng(seed)
    taken = []
    for _ in range(steps):
        assert enabled_transitions(s, p) == oracle_enabled_transitions(o, p)
        tr, dt = choose_transition(s, p, rng_s)
        assert (tr, dt) == oracle_choose_transition(o, p, rng_o)
        assert apply_transition(s, tr) is s
        o = oracle_apply_transition(o, tr)
        assert s.labels == o.labels
        assert np.array_equal(s.xi.bits, o.xi.bits)
        assert_consistent(s)
        taken.append(tr)
    return taken


@pytest.mark.parametrize("q", sorted(WINDOWS))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_replicas_match_oracle(q, d):
    compared = 0
    for c in CS:
        p = AsepParams(q=q, c=c)
        for seed in (1, 2, 3):
            kw = dict(probes=15, eps=EPS, margin=3)
            try:
                want = oracle_simulate_stationary(
                    p, d, WINDOWS[q], 4.0, np.random.default_rng([seed, d]), **kw
                )
            except LabelOutOfRange:  # the pi sample outranks the particles
                with pytest.raises(LabelOutOfRange):
                    simulate_stationary(
                        p, d, WINDOWS[q], 4.0, np.random.default_rng([seed, d]), **kw
                    )
                continue
            got = simulate_stationary(
                p, d, WINDOWS[q], 4.0, np.random.default_rng([seed, d]),
                keep_log=True, **kw
            )
            assert got.n_events > 0
            assert got.event_log == want.event_log
            assert_same_report(got, want)
            compared += 1
    assert compared >= 6


@pytest.mark.parametrize("q", sorted(WINDOWS))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_steps_match_oracle(q, d):
    for c, seed in zip(CS, (11, 12, 13)):
        p = AsepParams(q=q, c=c)
        rng = np.random.default_rng(seed)
        xi = sample_blocking(WINDOWS[q], p, rng, eps=EPS)
        labels = tuple(range(0, 2 * d, 2))  # every other particle from the left
        s = CoupledState(xi=xi, labels=labels)
        assert_consistent(s)
        lockstep(s, OracleState(xi=xi.copy(), labels=labels), p, seed, 300)


def test_wide_window_matches_oracle():
    # the benchmark's wide geometry: about 20 walls per event at q = 0.9
    p = AsepParams(q=0.9, c=0.0)
    rng = np.random.default_rng(31)
    xi = sample_blocking((-160, 160), p, rng, eps=1e-6)
    labels = sample_pi(3, p.q, rng)
    s = CoupledState(xi=xi, labels=labels)
    assert_consistent(s)
    assert len(s.walls) >= 10
    lockstep(s, OracleState(xi=xi.copy(), labels=labels), p, 32, 2000)


@pytest.mark.parametrize("labels", [(), (0,), (1, 2)])
def test_hops_across_the_edge_bonds(labels):
    # a hop across the first bond has no wall to its left to toggle and one
    # across the last bond none to its right
    bits = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    xi = WindowState(lo=-2, hi=3, bits=bits)
    s = CoupledState(xi=xi, labels=labels)
    p = AsepParams(q=0.5)
    taken = lockstep(s, OracleState(xi=xi.copy(), labels=labels), p, 41, 400)
    edge = {(tr.idx, tr.step) for tr in taken if tr.kind == "particle"}
    assert {(-2, 1), (-1, -1), (2, 1), (3, -1)} <= edge


@pytest.mark.parametrize("labels", [(), (0,), (1, 3), (0, 1, 4)])
def test_packed_ground_state(labels):
    # first particle at last hole + 1: the one live bond is the interface
    bits = np.array([0] * 6 + [1] * 5, dtype=np.uint8)
    xi = WindowState(lo=-5, hi=5, bits=bits)
    s = CoupledState(xi=xi, labels=labels)
    o = OracleState(xi=xi.copy(), labels=labels)
    moves = enabled_transitions(s, AsepParams(q=0.5))
    assert moves[0] == (Transition("particle", 1, -1), 0.5)
    assert moves == oracle_enabled_transitions(o, AsepParams(q=0.5))
    lockstep(s, o, AsepParams(q=0.5), 4, 100)


@pytest.mark.parametrize("lo,hi", [(-4, 3), (2, 2), (-1, 0)])
@pytest.mark.parametrize("fill", [0, 1])
def test_empty_and_full_windows_absorb(lo, hi, fill):
    bits = np.full(hi - lo + 1, fill, dtype=np.uint8)
    s = CoupledState(xi=WindowState(lo=lo, hi=hi, bits=bits), labels=())
    o = OracleState(xi=WindowState(lo=lo, hi=hi, bits=bits.copy()), labels=())
    p = AsepParams(q=0.5)
    assert enabled_transitions(s, p) == oracle_enabled_transitions(o, p) == []
    with pytest.raises(AbsorbingState):
        choose_transition(s, p, np.random.default_rng(0))
    with pytest.raises(AbsorbingState):
        oracle_choose_transition(o, p, np.random.default_rng(0))
    with pytest.raises(AbsorbingState):
        gillespie_step(s, p, np.random.default_rng(0))


def test_full_window_moves_only_labels():
    bits = np.ones(6, dtype=np.uint8)
    xi = WindowState(lo=-2, hi=3, bits=bits)
    s = CoupledState(xi=xi, labels=(1, 4))
    o = OracleState(xi=xi.copy(), labels=(1, 4))
    assert {tr.kind for tr, _ in enabled_transitions(s, AsepParams(q=0.5))} == {"label"}
    lockstep(s, o, AsepParams(q=0.5), 6, 100)


def test_construction_copies_the_window():
    xi = WindowState(lo=-3, hi=4, bits=np.array([0, 1, 1, 0, 1, 0, 1, 1]))
    s = CoupledState(xi=xi, labels=(1,))
    apply_transition(s, Transition("particle", -1, 1))
    assert xi.bits.tolist() == [0, 1, 1, 0, 1, 0, 1, 1]
    assert s.xi.bits.tolist() == [0, 1, 0, 1, 1, 0, 1, 1]
    assert_consistent(s)


def starts(q, d):
    """Three starts away from stationarity, as (name, xi, labels): the
    packed ground state with every other particle labeled, labels on the
    leftmost particles, and the last label near the right edge."""
    lo, hi = WINDOWS[q]
    packed = WindowState(lo, hi, (np.arange(lo, hi + 1) >= 1).astype(np.uint8))
    yield "packed", packed, tuple(range(0, 2 * d, 2))
    xi = sample_blocking((lo, hi), AsepParams(q=q, c=0.3), np.random.default_rng(d), eps=EPS)
    yield "leftmost", xi, tuple(range(d))
    n = xi.particle_count()
    yield "right-edge", xi, tuple(range(d - 1)) + ((n - 2,) if d else ())


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_simulate_from_given_states_matches_oracle(q, d):
    p = AsepParams(q=q, c=0.3)
    for (name, xi, labels), seed in zip(starts(q, d), (21, 22, 23)):
        kw = dict(probes=15, margin=3)
        want = oracle_simulate(OracleState(xi=xi.copy(), labels=labels), p, 20.0,
                               np.random.default_rng(seed), **kw)
        s = CoupledState(xi=xi, labels=labels)
        got = simulate(s, p, 20.0, np.random.default_rng(seed), keep_log=True, **kw)
        assert got.n_events > 0, name
        assert got.event_log == want.event_log, name
        assert_same_report(got, want)
        assert_consistent(s)
        # without the log the same draws give the same report
        again = simulate(CoupledState(xi=xi, labels=labels), p, 20.0,
                         np.random.default_rng(seed), **kw)
        again.event_log = want.event_log
        assert_same_report(again, want)


# ------------------------------------------ holding intervals and weights

# Six particles in a width-9 window run to T = 5 make a few dozen events, so
# at 2,000 probes most holding intervals hold dozens of probes, and the
# package's one snapshot per interval counts for every one of them.
FEW = WindowState(-4, 4, np.array([1, 1, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_intervals_holding_many_probes_match_oracle(d):
    p = AsepParams(q=0.6, c=0.3)
    # labels on the leftmost and on the rightmost particles: both start
    # within the margin of an edge, so contaminated intervals count many
    # probes each
    for labels, seed in ((tuple(range(d)), 51), (tuple(range(6 - d, 6)), 52)):
        kw = dict(probes=2000, margin=3)
        want = oracle_simulate(OracleState(xi=FEW.copy(), labels=labels), p, 5.0,
                               np.random.default_rng(seed), **kw)
        got = simulate(CoupledState(xi=FEW, labels=labels), p, 5.0,
                       np.random.default_rng(seed), keep_log=True, **kw)
        assert 0 < got.n_events < got.n_probes // 20
        assert got.event_log == want.event_log
        assert_same_report(got, want)
        if d:
            assert got.contaminated_probes > 1


@pytest.mark.parametrize(
    "bits,labels",
    [([1, 1, 1, 1], (0, 1, 2, 3)), ([1] * 5, ()), ([0] * 5, ())],
    ids=["all-labeled", "full", "empty"],
)
def test_a_frozen_window_weights_its_one_interval(bits, labels):
    # no move is enabled, so after t = 0 one holding interval holds every
    # probe.  The oracle stops there (its stepper raises), so the report
    # expected is the oracle's report of the one probe at T = 0 with every
    # count times the number of probes
    xi = WindowState(-2, len(bits) - 3, np.array(bits, dtype=np.uint8))
    p = AsepParams(q=0.5, c=0.3)
    kw = dict(probes=2000, margin=2)
    with pytest.raises(AbsorbingState):
        oracle_simulate(OracleState(xi=xi.copy(), labels=labels), p, 5.0,
                        np.random.default_rng(0), **kw)
    one = oracle_simulate(OracleState(xi=xi.copy(), labels=labels), p, 0.0,
                          np.random.default_rng(0), **kw)
    n = 2001
    times = tuple([0.0] + [i * 5.0 / 2000 for i in range(1, n)])
    want = SimulationReport(
        one.lo, one.hi, one.d, one.q, one.c, 5.0, times,
        contaminated_probes=n * one.contaminated_probes,
        N_violations=n * one.N_violations,
        xi_rows=one.xi_rows, eta_rows=one.eta_rows,
        x_rows=[Counter({k: n * v for k, v in one.x_rows[0].items()})],
        label_rows=[Counter({k: n * v for k, v in one.label_rows[0].items()})],
        event_log=[],
    )
    got = simulate(CoupledState(xi=xi, labels=labels), p, 5.0,
                   np.random.default_rng(0), keep_log=True, **kw)
    assert_same_report(got, want)
    assert got.contaminated_probes == (n if labels else 0)
