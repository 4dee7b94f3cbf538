"""Differential test of simulate against the oracle stepper.

The oracle in tests/oracle.py is the earlier per-event stepper: it rescans
every bond, builds a Transition for every enabled move and copies the whole
state on each event.  From the same start and seed, simulate must reproduce
it exactly -- the same draws, the same event log and the same report, field
by field -- end in the state the logged moves give, and keep its labeled
particles' sites and its ordered list of domain walls equal to the ones the
occupancy bits and labels give.
"""

from collections import Counter
import functools

import numpy as np
import pytest

from aseplab.blocking import AsepParams, WindowState, sample_blocking
from aseplab.coupling import (
    CoupledState,
    LabelOutOfRange,
    SimulationReport,
    Transition,
    sample_pi,
    simulate,
)
from oracle import (
    Absorbing,
    OracleState,
    assert_consistent,
    assert_same_report,
    oracle_apply_transition,
    oracle_choose_transition,
    oracle_enabled_transitions,
    oracle_simulate,
    oracle_simulate_stationary,
    one_event,
)

CS = (0.0, 0.3, -1.7)
# A loose boundary tolerance keeps the windows narrow and the frozen edges
# busy, so hops against the boundary are exercised too.  Wider windows at
# larger q hold enough particles for three labels.
WINDOWS = {0.1: (-8, 8), 0.5: (-12, 12), 0.7: (-16, 16), 0.9: (-30, 30)}
EPS = 0.45


def run_both(xi, labels, p, T, seed, probes=15, margin=3):
    """simulate and the oracle from the start (xi, labels) and one seed.
    Their event logs and reports must agree, and simulate must end in the
    state the logged moves give.  Returns simulate's report."""
    start = OracleState(xi=xi.copy(), labels=labels)
    want = oracle_simulate(start, p, T, np.random.default_rng(seed), probes, margin)
    s = CoupledState(xi=xi, labels=labels)
    got = simulate(s, p, T, np.random.default_rng(seed), probes, margin, keep_log=True)
    assert got.event_log == want.event_log
    assert_same_report(got, want)
    end = functools.reduce(oracle_apply_transition,
                           (tr for _, tr in got.event_log), start)
    assert bytes(s.occ) == bytes(end.xi.bits) and s.labels == end.labels
    assert_consistent(s)
    return got


@pytest.mark.parametrize("q", sorted(WINDOWS))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_replicas_match_oracle(q, d):
    compared = 0
    for c in CS:
        p = AsepParams(q=q, c=c)
        for seed in (1, 2, 3):
            kw = dict(probes=15, margin=3)
            rng = np.random.default_rng([seed, d])
            xi = sample_blocking(WINDOWS[q], p, rng, eps=EPS)
            labels = sample_pi(d, p.q, rng)
            try:
                want = oracle_simulate_stationary(
                    p, d, WINDOWS[q], 4.0, np.random.default_rng([seed, d]), eps=EPS, **kw
                )
            except LabelOutOfRange:  # the pi sample outranks the particles
                with pytest.raises(LabelOutOfRange):
                    CoupledState(xi, labels)
                continue
            s = CoupledState(xi, labels)
            got = simulate(s, p, 4.0, rng, keep_log=True, **kw)
            assert got.n_events > 0
            assert got.event_log == want.event_log
            assert_same_report(got, want)
            assert_consistent(s)
            compared += 1
    assert compared >= 6


# run lengths that make about 300 events from the starts below
STEPS_T = {0.1: 1000.0, 0.5: 90.0, 0.7: 40.0, 0.9: 16.0}


@pytest.mark.parametrize("q", sorted(WINDOWS))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_steps_match_oracle(q, d):
    for c, seed in zip(CS, (11, 12, 13)):
        p = AsepParams(q=q, c=c)
        rng = np.random.default_rng(seed)
        xi = sample_blocking(WINDOWS[q], p, rng, eps=EPS)
        labels = tuple(range(0, 2 * d, 2))  # every other particle from the left
        assert run_both(xi, labels, p, STEPS_T[q], seed).n_events >= 150


def test_wide_window_matches_oracle():
    # the benchmark's wide geometry: about 20 walls per event at q = 0.9
    p = AsepParams(q=0.9, c=0.0)
    rng = np.random.default_rng(31)
    xi = sample_blocking((-160, 160), p, rng, eps=1e-6)
    labels = sample_pi(3, p.q, rng)
    assert len(CoupledState(xi=xi, labels=labels).walls) >= 10
    assert run_both(xi, labels, p, 90.0, 32).n_events >= 1500


@pytest.mark.parametrize("labels", [(), (0,), (1, 2)])
def test_hops_across_the_edge_bonds(labels):
    # a hop across the first bond has no wall to its left to toggle and one
    # across the last bond none to its right
    bits = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    xi = WindowState(lo=-2, hi=3, bits=bits)
    rep = run_both(xi, labels, AsepParams(q=0.5), 250.0, 41)
    edge = {(tr.idx, tr.step) for _, tr in rep.event_log if tr.kind == "particle"}
    assert {(-2, 1), (-1, -1), (2, 1), (3, -1)} <= edge


@pytest.mark.parametrize("labels", [(), (0,), (1, 3), (0, 1, 4)])
def test_packed_ground_state(labels):
    # first particle at last hole + 1: the one live bond is the interface
    bits = np.array([0] * 6 + [1] * 5, dtype=np.uint8)
    xi = WindowState(lo=-5, hi=5, bits=bits)
    moves = oracle_enabled_transitions(OracleState(xi=xi, labels=labels), AsepParams(q=0.5))
    assert moves[0] == (Transition("particle", 1, -1), 0.5)
    assert run_both(xi, labels, AsepParams(q=0.5), 100.0, 4).n_events >= 50


def held(xi, labels, p, T, probes, margin):
    """The report of a window with no enabled move, run to T: the oracle's
    report of its one probe at t = 0, every count times the probes+1
    probes, which all see the one holding interval."""
    one = oracle_simulate(OracleState(xi=xi.copy(), labels=labels), p, 0.0,
                          np.random.default_rng(0), probes, margin)
    n = probes + 1
    times = tuple([0.0] + [i * T / probes for i in range(1, n)])
    return SimulationReport(
        one.lo, one.hi, one.d, one.q, one.c, T, times,
        contaminated_probes=n * one.contaminated_probes,
        N_violations=n * one.N_violations,
        xi_rows=one.xi_rows, eta_rows=one.eta_rows,
        x_rows=[Counter({k: n * v for k, v in one.x_rows[0].items()})],
        label_rows=[Counter({k: n * v for k, v in one.label_rows[0].items()})],
        event_log=[],
    )


@pytest.mark.parametrize("lo,hi", [(-4, 3), (2, 2), (-1, 0)])
@pytest.mark.parametrize("fill", [0, 1])
def test_empty_and_full_windows_absorb(lo, hi, fill):
    xi = WindowState(lo=lo, hi=hi, bits=np.full(hi - lo + 1, fill, dtype=np.uint8))
    p = AsepParams(q=0.5)
    o = OracleState(xi=xi.copy(), labels=())
    assert oracle_enabled_transitions(o, p) == []
    with pytest.raises(Absorbing):
        oracle_choose_transition(o, p, np.random.default_rng(0))
    # simulate draws nothing and holds the state at every probe
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    s = CoupledState(xi=xi, labels=())
    got = simulate(s, p, 5.0, rng, probes=4, margin=1, keep_log=True)
    assert rng.random() == twin.random()
    assert_same_report(got, held(xi, (), p, 5.0, 4, 1))
    assert bytes(s.occ) == bytes(xi.bits)
    assert_consistent(s)


def test_full_window_moves_only_labels():
    bits = np.ones(6, dtype=np.uint8)
    xi = WindowState(lo=-2, hi=3, bits=bits)
    moves = oracle_enabled_transitions(OracleState(xi=xi, labels=(1, 4)), AsepParams(q=0.5))
    assert {tr.kind for tr, _ in moves} == {"label"}
    rep = run_both(xi, (1, 4), AsepParams(q=0.5), 80.0, 6)
    assert rep.n_events >= 50
    assert {tr.kind for _, tr in rep.event_log} == {"label"}


def test_construction_copies_the_window():
    xi = WindowState(lo=-3, hi=4, bits=np.array([0, 1, 1, 0, 1, 0, 1, 1]))
    s = CoupledState(xi=xi, labels=(1,))
    # the first of the six moves, the hop of the particle at -2 to the left
    assert one_event(s, AsepParams(q=0.5), 0.0)[0] == Transition("particle", -2, -1)
    assert xi.bits.tolist() == [0, 1, 1, 0, 1, 0, 1, 1]
    assert s.xi.bits.tolist() == [1, 0, 1, 0, 1, 0, 1, 1]
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
# package counts each span between change points once, for all its probes.
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
    with pytest.raises(Absorbing):
        oracle_simulate(OracleState(xi=xi.copy(), labels=labels), p, 5.0,
                        np.random.default_rng(0), **kw)
    want = held(xi, labels, p, 5.0, **kw)
    got = simulate(CoupledState(xi=xi, labels=labels), p, 5.0,
                   np.random.default_rng(0), keep_log=True, **kw)
    assert_same_report(got, want)
    assert got.contaminated_probes == (want.total_probes if labels else 0)
