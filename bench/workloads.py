"""Command lists of the three benchmark workloads.

Each generator takes a `random.Random` seeded from the workload seed and
returns `(warmup, commands)`: one small untimed command that warms the code
paths, and the list of `aseplab` argument vectors that makes up one pass.
Only argument values come from the seed; the shape and size of every command
is fixed, so the work in a pass hardly depends on the seed.

Sizes are the knobs that set how long a pass takes; the reasons for each
workload are in README.md next to this file.
"""

import math

# simulation: dense commands, 120 replicas x 501 probe records each, once
# at d = 1 and once at d = 2.  A command holds all its replica reports
# (about 0.42 MB each) before merging them, so they are most of the peak.
DENSE_REPLICAS = 120
DENSE_PROBES = 500
# simulation: wide commands, each 8 replicas to T = 20 at the default 10
# probes.  Many short replicas rather than few long ones keep the number of
# events in a pass within a few percent from seed to seed.  Fourteen of them
# take about as long as the two dense commands.
WIDE_COMMANDS = 14
WIDE_REPLICAS = 8
WIDE_T = 20
# closed_forms: q values of the float half's dist tables, each listed with
# its own c: every table twice, positions three times.  The float half then
# takes about as long as the exact verify; positions is most of it.
DIST_QS = (0.3, 0.5, 0.7, 0.9) * 2
POSITIONS_QS = (0.2, 0.3) * 3
# Mass left outside a dist span is below about this share.
TAIL = 1e-12


def _seed(rng):
    return str(rng.randrange(2**63))


def simulation(rng):
    """Two geometries of the coupled simulation in one pass.  Dense: the
    acceptance-fixture geometry with dense probing, where recording, replica
    set-up and merging dominate and held reports set peak memory.  Wide:
    q = 0.9 on 321 sites with sparse probing, where the per-event rescan of
    the Gillespie step dominates."""
    dense = ["simulate", "--q", "0.5", "--c", "0", "--window=-25:25", "--T", "50"]
    wide = ["simulate", "--q", "0.9", "--window=-160:160", "--d", "3",
            "--T", str(WIDE_T), "--replicas", str(WIDE_REPLICAS)]
    warmup = dense + ["--d", "1", "--replicas", "2", "--probes", "20",
                      "--seed", _seed(rng)]
    commands = []
    for d in (1, 2):
        commands.append(dense + ["--d", str(d), "--replicas", str(DENSE_REPLICAS),
                                 "--probes", str(DENSE_PROBES), "--seed", _seed(rng)])
        commands += [wide + ["--seed", _seed(rng)] for _ in range(WIDE_COMMANDS // 2)]
    return warmup, commands


def _tail_sites(q, tail=TAIL):
    """Sites past which a geometric tail with ratio q holds < tail."""
    return math.ceil(math.log(tail) / math.log(q))


def _count_top(logw):
    """Smallest K such that the terms k > K of the super-geometric weight
    logw(k) are negligible against its peak."""
    best = logw(0)
    k = 0
    while True:
        k += 1
        w = logw(k)
        best = max(best, w)
        if w < best + math.log(TAIL) - 5 and w < logw(k - 1):
            return k


def _left_particles_logw(q, c, m):
    lq = math.log(q)

    def logw(k):
        return ((k * (c - m) + k * (k - 1) / 2) * lq
                - sum(math.log1p(-(q ** i)) for i in range(1, k + 1)))

    return logw


def _n_span(q, c):
    lq = math.log(q)

    def logw(n):
        return (n * (n + 1) / 2 - n * c) * lq

    center = round(c - 0.5)
    floor = logw(center) + math.log(TAIL) - 5
    lo, hi = center, center
    while logw(lo - 1) > floor:
        lo -= 1
    while logw(hi + 1) > floor:
        hi += 1
    return lo - 1, hi + 1


def closed_forms(rng):
    """Exact half: one exact verify at the CLI defaults.  Float half: numeric
    verify over four q and dist tables of every law, sized to take about as
    long as the exact half."""
    warmup = ["verify", "--identity", "all", "--exact", "--N", "8", "--m", "4"]
    commands = [["verify", "--identity", "all", "--exact"]]
    for q in ("0.1", "0.5", "0.9", "0.99"):
        commands.append(["verify", "--identity", "all", "--q", q,
                         "--n-offset", str(rng.randint(-2, 2))])
    for q in DIST_QS:
        c = round(rng.uniform(-2.0, 2.0), 2)
        qs, cs = repr(q), repr(c)
        lo, hi = _n_span(q, c)
        commands.append(["dist", "--law", "N", "--q", qs, "--c", cs,
                         f"--n={lo}:{hi}"])
        m = round(c) + rng.randint(-2, 2)
        k_hi = _count_top(_left_particles_logw(q, c, m))
        commands.append(["dist", "--law", "left-particles", "--q", qs,
                         "--c", cs, f"--m={m}", f"--k=0:{k_hi}"])
        m = round(c) + rng.randint(-2, 2)
        n_hi = _count_top(_left_particles_logw(q, 2 * m + 1 - c, m))
        commands.append(["dist", "--law", "right-holes", "--q", qs,
                         "--c", cs, f"--m={m}", f"--n=0:{n_hi}"])
        for _ in range(2):
            m1 = round(c) - 7 + rng.randint(-3, 3)
            commands.append(["dist", "--law", "window-particles", "--q", qs,
                             "--c", cs, f"--m1={m1}", f"--m2={m1 + 13}"])
        tail = _tail_sites(q)
        for d in (1, 2):
            lo, hi = math.floor(c) - tail, math.ceil(c) + d + tail
            commands.append(["dist", "--law", "second-class", "--q", qs,
                             "--c", cs, "--d", str(d), f"--m={lo}:{hi}"])
    for q in POSITIONS_QS:
        c = round(rng.uniform(-2.0, 2.0), 2)
        tail = _tail_sites(q, TAIL / 10)
        lo, hi = math.floor(c) - tail, math.ceil(c) + 3 + tail
        commands.append(["dist", "--law", "positions", "--q", repr(q),
                         "--c", repr(c), "--d", "3", f"--m={lo}:{hi}"])
    for q in (0.3, 0.5):
        commands.append(["dist", "--law", "pi", "--q", repr(q), "--d", "3",
                         "--cap", str(_tail_sites(q) + 3)])
    return warmup, commands


def kind(argv):
    """The part of a workload a command belongs to: dense or wide
    (simulation), exact or float (closed_forms)."""
    if argv[0] == "simulate":
        return "dense" if "--probes" in argv else "wide"
    return "exact" if "--exact" in argv else "float"


WORKLOADS = {
    "simulation": simulation,
    "closed_forms": closed_forms,
}
