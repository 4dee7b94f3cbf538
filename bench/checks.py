"""Correctness checks on the output of each benchmark command.

`check_command` inspects one command's exit code and CSV output and returns
what it found; `xi_pool_problems` is the statistical check over the pooled
`xi_site` rows of a pass.  A command fails when its exit code is not 0 or
when any check on it reports a problem.
"""

import csv
import json
import math

# A simulate run may spend at most this share of its probes with a second
# class particle within --margin sites of the window edge.
CONTAMINATION_LIMIT = 1e-3
# Family-wise false-alarm rate of one pooled xi_site check.
XI_ALPHA = 1e-3
SUM_TOL = 1e-9
WINDOW_REL_TOL = 1e-9


def parse_csv(text):
    """(meta, rows) of an aseplab CSV table; rows is an iterator of dicts
    keyed by the header, so a large table is never held parsed."""
    lines = iter(text.splitlines())
    first = next(lines, "")
    if not first.startswith("# "):
        raise ValueError("missing metadata line")
    meta = json.loads(first[2:])
    table = csv.reader(lines)
    header = next(table, None)
    if header is None:
        raise ValueError("missing header")
    return meta, (dict(zip(header, row)) for row in table)


def occupation(site, q, c):
    """1/(1+q^(site-c)) and its complement, each evaluated directly."""
    t = (site - c) * math.log(q)
    if t >= 0:
        e = math.exp(-t)
        return e / (1.0 + e), 1.0 / (1.0 + e)
    e = math.exp(t)
    return 1.0 / (1.0 + e), e / (1.0 + e)


def _flag(argv, name):
    """Value of --name in an argv that uses either --name v or --name=v."""
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


class Checker:
    """Checks outputs; keeps the brute-force window laws it has computed."""

    def __init__(self):
        self._window_laws = {}

    def check_command(self, argv, rc, text):
        """Problems found in one command's result, plus what the harness
        counts from it: data rows, simulate events, replicas, probes, the
        xi_site rows for pooling."""
        out = {"problems": [], "rows": 0, "events": 0, "replicas": 0,
               "probes": 0, "contaminated": 0, "xi": None}
        if rc != 0:
            out["problems"].append(f"exit code {rc}")
            return out
        try:
            meta, rows = parse_csv(text)
            getattr(self, "_check_" + argv[0])(argv, meta, self._counted(rows, out), out)
        except (KeyError, ValueError, TypeError) as e:
            out["problems"].append(f"malformed output: {e!r}")
        return out

    @staticmethod
    def _counted(rows, out):
        for row in rows:
            out["rows"] += 1
            yield row

    def _check_verify(self, argv, meta, rows, out):
        for row in rows:
            if row["passed"] != "true":
                out["problems"].append(
                    f"{row['identity']} [{row['params']}] did not pass")
        if not out["rows"]:
            out["problems"].append("no identity rows")

    def _check_dist(self, argv, meta, rows, out):
        law = meta["law"]
        expected = int(meta["d"]) if law == "second-class" else 1
        body, sums = {}, []
        for r in rows:
            if r["key"] == "sum":
                sums.append(float(r["prob"]))
                continue
            p = float(r["prob"])
            if not 0.0 <= p <= 1.0:
                out["problems"].append(f"prob {p} at key {r['key']}")
            if law == "window-particles":
                body[int(r["key"])] = p
        if len(sums) != 1 or out["rows"] < 2:
            out["problems"].append("expected rows and one sum row")
        elif not abs(sums[0] - expected) <= SUM_TOL:
            out["problems"].append(
                f"sum {sums[0]!r} is not {expected} within {SUM_TOL}")
        if law == "window-particles":
            self._check_window(argv, meta, body, out)

    def _check_window(self, argv, meta, body, out):
        """Every row of a window-particles table against the brute-force
        enumeration of the window's 2^mhat patterns."""
        m1, m2 = int(_flag(argv, "--m1")), int(_flag(argv, "--m2"))
        key = (m1, m2, meta["q"], meta["c"])
        law = self._window_laws.get(key)
        if law is None:
            from aseplab.blocking import AsepParams, brute_force_window_law

            p = AsepParams(q=meta["q"], c=meta["c"])
            law = self._window_laws[key] = brute_force_window_law(m1, m2, p).probs
        if sorted(body) != list(range(len(law))):
            out["problems"].append(f"rows {sorted(body)} for {len(law)} counts")
            return
        for k, got in body.items():
            want = float(law[k])
            if not abs(got - want) <= WINDOW_REL_TOL * want:
                out["problems"].append(
                    f"window count {k}: {got!r} vs brute force {want!r}")

    def _check_simulate(self, argv, meta, rows, out):
        out["events"] = meta["events"]
        out["replicas"] = meta["replicas"]
        out["probes"] = meta["total_probes"]
        out["contaminated"] = meta["contaminated_probes"]
        if meta["N_violations"] != 0:
            out["problems"].append(f"N_violations = {meta['N_violations']}")
        frac = meta["contamination_fraction"]
        if not frac <= CONTAMINATION_LIMIT:
            out["problems"].append(
                f"contamination {frac} above {CONTAMINATION_LIMIT}")
        q, c, (lo, hi) = meta["q"], meta["c"], meta["window"]
        xi = {}
        for r in rows:
            if r["table"] != "xi_site":
                continue
            site = int(r["key"])
            mu = occupation(site, q, c)[0]
            analytic = float(r["analytic"])
            if not abs(analytic - mu) <= 1e-12 * mu:
                out["problems"].append(
                    f"analytic xi at {site}: {analytic!r}, expected {mu!r}")
            xi[site] = float(r["empirical"])
        if sorted(xi) != list(range(lo, hi + 1)):
            out["problems"].append("xi_site rows do not cover the window")
        else:
            out["xi"] = ((q, c, lo, hi), meta["replicas"], xi)


def _kl(x, mu1, mu0):
    """Bernoulli relative entropy KL(x || mu); mu1 = mu, mu0 = 1 - mu."""
    total = 0.0
    if x > 0.0:
        if mu1 <= 0.0:
            return math.inf
        total += x * math.log(x / mu1)
    if x < 1.0:
        if mu0 <= 0.0:
            return math.inf
        total += (1.0 - x) * math.log((1.0 - x) / mu0)
    return max(total, 0.0)


def xi_pool_problems(results, alpha=XI_ALPHA):
    """Statistical check of the pooled xi_site rows of several simulate
    commands against the blocking-measure marginal.

    Replicas start from an exact sample of the stationary law, so the
    occupancy of a site at each probe time is exactly Bernoulli(mu), and
    each replica's time-mean Y is an average of such draws.  By Jensen,
    E exp(t Y) <= 1 - mu + mu e^t, so the Chernoff bound of a Binomial(n,
    mu) holds for the sum of n independent replica means:
    P(mean >= x) <= exp(-n KL(x || mu)) for x > mu, and likewise below.
    A site fails when that bound at the observed mean is <= alpha / (2K)
    over K sites, so the false-alarm rate of the whole check is <= alpha
    for every seed, with no normal approximation.

    `results` holds the `xi` entries of `check_command`; commands with the
    same (q, c, window) are pooled.  Returns {group: [problems]} and the
    smallest Bonferroni-adjusted bound seen, for the record.
    """
    groups = {}
    for entry in results:
        if entry is not None:
            groups.setdefault(entry[0], []).append(entry[1:])
    problems, min_adj = {}, 1.0
    for (q, c, lo, hi), members in groups.items():
        n = sum(reps for reps, _ in members)
        k = hi - lo + 1
        found = []
        for site in range(lo, hi + 1):
            mean = sum(reps * xi[site] for reps, xi in members) / n
            mu1, mu0 = occupation(site, q, c)
            bound = math.exp(-n * _kl(mean, mu1, mu0))
            min_adj = min(min_adj, 2 * k * bound)
            if bound <= alpha / (2 * k):
                found.append(f"xi at site {site}: pooled mean {mean:.6g} over "
                             f"{n} replicas vs {mu1:.6g} (bound {bound:.3g})")
        problems[(q, c, lo, hi)] = found
    return problems, min_adj
