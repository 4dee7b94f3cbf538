"""Product blocking measures for ASEP on Z.

Parameterized by q in (0,1) and a real center c, the measure fills site i
with probability 1/(1+q^(i-c)): far-left sites are almost surely empty,
far-right sites almost surely occupied, and site i=c (when integral) is a
fair coin.  The conserved quantity N counts holes at positive sites minus
particles at nonpositive ones.

Closed-form laws evaluated here: the N distribution, the half-infinite
left-particle-count law, the finite-window particle-count law, and the
right-hole law obtained from particle-hole symmetry.  Everything heavy goes
through log space so large |c - m| and k are safe.

The laws need only the standard library.  numpy is imported inside the
functions that build or read arrays (the window state, the sampler, the
brute-force oracle), so `aseplab verify` and `aseplab dist` never load it.
"""

from collections import namedtuple
import math

from .partitions import SizeLimit
from .qseries import (
    SERIES_EPS,
    SERIES_MAX_TERMS,
    TruncationNotConverged,
    _check_q,
    _log1p_qpow,
    log_neg_pochhammer_infinite,
    log_qbinomial,
)


class WindowTooNarrow(ValueError):
    """Boundary marginals deviate from the frozen outside values by > eps."""


class AsepParams(namedtuple("AsepParams", "q c")):
    """Right jump rate 1, left jump rate q, blocking measure centered at c."""

    __slots__ = ()

    def __new__(cls, q, c=0.0):
        _check_q(q)
        return super().__new__(cls, q, c)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*iterable)

    def with_c(self, c):
        return self._replace(c=c)


def marginal(i, z, p):
    """Single-site weight q^{-(i-c)z} / (1 + q^{-(i-c)}).

    z=1 gives 1/(1+q^{i-c}); the two values sum to 1 exactly.
    """
    if z not in (0, 1):
        raise ValueError("z must be 0 or 1")
    x = i - p.c if z == 1 else p.c - i
    return math.exp(-_log1p_qpow(x, math.log(p.q)))


class WindowState:
    """Occupancies on [lo, hi] with the frozen outside convention:
    sites < lo empty, sites > hi occupied (the a.s. ground-state tails)."""

    def __init__(self, lo, hi, bits):
        import numpy as np
        if lo > hi:
            raise ValueError("need lo <= hi")
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (hi - lo + 1,):
            raise ValueError("bits length must be hi-lo+1")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must be 0/1")
        self.lo, self.hi, self.bits = lo, hi, bits

    @property
    def width(self):
        return self.hi - self.lo + 1

    @property
    def sites(self):
        import numpy as np
        return np.arange(self.lo, self.hi + 1)

    def occupancy(self, i):
        """Occupancy of any site, applying the outside convention."""
        if i < self.lo:
            return 0
        if i > self.hi:
            return 1
        return int(self.bits[i - self.lo])

    def particle_count(self):
        return int(self.bits.sum())

    def conserved_N(self):
        """Holes at sites >= 1 minus particles at sites <= 0, exact.

        The frozen outside tails contribute: every site in [1, lo-1] is an
        outside hole, every site in [hi+1, 0] an outside particle.
        """
        sites = self.sites
        holes_right = int(((sites >= 1) & (self.bits == 0)).sum())
        parts_left = int(((sites <= 0) & (self.bits == 1)).sum())
        return holes_right + max(self.lo - 1, 0) - parts_left - max(-self.hi, 0)

    def copy(self):
        return WindowState(self.lo, self.hi, self.bits.copy())


class CountDist(namedtuple("CountDist", "n_min probs")):
    """Distribution of an integer count on a contiguous support."""

    __slots__ = ()

    @property
    def support(self):
        import numpy as np
        return np.arange(self.n_min, self.n_min + len(self.probs))

    @property
    def total(self):
        return float(self.probs.sum())

    def prob(self, n):
        i = n - self.n_min
        if 0 <= i < len(self.probs):
            return float(self.probs[i])
        return 0.0


def site_profile(window, p, eps=1e-12):
    """[marginal(i, 1, p) for i in the window], the thresholds of
    sample_blocking, as an array.

    Requires the boundary sites to already be frozen to ground state within
    eps, so the cut bias is quantifiable.
    """
    import numpy as np
    lo, hi = window
    if lo > hi:
        raise ValueError("need lo <= hi")
    if marginal(lo, 1, p) > eps or marginal(hi, 0, p) > eps:
        raise WindowTooNarrow(
            f"window [{lo},{hi}] boundary marginals deviate by more than "
            f"eps={eps} from the frozen outside values (c={p.c}, q={p.q})"
        )
    return np.array([marginal(i, 1, p) for i in range(lo, hi + 1)])


def draw_window(window, profile, rng):
    """One window drawn against a site_profile: site i is filled iff its
    uniform draw lies below its threshold.  One rng.random(width) call."""
    import numpy as np
    lo, hi = window
    return WindowState(lo, hi, (rng.random(hi - lo + 1) < profile).astype(np.uint8))


def sample_blocking(window, p, rng, eps=1e-12):
    """Exact product sample of the blocking measure restricted to a window:
    draw_window against site_profile(window, p, eps)."""
    return draw_window(window, site_profile(window, p, eps), rng)


def prob_N(n, p):
    """P(N = n) = q^{n(n+1)/2 - nc} / sum_l q^{l(l+1)/2 - lc}."""
    return prob_N_table((n,), p)[0]


def prob_N_table(ns, p):
    """[prob_N(n, p) for n in ns], the normalizer summed once.

    Exponents are taken relative to the center l0 = round(c - 1/2): with
    j = l - l0 the weight of l is q^{j(j+1)/2 + j(l0 - c)} times a factor
    common to every l, and l0 - c lies in [-1, 0], so no exponent is
    negative and the largest term is 1, at j = 0, however large |c| is.
    The normalizer is summed symmetrically out from it until terms drop
    below SERIES_EPS; convergence is super-geometric.
    """
    center = round(p.c - 0.5)
    offset = center - p.c

    def weight(l):
        j = l - center
        return p.q ** (j * (j + 1) / 2 + j * offset)

    total = 0.0
    for l, step in ((center, 1), (center - 1, -1)):
        for _ in range(SERIES_MAX_TERMS):
            term = weight(l)
            total += term
            if term < SERIES_EPS:
                break
            l += step
        else:
            raise TruncationNotConverged("normalizer of the N law")
    try:
        return [weight(n) / total for n in ns]
    except OverflowError:  # j(j+1)/2 of a row far from c past the float range
        raise OverflowError(
            f"exponent of the N law overflows at q={p.q}, c={p.c}") from None


def prob_N_at(m, n, p):
    """P(N rebased at m+1/2 equals n): a left shift by m adds m to N."""
    return prob_N(n + m, p)


def prob_left_particles(m, k, p):
    """P(k particles at or left of site m) under the blocking measure:
    q^{k(c-m)+k(k-1)/2} / ((q;q)_k (-q^{c-m};q)_infty)."""
    return prob_left_particles_table(m, (k,), p)[0]


def prob_left_particles_table(m, ks, p):
    """[prob_left_particles(m, k, p) for k in ks], the infinite product,
    common to every k, computed once, and log (q;q)_k read from one running
    sum up to the largest k, so a table costs time linear in its rows."""
    lq = math.log(p.q)
    log_tail, _ = log_neg_pochhammer_infinite(p.c - m, p.q)
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise ValueError("k must be nonnegative")
    # log (q;q)_k summed factor by factor in order, so each prefix keeps its bits
    log_qq, aq = [0.0], float(p.q)
    for _ in range(max(ks, default=0)):
        log_qq.append(log_qq[-1] + math.log(1.0 - aq))
        aq *= p.q
    return [math.exp((k * (p.c - m) + k * (k - 1) / 2.0) * lq - log_qq[k]
                     - log_tail) for k in ks]


def prob_window_particles(m1, m2, k, p):
    """P(k particles strictly between m1 and m2), window width
    m2-m1-1 =: mhat; exact finite formula, no truncation."""
    mhat = m2 - m1 - 1
    if mhat < 1:
        raise ValueError("need m1 + 1 < m2")
    if not (0 <= k <= mhat):
        raise ValueError(f"need 0 <= k <= {mhat}, got {k}")
    lq = math.log(p.q)
    logp = (k * (p.c + 1 - m2) + k * (k - 1) / 2.0) * lq
    norm = 0.0
    for i in range(mhat):
        norm += _log1p_qpow(p.c + 1 - m2 + i, lq)
    logp -= norm
    logp += log_qbinomial(mhat, k, p.q)
    return math.exp(logp)


def prob_right_holes(m, n, p):
    """P(n holes strictly right of site m); equals the left-particle law
    under c -> 2m+1-c by particle-hole symmetry."""
    return prob_right_holes_table(m, (n,), p)[0]


def prob_right_holes_table(m, ns, p):
    """[prob_right_holes(m, n, p) for n in ns], the infinite product
    computed once."""
    return prob_left_particles_table(m, ns, p.with_c(2 * m + 1 - p.c))


class RelationCheck(namedtuple("RelationCheck", "name lhs rhs")):
    __slots__ = ()

    @property
    def rel_dev(self):
        scale = max(abs(self.lhs), abs(self.rhs))
        if scale == 0.0:
            return 0.0
        return abs(self.lhs - self.rhs) / scale


def shift_relation_checks(p, m, k):
    """Evaluate both sides of the lattice-shift and c-shift relations.

    Shifting the lattice left by one step equals raising c by one; stepping
    c down by one multiplies the laws by explicit factors built from the
    single-site normalizer Z^c_{m+1} = 1 + q^{c-(m+1)}.  Returns the list of
    RelationCheck rows; callers apply their tolerance.
    """
    q, c = p.q, p.c
    up = p.with_c(c + 1)
    down = p.with_c(c - 1)
    z_factor = 1.0 + q ** (c - m - 1)
    checks = [
        RelationCheck(
            "particle lattice-shift",
            prob_left_particles(m, k, p),
            prob_left_particles(m + 1, k, up),
        ),
        RelationCheck(
            "hole lattice-shift",
            prob_right_holes(m, k, p),
            prob_right_holes(m + 1, k, up),
        ),
        RelationCheck(
            "N lattice-shift",
            prob_N_at(m, k, p),
            prob_N_at(m + 1, k, up),
        ),
        RelationCheck(
            "particle c-step",
            prob_left_particles(m, k, down),
            q ** (-k) / z_factor * prob_left_particles(m, k, p),
        ),
        RelationCheck(
            "hole c-step",
            prob_right_holes(m, k, down),
            q ** (k + (m + 1 - c)) * z_factor * prob_right_holes(m, k, p),
        ),
        RelationCheck(
            "N c-step",
            prob_N_at(m, k, down),
            q ** (k + (m + 1 - c)) * prob_N_at(m, k, p),
        ),
    ]
    return checks


def brute_force_window_law(m1, m2, p):
    """Exact window particle-count law by enumerating all 2^mhat patterns
    with their product weights.  Independent oracle for
    prob_window_particles; exponential on purpose, capped at mhat = 20."""
    import numpy as np
    mhat = m2 - m1 - 1
    if mhat < 1:
        raise ValueError("need m1 + 1 < m2")
    if mhat > 20:
        raise SizeLimit(f"window enumeration capped at 20 sites, got {mhat}")
    sites = range(m1 + 1, m2)
    # evaluate both one-site weights directly; 1-p would lose digits when
    # the occupation probability is within ~1e-9 of 1
    log_p1 = np.array([math.log(marginal(i, 1, p)) for i in sites])
    log_p0 = np.array([math.log(marginal(i, 0, p)) for i in sites])
    patterns = np.arange(2 ** mhat, dtype=np.int64)
    bits = (patterns[:, None] >> np.arange(mhat)) & 1
    logw = bits @ log_p1 + (1 - bits) @ log_p0
    counts = bits.sum(axis=1)
    probs = np.zeros(mhat + 1)
    np.add.at(probs, counts, np.exp(logw))
    return CountDist(n_min=0, probs=probs)
