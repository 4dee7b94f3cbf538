from fractions import Fraction
import itertools
import re

import pytest

from aseplab import verify
from aseplab.cli import main
from aseplab.partitions import (
    _decompose_valid,
    _reassemble,
    count_partitions,
    durfee_decompose,
)
from aseplab.qseries import IntPoly, pochhammer_finite, pochhammer_infinite
from aseplab.verify import (
    IdentityReport,
    verify_durfee,
    verify_durfee_exact,
    verify_euler,
    verify_euler_exact,
    verify_jacobi,
    verify_qbinomial,
    verify_qbinomial_exact,
)


class TestIdentityReport:
    def test_pass_fail_logic(self):
        bad = IdentityReport("x", {}, lhs=1.0, rhs=1.0 + 1e-6, tol=1e-10)
        assert not bad.passed
        assert bad.rel_dev == pytest.approx(1e-6, rel=1e-3)
        excused = IdentityReport(
            "x", {}, lhs=1.0, rhs=1.0 + 1e-6, tol=1e-10, trunc_bound=1e-5
        )
        assert excused.passed

    def test_is_an_immutable_value(self):
        r = IdentityReport("demo", {"q": 0.5}, lhs=2.0, rhs=2.0, tol=1e-10)
        assert r.trunc_bound == 0.0
        assert r == IdentityReport("demo", {"q": 0.5}, 2.0, 2.0, 1e-10, 0.0)
        for name in ("lhs", "trunc_bound", "passed"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1.0)

    def test_summary_line(self):
        r = IdentityReport("demo", {"q": 0.5}, lhs=2.0, rhs=2.0, tol=1e-10)
        assert r.summary().startswith("PASS demo [q=0.5]")
        r = IdentityReport("demo", {"q": 0.5}, lhs=2.0, rhs=3.0, tol=1e-10)
        assert r.summary().startswith("FAIL")


class TestDurfeeNumeric:
    def test_center_offset(self):
        r = verify_durfee(0.5, 0)
        assert r.passed
        assert r.rel_dev < 1e-12

    def test_slow_q(self):
        r = verify_durfee(0.9, 3)
        assert r.passed
        assert r.rel_dev < 1e-8

    def test_negative_offset_sum_starts_at_minus_n(self):
        # independent partial sum with explicit k range
        q, n = 0.5, -2
        acc = 0.0
        for k in range(2, 40):
            acc += q ** (k * (n + k)) / (
                pochhammer_finite(q, q, n + k) * pochhammer_finite(q, q, k)
            )
        r = verify_durfee(q, n)
        assert r.rhs == pytest.approx(acc, rel=1e-12)
        assert r.lhs == pytest.approx(1.0 / pochhammer_infinite(q, q)[0], rel=1e-14)
        assert r.passed

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            verify_durfee(1.5, 0)

    def test_underflowing_product_raises_overflow(self):
        with pytest.raises(OverflowError, match=r"\(q;q\)_infty"):
            verify_durfee(0.999, 0)


class TestEulerNumeric:
    def test_z_zero_trivial(self):
        r = verify_euler(0.5, 0.0)
        assert r.lhs == 1.0 and r.rhs == 1.0 and r.passed

    def test_reference_point(self):
        assert verify_euler(0.5, 1.0).passed

    def test_blocking_normalizer_argument(self):
        # the z that renormalizes the half-infinite particle-count law
        q, c, m = 0.5, 0.7, -2
        r = verify_euler(q, q ** (c - m))
        assert r.passed
        assert r.rel_dev < 1e-12

    def test_rational_partial_sum_oracle(self):
        q = Fraction(1, 2)
        acc = Fraction(0)
        term = Fraction(1)
        for k in range(0, 26):
            if k:
                term *= q ** (k - 1) / (1 - q**k)
            acc += term
        r = verify_euler(0.5, 1.0)
        assert r.rhs == pytest.approx(float(acc), rel=1e-13)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_grid(self, q):
        assert verify_euler(q, 0.7).passed

    def test_loose_policy_loosens_the_sum_side(self, monkeypatch):
        # the ratio sum stops on verify's SERIES_EPS; the product side
        # reads its own, which stays tight
        tight = verify_euler(0.5, 1.7)
        monkeypatch.setattr(verify, "SERIES_EPS", 1e-5)
        loose = verify_euler(0.5, 1.7)
        assert loose.rhs != tight.rhs and loose.lhs == tight.lhs
        assert loose.passed


class TestQBinomialNumeric:
    def test_trivial_sizes(self):
        r0 = verify_qbinomial(0.5, 0.8, 0)
        assert r0.lhs == 1.0 and r0.rhs == 1.0 and r0.passed
        r1 = verify_qbinomial(0.5, 0.8, 1)
        assert r1.lhs == pytest.approx(1.8) and r1.passed

    def test_window_normalizer_argument(self):
        q, c, m2, mhat = 0.5, 0.3, 2, 4
        r = verify_qbinomial(q, q ** (c + 1 - m2), mhat)
        assert r.passed and r.rel_dev < 1e-13

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_grid(self, q, m):
        assert verify_qbinomial(q, 1.3, m).passed

    def test_both_sides_exactly_zero(self):
        # z = -1 zeroes the product's first factor, and at q = 1/2 the sum
        # cancels exactly: `verify --identity qbinomial --q 0.5 --z -1`
        r = verify_qbinomial(0.5, -1.0, 4)
        assert r.lhs == r.rhs == 0.0
        assert r.rel_dev == 0.0 and r.passed


class TestJacobiNumeric:
    @pytest.mark.parametrize("z,q", [(1.0, 0.5), (2.0, 0.5), (0.7, 0.8), (4.0, 0.1)])
    def test_grid(self, z, q):
        r = verify_jacobi(q, z)
        assert r.passed
        assert r.rel_dev < 1e-11

    @pytest.mark.parametrize(
        "q,z,side",
        [(0.999, 1.0, "(q;q)_infty"), (0.998, 1.0, "(q;q)_infty"),
         (0.99, 0.01, "theta sum"), (0.99, 100.0, "theta sum")],
    )
    def test_out_of_float_range_raises_overflow(self, q, z, side):
        with pytest.raises(OverflowError, match=re.escape(side)):
            verify_jacobi(q, z)

    def test_last_q_in_reach_still_passes(self):
        # (q;q)_infty is about 1e-236 here, still a normal float
        r = verify_jacobi(0.997, 1.0)
        assert r.passed and r.rel_dev < 1e-12


class TestExactSuites:
    def test_durfee_exact_offsets(self):
        assert verify_durfee_exact(12, range(-3, 4)) == [True] * 7

    @pytest.mark.parametrize("lam, n, wrong", [
        ((3, 3), 0, (1, (2,), (3,))),
        ((1,), -2, (1, (2,), ())),
        ((3, 3), 0, (1, (2, 2), ())),
    ], ids=["below-too-long", "k-below-k_lo", "right-too-long"])
    def test_durfee_exact_rejects_misplaced_rectangle(self, monkeypatch, lam,
                                                      n, wrong):
        # a decomposition around a rectangle one too small still reassembles
        # into lam, so only the shape checks can reject it: at (3, 3), n = 0
        # the first part below exceeds the side n + k, or the right partition
        # has more than k parts; at (1,), n = -2 the index k falls under
        # k_lo = 2
        assert verify_durfee_exact(sum(lam), [n]) == [True]
        assert wrong[0] == durfee_decompose(lam, n)[0] - 1
        assert _reassemble(n, *wrong) == lam
        monkeypatch.setattr(
            verify, "_decompose_valid",
            lambda lam_, n_: wrong if (lam_, n_) == (lam, n)
            else _decompose_valid(lam_, n_))
        assert verify_durfee_exact(sum(lam), [n]) == [False]

    @staticmethod
    def _plant_dropped_below_part_at_2(monkeypatch):
        # every decomposition at offset 2 with a nonempty below loses its
        # last below part, so it no longer reassembles; other offsets are
        # untouched
        def faulty(lam, n):
            k, right, below = _decompose_valid(lam, n)
            if n == 2 and below:
                below = below[:-1]
            return k, right, below

        monkeypatch.setattr(verify, "_decompose_valid", faulty)

    def test_durfee_exact_attributes_a_fault_to_its_offset(self, monkeypatch):
        self._plant_dropped_below_part_at_2(monkeypatch)
        assert verify_durfee_exact(10, range(-3, 4)) == [
            n != 2 for n in range(-3, 4)]

    def test_durfee_exact_cli_marks_only_the_faulty_row(self, monkeypatch,
                                                         capsys):
        self._plant_dropped_below_part_at_2(monkeypatch)
        assert main(["verify", "--identity", "durfee", "--exact",
                     "--N", "10"]) == 1
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == [
            f"N=10;n_offset={n}" for n in range(-3, 4)]
        assert [r.rsplit(",", 1)[1] for r in rows] == [
            "false" if n == 2 else "true" for n in range(-3, 4)]

    def test_durfee_exact_enumerates_and_validates_once(self, monkeypatch):
        enumerated, validated, decomposed, reassembled = [], [], [], []

        def counted(real, log):
            def wrapper(*args):
                log.append(args)
                return real(*args)
            return wrapper

        for name, log in (("enumerate_partitions", enumerated),
                          ("as_partition", validated),
                          ("_decompose_valid", decomposed),
                          ("_reassemble", reassembled)):
            monkeypatch.setattr(verify, name,
                                counted(getattr(verify, name), log))
        N = 12
        assert verify_durfee_exact(N, range(-3, 4)) == [True] * 7
        assert enumerated == [(size,) for size in range(N + 1)]
        total = sum(count_partitions(size) for size in range(N + 1))
        # each partition once, for all seven offsets
        assert len(validated) == len(set(validated)) == total
        assert len(decomposed) == len(set(decomposed)) == 7 * total
        # and one reassembly per pair
        assert len(reassembled) == len(set(reassembled)) == 7 * total

    def test_euler_exact(self):
        assert verify_euler_exact(12, 4)

    def test_euler_exact_k_zero_column(self):
        assert verify_euler_exact(10, 0)

    def test_euler_exact_k_above_product_degree(self):
        # prod_{i=0}^{2} (1 + z q^i) has z-degree 3, so K = 6 asks for
        # columns that are identically zero
        assert verify_euler_exact(2, 6)

    def test_qbinomial_exact(self):
        for m in range(0, 9):
            assert verify_qbinomial_exact(m)

    def test_z_coefficients_are_subset_sums(self):
        # the z^k coefficient of prod_{i<n} (1 + z q^i) is the sum of
        # q^{sum S} over the k-subsets S of {0..n-1}; the list stops at
        # z^min(n, max_k)
        for n in range(0, 11):
            want = []
            for k in range(0, n + 1):
                coeffs = [0] * (n * n + 1)
                for subset in itertools.combinations(range(n), k):
                    coeffs[sum(subset)] += 1
                want.append(IntPoly(coeffs))
            for max_k in range(0, n + 2):
                assert verify._z_coefficients(n, max_k) == want[:max_k + 1]
