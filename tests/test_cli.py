import argparse
import csv
import json
import os
import re
import subprocess
import sys

import pytest

import aseplab
from aseplab import cli
from aseplab.blocking import AsepParams, prob_N
from aseplab.cli import main


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def run_csv(argv, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    text = path.read_text()
    meta_lines = [l for l in text.splitlines() if l.startswith("#")]
    data_lines = [l for l in text.splitlines() if not l.startswith("#")]
    meta = strict_json(meta_lines[0][2:]) if meta_lines else {}
    return code, meta, data_lines


def run_json(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(path)])
    return code, strict_json(path.read_text())


class TestVerifyCommand:
    def test_euler_pass(self, capsys):
        assert main(["verify", "--identity", "euler", "--q", "0.5", "--z", "1"]) == 0
        out = capsys.readouterr().out
        assert "euler" in out and "true" in out

    def test_missing_q_is_usage_error(self, capsys):
        assert main(["verify", "--identity", "euler"]) == 2

    def test_bad_q_is_usage_error(self, capsys):
        assert main(["verify", "--identity", "euler", "--q", "1.5"]) == 2

    def test_unknown_identity(self, capsys):
        assert main(["verify", "--identity", "gauss", "--q", "0.5"]) == 2

    def test_all_numeric(self, tmp_path):
        code, meta, lines = run_csv(
            ["verify", "--identity", "all", "--q", "0.5"], tmp_path
        )
        assert code == 0
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["durfee", "euler", "qbinomial", "jacobi"]
        assert all(l.endswith("true") for l in lines[1:])

    def test_all_exact(self, tmp_path):
        code, meta, lines = run_csv(
            ["verify", "--identity", "all", "--exact", "--N", "10", "--m", "5",
             "--K", "3"],
            tmp_path,
        )
        assert code == 0
        names = {l.split(",")[0] for l in lines[1:]}
        assert names == {"durfee_exact", "euler_exact", "qbinomial_exact", "q_pascal"}
        assert meta["exact"] is True

    @pytest.mark.parametrize("identity", ["durfee", "all"])
    def test_underflowing_partition_product_is_input_error(self, identity,
                                                            capsys):
        # (q;q)_infty underflows to 0 at q = 0.999 and is subnormal at
        # q = 0.9977, where the rectangle sum still converges (to inf)
        for q in ("0.9977", "0.999"):
            code = main(["verify", "--identity", identity, "--q", q])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == "" and "Traceback" not in err
            assert err.startswith("error: ") and "(q;q)_infty" in err

    @pytest.mark.parametrize("identity", ["durfee", "all"])
    def test_subnormal_partition_product_is_named_before_the_sum(
            self, identity, capsys):
        # at q = 0.998 (q;q)_infty is subnormal and the rectangle sum does
        # not converge either: the product is named, as jacobi names it
        assert main(["verify", "--identity", identity, "--q", "0.998"]) == 2
        assert capsys.readouterr() == (
            "", "error: (q;q)_infty underflows at q=0.998\n")

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--q", "0.5", "--z", "1e30"], "q-binomial product overflows "
             "at q=0.5, z=1e+30, m=12"),
            # the Gaussian binomials overflow and the sum reads nan
            (["--q", "0.999", "--m", "2000"], "q-binomial sum overflows at "
             "q=0.999, z=1.0, m=2000"),
        ],
        ids=["product", "sum"],
    )
    def test_qbinomial_overflow_names_the_side(self, args, message, capsys):
        code = main(["verify", "--identity", "qbinomial"] + args)
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "identity,q,message",
        [
            ("euler", "0.999", "error: euler sum at q=0.999, z=1.0\n"),
        ],
    )
    def test_series_not_converged_is_input_error(self, identity, q, message,
                                                  capsys):
        assert main(["verify", "--identity", identity, "--q", q]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize(
        "q,z,quantity",
        [
            ("0.999", "1", "(q;q)_infty underflows at q=0.999"),
            # subnormal, not 0: the product reads 1e34 instead of about 56
            ("0.998", "1", "(q;q)_infty underflows at q=0.998"),
            ("0.99", "0.01", "theta sum overflows at q=0.99, z=0.01"),
        ],
    )
    def test_jacobi_out_of_float_range_is_input_error(self, q, z, quantity,
                                                       capsys):
        # a true identity must not be reported as failing (exit 1)
        code = main(["verify", "--identity", "jacobi", "--q", q, "--z", z])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {quantity}\n")

    def test_tol_with_exact_usage_error(self, capsys):
        # no exact suite reads a tolerance, so meta must not claim one
        argv = ["verify", "--identity", "all", "--exact", "--N", "3", "--tol", "0.5"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--tol" in err and "Traceback" not in err

    def test_exact_jacobi_rejected(self, capsys):
        assert main(["verify", "--identity", "jacobi", "--exact"]) == 2

    @pytest.mark.parametrize(
        "sizes",
        [
            ["--exact", "--N", "-1"],
            ["--exact", "--N", "61"],
            ["--exact", "--K", "-2"],
            ["--exact", "--m", "-1"],
            ["--q", "0.5", "--m", "-1"],
        ],
        ids=["N-negative", "N-above-cap", "K-negative", "exact-m-negative",
             "numeric-m-negative"],
    )
    def test_bad_size_usage_error_before_any_work(self, sizes, capsys):
        assert main(["verify", "--identity", "all"] + sizes) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must" in err and "Traceback" not in err


class TestDistCommand:
    def test_left_particles_rows_and_sum(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "left-particles", "--m", "0", "--k", "0:10",
             "--q", "0.5", "--c", "0"],
            tmp_path,
        )
        assert code == 0
        assert lines[0] == "key,prob"
        assert len(lines) == 1 + 11 + 1
        assert lines[-1].startswith("sum,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_N_ratio_column(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "N", "--n=-10:10", "--q", "0.5", "--c", "0.3"],
            tmp_path,
        )
        assert code == 0
        assert lines[0] == "key,prob,ratio,ratio_expected"
        for line in lines[1:-1]:
            _, _, ratio, expected = line.split(",")
            assert float(ratio) == pytest.approx(float(expected), rel=1e-11)

    @pytest.mark.parametrize("span", ["-60:-50", "-400:-390", "-47:-40"])
    def test_N_ratio_empty_where_previous_prob_underflows(self, span, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "N", f"--n={span}", "--q", "0.5"], tmp_path
        )
        assert code == 0
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == len(range(*map(int, span.split(":")))) + 1
        prev = None
        for key, prob, ratio, expected in rows:
            if prev is not None and float(prev) == 0.0:
                assert ratio == ""
            elif prev is not None and float(prev) > 1e-300:
                assert float(ratio) == pytest.approx(float(expected), rel=1e-11)
            prev = prob

    def test_N_ratio_reuses_previous_row(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "N", "--n=-3:3", "--q", "0.7", "--c", "0.3"],
            tmp_path,
        )
        assert code == 0
        p = AsepParams(q=0.7, c=0.3)
        for line in lines[1:-1]:
            key, prob, ratio, _ = line.split(",")
            n = int(key)
            assert float(prob) == prob_N(n, p)
            assert float(ratio) == prob_N(n, p) / prob_N(n - 1, p)

    def test_positions_pairs_and_quoting(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "positions", "--d", "2", "--m=-5:5",
             "--q", "0.5"],
            tmp_path,
        )
        assert code == 0
        assert len(lines) == 1 + 55 + 1  # C(11,2) pairs + sum
        assert lines[1].startswith('"-5,-4",')

    def test_window_particles_k_beyond_window_usage_error(self, tmp_path, capsys):
        code = main(
            ["dist", "--law", "window-particles", "--m1", "0", "--m2", "5",
             "--k", "0:7", "--q", "0.5"]
        )
        assert code == 2

    def test_window_particles_full_range(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "window-particles", "--m1", "0", "--m2", "5",
             "--q", "0.5", "--c", "1.0"],
            tmp_path,
        )
        assert code == 0
        assert len(lines) == 1 + 5 + 1  # k = 0..4 + sum
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, rel=1e-12)

    def test_missing_law_args(self, capsys):
        assert main(["dist", "--law", "window-particles", "--q", "0.5"]) == 2
        assert main(["dist", "--law", "left-particles", "--q", "0.5",
                     "--m=0:4"]) == 2

    def test_pi_table(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "pi", "--d", "2", "--cap", "30", "--q", "0.5"],
            tmp_path,
        )
        assert code == 0
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "law_args",
        [
            ["--law", "pi", "--cap", "-3"],
            ["--law", "pi", "--d", "5", "--cap", "2"],
            ["--law", "positions", "--d", "30", "--m=-8:8"],
        ],
        ids=["pi-negative-cap", "pi-cap-below-d", "positions-span-below-d"],
    )
    def test_empty_table_usage_error(self, law_args, capsys):
        assert main(["dist", "--q", "0.5"] + law_args) == 2
        assert capsys.readouterr().out == ""

    def test_truncation_not_converged_is_input_error(self, capsys):
        code = main(["dist", "--law", "left-particles", "--q", "0.99999",
                     "--m", "0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""  # no partial table before the error
        assert err.startswith("error: ") and "did not reach" in err

    @pytest.mark.parametrize("k", [10, 30, 40])
    @pytest.mark.parametrize("q", ["0.1", "0.5", "0.9"])
    def test_N_law_is_shift_invariant(self, q, k, tmp_path):
        # at dyadic c, shifting c and the rows by 2^k is exact, so every
        # value column must keep its bits; only the keys move
        def values(shift):
            _, _, lines = run_csv(
                ["dist", "--law", "N", "--q", q, "--c", str(0.375 + shift),
                 f"--n={shift - 12}:{shift + 12}"], tmp_path)
            return [line.split(",")[1:] for line in lines[1:]]

        assert values(2**k) == values(0)

    def test_overflow_is_input_error(self, capsys):
        code = main(["dist", "--law", "N", "--q", "0.5", "--c", "1e300"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "c,message",
        [
            ("1e300", "exponent of the N law overflows at q=0.5, c=1e+300"),
            ("2000", "ratio_expected q^(n-c) overflows at q=0.5, n=-10, "
             "c=2000.0"),
        ],
        ids=["exponent", "ratio_expected"],
    )
    def test_N_overflow_names_the_quantity(self, c, message, capsys):
        assert main(["dist", "--law", "N", "--q", "0.5", "--c", c]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "law_args",
        [
            ["--law", "positions", "--q", "0.3", "--c", "0.37", "--d", "3",
             "--m=-15:17"],
            ["--law", "positions", "--q", "0.7", "--c", "-1.7", "--m=-40:40"],
            ["--law", "pi", "--q", "0.5", "--d", "3", "--cap", "30"],
            ["--law", "second-class", "--q", "0.9", "--c", "-1.7", "--d", "2",
             "--m=-60:60"],
            ["--law", "N", "--q", "0.5", "--c", "0.37", "--n=-12:12"],
            ["--law", "left-particles", "--q", "0.7", "--c", "-1.7", "--m=1",
             "--k=0:30"],
        ],
        ids=["positions-d3", "positions-d1", "pi", "second-class", "N",
             "left-particles"],
    )
    def test_sum_row_is_left_to_right_fold_of_printed_probs(
            self, law_args, tmp_path):
        # The builtin sum is compensated from Python 3.12 on and prints a
        # different last digit on these tables; the sum row must not
        # depend on the interpreter.
        code, meta, lines = run_csv(["dist"] + law_args, tmp_path)
        assert code == 0
        *body, last = [re.sub(r'^"[^"]*"', "key", l) for l in lines[1:]]
        total = 0
        for l in body:
            total += float(l.split(",")[1])
        key, cell = last.split(",")[:2]
        assert key == "sum"
        assert cell == f"{total:.17g}"

    def test_second_class_sums_to_d(self, tmp_path):
        code, meta, lines = run_csv(
            ["dist", "--law", "second-class", "--d", "2", "--m=-40:40",
             "--q", "0.5"],
            tmp_path,
        )
        assert code == 0
        assert float(lines[-1].split(",")[1]) == pytest.approx(2.0, abs=1e-8)


# Each command at the sites moved by s, and whether a row's key is a site
# or a tuple of sites, which moves with them, or a count or a label.
SHIFTED_COMMANDS = {
    "left-particles": (
        lambda s: ["dist", "--law", "left-particles", "--m", str(s)],
        lambda row: False),
    "right-holes": (
        lambda s: ["dist", "--law", "right-holes", "--m", str(s)],
        lambda row: False),
    "window-particles": (
        lambda s: ["dist", "--law", "window-particles", "--m1", str(s - 3),
                   "--m2", str(s + 4)],
        lambda row: False),
    "second-class": (
        lambda s: ["dist", "--law", "second-class", "--d", "2",
                   f"--m={s - 15}:{s + 15}"],
        lambda row: row[0] != "sum"),
    "positions": (
        lambda s: ["dist", "--law", "positions", "--d", "2",
                   f"--m={s - 8}:{s + 8}"],
        lambda row: row[0] != "sum"),
    "simulate": (
        lambda s: ["simulate", "--d", "2", "--T", "2", "--replicas", "3",
                   "--seed", "5", f"--window={s - 60}:{s + 60}",
                   "--window-eps", "1e-2"],
        lambda row: row[0] != "label"),
}


@pytest.mark.parametrize("k", [10, 30, 40])
@pytest.mark.parametrize("q", ["0.1", "0.5", "0.9"])
@pytest.mark.parametrize("name", list(SHIFTED_COMMANDS))
def test_value_columns_are_shift_invariant(name, q, k, tmp_path):
    # at dyadic c, shifting c and the sites by 2^k is exact, so every value
    # column must keep its bits; site keys move by 2^k, other keys stay
    argv, key_moves = SHIFTED_COMMANDS[name]

    def rows(s):
        code, _, lines = run_csv(
            argv(s) + ["--q", q, "--c", str(0.375 + s)], tmp_path)
        assert code == 0
        header, *body = csv.reader(lines)
        return header.index("key"), body

    key, base = rows(0)
    _, shifted = rows(2**k)
    for row in shifted:
        if key_moves(row):
            row[key] = ",".join(str(int(v) - 2**k) for v in row[key].split(","))
    assert shifted == base


SIM_ARGS = [
    "simulate", "--q", "0.5", "--c", "0", "--d", "1", "--window=-20:20",
    "--T", "5", "--replicas", "30", "--seed", "7", "--probes", "4",
]


SINGLE_REPLICA = [
    "simulate", "--q", "0.5", "--window=-25:25", "--T", "5", "--replicas",
    "1", "--seed", "1",
]


class TestSimulateCommand:
    def test_replicas_zero_usage_error(self, capsys):
        assert main(
            ["simulate", "--q", "0.5", "--window=-20:20", "--replicas", "0"]
        ) == 2

    def test_negative_probes_usage_error(self, capsys):
        assert main(
            ["simulate", "--q", "0.5", "--window=-20:20", "--probes", "-1"]
        ) == 2
        assert "--probes must be >= 0" in capsys.readouterr().err

    def test_negative_margin_usage_error(self, capsys):
        assert main(
            ["simulate", "--q", "0.5", "--window=-25:25", "--replicas", "2",
             "--T", "1", "--margin", "-3"]
        ) == 2
        assert "--margin must be >= 0" in capsys.readouterr().err

    def test_single_replica_has_no_error_estimate_csv(self, tmp_path):
        # one replica gives no sem, so neither sem nor z may claim a value
        code, _, lines = run_csv(SINGLE_REPLICA, tmp_path)
        assert code == 0
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(",", 6))) for line in lines[1:]]
        assert {row["table"] for row in rows} == {"xi_site", "eta_site", "x",
                                                  "label"}
        for row in rows:
            assert row["sem"] == "" and row["z"] == ""
            assert row["empirical"] and row["analytic"]

    def test_single_replica_has_no_error_estimate_json(self, tmp_path):
        code, doc = run_json(SINGLE_REPLICA, tmp_path)
        assert code == 0
        assert doc["meta"]["replicas"] == 1
        assert doc["rows"]
        for row in doc["rows"]:
            assert row["sem"] is None and row["z"] is None
            assert isinstance(row["empirical"], float)

    def test_json_schema(self, tmp_path):
        code, doc = run_json(SIM_ARGS, tmp_path)
        assert code == 0
        assert set(doc) == {"meta", "rows"}
        meta = doc["meta"]
        for key in ("q", "c", "d", "seed", "window", "truncation", "timestamp",
                    "events", "N_violations", "contamination_fraction"):
            assert key in meta
        tables = {row["table"] for row in doc["rows"]}
        assert tables == {"xi_site", "eta_site", "x", "label"}
        row = doc["rows"][0]
        assert set(row) == {"table", "key", "count", "empirical", "sem",
                            "analytic", "z"}

    def test_byte_identical_modulo_timestamp(self, tmp_path):
        code1, meta1, lines1 = run_csv(SIM_ARGS, tmp_path, "a.csv")
        code2, meta2, lines2 = run_csv(SIM_ARGS, tmp_path, "b.csv")
        assert code1 == code2 == 0
        assert lines1 == lines2
        meta1.pop("timestamp")
        meta2.pop("timestamp")
        assert meta1 == meta2

    def test_different_seed_changes_output(self, tmp_path):
        _, _, lines1 = run_csv(SIM_ARGS, tmp_path, "s7.csv")
        _, _, lines2 = run_csv(
            SIM_ARGS[:-4] + ["--seed", "8", "--probes", "4"], tmp_path, "s8.csv"
        )
        assert lines1 != lines2

    def test_d0_marginals_only(self, tmp_path):
        code, doc = run_json(
            ["simulate", "--q", "0.5", "--c", "0", "--d", "0",
             "--window=-20:20", "--T", "2", "--replicas", "10", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        tables = {row["table"] for row in doc["rows"]}
        assert tables == {"xi_site", "eta_site"}

    def test_window_too_narrow_usage_error(self, capsys):
        code = main(
            ["simulate", "--q", "0.5", "--window=-6:6", "--replicas", "2",
             "--T", "1"]
        )
        assert code == 2

    def test_label_out_of_range_is_input_error(self, capsys):
        # a pi sample can rank a label past the particles a narrow window holds
        code = main(
            ["simulate", "--q", "0.9", "--window=-4:4", "--window-eps", "0.6",
             "--d", "2", "--T", "1", "--replicas", "20", "--seed", "1"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_contamination_exit1(self, capsys):
        code = main(
            ["simulate", "--q", "0.5", "--window=-6:6", "--replicas", "2",
             "--T", "1", "--window-eps", "0.1", "--margin", "7",
             "--max-contamination", "0.0", "--seed", "3"]
        )
        assert code == 1
        # margin 7 on 13 sites contaminates every probe: no table, one line
        assert capsys.readouterr() == (
            "",
            "boundary contamination: 22/22 probes contaminated "
            "(allowed fraction 0.0)\n",
        )

    def test_frozen_window_holds_its_state(self, tmp_path):
        # a two-site window reaches 00 or 11, where no move is enabled; the
        # run prints its table instead of failing
        code, doc = run_json(
            ["simulate", "--q", "0.5", "--c", "0.5", "--window=0:1",
             "--window-eps", "0.9", "--d", "0", "--replicas", "20", "--T", "1"],
            tmp_path,
        )
        assert code == 0
        assert doc["meta"]["total_probes"] == 20 * 11
        assert [row["key"] for row in doc["rows"]] == ["0", "1", "0", "1"]

    def test_analytic_column_matches_library(self, tmp_path):
        from aseplab.blocking import AsepParams, marginal

        code, doc = run_json(SIM_ARGS, tmp_path)
        pe = AsepParams(q=0.5, c=1.0)
        for row in doc["rows"]:
            if row["table"] == "eta_site" and row["key"] == "0":
                assert row["analytic"] == pytest.approx(marginal(0, 1, pe))
                break
        else:
            pytest.fail("eta_site row for site 0 missing")


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "all", "--exact", "--tol", "0.5"],
            ["verify", "--identity", "jacobi", "--exact"],
            ["simulate", "--q", "0.5", "--window=-25:25", "--replicas", "0"],
            ["dist", "--law", "positions", "--q", "0.5", "--d", "5",
             "--m", "0:2"],
        ],
        ids=["verify-tol-exact", "verify-jacobi-exact", "simulate-replicas",
             "dist-positions-span"],
    )
    def test_handler_usage_error_names_its_subcommand(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: aseplab {argv[0]} ")
        assert f"aseplab {argv[0]}: error: " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "all", "--q", "0.5"],
            SIM_ARGS,
            ["dist", "--law", "pi", "--q", "0.5"],
            ["dist", "--law", "N", "--q", "0.5", "--format", "json"],
        ],
        ids=["verify", "simulate", "dist", "dist-json"],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unopenable_out_is_input_error(self, argv, target, tmp_path,
                                           capsys):
        out = tmp_path
        if target == "missing-dir":
            out = tmp_path / "missing" / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: cannot open --out: ") and str(out) in err
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "euler", "--q", "0.5"],
            ["verify", "--identity", "durfee", "--exact"],
        ],
        ids=["euler", "durfee-exact"],
    )
    def test_failed_write_is_input_error(self, argv, capsys):
        # /dev/full opens, then fails every write with ENOSPC
        assert main(argv + ["--out", "/dev/full"]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: cannot write --out /dev/full: ")
        assert "No space left on device" in err
        assert err.count("\n") == 1

    def test_bad_window(self):
        assert main(["simulate", "--q", "0.5", "--window", "5:1"]) == 2

    def test_bad_seed(self):
        assert main(SIM_ARGS[:-4] + ["--seed", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--q", "0.5", "--window=-25:25", "--T", "inf",
             "--replicas", "1"],
            ["simulate", "--q", "0.5", "--window=-25:25", "--c", "nan"],
            ["dist", "--law", "second-class", "--q", "0.5", "--c", "nan",
             "--d", "1"],
            ["simulate", "--q", "0.5", "--window=-25:25", "--window-eps", "nan"],
            ["simulate", "--q", "0.5", "--window=-25:25",
             "--max-contamination", "nan"],
            ["simulate", "--q", "0.5", "--window=-25:25",
             "--max-contamination", "-0.1"],
            ["verify", "--identity", "all", "--q", "0.5", "--tol", "nan"],
            ["verify", "--identity", "all", "--q", "0.5", "--tol", "-1"],
            ["verify", "--identity", "euler", "--q", "0.5", "--z", "inf"],
        ],
        ids=["T-inf", "simulate-c-nan", "dist-c-nan", "window-eps-nan",
             "max-contamination-nan", "max-contamination-negative", "tol-nan",
             "tol-negative", "z-inf"],
    )
    def test_nonfinite_or_negative_float_usage_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--q", "0.5", "--window=-25:25", "--c", "abc"],
            ["simulate", "--q", "abc", "--window=-25:25"],
            ["simulate", "--q", "0.5", "--window=-25:25", "--seed", "abc"],
            ["simulate", "--q", "0.5", "--window=-25:25", "--T", "1e"],
            ["verify", "--identity", "euler", "--q", "0.5", "--z", "abc"],
            ["dist", "--law", "second-class", "--q", "0.5", "--m", "a:b"],
            ["dist", "--law", "second-class", "--q", "0.5", "--m", "1:2:3"],
            ["dist", "--law", "N", "--q", "0.5", "--n", "x"],
        ],
        ids=["c", "q", "seed", "T", "z", "span-letters", "span-three-parts",
             "span-single"],
    )
    def test_unparsable_value_names_no_private_function(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err and "expected" in err
        assert "invalid" not in err and not re.search(r"\b_\w", err)


# ------------------------------------------ main's parser against the full one

# For each subcommand a valid run, its help, a missing required argument, a
# bad choice, a bad type and an unknown option; then the argv main answers
# with the full parser.
PARITY_ARGV = {
    "verify-run": ["verify", "--identity", "all", "--q", "0.5", "--n-offset", "2"],
    "verify-help": ["verify", "-h"],
    "verify-missing": ["verify", "--q", "0.5"],
    "verify-choice": ["verify", "--identity", "bogus"],
    "verify-type": ["verify", "--identity", "all", "--z", "abc"],
    "verify-unknown": ["verify", "--identity", "all", "--bogus"],
    "simulate-run": ["simulate", "--q", "0.5", "--window=-5:5", "--seed", "7"],
    "simulate-help": ["simulate", "--help"],
    "simulate-missing": ["simulate", "--q", "0.5"],
    "simulate-choice": ["simulate", "--q", "0.5", "--window=-5:5",
                        "--format", "xml"],
    "simulate-type": ["simulate", "--q", "2", "--window=-5:5"],
    "simulate-unknown": ["simulate", "--q", "0.5", "--window=-5:5",
                         "--bogus", "1"],
    "dist-run": ["dist", "--law", "N", "--q", "0.5", "--n=-3:3",
                 "--format", "json"],
    "dist-help": ["dist", "-h"],
    "dist-missing": ["dist", "--law"],
    "dist-choice": ["dist", "--law", "bogus", "--q", "0.5"],
    "dist-type": ["dist", "--law", "N", "--q", "0.5", "--k", "a:b"],
    "dist-unknown": ["dist", "--law", "N", "--q", "0.5", "extra"],
    "help": ["-h"],
    "no-arguments": [],
    "unknown-subcommand": ["distt", "--law", "N"],
}


def subcommands_with(monkeypatch, wrap):
    """Replace cli's subcommand table by one whose arguments and handler
    functions are wrap(name, arguments, handler)."""
    monkeypatch.setattr(cli, "_SUBCOMMANDS", {
        name: (help_, *wrap(name, add_arguments, handler))
        for name, (help_, add_arguments, handler) in cli._SUBCOMMANDS.items()})


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("case", PARITY_ARGV)
def test_main_parses_as_the_full_parser(case, columns, monkeypatch, capsys):
    # help and usage wrap at the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", columns)
    argv = PARITY_ARGV[case]
    seen = []
    subcommands_with(monkeypatch, lambda name, add_arguments, handler: (
        add_arguments, lambda parser, args: seen.append(args) or 0))

    def outcome(args, code):
        out, err = capsys.readouterr()
        if args is None:
            return None, out, err, code
        fields = {k: v for k, v in vars(args).items()
                  if k not in ("handler", "parser")}
        # the parser the handler reports its usage errors through
        return (fields, args.parser.format_help()), out, err, code

    code = main(argv)
    via_main = outcome(seen[0] if seen else None, code)
    try:
        args, code = cli.build_parser().parse_args(argv), 0
    except SystemExit as e:
        args, code = None, int(e.code or 0)
    assert via_main == outcome(args, code)
    assert (via_main[0] is None) != case.endswith("-run")


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_wraps_as_the_stock_formatter(columns, monkeypatch):
    # every parser's formatter is handed the width the stock one reads
    monkeypatch.setenv("COLUMNS", columns)
    full = cli.build_parser()
    parsers = [full, *(full.parse_args(PARITY_ARGV[f"{name}-run"]).parser
                       for name in ("verify", "simulate", "dist"))]
    for parser in parsers:
        texts = parser.format_help(), parser.format_usage()
        parser.formatter_class = argparse.HelpFormatter
        assert (parser.format_help(), parser.format_usage()) == texts, parser.prog


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    built = []

    def spy(name, add_arguments, handler):
        def traced(sp):
            built.append(name)
            add_arguments(sp)
        return traced, handler

    subcommands_with(monkeypatch, spy)
    assert main(["dist", "--law", "N", "--q", "0.5", "--out", os.devnull]) == 0
    assert built == ["dist"]
    for argv in ([], ["-h"], ["distt"]):
        built.clear()
        main(argv)
        assert built == ["verify", "simulate", "dist"], argv
    capsys.readouterr()


def test_main_reads_sys_argv_or_any_sequence(monkeypatch, tmp_path):
    argv = ["dist", "--law", "N", "--q", "0.5", "--out"]
    assert main(tuple(argv + [str(tmp_path / "tuple.csv")])) == 0
    monkeypatch.setattr(sys, "argv", ["aseplab", *argv, str(tmp_path / "sys.csv")])
    assert main() == 0
    tables = [(tmp_path / f).read_text().splitlines()[1:]
              for f in ("tuple.csv", "sys.csv")]
    assert tables[0] == tables[1] and len(tables[0]) == 23


# A fresh interpreter imports aseplab.cli from the package's own source tree
# and notes which aseplab modules it loaded and whether numpy is loaded, runs
# every command of its first list, notes numpy again, then runs the second
# list.
STARTUP_CHILD = """
import json, sys
src, before, after = json.loads(sys.argv[1])
sys.path.insert(0, src)
import aseplab.cli as cli
imported = sorted(m for m in sys.modules if m.startswith("aseplab."))
at_import = "numpy" in sys.modules
rcs = [cli.main(argv) for argv in before]
loaded = "numpy" in sys.modules
rcs += [cli.main(argv) for argv in after]
print(json.dumps([imported, at_import, rcs, loaded, "numpy" in sys.modules]))
"""


def run_startup_child(before, after):
    src = os.path.dirname(os.path.dirname(os.path.abspath(aseplab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", STARTUP_CHILD,
         json.dumps([src, before, after])],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


DIST_LAWS = [
    ["--law", "N", "--q", "0.5"],
    ["--law", "left-particles", "--q", "0.5", "--m", "0"],
    ["--law", "window-particles", "--q", "0.5", "--m1", "-3", "--m2", "3"],
    ["--law", "right-holes", "--q", "0.5", "--m", "0"],
    ["--law", "second-class", "--q", "0.5", "--d", "2"],
    ["--law", "positions", "--q", "0.5", "--d", "2"],
    ["--law", "pi", "--q", "0.5", "--d", "2"],
]


def test_verify_and_dist_run_without_numpy():
    """verify and dist need the standard library only; simulate loads numpy."""
    out = ["--out", os.devnull]
    before = [
        ["verify", "--identity", "all", "--exact", "--N", "8", "--m", "4"] + out,
        ["verify", "--identity", "all", "--q", "0.5"] + out,
        *(["dist", *law, "--format", fmt] + out
          for law in DIST_LAWS for fmt in ("csv", "json")),
        ["dist", "--law", "pi", "--q", "0.5", "--d", "0"] + out,
    ]
    after = [["simulate", "--q", "0.5", "--window=-25:25", "--replicas", "2",
              "--T", "1"] + out]
    _, _, rcs, loaded, loaded_after = run_startup_child(before, after)
    assert rcs == [0] * (len(before) - 1) + [2, 0]
    assert not loaded, "numpy was imported by verify or dist"
    assert loaded_after, "simulate ran without numpy"


def test_import_loads_every_traced_layer_without_numpy():
    # the benchmark's tracer wraps these modules straight from sys.modules
    # once aseplab.cli is imported, so none of them may be imported lazily
    imported, at_import, _, _, _ = run_startup_child([], [])
    layers = ["qseries", "partitions", "blocking", "coupling", "verify", "cli"]
    assert set(imported) >= {f"aseplab.{m}" for m in layers}
    assert not at_import, "importing aseplab.cli loaded numpy"


def cli_child(argv, stdout):
    """Start `python -m aseplab.cli argv` on the package's own source tree,
    with the block-buffered stdout a shell pipe gives it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aseplab.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "aseplab.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_closed_pipe_mid_table_ends_quietly():
    # `| head -2` on a table of 85k rows: the reader goes while rows are
    # still being written
    proc = cli_child(["dist", "--law", "positions", "--q", "0.3", "--d", "3",
                      "--m=-40:40"], subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# {")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_closed_pipe_before_the_last_flush_ends_quietly():
    # a short table sits in stdout's buffer until the end of the command;
    # with the reader gone before the start, that flush is the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = cli_child(["verify", "--identity", "euler", "--q", "0.5"], write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


# A fresh interpreter with stdout on /dev/full runs one command through
# main in process and reports, on stderr, its exit code and the descriptors
# open before and after it.
FD_CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import aseplab.cli as cli
before = sorted(os.listdir("/proc/self/fd"))
rc = cli.main(["verify", "--identity", "euler", "--q", "0.5"])
after = sorted(os.listdir("/proc/self/fd"))
print(json.dumps([rc, before, after]), file=sys.stderr)
"""


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd")
                         and os.path.exists("/dev/full")),
                    reason="no /proc/self/fd or no /dev/full")
def test_failed_write_to_stdout_leaves_no_descriptor_open():
    # the devnull descriptor that replaces stdout is closed once duplicated
    src = os.path.dirname(os.path.dirname(os.path.abspath(aseplab.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-I", "-c", FD_CHILD, src],
                              stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0
    err = proc.stderr.decode().splitlines()
    assert err[0].startswith("error: cannot write stdout: [Errno 28] ")
    rc, before, after = json.loads(err[-1])
    assert rc == 2
    assert after == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "euler", "--q", "0.5"],
        ["simulate", "--q", "0.5", "--window=-10:10", "--window-eps", "1e-3",
         "--T", "1", "--replicas", "3", "--seed", "5"],
    ],
    ids=["euler", "simulate"],
)
def test_failed_write_to_stdout_is_input_error(argv):
    # /dev/full takes the open and fails the write with ENOSPC: one error
    # line and exit 2, with no second failure from the flush at exit
    with open("/dev/full", "w") as full:
        proc = cli_child(argv, full)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith(b"error: cannot write stdout: [Errno 28] ")
    assert err.count(b"\n") == 1
