"""Tests of the benchmark itself: tiny smoke runs of every workload, failure
counting on corrupted output, tracer transparency, and the statistics.

    python3 -m pytest bench
"""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds; run from the repo root."""
    monkeypatch.setattr(workloads, "DENSE_REPLICAS", 2)
    monkeypatch.setattr(workloads, "DENSE_PROBES", 20)
    monkeypatch.setattr(workloads, "WIDE_REPLICAS", 1)
    monkeypatch.setattr(workloads, "WIDE_COMMANDS", 2)
    monkeypatch.setattr(workloads, "DIST_QS", (0.5, 0.9))
    monkeypatch.setattr(workloads, "POSITIONS_QS", (0.2,))
    monkeypatch.chdir(ROOT)


def bench(capsys, workload, trace=0, seed=1):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload(tiny, capsys, workload):
    result = bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0

    traced = bench(capsys, workload, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_self = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_self + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert 0 <= values["trace.unattributed_s"] < 0.05 * values["trace.wall_s"]
    if workload.startswith("sim"):
        assert values["coupling.steps"] == values["coupling.events"] > 0


def corrupt(path, transform):
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.writelines(transform(lines))


def replace_in_row(prefix, old, new):
    """Transform that edits the first row starting with prefix."""
    def transform(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith(prefix))
        assert old in lines[i]
        lines[i] = lines[i].replace(old, new, 1)
        return lines
    return transform


def with_corruption(monkeypatch, edits):
    """Make run_pass corrupt the outputs of the commands picked by edits:
    a list of (predicate on argv, transform)."""
    real = run.run_pass

    def run_pass(cli, commands, *args, **kwargs):
        wall, times, rcs, outs = real(cli, commands, *args, **kwargs)
        for pick, transform in edits:
            i = next(i for i, a in enumerate(commands) if pick(a))
            corrupt(outs[i], transform)
        return wall, times, rcs, outs

    monkeypatch.setattr(run, "run_pass", run_pass)


def test_corrupted_rows_count_as_failed_commands(tiny, capsys, monkeypatch):
    def window(lines):
        key, prob = lines[3].rstrip("\n").split(",")
        lines[3] = f"{key},{float(prob) * (1 + 1e-6)!r}\n"
        return lines

    with_corruption(monkeypatch, [
        (lambda a: a[:2] == ["verify", "--identity"] and "--exact" in a,
         replace_in_row("durfee_exact", "true", "false")),
        (lambda a: "window-particles" in a, window),
        (lambda a: "left-particles" in a, replace_in_row("sum,", "sum,", "sum,0.9")),
    ])
    result = bench(capsys, "closed_forms")
    assert not result["correct"]
    assert result["failed"] == 3


def test_corrupted_simulation_counts_as_failed(tiny, capsys, monkeypatch):
    def shift_xi(lines):
        # site -8 is occupied with probability 1/257; claim it is half full
        i = next(i for i, l in enumerate(lines) if l.startswith("xi_site,-8,"))
        cells = lines[i].split(",")
        cells[3] = "0.5"
        lines[i] = ",".join(cells)
        return lines

    with_corruption(monkeypatch, [(lambda a: a[0] == "simulate", shift_xi)])
    monkeypatch.setattr(workloads, "DENSE_REPLICAS", 20)
    result = bench(capsys, "simulation")
    assert not result["correct"]
    # the pooled check cannot tell which of the two dense commands is wrong
    assert result["failed"] == 2


def test_violations_fail_the_command(tiny, capsys, monkeypatch):
    with_corruption(monkeypatch, [(lambda a: a[0] == "simulate",
                                   replace_in_row("# ", '"N_violations": 0', '"N_violations": 1'))])
    result = bench(capsys, "simulation")
    assert result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tracer_leaves_outputs_identical(tiny, tmp_path, workload):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    _, commands = workloads.WORKLOADS[workload](random.Random(7))
    _, cli = run.load_program(ROOT, ["verify", "--identity", "euler", "--q", "0.5"],
                                 str(tmp_path / "w.csv"))
    plain = run.run_pass(cli, commands, str(tmp_path))[3]
    plain = [run.digest(open(p).read()) for p in plain]
    tracer = Tracer()
    tracer.install(sys.modules[f"aseplab.{m}"] for m in LAYERS)
    try:
        traced = run.run_pass(cli, commands, str(tmp_path), tracer)[3]
    finally:
        tracer.uninstall()
    assert [run.digest(open(p).read()) for p in traced] == plain
    assert len(tracer.start) > len(commands)
    # every wrapper is gone again
    assert not hasattr(sys.modules["aseplab.cli"].main, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "simulation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_commands():
    for name, gen in workloads.WORKLOADS.items():
        assert gen(random.Random(f"{name}:5")) == gen(random.Random(f"{name}:5"))
        assert gen(random.Random(f"{name}:5")) != gen(random.Random(f"{name}:6"))


def test_tail_percentile_leaves_ten_beyond():
    for n in (11, 20, 22, 75, 670):
        values = list(range(n))
        value, pct, count = run.tail(values)
        assert count == n and n - 1 - value >= 10
        # the next whole percentile would leave fewer than ten beyond
        assert n - run.math.ceil((pct + 1) * n / 100) < 10


def test_xi_check_false_alarm_rate_holds():
    """Replica means that are exact Bernoulli(mu) draws are the worst case
    for the Chernoff bound; the check must reject at most alpha of them."""
    rng = np.random.default_rng(0)
    q, c, lo, hi = 0.5, 0.0, -2, 2
    mus = {s: checks.occupation(s, q, c)[0] for s in range(lo, hi + 1)}
    alpha, trials, rejected = 0.2, 2000, 0
    for _ in range(trials):
        xi = {s: rng.binomial(20, mu) / 20 for s, mu in mus.items()}
        problems, _ = checks.xi_pool_problems([((q, c, lo, hi), 20, xi)], alpha)
        rejected += bool(problems[(q, c, lo, hi)])
    assert rejected / trials <= alpha

    xi = dict(mus)
    xi[0] = mus[0] + 0.3
    problems, _ = checks.xi_pool_problems([((q, c, lo, hi), 200, xi)])
    assert len(problems[(q, c, lo, hi)]) == 1


def test_compare_verdicts():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    parent = {s: 10.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(metric, parent, {s: v * 0.8 for s, v in parent.items()}) == "better"
    assert compare.verdict(metric, parent, {s: v * 1.2 for s, v in parent.items()}) == "worse"
    assert compare.verdict(metric, parent, {s: v * 1.01 for s, v in parent.items()}) == "unchanged"
    noisy = {s: 10.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    assert compare.verdict(metric, noisy, {s: v * 1.05 for s, v in noisy.items()}) == "unresolved"
