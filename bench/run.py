"""aseplab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload simulation --seed 1 --seconds 55 --trace 0

Run it from the root of a source tree: the program is imported from
`./src`.  The workload runs in this one process as a closed loop with one
client: its command list (see workloads.py), generated from --seed, is sent
through `aseplab.cli.main(argv)` one command after another, each writing its
output to a temporary file, and the whole list is repeated until the pass
end nearest to --seconds.  Set-up is timed in fresh interpreters started one
at a time.  Every output is checked (checks.py).  With --trace 1 passes
alternate between untraced and traced (tracer.py), and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  README.md defines every metric.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import checks
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, kind

SETUPS_PER_PASS = 5   # timed set-ups, each in a fresh interpreter, before every pass
TAIL_BEYOND = 10      # samples that must lie beyond the tail percentile
MAX_MEASURE_S = 120   # no new pass starts after this, whatever --seconds says
OUT_DIR = ".bench_out"
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

STEP = ("coupling.choose_transition", "coupling.apply_transition")
SAMPLE = ("blocking.sample_blocking", "coupling.sample_pi")
REPLICA = ("coupling.simulate_stationary",)
MERGE = ("coupling.SimulationReport.merge",)
VERIFY_PARTS = {
    "verify.durfee_exact_s": ("verify.verify_durfee_exact",),
    "verify.euler_exact_s": ("verify.verify_euler_exact",),
    "verify.qbinomial_exact_s": ("verify.verify_qbinomial_exact",),
    "verify.numeric_s": ("verify.verify_durfee", "verify.verify_euler",
                         "verify.verify_qbinomial", "verify.verify_jacobi"),
}


# Times one set-up from the child's first statement: every import the
# program needs (numpy too) counts, the interpreter's own start does not.
SETUP_CHILD = """
import time
t0 = time.perf_counter()
import json, sys
src, argv = json.loads(sys.argv[1])
sys.path.insert(0, src)
import aseplab.cli as cli
cli.build_parser()
rc = cli.main(argv)
print(json.dumps([time.perf_counter() - t0, rc, cli.__file__]))
"""


def timed_setup(root, warmup, out):
    """One set-up in a fresh interpreter, as a user of the CLI pays it:
    import aseplab.cli from ./src, build the parser, run the warm-up
    command.  Returns (seconds, warm-up exit code)."""
    src = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, json.dumps([src, warmup + ["--out", out]])],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up exited {proc.returncode}")
    seconds, rc, path = json.loads(proc.stdout.splitlines()[-1])
    if not os.path.abspath(path).startswith(os.path.join(src, "")):
        raise SystemExit(f"aseplab was imported from {path}, not {src}")
    return seconds, rc


def load_program(root, warmup, out):
    """Import aseplab.cli afresh from ./src into this process and run the
    warm-up command, untimed.  Returns (warm-up exit code, cli)."""
    for name in [m for m in sys.modules if m == "aseplab" or m.startswith("aseplab.")]:
        del sys.modules[name]
    cli = importlib.import_module("aseplab.cli")
    src = os.path.join(root, "src", "")
    if not os.path.abspath(cli.__file__).startswith(src):
        raise SystemExit(f"aseplab was imported from {cli.__file__}, not {src}")
    return cli.main(warmup + ["--out", out]), cli


def run_pass(cli, commands, tmp, tracer=None, first_cmd=0):
    """Send the command list once.  Returns wall seconds, per-command
    seconds, exit codes and output paths."""
    times, rcs, outs = [], [], []
    begin = time.perf_counter()
    for i, argv in enumerate(commands):
        out = os.path.join(tmp, f"cmd{i}.csv")
        if tracer is not None:
            tracer.cmd_id = first_cmd + i
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv + ["--out", out])
        except Exception:  # a crash counts as a failed command, not a failed run
            traceback.print_exc(file=sys.stderr)
            rc = "uncaught exception"
        times.append(time.perf_counter() - t0)
        rcs.append(rc)
        outs.append(out)
    return time.perf_counter() - begin, times, rcs, outs


def digest(text):
    return hashlib.sha256(TIMESTAMP.sub('"timestamp": ""', text).encode()).hexdigest()


def evaluate(checker, commands, rcs, outs, reference):
    """Check every output of a pass, reading (and then deleting) one file at
    a time; a command whose output differs from the first pass's (timestamp
    aside) fails too."""
    results, digests = [], []
    for argv, rc, out in zip(commands, rcs, outs):
        try:
            with open(out) as fh:
                text = fh.read()
            os.remove(out)
        except FileNotFoundError:
            text = ""
        results.append(checker.check_command(argv, rc, text))
        digests.append(digest(text))
    pooled, min_adj = checks.xi_pool_problems([r["xi"] for r in results])
    for i, r in enumerate(results):
        if r["xi"] is not None:
            r["problems"] += pooled[r["xi"][0]]
        if reference is not None and digests[i] != reference[i]:
            r["problems"].append("output differs from the first pass")
    return results, digests, min_adj


def nearest_rank(values, pct):
    if not values:
        return 0.0
    return sorted(values)[max(math.ceil(pct * len(values) / 100) - 1, 0)]


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, n): the highest whole percentile with at least
    `beyond` samples above it, by nearest rank."""
    n = len(values)
    pct = 100 * (n - beyond) // n if n > beyond else 100
    return nearest_rank(values, pct), pct, n


def sim_rates(passes):
    """Median over passes of events and replicas per simulate second."""
    ev, rep = [], []
    for p in passes:
        sim_s = sum(t for t, a in zip(p["times"], p["commands"]) if a[0] == "simulate")
        if sim_s > 0:
            ev.append(sum(r["events"] for r in p["results"]) / sim_s)
            rep.append(sum(r["replicas"] for r in p["results"]) / sim_s)
    return (statistics.median(ev) if ev else 0.0,
            statistics.median(rep) if rep else 0.0)


def kind_seconds(passes):
    """Median over passes of the seconds each kind of command takes."""
    per_pass = []
    for p in passes:
        sums = {}
        for t, argv in zip(p["times"], p["commands"]):
            sums[kind(argv)] = sums.get(kind(argv), 0.0) + t
        per_pass.append(sums)
    return {k: statistics.median(s[k] for s in per_pass) for k in per_pass[0]}


def end_to_end(passes, setups):
    times = [t for p in passes for t in p["times"]]
    cmd_tail, pct, n = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": cmd_tail,
        "rows_per_s": statistics.median(
            sum(r["rows"] for r in p["results"]) / p["wall"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"cmd_tail_s": {"percentile": pct, "n": n},
               "cmd_p50_s": {"n": n},
               "wall_s": {"n": len(passes)},
               "setup_s": {"n": len(setups)}}
    return metrics, samples


def per_layer(tracer, traced, untraced):
    """Per-layer metrics, each a mean per traced pass."""
    sp = tracer.spans()
    k = len(traced)
    name, parent, dur = sp["name"], sp["parent"], sp["dur"]

    def spans_of(names):
        return np.isin(name, tracer.name_ids(*names))

    m = {}
    self_total = 0.0
    for li, layer in enumerate(LAYERS):
        sel = sp["layer"] == li
        m[f"{layer}.self_s"] = float(sp["self"][sel].sum()) / k
        self_total += m[f"{layer}.self_s"]
        if layer not in ("coupling", "cli"):
            m[f"{layer}.calls"] = int(sel.sum()) / k
    m["partitions.enumerated"] = tracer.counters["partitions.enumerated"] / k
    for metric, names in VERIFY_PARTS.items():
        m[metric] = float(dur[spans_of(names)].sum()) / k

    steps = spans_of(STEP)
    n_steps = int(spans_of(STEP[1:]).sum()) / k
    m["coupling.step_s"] = float(dur[steps].sum()) / k
    m["coupling.steps"] = n_steps
    m["coupling.step_us"] = 1e6 * m["coupling.step_s"] / n_steps if n_steps else 0.0
    replica = spans_of(REPLICA)
    under_replica = (parent >= 0) & replica[np.maximum(parent, 0)]
    covered = dur[under_replica & (steps | spans_of(SAMPLE))].sum()
    m["coupling.record_s"] = float(dur[replica].sum() - covered) / k
    m["coupling.sample_s"] = float(dur[spans_of(SAMPLE)].sum()) / k
    merges = spans_of(MERGE)
    m["coupling.merge_s"] = float(dur[merges].sum()) / k
    m["coupling.merges"] = int(merges.sum()) / k
    replica_ms = list(1e3 * dur[replica])
    m["coupling.replica_p50_ms"] = nearest_rank(replica_ms, 50)
    m["coupling.replica_p99_ms"] = nearest_rank(replica_ms, 99)
    results = [r for p in traced for r in p["results"]]
    m["coupling.events"] = sum(r["events"] for r in results) / k
    probes = sum(r["probes"] for r in results)
    dirty = sum(r["contaminated"] for r in results)
    m["coupling.clean_probe_frac"] = 1.0 - dirty / probes if probes else 1.0
    m["cli.rows"] = sum(r["rows"] for r in results) / k

    traced_wall = sum(p["wall"] for p in traced) / k
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - self_total
    m["trace.overhead"] = (statistics.median(p["wall"] for p in traced)
                           / statistics.median(p["wall"] for p in untraced))
    samples = {"traced_passes": k, "untraced_passes": len(untraced),
               "spans": len(name), "replica_percentiles_n": len(replica_ms)}
    return m, samples


def unit_of(metric):
    """Unit of a metric, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"),
                         ("_s", "s"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    if metric.endswith(("frac", "overhead", "error_rate")):
        return "ratio"
    return "count"


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(root, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "aseplab")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return {
        "commit": git_commit(root),
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, root):
    """Measure one workload; returns (result line, detail record)."""
    warmup, commands = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    checker = checks.Checker()
    with tempfile.TemporaryDirectory(dir=os.path.join(root, OUT_DIR)) as tmp:
        warmup_out = os.path.join(tmp, "warmup.csv")
        setups, warm_rcs = [], []
        tracer = Tracer() if args.trace else None
        passes, cmd_pass, reference = [], [], None
        begin, elapsed = time.perf_counter(), 0.0
        while True:
            # set-ups before every pass spread the set-up samples over the
            # whole run, like the pass samples; each pass then starts from
            # freshly imported modules, so no cache outlives a pass
            setups += [timed_setup(root, warmup, warmup_out) for _ in range(SETUPS_PER_PASS)]
            rc, cli = load_program(root, warmup, warmup_out)
            warm_rcs.append(rc)
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install(sys.modules[f"aseplab.{m}"] for m in LAYERS)
            try:
                wall, times, rcs, outs = run_pass(
                    cli, commands, tmp, tracer if traced else None, len(cmd_pass))
            finally:
                if traced:
                    tracer.uninstall()
            cmd_pass += [len(passes)] * len(commands)
            results, digests, min_adj = evaluate(checker, commands, rcs, outs, reference)
            reference = reference or digests
            passes.append({"traced": traced, "wall": wall, "times": times,
                           "commands": commands, "results": results,
                           "xi_min_adjusted_bound": min_adj})
            elapsed, last = time.perf_counter() - begin, elapsed
            if elapsed >= MAX_MEASURE_S:
                break
            # stop at the pass end nearest to --seconds: the next pass
            # would take about as long as this one (set-ups included)
            if (elapsed + (elapsed - last) / 2 >= args.seconds
                    and len(passes) >= (2 if tracer else 1)):
                break

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    all_results = [r for p in passes for r in p["results"]]
    failed = sum(1 for r in all_results if r["problems"])
    extras = dict(zip(("events_per_s", "replicas_per_s"), sim_rates(untraced)))
    extras["error_rate"] = failed / len(all_results)
    if tracer is None:
        metrics, samples = end_to_end(untraced, [s for s, _ in setups])
        spans_file = None
    else:
        metrics, samples = per_layer(tracer, traced, untraced)
        metrics.update(extras)  # measured on the untraced passes
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(os.path.join(root, spans_file), cmd_pass)

    problems = []
    for p in passes:
        for argv, r in zip(commands, p["results"]):
            problems += [" ".join(argv) + ": " + x for x in r["problems"]]
    warm_failures = [f"warm-up command exited {rc}"
                     for rc in [rc for _, rc in setups] + warm_rcs if rc != 0]
    problems = warm_failures + problems
    correct = failed == 0 and not warm_failures
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands_per_pass": len(commands),
        "passes": len(passes),
        "samples": samples,
        "pass_walls": [p["wall"] for p in passes],
        "kind_s": kind_seconds(untraced),
        "extras": extras,
        "output_digest": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "xi_check": {"alpha": checks.XI_ALPHA,
                     "min_adjusted_bound": min(p["xi_min_adjusted_bound"] for p in passes)},
        "spans_file": spans_file,
        "problems": problems[:20],
        "provenance": provenance(root),
    }
    result = {
        "correct": correct,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aseplab", "cli.py")):
        print("bench: run this from the root of an aseplab source tree "
              "(no src/aseplab/cli.py here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    result, detail = run(args, root)
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"passes {detail['passes']} x {detail['commands_per_pass']} commands")
    shown = dict(result["metrics"])
    if not args.trace:
        shown.update({k: {"value": v, "unit": unit_of(k)}
                      for k, v in detail["extras"].items()})
    for name, m in shown.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for line in detail["problems"]:
        print(f"  FAILED {line}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
