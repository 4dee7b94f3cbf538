"""Run the benchmark over many seeds and save every run's output.

    python3 bench/sweep.py --out results --seeds 1-10 .
    python3 bench/sweep.py --out results --seeds 1-10 parent=../old change=.

Each tree argument is `label=path` (or a path, labelled by its base name).
For every seed and every workload of BENCHMARK.json each tree is run once,
untraced and for the `run_seconds` of BENCHMARK.json, by this checkout's
run.py with the tree as working directory, so all trees are measured by the
same benchmark code.  With several trees the order alternates from seed to
seed.  The output of a run goes to `<out>/<label>/<workload>-seed<n>.out`,
which compare.py reads.  Runs are sequential; nothing runs in parallel.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", help="label=path or path")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)
    trees = []
    for t in args.trees:
        label, _, path = t.rpartition("=")
        path = os.path.abspath(path)
        trees.append((label or os.path.basename(path), path))
    for label, _ in trees:
        os.makedirs(os.path.join(args.out, label), exist_ok=True)
    for i, seed in enumerate(args.seeds):
        order = trees if i % 2 == 0 else trees[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for label, path in order:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                dest = os.path.join(args.out, label, f"{workload}-seed{seed}.out")
                with open(dest, "w") as fh:
                    rc = subprocess.run(cmd, cwd=path, stdout=fh, timeout=600).returncode
                with open(dest) as fh:
                    last = fh.read().splitlines()[-1:] or [""]
                print(f"{label} {workload} seed {seed}: exit {rc} {last[0][:120]}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
