"""Compare two sets of benchmark results, or summarise one.

    python3 bench/compare.py results/parent results/change
    python3 bench/compare.py results/parent

A result set is a directory of saved run outputs (sweep.py writes them).
Every workload and end-to-end metric gets its own row with each set's
median and quartiles (`statistics.quantiles(values, n=4)`).

With two sets the row ends in a verdict against the metric's bound from
BENCHMARK.json, by these rules:
  better      the change wins at least 9 in 10 of the seed-paired runs
              (ties count for neither) and the medians differ by more than
              the distance between the parent's own quartiles;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run reads better
              than every parent run;
  unchanged   otherwise.
With one set the row shows the spread as a share of the median next to the
bound, which is how steady the benchmark is on that machine.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {seed: metrics}} of the untraced runs in a directory."""
    runs = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".out"):
            continue
        with open(os.path.join(directory, fname)) as fh:
            lines = fh.read().splitlines()
        detail = next((json.loads(l[len("# detail "):]) for l in lines
                       if l.startswith("# detail ")), None)
        if detail is None or detail["trace"]:
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"warning: {fname} reports failed commands", file=sys.stderr)
        runs.setdefault(detail["workload"], {})[detail["seed"]] = {
            k: v["value"] for k, v in result["metrics"].items()}
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(metric, parent, change):
    """Verdict of one metric on one workload; parent and change map seed to
    value."""
    lower = metric["better"] == "lower"
    p_med, p_q1, p_q3 = summary(list(parent.values()))
    c_med = statistics.median(change.values())

    def better(a, b):
        return a < b if lower else a > b

    pairs = [s for s in parent if s in change]
    wins = sum(better(change[s], parent[s]) for s in pairs)
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    all_better = all(better(c, p) for c in change.values() for p in parent.values())
    if pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med) \
            and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    if worse_by > metric["bound"]:
        return "worse"
    if (p_q3 - p_q1) / p_med > metric["bound"] and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load(d) for d in argv]
    for w in spec["workloads"]:
        name = w["name"]
        if any(name not in s for s in sets):
            print(f"{name}: no runs")
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            cols = []
            for s in sets:
                vals = {seed: r[m] for seed, r in s[name].items()}
                if len(vals) < 2:
                    cols.append(None)
                    continue
                med, q1, q3 = summary(list(vals.values()))
                cols.append((vals, med, q1, q3))
            if None in cols:
                print(f"{name:13s} {m:12s} needs at least two runs per set")
                continue
            row = f"{name:13s} {m:12s}"
            for vals, med, q1, q3 in cols:
                row += f" | {med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}"
            if len(cols) == 1:
                _, med, q1, q3 = cols[0]
                spread = (q3 - q1) / med
                row += f" | spread {spread:.3f} of bound {metric['bound']}"
                if m != "setup_s" and spread > metric["bound"] / 3:
                    row += "  (above a third of the bound)"
            else:
                change = (cols[1][1] - cols[0][1]) / cols[0][1]
                row += f" | {change:+.1%} | {verdict(metric, cols[0][0], cols[1][0])}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
