"""Command-line front end.

Three subcommands: `verify` runs identity checks (numeric or exact),
`simulate` runs the coupled second-class Monte Carlo against the closed
forms, `dist` tabulates any closed-form law on a grid.  Output is CSV
(RFC-4180-style quoting, one `#`-prefixed metadata line on top) or JSON
(`{"meta": {...}, "rows": [...]}`).  With a fixed --seed every byte of the
output except the timestamp inside the metadata is reproducible.
"""

import argparse
import functools
import itertools
import json
import math
import os
import shutil
import sys
from contextlib import nullcontext
from datetime import datetime, timezone

from .blocking import (
    AsepParams,
    marginal,
    prob_left_particles_table,
    prob_N_table,
    prob_right_holes_table,
    prob_window_particles,
)
from .coupling import (
    pi_label,
    pi_label_table,
    prob_positions_of,
    prob_positions_table,
    prob_second_class_at,
    run_ensemble,
)
from .partitions import ENUMERATION_CAP
from .qseries import SERIES_EPS, SERIES_MAX_TERMS, q_pascal_check
from .verify import (
    verify_durfee,
    verify_durfee_exact,
    verify_euler,
    verify_euler_exact,
    verify_jacobi,
    verify_qbinomial,
    verify_qbinomial_exact,
)


def _cell(x):
    """One CSV cell: a float to 17 significant digits, None empty, a bool as
    true/false, any other value as text, quoted when it holds a comma, a
    quote or a newline."""
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    s = str(x)
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _csv_line(row):
    return ",".join(map(_cell, row)) + "\n"


def _key_prob_line(row):
    """CSV line of a dist row (key, prob): the key is "sum" or integers
    joined by commas, quoted if it holds one; prob is a float."""
    key, prob = row
    return f'"{key}",{prob:.17g}\n' if "," in key else f"{key},{prob:.17g}\n"


def _emit(args, meta, header, rows, line=_csv_line):
    """Serialize one table.  CSV: meta as a single # line, the header, then
    one `line(row)` per row, written as it arrives, so a streamed table is
    never held; JSON: {"meta", "rows"} with row dicts keyed by the header.
    A failed write is handled here alone: --out raises ValueError; stdout goes
    to devnull, then SystemExit(141) for a closed pipe, else ValueError."""
    if args.format == "json":
        payload = {"meta": meta, "rows": [dict(zip(header, r)) for r in rows]}
        lines = [json.dumps(payload, indent=1, sort_keys=True) + "\n"]
    else:
        lines = itertools.chain(
            [f"# {json.dumps(meta, sort_keys=True)}\n{','.join(header)}\n"],
            map(line, rows),
        )
    try:
        out = open(args.out, "w", newline="\n") if args.out else nullcontext(sys.stdout)
    except OSError as e:
        raise ValueError(f"cannot open --out: {e}") from None
    try:
        with out as fh:
            fh.writelines(lines)
            fh.flush()  # the last buffered lines too fail here, not at exit
    except OSError as e:
        if args.out:
            raise ValueError(f"cannot write --out {args.out}: {e}") from None
        # the rest goes to devnull, so the exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        if isinstance(e, BrokenPipeError):  # the reader left early, as `| head` does
            raise SystemExit(141) from None  # what a shell reports after SIGPIPE
        raise ValueError(f"cannot write stdout: {e}") from None


def _meta(args, extra=None):
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "truncation": {"eps": SERIES_EPS, "max_terms": SERIES_MAX_TERMS},
    }
    for key in ("q", "c", "d", "seed", "tol", "window"):
        if getattr(args, key, None) is not None:
            meta[key] = getattr(args, key)
    if extra:
        meta.update(extra)
    return meta


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    if lo >= hi:
        raise argparse.ArgumentTypeError("window needs lo < hi")
    return lo, hi


def _parsed(convert, text, expected):
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None


def _parse_span(text):
    """Integer or inclusive lo:hi range."""
    def pair(t):
        lo, sep, hi = t.partition(":")
        return int(lo), int(hi if sep else lo)

    lo, hi = _parsed(pair, text, "an integer or lo:hi")
    if lo > hi:
        raise argparse.ArgumentTypeError("range needs lo <= hi")
    return lo, hi


def _q_arg(text):
    v = _parsed(float, text, "a number")
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError("q must lie in (0,1)")
    return v


def _finite_arg(text):
    v = _parsed(float, text, "a finite number")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _seed_arg(text):
    v = _parsed(int, text, "an integer")
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in uint64")
    return v


def _require(parser, cond, msg):
    if not cond:
        parser.error(msg)  # exits 2


# ---------------------------------------------------------------- verify


def cmd_verify(parser, args):
    _require(parser, 0 <= args.N <= ENUMERATION_CAP,
             f"--N must lie in 0..{ENUMERATION_CAP}")
    _require(parser, args.K >= 0, "--K must be >= 0")
    _require(parser, args.m >= 0, "--m must be >= 0")
    _require(parser, args.tol is None or args.tol >= 0, "--tol must be >= 0")
    _require(parser, not (args.exact and args.tol is not None),
             "--tol applies to numeric checks only; the exact suites have none")
    rows = []
    header = ["identity", "params", "lhs", "rhs", "rel_dev", "trunc_bound",
              "tol", "passed"]

    def add(name, params, passed, values=(None,) * 5):
        # values: lhs .. tol of a numeric check; an exact suite has none
        pstr = ";".join(f"{k}={_cell(v)}" for k, v in params.items())
        rows.append([name, pstr, *values, passed])
        return passed

    ok = True
    tol = args.tol
    kw = {} if tol is None else {"tol": tol}
    if args.exact:
        if args.identity in ("durfee", "all"):
            offsets = range(-3, 4)
            for n, passed in zip(offsets, verify_durfee_exact(args.N, offsets)):
                ok &= add("durfee_exact", {"N": args.N, "n_offset": n}, passed)
        if args.identity in ("euler", "all"):
            ok &= add(
                "euler_exact",
                {"N": args.N, "K": args.K},
                verify_euler_exact(args.N, args.K),
            )
        if args.identity in ("qbinomial", "all"):
            for m in range(0, args.m + 1):
                ok &= add(
                    "qbinomial_exact", {"m": m}, verify_qbinomial_exact(m)
                )
            pascal = all(q_pascal_check(m) for m in range(1, args.m + 1))
            ok &= add("q_pascal", {"m_max": args.m}, pascal)
        if args.identity == "jacobi":
            parser.error("jacobi has no exact mode; drop --exact")
    else:
        _require(parser, args.q is not None, "--q is required for numeric checks")
        q, z = args.q, args.z
        reports = []
        if args.identity in ("durfee", "all"):
            reports.append(verify_durfee(q, args.n_offset, **kw))
        if args.identity in ("euler", "all"):
            reports.append(verify_euler(q, z, **kw))
        if args.identity in ("qbinomial", "all"):
            reports.append(verify_qbinomial(q, z, args.m, **kw))
        if args.identity in ("jacobi", "all"):
            reports.append(verify_jacobi(q, z, **kw))
        for r in reports:
            ok &= add(r.name, r.params, r.passed,
                      (r.lhs, r.rhs, r.rel_dev, r.trunc_bound, r.tol))

    meta = _meta(args, {"identity": args.identity, "exact": bool(args.exact)})
    _emit(args, meta, header, rows)
    return 0 if ok else 1


# -------------------------------------------------------------- simulate


def cmd_simulate(parser, args):
    _require(parser, args.replicas >= 1, "--replicas must be >= 1")
    _require(parser, args.d >= 0, "--d must be >= 0")
    _require(parser, args.T >= 0, "--T must be >= 0")
    _require(parser, args.probes >= 0, "--probes must be >= 0")
    _require(parser, args.margin >= 0, "--margin must be >= 0")
    mc = args.max_contamination
    _require(parser, mc is None or mc >= 0, "--max-contamination must be >= 0")
    p = AsepParams(q=args.q, c=args.c)
    rep = run_ensemble(
        p,
        args.d,
        args.window,
        args.T,
        replicas=args.replicas,
        seed=args.seed,
        probes=args.probes,
        eps=args.window_eps,
        margin=args.margin,
    )
    if mc is not None and rep.contamination_fraction > mc:
        print(f"boundary contamination: {rep.contaminated_probes}/"
              f"{rep.total_probes} probes contaminated (allowed fraction {mc})",
              file=sys.stderr)
        return 1

    header = ["table", "key", "count", "empirical", "sem", "analytic", "z"]
    rows = []

    def add(table, key, count, mean, sem, analytic):
        # one replica gives no error estimate: sem and z are left empty
        mean, sem = float(mean), None if sem is None else float(sem)
        z = (mean - analytic) / sem if sem else None
        rows.append([table, key, count, mean, sem, analytic, z])

    # eta, xi without its d labeled particles, is blocking with c raised by d
    for table, (mean, sem), law in (
        ("xi_site", rep.xi_site_stats(), p),
        ("eta_site", rep.eta_site_stats(), AsepParams(q=p.q, c=p.c + rep.d)),
    ):
        for j, site in enumerate(rep.sites):
            add(table, str(site), None, mean[j], None if sem is None else sem[j],
                marginal(int(site), 1, law))
    for table, key_rows, law in (
        ("x", rep.x_rows, lambda keys: prob_positions_of(keys, p, rep.d)),
        ("label", rep.label_rows, lambda keys: (pi_label(key, p.q) for key in keys)),
    ):
        stats = rep.key_stats(key_rows)
        for (key, (count, mean, sem)), analytic in zip(stats.items(), law(list(stats))):
            add(table, ",".join(map(str, key)), count, mean, sem, analytic)

    meta = _meta(args, rep.meta())
    meta["contamination_fraction"] = rep.contamination_fraction
    _emit(args, meta, header, rows)
    return 1 if rep.N_violations else 0


# ------------------------------------------------------------------ dist


def _with_sum(rows, width):
    """The rows, then a "sum" row of their probabilities added left to right
    from 0 as they pass: the builtin sum is compensated from Python 3.12 on."""
    total = 0
    for row in rows:
        total += row[1]
        yield row
    yield ("sum", total) + (None,) * (width - 2)


def cmd_dist(parser, args):
    p = AsepParams(q=args.q, c=args.c)
    header, line = ["key", "prob"], _key_prob_line
    if args.law in ("left-particles", "right-holes"):
        _require(parser, args.m is not None and args.m[0] == args.m[1],
                 "--m must be a single site")
    if args.law in ("second-class", "positions", "pi"):
        _require(parser, args.d >= 1, "--d must be >= 1")
        key = ",".join(["%d"] * args.d)  # formats a d-tuple as its key

    # Laws built on blocking's series can fail at any row (no convergence,
    # float overflow), so their few rows are computed before anything is
    # written; the closed-form grids cannot fail once checked, and stream.
    if args.law == "N":
        span = args.n or (-10, 10)
        header, line = ["key", "prob", "ratio", "ratio_expected"], _csv_line
        probs = prob_N_table(range(span[0] - 1, span[1] + 1), p)
        try:
            # ratio is empty where P(N = n-1) underflows to 0
            rows = [(str(n), pr, pr / prev if prev else None, p.q ** (n - p.c))
                    for n, prev, pr in zip(range(span[0], span[1] + 1), probs,
                                           probs[1:])]
        except OverflowError:  # q^(n-c) falls with n: the first row overflows
            raise OverflowError(f"ratio_expected q^(n-c) overflows at "
                                f"q={p.q}, n={span[0]}, c={p.c}") from None
    elif args.law == "left-particles":
        span = args.k or (0, 20)
        _require(parser, span[0] >= 0, "k must be >= 0")
        ks = range(span[0], span[1] + 1)
        rows = list(zip(map(str, ks), prob_left_particles_table(args.m[0], ks, p)))
    elif args.law == "window-particles":
        _require(parser, args.m1 is not None and args.m2 is not None,
                 "--m1 and --m2 are required")
        mhat = args.m2 - args.m1 - 1
        _require(parser, mhat >= 1, "need m2 > m1 + 1")
        span = args.k or (0, mhat)
        _require(parser, 0 <= span[0] and span[1] <= mhat,
                 f"k must lie in 0..{mhat}")
        rows = [(str(k), prob_window_particles(args.m1, args.m2, k, p))
                for k in range(span[0], span[1] + 1)]
    elif args.law == "right-holes":
        span = args.n or (0, 20)
        _require(parser, span[0] >= 0, "n must be >= 0")
        ns = range(span[0], span[1] + 1)
        rows = list(zip(map(str, ns), prob_right_holes_table(args.m[0], ns, p)))
    elif args.law == "second-class":
        span = args.m or (-10, 10)
        rows = ((str(m), prob_second_class_at(m, p, args.d))
                for m in range(span[0], span[1] + 1))
    elif args.law == "positions":
        span = args.m or (-8, 8)
        sites = range(span[0], span[1] + 1)
        _require(parser, len(sites) >= args.d, "--m must span at least d sites")
        rows = ((key % m, prob)
                for m, prob in prob_positions_table(sites, p, args.d))
    elif args.law == "pi":
        _require(parser, args.cap >= args.d - 1, "--cap must be >= d - 1")
        rows = ((key % x, prob)
                for x, prob in pi_label_table(args.d, p.q, args.cap))

    meta = _meta(args, {"law": args.law})
    _emit(args, meta, header, _with_sum(rows, len(header)), line)
    return 0


# ------------------------------------------------------------------ main


def _verify_args(sp):
    sp.add_argument(
        "--identity",
        required=True,
        choices=("durfee", "euler", "qbinomial", "jacobi", "all"),
    )
    sp.add_argument("--exact", action="store_true",
                    help="integer/combinatorial suites instead of floats")
    sp.add_argument("--q", type=_q_arg, default=None)
    sp.add_argument("--z", type=_finite_arg, default=1.0)
    sp.add_argument("--n-offset", dest="n_offset", type=int, default=0)
    sp.add_argument("--m", type=int, default=12, help="max m for qbinomial")
    sp.add_argument(
        "--N", type=int, default=25,
        help="exact-suite size cap, at most 60; durfee --exact takes about "
             "0.3 s at 25, 2.6 s at 35 and 6.4 s at 40, and minutes at 60")
    sp.add_argument("--K", type=int, default=6, help="exact euler z-degree")
    sp.add_argument("--tol", type=_finite_arg, default=None)


def _simulate_args(sp):
    sp.add_argument("--q", type=_q_arg, required=True)
    sp.add_argument("--c", type=_finite_arg, default=0.0)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--window", type=_parse_window, required=True,
                    metavar="LO:HI", help="use --window=-25:25 for negatives")
    sp.add_argument("--T", type=_finite_arg, default=50.0)
    sp.add_argument("--replicas", type=int, default=200)
    sp.add_argument("--seed", type=_seed_arg, default=0)
    sp.add_argument("--probes", type=int, default=10)
    sp.add_argument("--window-eps", dest="window_eps", type=_finite_arg,
                    default=1e-6,
                    help="max admissible boundary-marginal defect")
    sp.add_argument("--margin", type=int, default=5)
    sp.add_argument("--max-contamination", dest="max_contamination",
                    type=_finite_arg, default=None)


def _dist_args(sp):
    sp.add_argument(
        "--law",
        required=True,
        choices=(
            "N",
            "left-particles",
            "window-particles",
            "right-holes",
            "second-class",
            "positions",
            "pi",
        ),
    )
    sp.add_argument("--q", type=_q_arg, required=True)
    sp.add_argument("--c", type=_finite_arg, default=0.0)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--m", type=_parse_span, default=None,
                    metavar="M|LO:HI")
    sp.add_argument("--m1", type=int, default=None)
    sp.add_argument("--m2", type=int, default=None)
    sp.add_argument("--n", type=_parse_span, default=None, metavar="N|LO:HI")
    sp.add_argument("--k", type=_parse_span, default=None, metavar="K|LO:HI")
    sp.add_argument("--cap", type=int, default=20,
                    help="label support cap for --law pi")


# name: (help, arguments, handler) of each subcommand, in the order -h lists them
_SUBCOMMANDS = {
    "verify": ("identity checks", _verify_args, cmd_verify),
    "simulate": ("coupled Monte Carlo vs closed forms", _simulate_args,
                 cmd_simulate),
    "dist": ("tabulate a closed-form law", _dist_args, cmd_dist),
}


def _parser(command=None):
    """The top-level parser with the subparser of `command` alone, or with
    all of them when command is None; help, usage and errors read the same
    either way.  Every formatter gets the terminal width read once here,
    the width HelpFormatter would otherwise read for itself."""
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="aseplab",
        description="Blocking-measure laws, identity checks, and coupled "
        "second-class simulations for ASEP on Z.",
        formatter_class=formatter,
    )
    # an error after the subcommand's own arguments, as an unknown option
    # is, prints the top-level usage, which names every subcommand
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_, add_arguments, handler) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_, formatter_class=formatter)
        add_arguments(sp)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        # the handler reports usage errors through its own subparser
        sp.set_defaults(handler=handler, parser=sp)
    return parser


def build_parser():
    """The full parser, every subcommand in it."""
    return _parser()


def main(argv=None):
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        # only the subparser argv names is built; -h, a typo or nothing
        # gets them all, for the full help or error
        named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = _parser(named).parse_args(argv)
        return args.handler(args.parser, args)
    except SystemExit as e:  # usage errors, and a closed stdout pipe
        return int(e.code or 0)
    except (ValueError, OverflowError) as e:  # bad input, or out of float range
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
