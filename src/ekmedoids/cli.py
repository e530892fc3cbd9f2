"""Command-line front end: cluster, compare, and bench subcommands.

Exit codes: 0 success, 2 invalid flags, 3 data errors, 4 infeasible
instance (the size estimate is printed to stderr).  Diagnostics go to
stderr; results go to --out or stdout, so output is safe to pipe.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .baselines import BaselineParams
from .bench import (
    COMPARE_ALGORITHMS,
    compare,
    compare_rows_to_dicts,
    run_algorithm,
    run_scaling,
    scaling_csv_text,
    scaling_summary,
)
from .dataset import load_csv, standardize
from .errors import ExactKMedoidsError, InstanceTooLarge, InvalidArguments, RankOverflow
from .metrics import list_metrics

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="number of medoids")
    p.add_argument("--metric", default="sqeuclidean", choices=list_metrics(),
                   help="distance function (default: sqeuclidean)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for randomized algorithms")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default: stdout)")


def _add_csv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--has-header", action="store_true",
                   help="skip the first line of each input CSV")
    p.add_argument("--delimiter", default=",", help="CSV field delimiter")
    p.add_argument("--standardize", action="store_true",
                   help="z-score each column before clustering")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekmedoids",
        description="Exact K-medoids clustering with baselines and benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster one dataset")
    p_cluster.add_argument("--input", required=True, help="input CSV path")
    _add_common(p_cluster)
    _add_csv_flags(p_cluster)
    p_cluster.add_argument("--algorithm", default="ekm", choices=COMPARE_ALGORITHMS)
    p_cluster.add_argument("--max-iter", type=int, default=100,
                           help="iteration cap for the local-search baselines")
    p_cluster.add_argument("--clarans-numlocal", type=int, default=2)
    p_cluster.add_argument("--clarans-maxneighbor", type=int, default=None)
    p_cluster.set_defaults(func=cmd_cluster)

    p_compare = sub.add_parser("compare", help="run several algorithms over datasets")
    p_compare.add_argument("--input", action="append", required=True,
                           help="input CSV path (repeatable)")
    _add_common(p_compare)
    _add_csv_flags(p_compare)
    p_compare.add_argument("--algorithms", default="ekm,pam,fasterpam,clarans",
                           help="comma-separated algorithm names")
    p_compare.add_argument("--format", default="json", choices=("json", "csv"))
    p_compare.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="benchmark harness")
    p_bench.add_argument("mode", choices=("scaling",))
    _add_common(p_bench)
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated ascending dataset sizes")
    p_bench.add_argument("--reps", type=int, default=3, help="repetitions per size")
    p_bench.add_argument("--summary-out", default=None, metavar="PATH",
                         help="also write a JSON summary with fitted slopes")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load(args, path):
    ds = load_csv(path, has_header=args.has_header, delimiter=args.delimiter)
    if args.standardize:
        ds = standardize(ds)
    return ds


def cmd_cluster(args) -> int:
    ds = _load(args, args.input)
    # no cache is passed, so wall_time_seconds includes the distance build
    sol = run_algorithm(args.algorithm, ds, args.k, metric_name=args.metric,
                        baseline_params=args.baseline_params)
    doc = {
        "algorithm": args.algorithm,
        "n": ds.n,
        "d": ds.d,
        "k": args.k,
        "metric": args.metric,
        "objective": sol.objective,
        "medoid_indices": [int(i) for i in sol.medoid_indices],
        "assignment": [int(a) for a in sol.assignment],
        "wall_time_seconds": sol.wall_time_seconds,
        "evaluated_configurations": sol.evaluated_configurations,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    algorithms = args.algorithm_list
    datasets = [(path, _load(args, path)) for path in args.input]
    rows = compare(datasets, args.k, algorithms=algorithms, seed=args.seed,
                   metric_name=args.metric)
    dicts = compare_rows_to_dicts(rows)
    if args.format == "json":
        _emit(json.dumps(dicts, indent=2) + "\n", args.out)
    else:
        fields = ["dataset", "n", "d", "error"]
        for alg in algorithms:
            fields += [f"{alg}_objective", f"{alg}_wall_time_seconds", f"{alg}_error"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, restval="", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(dicts)
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    records = run_scaling(args.k, args.size_list, reps=args.reps, seed=args.seed,
                          metric_name=args.metric)
    _emit(scaling_csv_text(records), args.out)
    if args.summary_out is not None:
        summary = scaling_summary(records)
        Path(args.summary_out).write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Flag-level checks that argparse types cannot express; failures
    exit 2 via parser.error, mirroring built-in argparse errors."""
    if args.k < 1:
        parser.error(f"--k must be >= 1, got {args.k}")
    if len(getattr(args, "delimiter", ",")) != 1:
        parser.error("--delimiter must be a single character")
    if args.subcommand in ("cluster", "compare"):
        # compare sets only the seed; cluster also the iteration knobs
        knobs = ("max_iter", "clarans_numlocal", "clarans_maxneighbor")
        try:
            args.baseline_params = BaselineParams(
                seed=args.seed, **{f: getattr(args, f) for f in knobs if f in args})
        except InvalidArguments as exc:
            parser.error(str(exc))
    if args.subcommand == "compare":
        algs = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        if not algs:
            parser.error("--algorithms must name at least one algorithm")
        bad = sorted(set(algs) - set(COMPARE_ALGORITHMS))
        if bad:
            parser.error(f"unknown algorithm(s): {', '.join(bad)}")
        args.algorithm_list = algs
    if args.subcommand == "bench":
        if args.reps < 0:
            parser.error("--reps must be >= 0")
        if args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError:
            parser.error("--sizes must be comma-separated integers")
        if not sizes:
            parser.error("--sizes must name at least one size")
        if any(b < a for a, b in zip(sizes, sizes[1:])):
            parser.error("--sizes must be ascending")
        if sizes[0] < args.k:
            parser.error("every size in --sizes must be >= --k")
        args.size_list = sizes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except (InstanceTooLarge, RankOverflow) as exc:
        print(f"error: infeasible instance: {exc}", file=sys.stderr)
        estimate = getattr(exc, "estimate", None)
        if estimate is not None:
            print(f"estimate: {estimate}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ExactKMedoidsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
