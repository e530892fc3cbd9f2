"""Compare a parent commit with the working tree on the perfbench workloads.

    python scripts/bench_pairs.py --parent HEAD --out BENCH_6.json \
        --claim oracle_s@kernel_k3 --a5 10

The parent's committed files are unpacked with `git archive` into a
temporary directory, which is removed afterwards; the change is the
working tree this script sits in.  For every workload of
`BENCHMARK.json` and each seed 1 .. 10, one untraced `perfbench/run.py`
run of `run_seconds` is made on each side, the parent first on odd
seeds and the change first on even ones, so that drift in machine speed
falls on both sides alike.  Only one run computes at a time.

The output has the layout of the earlier `BENCH_*.json` files: per
workload and end-to-end metric the quartiles of each side, the pairs the
change won, the ratio of the medians, whether the change stays within
the metric's regression bound from `BENCHMARK.json`, and whether the
medians differ by more than the parent's interquartile range.  A claim
`METRIC@WORKLOAD` is met when every run of that workload is correct,
the change fails no more operations than the parent, and the change
wins at least nine tenths of the pairs with a median better by more
than that range.  Then one traced run per workload and side, on the
next seed, records the per-layer metrics.  `--a5 R` also runs the a5
runtime-slope gate R times on each side, alternating, and records the
fitted slopes and, where the gate prints them, each size's ns per
distance-min, with their medians per side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
PROTOCOL = (f"{PAIRS} seeds per workload; per seed one parent run and one change run, "
            "parent first on odd seeds, change first on even seeds")
_A5_LINE = re.compile(r"a5: K=2 slope ([0-9.]+).*K=3 slope ([0-9.]+)")
_A5_COSTS = re.compile(r"a5 ns per distance-min: K=2 ([0-9.: ]+); K=3 ([0-9.: ]+)")


def unpack(rev: str, dest: Path) -> str:
    """Extract the files committed at `rev` into `dest`; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: bool = False) -> dict:
    """One perfbench run on `tree`; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench gave no result (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def parse_a5(stdout: str) -> dict:
    """Both slopes from the a5 gate's output, and each size's median ns per
    distance-min per K when the gate prints them (older gates do not)."""
    found = _A5_LINE.search(stdout)
    if found is None:
        raise RuntimeError(f"no a5 slopes in the pytest output:\n{stdout}")
    run = {"k2": float(found[1]), "k3": float(found[2])}
    costs = _A5_COSTS.search(stdout)
    if costs is not None:
        run["ns_per_dmin"] = {
            k: {int(n): float(ns) for n, ns in (pair.split(":") for pair in text.split())}
            for k, text in (("2", costs[1]), ("3", costs[2]))
        }
    return run


def a5(tree: Path) -> dict:
    """One run of the a5 slope gate on `tree`: both slopes, the per-size
    costs if printed, and the verdict."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "a5"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return {**parse_a5(proc.stdout), "passed": proc.returncode == 0}


def cost_table(runs: list[dict]) -> dict:
    """Per K and size, the median ns per distance-min over the a5 runs that
    printed one; empty when none did."""
    table: dict = {}
    for run in runs:
        for k, sizes in run.get("ns_per_dmin", {}).items():
            for n, ns in sizes.items():
                table.setdefault(k, {}).setdefault(n, []).append(ns)
    return {k: {n: statistics.median(v) for n, v in sorted(sizes.items())}
            for k, sizes in table.items()}


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(spec: dict, pairs: list[tuple[dict, dict]]) -> dict:
    """Parent-vs-change summary of one end-to-end metric over the pairs."""
    name, lower = spec["name"], spec["better"] == "lower"
    par = [p["metrics"][name]["value"] for p, _ in pairs]
    chg = [c["metrics"][name]["value"] for _, c in pairs]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    ps, cs = quartiles(par), quartiles(chg)
    ratio = cs["median"] / ps["median"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": ps,
        "change": cs,
        "change_wins": f"{wins}/{len(pairs)}",
        "change_vs_parent": round(ratio, 4),
        "within_bound": ratio <= 1 + spec["bound"] if lower else ratio >= 1 - spec["bound"],
        "beyond_parent_iqr": abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
    }


def claim_met(workload: dict, metric: str) -> bool:
    """Whether `workload` (one entry of the output's "workloads") shows a
    gain in `metric`: all runs correct, no more failed operations on the
    change than on the parent, at least nine tenths of the pairs won, and
    a median better by more than the parent's interquartile range."""
    m = workload["metrics"][metric]
    won, total = map(int, m["change_wins"].split("/"))
    better = (m["change_vs_parent"] < 1) == (m["better"] == "lower")
    return (workload["correct"]
            and workload["failed"]["change"] <= workload["failed"]["parent"]
            and 10 * won >= 9 * total
            and m["beyond_parent_iqr"] and better)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    # the CPUs the runs may use: the package builds its distance matrices on each
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        affinity = os.cpu_count()
    return {"nproc": os.cpu_count(), "affinity": affinity, "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--claim", default=None, metavar="METRIC@WORKLOAD",
                    help="the end-to-end metric and workload the change claims to improve")
    ap.add_argument("--a5", type=int, default=0, metavar="R",
                    help="also run the a5 slope gate R times per side")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    claim = None
    if args.claim:
        metric, _, workload = args.claim.partition("@")
        claim = {"metric": metric, "workload": workload}
        if workload not in names or metric not in {s["name"] for s in bench["end_to_end"]}:
            ap.error(f"--claim {args.claim}: unknown metric or workload")

    doc = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "protocol": PROTOCOL,
        "parent": None,
        "claim": claim,
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp)
        doc["parent"] = unpack(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        for name in names:
            pairs, runs = [], []
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                got = {}
                for side in order:
                    got[side] = perfbench(trees[side], name, seed, seconds)
                    runs.append({"seed": seed, "side": side, **got[side]})
                    print(f"{name} seed {seed} {side}: correct={got[side]['correct']} "
                          f"failed={got[side]['failed']}", file=sys.stderr, flush=True)
                pairs.append((got["parent"], got["change"]))
            doc["workloads"][name] = {
                "pairs": len(pairs),
                "correct": all(r["correct"] for r in runs),
                "failed": {s: sum(r["failed"] for r in runs if r["side"] == s) for s in trees},
                "attempted": {s: sum(r["attempted"] for r in runs if r["side"] == s) for s in trees},
                "metrics": {spec["name"]: compare(spec, pairs) for spec in bench["end_to_end"]},
                "runs": runs,
            }
        trace_seed = PAIRS + 1
        doc["trace"] = {
            "command": f"python3 perfbench/run.py --workload W --seed {trace_seed} "
                       f"--seconds {seconds} --trace 1",
            "runs": [],
        }
        for name in names:
            for side in trees:
                run = perfbench(trees[side], name, trace_seed, seconds, trace=True)
                doc["trace"]["runs"].append({
                    "side": side, "workload": name, "correct": run["correct"],
                    "failed": run["failed"],
                    "metrics": {k: v["value"] for k, v in run["metrics"].items()},
                })
        if args.a5:
            slopes = {"parent": [], "change": []}
            for i in range(args.a5):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    slopes[side].append(a5(trees[side]))
            doc["a5_slopes"] = {
                "command": "PYTHONPATH=src python -m pytest -q -s tests/test_acceptance.py -k a5",
                "parent_runs": slopes["parent"],
                "change_runs": slopes["change"],
                "ns_per_dmin_median": {side: cost_table(slopes[side]) for side in slopes},
            }
    if claim:
        claim["met"] = claim_met(doc["workloads"][claim["workload"]], claim["metric"])
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
