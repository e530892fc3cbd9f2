"""Benchmark for the ekmedoids package: exact solver, CLI, oracle, baselines.

    python3 perfbench/run.py --workload kernel_k3 --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from `src/` beside this
directory, without installing it.  One run:

1. makes the workload's points from `--seed` (`workloads.py`), writes them
   as CSV and computes the reference optimum apart from the package
   (`reference.py`);
2. starts `worker.py` in a fresh interpreter; the time from its start
   until it has imported `ekmedoids` and loaded the CSV is `setup_s`;
3. untraced (`--trace 0`): one untimed warm solve, then whole rounds for
   `--seconds` seconds.  A round is `solve_ekm`, `solve_exhaustive`, the
   baselines over a fixed seed set (in the worker), then one
   `python -m ekmedoids.cli cluster` process (started from here, after the
   worker has answered, so one process computes at a time).  Metrics are
   medians over the rounds;
   traced (`--trace 1`): the worker's per-layer measurements plus one CLI
   call, reported as the per-layer metrics;
4. checks every output against the reference and prints one JSON line:
   `{"correct", "attempted", "failed", "metrics"}`.

Exit status 0 when every check passes, 1 when a check fails, 2 when the
package sources are missing (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one computing thread per process; with the one-at-a-time process
# schedule below this keeps the load within two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, make_points, write_csv  # noqa: E402


class Worker:
    """The `worker.py` child: one JSON command line in, one JSON line out."""

    def __init__(self, env: dict, csv: Path, k: int, baseline_seeds: int):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--csv", str(csv), "--k", str(k),
             "--baseline-seeds", str(baseline_seeds)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()  # the ready line: import and load_csv are done
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early (exit {self.proc.wait()})")
        return json.loads(line)

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.write("exit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cli(env: dict, csv: Path, k: int, out: Path) -> dict:
    """One `cluster` call in a fresh process: wall time, peak RSS, JSON."""
    if out.exists():
        out.unlink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ekmedoids.cli", "cluster", "--input", str(csv),
         "--k", str(k), "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        return {"op": "cli", "error": f"exit code {proc.returncode}"}
    text = out.read_text()
    doc = json.loads(text)
    return {
        "op": "cli",
        "seconds": seconds,
        "rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "json_bytes": len(text.encode()),
        "objective": doc["objective"],
        "medoids": doc["medoid_indices"],
        "labels": doc["assignment"],
        "evaluated": doc["evaluated_configurations"],
    }


class Checker:
    """Checks each operation's output against the independent reference."""

    def __init__(self, dist: np.ndarray, k: int):
        values, configs = reference.brute_force(dist, k)
        self.best, best_cfg, self.unique = reference.optimum(values, configs)
        self.best_cfg = [int(i) for i in best_cfg]
        self.dist = dist
        self.total = math.comb(dist.shape[0], k)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _fail(self, msg: str) -> None:
        self.errors.append(msg)

    def exact(self, op: dict) -> None:
        """An exact solve (library, oracle or CLI) against the brute force."""
        name = op["op"]
        if op["evaluated"] != self.total:
            self._fail(f"{name}: evaluated {op['evaluated']} != C(N,K) = {self.total}")
        if abs(op["objective"] - self.best) > reference.REL_TOL * abs(self.best):
            self._fail(f"{name}: objective {op['objective']!r} != reference {self.best!r}")
        if self.unique and op["medoids"] != self.best_cfg:
            self._fail(f"{name}: medoids {op['medoids']} != reference {self.best_cfg}")
        if not reference.labels_nearest(self.dist, op["medoids"], op["labels"]):
            self._fail(f"{name}: a label does not name a nearest medoid")

    def same(self, a: dict, b: dict) -> None:
        """Bit-for-bit agreement of objective and medoids."""
        if a["objective"] != b["objective"] or a["medoids"] != b["medoids"]:
            self._fail(
                f"{a['op']} {a['objective']!r} {a['medoids']} differs from "
                f"{b['op']} {b['objective']!r} {b['medoids']}"
            )

    def ops(self, ops: list[dict], exact_ref: dict | None) -> dict | None:
        """Count and check a batch of operations; returns the first exact
        solve that succeeded (the reference for bit equality), if any."""
        for op in ops:
            self.attempted += 1
            if "error" in op:
                self.failed += 1
                print(f"failed: {op['op']}: {op['error']}", file=sys.stderr)
                continue
            if op["op"] in ("solve", "oracle", "cli", "warm"):
                self.exact(op)
                if exact_ref is None:
                    exact_ref = op
                else:
                    self.same(op, exact_ref)
            elif exact_ref is not None and op["objective"] < exact_ref["objective"]:
                self._fail(f"{op['op']}: objective {op['objective']!r} below the exact optimum")
        return exact_ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ekmedoids" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    work = HERE / "work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        csv, out = work / "points.csv", work / "cluster.json"
        points = make_points(w, args.seed)
        write_csv(points, csv)
        check = Checker(reference.sq_distances(points), w.k)

        worker = Worker(env, csv, w.k, w.baseline_seeds)
        try:
            if args.trace:
                reply = worker.ask("trace")
                exact = check.ops(reply["ops"], None)
                cli = run_cli(env, csv, w.k, out)
                check.ops([cli], exact)
                metrics = reply["metrics"]
                if "json_bytes" in cli:
                    metrics["cli.json_bytes"] = {"value": cli["json_bytes"], "unit": "bytes"}
            else:
                exact = check.ops(worker.ask("warm")["ops"], None)
                rounds = []
                t0 = time.perf_counter()
                while not rounds or time.perf_counter() - t0 < args.seconds:
                    ops = worker.ask("round")["ops"] + [run_cli(env, csv, w.k, out)]
                    exact = check.ops(ops, exact)
                    rounds.append(ops)
                metrics = end_to_end(rounds, worker.setup_s, w)
        finally:
            worker.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in check.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not check.errors
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


def end_to_end(rounds: list[list[dict]], setup_s: float, w) -> dict:
    def med(op: str, field: str = "seconds"):
        xs = [o[field] for ops in rounds for o in ops if o["op"] == op and field in o]
        return statistics.median(xs) if xs else float("nan")

    # the worker runs pam, fasterpam, clarans for one seed, then the next
    trios = []
    for ops in rounds:
        runs = [o for o in ops if o["op"] in ("pam", "fasterpam", "clarans")]
        for i in range(0, len(runs), 3):
            trio = runs[i : i + 3]
            if len(trio) == 3 and all("seconds" in o for o in trio):
                trios.append(sum(o["seconds"] for o in trio))
    solve_s = med("solve")
    m = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "dmin_per_s": (math.comb(w.n, w.k) * w.n / solve_s, "distance-mins/s"),
        "cluster_cli_s": (med("cli"), "s"),
        "cli_peak_rss_mib": (med("cli", "rss_mib"), "MiB"),
        "oracle_s": (med("oracle"), "s"),
        "baselines_s": (statistics.median(trios) if trios else float("nan"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
