"""Library side of one benchmark run, in a fresh interpreter.

Started by `run.py` with the package's `src` on PYTHONPATH.  It imports
`ekmedoids`, loads the workload CSV, prints one JSON line
(`{"ready": ...}`) and then answers one JSON line per command read from
stdin:

- `warm`:  one untimed `solve_ekm`, so later solves are warm.
- `round`: `solve_ekm`, `solve_exhaustive` and the three baselines over
  the fixed seed set, each timed, with the outputs `run.py` checks.
- `trace`: the per-layer measurements (first vs. warm solve, cProfile
  split of a solve and of the oracle, single-module timings).
- anything else (`exit`): end.

Every operation that raises is reported with its error, not retried.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import sys
import time

_T0 = time.perf_counter()
import ekmedoids as ek  # noqa: E402  (timed: a fresh import is cli.import_s)

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _record(op: str, fn) -> dict:
    """Run one operation, timing it; an exception becomes a failed record."""
    t0 = time.perf_counter()
    try:
        sol = fn()
    except Exception as exc:  # reported to run.py, which counts it as failed
        return {"op": op, "error": f"{type(exc).__name__}: {exc}"}
    return {
        "op": op,
        "seconds": time.perf_counter() - t0,
        "objective": sol.objective,
        "medoids": [int(i) for i in sol.medoid_indices],
        "labels": [int(a) for a in sol.assignment],
        "evaluated": int(sol.evaluated_configurations),
    }


def colex_prefix(n: int, k: int, m: int):
    """The first min(m, C(n, k)) k-subsets of range(n) in colex order."""
    if k == 1:
        return np.arange(min(n, m), dtype=np.int64)[:, None]
    blocks, total = [], 0
    for last in range(k - 1, n):
        sub = colex_prefix(last, k - 1, m - total)
        blocks.append(np.column_stack([sub, np.full(len(sub), last, dtype=np.int64)]))
        total += len(sub)
        if total >= m:
            break
    return np.concatenate(blocks)[:m]


class Library:
    """The package's public API, bound to one dataset and K."""

    def __init__(self, csv_path: str, ds, k: int, baseline_seeds: int):
        self.csv_path = csv_path
        self.ds = ds
        self.k = k
        self.seeds = range(baseline_seeds)
        self.baselines = (("pam", ek.pam), ("fasterpam", ek.fasterpam), ("clarans", ek.clarans))

    def solve(self, **kw):
        return ek.solve_ekm(self.ds, ek.SolverParams(k=self.k), **kw)

    def oracle(self, **kw):
        return ek.solve_exhaustive(self.ds, ek.SolverParams(k=self.k), **kw)

    def baseline_ops(self) -> list[dict]:
        ops = []
        for seed in self.seeds:
            for name, fn in self.baselines:
                params = ek.BaselineParams(seed=seed)
                ops.append(_record(name, lambda: fn(self.ds, self.k, params)))
        return ops

    def round(self) -> dict:
        ops = [_record("solve", self.solve), _record("oracle", self.oracle)]
        return {"ops": ops + self.baseline_ops()}

    def trace(self) -> dict:
        ds = self.ds
        m = {}
        ops = []

        # first solve in this process, then a warm one, as the CLI and a
        # library user see them
        f0 = _minflt()
        ops.append(_record("solve", self.solve))
        m["ekm.first_solve_minflt"] = (_minflt() - f0, "count")
        m["ekm.first_solve_s"] = (ops[-1].get("seconds", 0.0), "s")
        f0 = _minflt()
        ops.append(_record("solve", self.solve))
        m["ekm.warm_solve_minflt"] = (_minflt() - f0, "count")

        load_s = _median_time(lambda: ek.load_csv(self.csv_path), 3)
        m["dataset.load_csv_s"] = (load_s, "s")
        m["dataset.cells_per_s"] = (ds.n * ds.d / load_s, "cells/s")

        metric = ek.get_metric("sqeuclidean")
        m["metrics.distance_cache_s"] = (_median_time(lambda: ek.distance_cache(ds, metric), 3), "s")
        m["metrics.distance_bytes"] = (8 * ds.n * ds.n, "bytes")
        cache = ek.distance_cache(ds, metric)

        configs = colex_prefix(ds.n, self.k, 1 << 16)
        batch_s = _median_time(lambda: ek.evaluate_batch(ds, configs, cache), 3)
        m["metrics.evaluate_batch_cfg_per_s"] = (len(configs) / batch_s, "cfg/s")

        medoids = ops[-1].get("medoids", list(range(self.k)))
        m["metrics.assign_s"] = (_median_time(lambda: ek.assign(ds, medoids, cache), 5), "s")

        # untraced reference for the traced solve below: same prebuilt cache
        plain = _record("solve", lambda: self.solve(cache=cache))
        ops.append(plain)

        timed = TimedCache(cache.dataset, cache.metric, cache.mode, cache.matrix)
        prof = cProfile.Profile()
        levels = []

        def traced_solve():
            sol = prof.runcall(self.solve, cache=timed, record_level_sizes=True)
            levels.extend(sol.level_sizes)
            return sol

        ops.append(_record("solve", traced_solve))
        split = _Split(prof)
        solve_key = split.key("ekm.py", "solve_ekm")
        m["ekm.gather_s"] = (timed.seconds, "s")
        m["ekm.gather_calls"] = (timed.calls, "count")
        m["ekm.gather_bytes"] = (timed.bytes, "bytes")
        m["ekm.reduce_s"] = (
            split.edge("<method 'min' of 'numpy.ndarray' objects>", solve_key)
            + split.edge(("fromnumeric.py", "argmin"), solve_key),
            "s",
        )
        m["ekm.row_sum_s"] = (split.edge(("metrics.py", "total_deviation"), solve_key), "s")
        m["ekm.loop_self_s"] = (split.self_time(solve_key), "s")
        m["ekm.verify_assign_s"] = (
            split.edge(("metrics.py", "evaluate_objective"), solve_key)
            + split.edge(("metrics.py", "assign"), solve_key),
            "s",
        )
        if levels:
            m["ekm.level_store_rows"] = (int(sum(levels[-1][1:])), "count")
        if "seconds" in plain and "seconds" in ops[-1]:
            m["trace.overhead_s"] = (ops[-1]["seconds"] - plain["seconds"], "s")

        timed = TimedCache(cache.dataset, cache.metric, cache.mode, cache.matrix)
        prof = cProfile.Profile()
        ops.append(_record("oracle", lambda: prof.runcall(self.oracle, cache=timed)))
        split = _Split(prof)
        oracle_key = split.key("oracle.py", "solve_exhaustive")
        evaluation = sum(
            split.edge(("metrics.py", fn), oracle_key)
            for fn in ("evaluate_batch", "evaluate_objective", "assign")
        )
        m["oracle.gather_s"] = (timed.seconds, "s")
        m["oracle.self_s"] = (split.cum_time(oracle_key) - evaluation, "s")

        runs = self.baseline_ops()
        ops.extend(runs)
        exact = ops[0].get("objective")
        for name, _ in self.baselines:
            done = [r for r in runs if r["op"] == name and "seconds" in r]
            if done:
                m[f"baselines.{name}_s"] = (float(np.mean([r["seconds"] for r in done])), "s")
                m[f"baselines.{name}_moves"] = (float(np.mean([r["evaluated"] for r in done])), "count")
                if exact:
                    gaps = [(r["objective"] - exact) / exact for r in done]
                    m[f"baselines.{name}_gap"] = (float(np.mean(gaps)), "ratio")
        return {"ops": ops, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


class TimedCache(ek.DistanceCache):
    """A distance cache that times, counts and sizes its `columns` calls."""

    seconds = 0.0
    calls = 0
    bytes = 0

    def columns(self, indices):
        t = time.perf_counter()
        out = super().columns(indices)
        self.seconds += time.perf_counter() - t
        self.calls += 1
        self.bytes += out.nbytes
        return out


class _Split:
    """Lookups into a cProfile table by file suffix and function name."""

    def __init__(self, prof: cProfile.Profile):
        # {(file, line, name): (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})}
        self.stats = pstats.Stats(prof).stats

    def key(self, where, name=None):
        for key in self.stats:
            if name is None:
                if key[2] == where:
                    return key
            elif key[0].endswith(where) and key[2] == name:
                return key
        return None

    def self_time(self, key) -> float:
        return self.stats[key][2] if key in self.stats else 0.0

    def cum_time(self, key) -> float:
        return self.stats[key][3] if key in self.stats else 0.0

    def edge(self, callee, caller) -> float:
        """Cumulative time of `callee` when called directly from `caller`."""
        key = self.key(*callee) if isinstance(callee, tuple) else self.key(callee)
        if key is None or caller is None:
            return 0.0
        return self.stats[key][4].get(caller, (0, 0, 0.0, 0.0))[3]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--csv", required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--baseline-seeds", type=int, required=True)
    args = ap.parse_args()

    lib = Library(args.csv, ek.load_csv(args.csv), args.k, args.baseline_seeds)
    _send({"ready": True})
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "warm":
            _send({"ops": [_record("warm", lib.solve)]})
        elif cmd == "round":
            _send(lib.round())
        elif cmd == "trace":
            reply = lib.trace()
            reply["metrics"]["cli.import_s"] = {"value": IMPORT_S, "unit": "s"}
            _send(reply)
        else:
            break
    return 0


def _send(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
