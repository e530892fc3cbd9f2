"""Benchmark harness: synthetic scaling runs, slope fitting, comparisons.

The scaling side times the exact solver on synthetic Gaussian mixtures of
growing N at fixed K and fits the slope of log(time) against log(N); for
the fused solver that slope should sit near K+1.  The compare side runs
several algorithms over a list of datasets and reports objectives and
wall times per row, with the guarantee that the exact solver is never
beaten checked on the spot.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import BaselineParams, clarans, fasterpam, pam
from .dataset import Dataset, load_csv, synthetic
from .ekm import check_solvable, solve_ekm
from .errors import (
    ExactKMedoidsError,
    InstanceTooLarge,
    InsufficientData,
    InvalidArguments,
    RankOverflow,
    check_int,
)
from .metrics import DEFAULT_MEMORY_BUDGET, DEFAULT_METRIC, DistanceCache, distance_cache, get_metric
from .oracle import solve_exhaustive
from .problem import Solution, SolverParams

SCALING_CSV_COLUMNS = ("k", "n", "rep", "seed", "wall_time_seconds", "evaluated_configurations")

# every solver by name; the exact ones take SolverParams, the baselines K
# and BaselineParams
_SOLVERS = {
    "ekm": solve_ekm,
    "oracle": solve_exhaustive,
    "pam": pam,
    "fasterpam": fasterpam,
    "clarans": clarans,
}
_EXACT = (solve_ekm, solve_exhaustive)

COMPARE_ALGORITHMS = tuple(_SOLVERS)

# dimensionality of the synthetic scaling datasets; slopes depend on N only
_SCALING_DIM = 2


@dataclass(frozen=True)
class ScalingRecord:
    """One timed solve.  wall_time_seconds covers the search only; the
    cache build is timed separately in cache_build_seconds."""

    k: int
    n: int
    rep: int
    seed: int
    wall_time_seconds: float
    evaluated_configurations: int
    cache_build_seconds: float = 0.0

    def csv_row(self) -> list:
        return [self.k, self.n, self.rep, self.seed,
                self.wall_time_seconds, self.evaluated_configurations]


@dataclass(frozen=True)
class AlgoCell:
    """Per-algorithm outcome within a comparison row; error is set (and
    the numbers are None) when the algorithm could not run."""

    objective: Optional[float] = None
    wall_time_seconds: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class CompareRow:
    name: str
    n: Optional[int]
    d: Optional[int]
    results: dict = field(default_factory=dict)
    error: Optional[str] = None


def run_scaling(
    k: int,
    sizes: Sequence[int],
    reps: int = 3,
    seed: int = 0,
    metric_name: str = DEFAULT_METRIC,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> list[ScalingRecord]:
    """Time solve_ekm on fresh synthetic datasets for each (n, rep) pair.

    Every run gets its own dataset, derived deterministically from
    (seed, n, rep), so reruns reproduce the instances exactly.  Instances
    that fail the solver's feasibility checks are skipped with a warning
    rather than aborting the sweep.
    """
    k = check_int(k, "K")
    reps = check_int(reps, "reps")
    seed = check_int(seed, "seed")
    if k < 1:
        raise InvalidArguments(f"need K >= 1, got {k}")
    if reps < 0:
        raise InvalidArguments(f"need reps >= 0, got {reps}")
    if seed < 0:
        # SeedSequence takes only non-negative entropy
        raise InvalidArguments(f"need seed >= 0, got {seed}")
    sizes = list(sizes)
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        raise InvalidArguments("sizes must be ascending")
    if any(n < k for n in sizes):
        raise InvalidArguments("every size must be >= K")
    params = SolverParams(k=k, metric=metric_name, memory_budget_bytes=memory_budget_bytes)
    metric = get_metric(metric_name)
    records: list[ScalingRecord] = []
    for n in sizes:
        for rep in range(reps):
            child = int(np.random.SeedSequence((seed, n, rep)).generate_state(1, dtype=np.uint64)[0])
            ds = synthetic(n, _SCALING_DIM, k, child)
            try:
                check_solvable(ds, params)
            except (InstanceTooLarge, RankOverflow) as exc:
                warnings.warn(f"skipping n={n} k={k}: {exc}", stacklevel=2)
                continue
            t0 = time.perf_counter()
            cache = distance_cache(ds, metric, memory_budget_bytes)
            cache_build = time.perf_counter() - t0
            sol = solve_ekm(ds, params, cache=cache)
            records.append(
                ScalingRecord(
                    k=k,
                    n=n,
                    rep=rep,
                    seed=child,
                    wall_time_seconds=sol.wall_time_seconds,
                    evaluated_configurations=sol.evaluated_configurations,
                    cache_build_seconds=cache_build,
                )
            )
    return records


def fit_slope(records: Sequence[ScalingRecord]) -> float:
    """Least-squares slope of log(median wall time) against log(n).

    Reps at the same n are collapsed to their median first, which keeps a
    single noisy run from tilting the fit.
    """
    by_n: dict[int, list[float]] = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r.wall_time_seconds)
    if len(by_n) < 3:
        raise InsufficientData(
            f"need at least 3 distinct sizes to fit a slope, got {len(by_n)}"
        )
    ns = sorted(by_n)
    x = np.log(np.array(ns, dtype=np.float64))
    y = np.log(np.array([float(np.median(by_n[n])) for n in ns]))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def ns_per_distance_min(records: Sequence[ScalingRecord]) -> dict[int, float]:
    """Median nanoseconds per distance-min at each size, in ascending n.

    A solve at size n makes evaluated_configurations * n distance-mins;
    a kernel whose cost per distance-min is flat across sizes gives the
    fitted slope the exponent its work count predicts.
    """
    by_n: dict[int, list[float]] = {}
    for r in records:
        work = r.evaluated_configurations * r.n
        by_n.setdefault(r.n, []).append(1e9 * r.wall_time_seconds / work)
    return {n: float(np.median(by_n[n])) for n in sorted(by_n)}


def scaling_summary(records: Sequence[ScalingRecord]) -> dict:
    """JSON-ready summary: fitted slope per k, plus measurement totals."""
    ks = sorted({r.k for r in records})
    slopes = {str(k): fit_slope([r for r in records if r.k == k]) for k in ks}
    summary: dict = {
        "slopes": slopes,
        "runs": len(records),
        "total_solve_seconds": float(sum(r.wall_time_seconds for r in records)),
        "total_cache_build_seconds": float(sum(r.cache_build_seconds for r in records)),
    }
    if len(ks) == 1:
        summary["k"] = ks[0]
        summary["slope"] = slopes[str(ks[0])]
    return summary


def write_scaling_csv(records: Sequence[ScalingRecord], out) -> None:
    """Emit records with the fixed column order of SCALING_CSV_COLUMNS.
    `out` is a path or a writable text stream."""
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            write_scaling_csv(records, fh)
        return
    writer = csv.writer(out)
    writer.writerow(SCALING_CSV_COLUMNS)
    for r in records:
        writer.writerow(r.csv_row())


def scaling_csv_text(records: Sequence[ScalingRecord]) -> str:
    buf = io.StringIO()
    write_scaling_csv(records, buf)
    return buf.getvalue()


def _as_dataset(item) -> tuple[str, Dataset]:
    if isinstance(item, Dataset):
        return item.source, item
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Dataset):
        return str(item[0]), item[1]
    path = Path(item)
    return str(path), load_csv(path)


def _check_algorithm(name: str) -> None:
    if name not in _SOLVERS:
        raise InvalidArguments(
            f"unknown algorithm {name!r}; expected one of {', '.join(_SOLVERS)}"
        )


def run_algorithm(
    name: str,
    ds: Dataset,
    k: int,
    *,
    metric_name: str = DEFAULT_METRIC,
    baseline_params: Optional[BaselineParams] = None,
    cache: Optional[DistanceCache] = None,
) -> Solution:
    """Run the solver registered under `name` on one instance.

    Without a `cache` the solver builds its own inside its timed region,
    so `wall_time_seconds` then includes the distance build.
    """
    _check_algorithm(name)
    solver = _SOLVERS[name]
    if solver in _EXACT:
        return solver(ds, SolverParams(k=k, metric=metric_name), cache=cache)
    return solver(ds, k, baseline_params, cache=cache, metric_name=metric_name)


def compare(
    datasets: Sequence,
    k: int,
    algorithms: Sequence[str] = ("ekm", "pam", "fasterpam", "clarans"),
    seed: int = 0,
    metric_name: str = DEFAULT_METRIC,
) -> list[CompareRow]:
    """Run each algorithm on each dataset and collect one row per dataset.

    Datasets may be CSV paths, Dataset objects, or (name, Dataset) pairs.
    A dataset that fails to load yields a row carrying the error instead
    of aborting the report; likewise an infeasible exact solve only marks
    its own cell.  Whenever the exact solver produced a number, no other
    algorithm in the row is allowed to beat it.
    """
    for name in algorithms:
        _check_algorithm(name)
    bparams = BaselineParams(seed=seed)
    rows: list[CompareRow] = []
    for item in datasets:
        try:
            name, ds = _as_dataset(item)
        except (ExactKMedoidsError, OSError) as exc:
            rows.append(CompareRow(name=str(item), n=None, d=None,
                                   results={}, error=str(exc)))
            continue
        cache = distance_cache(ds, get_metric(metric_name))
        results: dict[str, AlgoCell] = {}
        for alg in algorithms:
            try:
                sol = run_algorithm(alg, ds, k, metric_name=metric_name,
                                    baseline_params=bparams, cache=cache)
            except (InstanceTooLarge, RankOverflow) as exc:
                warnings.warn(f"{alg} skipped on {name}: {exc}", stacklevel=2)
                results[alg] = AlgoCell(error=str(exc))
                continue
            results[alg] = AlgoCell(objective=sol.objective,
                                    wall_time_seconds=sol.wall_time_seconds)
        exact = results.get("ekm") or results.get("oracle")
        if exact is not None and exact.objective is not None:
            for alg, cell in results.items():
                if cell.objective is not None and cell.objective < exact.objective:
                    raise ExactKMedoidsError(
                        f"{alg} beat the exact solver on {name}: "
                        f"{cell.objective} < {exact.objective}"
                    )
        rows.append(CompareRow(name=name, n=ds.n, d=ds.d, results=results))
    return rows


def compare_rows_to_dicts(rows: Sequence[CompareRow]) -> list[dict]:
    """Flatten rows for JSON/CSV emission; cell errors become
    '<alg>_error' markers."""
    out = []
    for row in rows:
        doc: dict = {"dataset": row.name, "n": row.n, "d": row.d}
        if row.error is not None:
            doc["error"] = row.error
        for alg, cell in row.results.items():
            doc[f"{alg}_objective"] = cell.objective
            doc[f"{alg}_wall_time_seconds"] = cell.wall_time_seconds
            if cell.error is not None:
                doc[f"{alg}_error"] = cell.error
        out.append(doc)
    return out
