"""Distance metrics, the pairwise distance cache, and objective evaluation.

The clustering objective (total deviation) of a medoid set is the sum over
all points of the distance to their nearest medoid: a min over K rows of
the medoid-major distance matrix (see `DistanceCache`), then one row sum.
:func:`evaluate_batch` takes that min as a chained elementwise `minimum`
over cache-sized chunks of configurations, so its scratch is a few row
blocks whatever the batch size.  Every code path that needs an objective
funnels through :func:`evaluate_batch` or helpers that reproduce its
arithmetic exactly, so cached and uncached evaluation, the fused solver,
and the exhaustive oracle all agree bit-for-bit; ties between medoid sets
can be broken by float equality.

With a built-in metric, the matrix build runs its row blocks on every CPU
the process may use, two blocks at least for each, and on-the-fly
evaluation its chunks on up to three (see `_map_blocks`).
Block boundaries do not depend on the thread count, and each block writes
its own cells, so every distance and objective has the same bits on any
number of threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import Dataset
from .errors import DistanceOverflow, InvalidArguments, ShapeError, UnknownMetric

DEFAULT_MEMORY_BUDGET = 2**32  # 4 GiB: every solver's budget unless set

# floats per chunk of fresh distance rows (on-the-fly `evaluate_batch`):
# 128 KB per array, glibc's default mmap threshold, so a chunk's rows and
# its running minimum stay in L2 cache and freed arrays are reused from
# the heap.  Larger fresh arrays went back to the OS after every chunk:
# a K=3, N=200 oracle solve gathering fresh chunks of 2^15 and 2^16
# floats took 1.27M and 1.37M minor page faults in a fresh process,
# against 74 at 2^14
_CHUNK_ELEMS = 1 << 14

# floats per reused gather buffer (precomputed `evaluate_batch`): the two
# buffers are made once per call, not per chunk, so 256 KB each costs no
# faults, and that oracle solve ran 15 % faster than with 2^14.  At 2^16
# floats their frees pass glibc's trim threshold, and it took 71k faults
_BUFFER_ELEMS = 1 << 15

# configs per evaluation chunk at the least, whatever N: an on-the-fly
# `pairwise` call over one medoid was 2.5x slower per distance than over 8
_MIN_CHUNK_CONFIGS = 8

# floats per block of the matrix build; small blocks keep each transpose in cache
_BUILD_ELEMS = 1 << 18

# threads of a parallel row-block map; None: one per CPU the process may
# run on (`taskset` limits them)
_THREADS: Optional[int] = None

# threads of on-the-fly `evaluate_batch` at most: each holds one chunk of
# distance rows, so this bounds a K = 1 solve's memory whatever the CPU count
_FLY_THREADS = 3


@dataclass(frozen=True)
class Metric:
    """A named distance function with a vectorized pairwise form.

    `pairwise(X, Y)` returns the (len(X), len(Y)) matrix of distances and is
    the single source of truth; the scalar form evaluates `pairwise` on
    1-row matrices so both agree bit-exactly.  No triangle inequality is
    assumed, only d(x, x) = 0 and finite nonnegative values on finite
    inputs.  Symmetry is used only when a metric declares it: `symmetric`
    promises d(x, y) == d(y, x) bit for bit, which the built-in metrics
    keep and metrics from `register_metric` are not assumed to.
    """

    name: str
    pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray]
    symmetric: bool = False

    def __call__(self, x, y) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if x.shape != y.shape or x.shape[0] != 1:
            raise ShapeError(
                f"metric arguments must be single points of equal dimension, "
                f"got shapes {x.shape} and {y.shape}"
            )
        return float(self.pairwise(x, y)[0, 0])


def _cdist_metric(name: str, scipy_name: str) -> Metric:
    # scipy computes each of these distances from the elementwise |x - y|,
    # so d(x, y) and d(y, x) agree bit for bit
    def pairwise(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        if X.shape[1] != Y.shape[1]:
            raise ShapeError(
                f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
            )
        return cdist(X, Y, metric=scipy_name)

    return Metric(name, pairwise, symmetric=True)


def _generic_pairwise(fn: Callable) -> Callable:
    # fallback for user metrics given only as a scalar function
    def pairwise(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.shape[1] != Y.shape[1]:
            raise ShapeError(
                f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
            )
        out = np.empty((X.shape[0], Y.shape[0]), dtype=np.float64)
        for i in range(X.shape[0]):
            for j in range(Y.shape[0]):
                out[i, j] = fn(X[i], Y[j])
        return out

    return pairwise


_REGISTRY: dict[str, Metric] = {}


def register_metric(name: str, fn: Callable = None, pairwise: Callable = None) -> Metric:
    """Register a metric under `name`; give a scalar fn, a pairwise form, or both."""
    if pairwise is None:
        if fn is None:
            raise InvalidArguments("register_metric needs fn or pairwise")
        pairwise = _generic_pairwise(fn)
    m = Metric(name=name, pairwise=pairwise)
    _REGISTRY[name] = m
    return m


def get_metric(name: str) -> Metric:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMetric(
            f"unknown metric {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_metrics() -> list[str]:
    return sorted(_REGISTRY)


_REGISTRY["sqeuclidean"] = _cdist_metric("sqeuclidean", "sqeuclidean")
_REGISTRY["euclidean"] = _cdist_metric("euclidean", "euclidean")
_REGISTRY["manhattan"] = _cdist_metric("manhattan", "cityblock")

DEFAULT_METRIC = "sqeuclidean"

# the metrics whose row blocks run on several threads, the three built-in
# ones: scipy's `cdist` releases the GIL and keeps no state.  A metric from
# `register_metric` may do neither.
_THREADED = tuple(_REGISTRY.values())


def _threads(blocks: int) -> int:
    """Threads a parallel map over `blocks` row blocks runs on: one per
    CPU, but at least two blocks for each.  The first blocks of a
    symmetric build hold the most distances, so a build with one thread
    per block gained nothing (N = 640: two blocks, 83 % in the first)."""
    cpus = _THREADS
    if cpus is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks // 2))


def _map_blocks(run: Callable[[int], None], starts: range, threads: int) -> None:
    """Call `run(lo)` for each block start in `starts`, on the calling
    thread and `threads - 1` helpers.

    Threads take blocks in order and one at a time; the helpers start here
    and are joined before the call returns.  Once a block fails no further
    block is handed out, and every earlier block has been, so the error
    raised is the one from the lowest failing block, as in a serial run.
    """
    todo = iter(enumerate(starts))
    lock = threading.Lock()
    failed: dict[int, BaseException] = {}

    def work() -> None:
        while not failed:
            with lock:
                i, lo = next(todo, (-1, 0))
            if i < 0:
                return
            try:
                run(lo)
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    failed[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise failed[min(failed)]


def _check_finite(block: np.ndarray) -> np.ndarray:
    """Refuse distances from which an objective could overflow.

    An objective is at most the sum of one medoid's distance row, and twice
    the block total bounds every row sum with rounding included, so a finite
    doubled total keeps every objective built from this block finite.  NaN
    and infinite distances fail the same test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = 2.0 * block.sum()
    if not np.isfinite(total):
        raise DistanceOverflow(
            "distances are not finite or sum past the float64 range; "
            "rescale the data"
        )
    return block


@dataclass
class DistanceCache:
    """Pairwise distances, precomputed when they fit the byte budget.

    A precomputed `matrix` is medoid-major, `matrix[j, i] = d(x_i, x_j)`:
    row j holds every point's distance to candidate medoid j, contiguously.
    `columns` returns identical rows in either mode; it serves on-the-fly
    scoring, `assign` and the baselines.  The K >= 2 solver reads a
    precomputed `matrix` in place, and `evaluate_batch` gathers from it
    into buffers of its own.  A metric that declares itself
    symmetric is evaluated medoids first, so its rows come out in this
    layout; any other metric is evaluated points first and transposed.
    Distances are checked where they are made (the precomputed matrix
    once, on-the-fly blocks as produced), so every objective a solver sees
    is finite.
    """

    dataset: Dataset
    metric: Metric
    mode: str  # "precomputed" | "on-the-fly"
    matrix: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("precomputed", "on-the-fly"):
            raise InvalidArguments(f"unknown distance cache mode {self.mode!r}")
        if self.mode == "precomputed" and self.matrix is None:
            raise InvalidArguments("a precomputed distance cache needs its matrix")
        if self.matrix is not None:
            n = self.dataset.n
            if np.shape(self.matrix) != (n, n):
                raise ShapeError(f"a {np.shape(self.matrix)} distance matrix for N={n}")
            _check_finite(self.matrix)

    def columns(self, indices) -> np.ndarray:
        """Rows d(., x_j) for j in `indices`: the distance-matrix columns,
        as a float64 C-contiguous (len(indices), N) array."""
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if self.mode == "precomputed":
            return self.matrix[idx]
        pts = self.dataset.points
        if self.metric.symmetric:
            block = self.metric.pairwise(pts[idx], pts)
        else:
            block = self.metric.pairwise(pts, pts[idx]).T
        return _check_finite(np.ascontiguousarray(block))


def distance_cache(
    ds: Dataset, metric: Metric, budget_bytes: int = DEFAULT_MEMORY_BUDGET
) -> DistanceCache:
    """Build a distance cache, precomputing the N x N matrix iff 8*N^2 <= budget.

    A symmetric metric fills the upper triangle by row blocks,
    `pairwise(medoids, later points)`, and mirrors each block into the
    lower triangle, so each distance is computed once.  Any other metric
    fills each row block with `pairwise(points, medoids)` transposed.
    """
    n, pts = ds.n, ds.points
    if 8 * n * n > budget_bytes:
        return DistanceCache(ds, metric, "on-the-fly")
    mat = np.empty((n, n))
    step = _build_rows(n)

    def build(lo: int) -> None:
        hi = min(n, lo + step)
        if metric.symmetric:
            block = metric.pairwise(pts[lo:hi], pts[lo:])
            mat[lo:hi, lo:] = block
            mat[hi:, lo:hi] = block[:, hi - lo :].T
        else:
            mat[lo:hi] = metric.pairwise(pts, pts[lo:hi]).T

    starts = range(0, n, step)
    _map_blocks(build, starts, _threads(len(starts)) if metric in _THREADED else 1)
    return DistanceCache(ds, metric, "precomputed", mat)


def _build_rows(n: int) -> int:
    """Matrix rows per block of the build at N points."""
    return max(1, min(n, _BUILD_ELEMS // max(1, n)))


def _solve_cache(
    ds: Dataset, cache: Optional[DistanceCache], metric_name: str,
    budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> DistanceCache:
    """The distance cache a solve reads: a passed `cache`, refused unless it
    was built on `ds`, or else a new one, precomputed iff 8*N^2 <= budget."""
    if cache is None:
        return distance_cache(ds, get_metric(metric_name), budget_bytes)
    _check_cache(ds, cache)
    return cache


def _check_cache(ds: Dataset, cache: DistanceCache) -> None:
    # a cache of other points would score their distances as this dataset's
    if cache.dataset is not ds and not np.array_equal(cache.dataset.points, ds.points):
        raise InvalidArguments("the distance cache was built on another dataset")


def evaluate_batch(ds: Dataset, configs, cache: DistanceCache) -> np.ndarray:
    """Objective values for a batch of medoid index configurations.

    `configs` is an (m, k) integer array, one sorted configuration per row.
    Configs are scored in chunks: each chunk gathers one distance row per
    config and medoid position, folds the rows into a running elementwise
    minimum, then sums each length-N row.  The minimum is exact, so neither
    chunking nor the order of the fold affects the result bits.

    A precomputed cache's rows are taken from its matrix into two buffers
    made once per call, chunks of `_BUFFER_ELEMS // N` configs, on the
    calling thread: its gathers hold the GIL.  An on-the-fly cache
    computes fresh rows through `columns`, in chunks of `_CHUNK_ELEMS // N`
    configs, and for a built-in metric on up to `_FLY_THREADS` threads,
    each holding one chunk at a time.  A chunk holds `_MIN_CHUNK_CONFIGS`
    configs at the least.  An index outside [0, N) raises IndexError, a
    cache built on another dataset InvalidArguments.
    """
    _check_cache(ds, cache)
    configs = np.asarray(configs, dtype=np.int64)
    if configs.ndim != 2:
        raise ShapeError(f"configs must be 2-D, got ndim={configs.ndim}")
    m, k = configs.shape
    out = np.empty(m, dtype=np.float64)
    if m == 0:
        return out
    _check_range(ds, configs)
    n = ds.n
    if cache.mode == "precomputed":
        step = max(_MIN_CHUNK_CONFIGS, _BUFFER_ELEMS // n)
        bufs = [np.empty((min(step, m), n), cache.matrix.dtype) for _ in range(min(k, 2))]

        def rows(idx: np.ndarray, slot: int) -> np.ndarray:
            # "clip" writes straight into the buffer; the default "raise"
            # copies through a temporary.  `_check_range` refused every
            # index outside [0, N), so nothing is clipped
            buf = bufs[slot][: len(idx)]
            return cache.matrix.take(idx, axis=0, out=buf, mode="clip")

    else:
        step = _chunk_rows(n)
        bufs = None

        def rows(idx: np.ndarray, slot: int) -> np.ndarray:
            return cache.columns(idx)

    def score(lo: int) -> None:
        sub = configs[lo : lo + step]
        acc = rows(sub[:, 0], 0)
        if k > 1:
            # `columns` may return rows that must not be written, so the
            # first fold of fresh rows makes a new array
            acc = np.minimum(acc, rows(sub[:, 1], 1), out=None if bufs is None else acc)
        for j in range(2, k):
            np.minimum(acc, rows(sub[:, j], 1), out=acc)
        np.add.reduce(acc, axis=1, out=out[lo : lo + sub.shape[0]])

    starts = range(0, m, step)
    threads = 1
    if bufs is None and cache.metric in _THREADED:
        threads = min(_FLY_THREADS, _threads(len(starts)))
    _map_blocks(score, starts, threads)
    return out


def _chunk_rows(n: int) -> int:
    """Configs per on-the-fly `evaluate_batch` chunk at N points."""
    return max(_MIN_CHUNK_CONFIGS, _CHUNK_ELEMS // n)


def _check_range(ds: Dataset, indices: np.ndarray) -> None:
    if indices.size == 0:
        raise InvalidArguments("medoid list must be nonempty")
    # numpy would wrap a negative index to a valid point and score garbage
    if indices.min() < 0 or indices.max() >= ds.n:
        raise IndexError(f"medoid index out of range [0, {ds.n})")


def _check_medoids(ds: Dataset, medoids) -> np.ndarray:
    med = np.asarray(medoids, dtype=np.int64).ravel()
    _check_range(ds, med)
    if med.size > 1 and np.any(np.diff(med) <= 0):
        raise InvalidArguments("medoid indices must be strictly increasing")
    return med


def evaluate_objective(ds: Dataset, medoids, cache: DistanceCache) -> float:
    """Total deviation of a sorted medoid index list (the clustering objective)."""
    med = _check_medoids(ds, medoids)
    return float(evaluate_batch(ds, med[None, :], cache)[0])


def assign(ds: Dataset, medoids, cache: DistanceCache) -> np.ndarray:
    """Label each point with the position of its nearest medoid.

    Labels index into the sorted medoid list; distance ties go to the
    smallest medoid index.
    """
    _check_cache(ds, cache)
    med = _check_medoids(ds, medoids)
    return np.argmin(cache.columns(med), axis=0)
