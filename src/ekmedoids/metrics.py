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

The built-in metrics compute distances with one of two kernels that give
the same bits: a numpy kernel for small instances, and scipy's `cdist`,
imported only when an instance too large for the numpy kernel first needs
it (see `_kernel`).  With a built-in metric, the matrix build runs its
row blocks on every CPU the process may use, two blocks at least for
each, and on-the-fly evaluation its chunks on up to three (see
`_map_blocks`).  Block boundaries do not depend on the thread count, and
each block writes its own cells, so every distance and objective has the
same bits on any number of threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

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
# buffers serve every chunk, so 256 KB each costs no faults, and that
# oracle solve ran 15 % faster than with 2^14.  Made fresh per call, they
# were returned to the system between calls whenever glibc's trim
# threshold was low, as in a process that has not imported scipy: that
# oracle solve took 31k faults and ran 10 % slower, so each thread keeps
# them (`_kept_buffer`)
_BUFFER_ELEMS = 1 << 15

# configs per evaluation chunk at the least, whatever N: an on-the-fly
# `pairwise` call over one medoid was 2.5x slower per distance than over 8
_MIN_CHUNK_CONFIGS = 8

# floats per block of the matrix build; small blocks keep each transpose in cache
_BUILD_ELEMS = 1 << 18

# threads of a parallel row-block map; None: one per CPU the process may
# run on (`taskset` limits them)
_THREADS: Optional[int] = None

# pair-dims (N * N * d) up to which an instance of a built-in metric
# computes its distances with the numpy kernel rather than scipy's `cdist`.
# Both give the same bits.  A matrix build of this size cost 0.15-1.9 ms
# more with the numpy kernel (d = 1 .. 48; 2-vCPU x86 box), under 1 % of
# the 0.25-0.35 s a process spends importing `scipy.spatial.distance`;
# at 2^22 it cost up to 9 ms more
_NUMPY_PAIR_DIMS = 1 << 20

# floats per row block of the numpy kernel: a block and its scratch of
# the same size stay in a core's L2 cache
_KERNEL_ELEMS = 1 << 15

# per thread, the buffers `_kept_buffer` keeps between calls
_KEPT = threading.local()

# threads of on-the-fly `evaluate_batch` at most: each holds one chunk of
# distance rows, so this bounds a K = 1 solve's memory whatever the CPU count
_FLY_THREADS = 3


def _kept_buffer(use: str, size: int, dtype=np.float64) -> np.ndarray:
    """`size` elements of this thread's buffer for `use`, grown as needed.

    The buffer outlives the call, so repeated calls touch no fresh pages:
    a fresh array faults its pages in again whenever glibc has returned
    the heap's top to the system since the last call."""
    buf = getattr(_KEPT, use, None)
    if buf is None or buf.size < size or buf.dtype != dtype:
        setattr(_KEPT, use, None)  # free the smaller buffer first
        buf = np.empty(size, dtype)
        setattr(_KEPT, use, buf)
    return buf[:size]


@dataclass(frozen=True)
class Metric:
    """A named distance function with a vectorized pairwise form.

    `pairwise(X, Y)` returns the (len(X), len(Y)) matrix of distances; the
    scalar form evaluates `pairwise` on 1-row matrices so both agree
    bit-exactly.  A built-in metric's `pairwise` picks one of its two
    kernels, which give the same bits, by the size of each call; a
    distance cache picks one per instance (`_kernel`).  No triangle
    inequality is assumed, only d(x, x) = 0 and finite nonnegative values
    on finite inputs.  Symmetry is used only when a metric declares it:
    `symmetric` promises d(x, y) == d(y, x) bit for bit, which the
    built-in metrics keep and metrics from `register_metric` are not
    assumed to.
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


def _points(X, Y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ShapeError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


@dataclass(frozen=True)
class _Builtin:
    """The pairwise form of a built-in metric: the sum over coordinates of
    (x_j - y_j)^2, or of |x_j - y_j| when `absolute`, and its square root
    when `root`.

    Two kernels compute it with the same bits, so d(x, y) == d(y, x) bit
    for bit in both: `numpy` adds one coordinate's terms at a time into a
    row block, in the order scipy's `cdist` sums them, then takes the
    square root, as `cdist` does.  `numpy` costs more per distance, and
    `cdist` a scipy import per process (see `_NUMPY_PAIR_DIMS`).
    """

    scipy_name: str
    absolute: bool
    root: bool

    def __call__(self, X, Y) -> np.ndarray:
        X, Y = _points(X, Y)
        return self.kernel(X.shape[0] * Y.shape[0] * X.shape[1])(X, Y)

    def kernel(self, pair_dims: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """The kernel for `pair_dims` pairs of coordinates: `numpy` up to
        `_NUMPY_PAIR_DIMS`, else `cdist`, whose module is imported here."""
        if pair_dims <= _NUMPY_PAIR_DIMS:
            return self.numpy
        from scipy.spatial.distance import cdist

        return partial(cdist, metric=self.scipy_name)

    def numpy(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        m, d = X.shape
        n = Y.shape[0]
        out = np.empty((m, n))
        rows = max(1, _KERNEL_ELEMS // max(1, n))
        scratch = np.empty((min(rows, m), n))
        term = np.absolute if self.absolute else np.square
        # an overflow to inf is refused by `_check_finite`, as from `cdist`
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, m, rows):
                acc = out[lo : lo + rows]
                tmp = scratch[: acc.shape[0]]
                for j in range(d):
                    # the first term goes straight into the block: 0 + t == t
                    dst = tmp if j else acc
                    np.subtract(X[lo : lo + rows, j, None], Y[:, j], out=dst)
                    term(dst, out=dst)
                    if j:
                        np.add(acc, tmp, out=acc)
                if self.root:
                    np.sqrt(acc, out=acc)
        return out


def _generic_pairwise(fn: Callable) -> Callable:
    # fallback for user metrics given only as a scalar function
    def pairwise(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X, Y = _points(X, Y)
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


_REGISTRY["sqeuclidean"] = Metric("sqeuclidean", _Builtin("sqeuclidean", False, False), True)
_REGISTRY["euclidean"] = Metric("euclidean", _Builtin("euclidean", False, True), True)
_REGISTRY["manhattan"] = Metric("manhattan", _Builtin("cityblock", True, False), True)

DEFAULT_METRIC = "sqeuclidean"

# the metrics whose row blocks run on several threads, the three built-in
# ones: both their kernels keep no state and spend their time in numpy's
# ufuncs or in `cdist`, which release the GIL.  A metric from
# `register_metric` may do neither.
_THREADED = tuple(_REGISTRY.values())


def _kernel(metric: Metric, n: int, d: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The pairwise form every distance of an instance of `n` points in `d`
    dimensions is computed with.

    A built-in metric's kernel is chosen once per instance, from N * N * d
    (see `_Builtin.kernel`), never from the shape of one block: the small
    chunks of an on-the-fly solve at large N stay on `cdist`.  It is
    chosen on the calling thread, so any scipy import happens there and
    before a map starts its helpers.  Both kernels give the same bits, so
    the choice never changes a distance, only which process pays the
    import.  Any other metric computes with its own `pairwise`.
    """
    if isinstance(metric.pairwise, _Builtin):
        return metric.pairwise.kernel(n * n * d)
    return metric.pairwise


def _kernel_scratch(n: int, rows: int) -> int:
    """Floats the numpy kernel holds beside a (rows, N) block it computes,
    at most: its scratch row block.  No instance with N * N over
    `_NUMPY_PAIR_DIMS` runs it."""
    if n * n > _NUMPY_PAIR_DIMS:
        return 0
    return min(rows, max(1, _KERNEL_ELEMS // n)) * n


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
    is finite.  On-the-fly rows are computed with the instance's kernel
    (`_kernel`), chosen when the cache is made.
    """

    dataset: Dataset
    metric: Metric
    mode: str  # "precomputed" | "on-the-fly"
    matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _pairwise: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)

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
        if self.mode == "on-the-fly":
            self._pairwise = _kernel(self.metric, self.dataset.n, self.dataset.d)

    def columns(self, indices) -> np.ndarray:
        """Rows d(., x_j) for j in `indices`: the distance-matrix columns,
        as a float64 C-contiguous (len(indices), N) array."""
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if self.mode == "precomputed":
            return self.matrix[idx]
        pts = self.dataset.points
        if self.metric.symmetric:
            block = self._pairwise(pts[idx], pts)
        else:
            block = self._pairwise(pts, pts[idx]).T
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
    pairwise = _kernel(metric, n, ds.d)

    def build(lo: int) -> None:
        hi = min(n, lo + step)
        if metric.symmetric:
            block = pairwise(pts[lo:hi], pts[lo:])
            mat[lo:hi, lo:] = block
            mat[hi:, lo:hi] = block[:, hi - lo :].T
        else:
            mat[lo:hi] = pairwise(pts, pts[lo:hi]).T

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
    that the calling thread keeps between calls, in chunks of
    `_BUFFER_ELEMS // N` configs, on that thread: its gathers hold the GIL.  An on-the-fly cache
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
        size = min(step, m) * n
        kept = _kept_buffer("gather", min(k, 2) * size, cache.matrix.dtype)
        bufs = [kept[lo : lo + size].reshape(-1, n) for lo in range(0, kept.size, size)]

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
