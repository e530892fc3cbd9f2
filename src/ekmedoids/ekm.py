"""The fused exact solver: evaluate-while-generating with a single incumbent.

The solver is a combination generator with evaluation and selection fused
in.  Unfused, the generator grows level stores of every combination of
the points seen so far, one point at a time, and would materialize every
configuration before scoring it (the tests keep that plain-list form as
their reference).  Here the evaluator is fused into the last merge (a
size K configuration is scored from its size K-1 part and its last point,
never stored) and the selector is fused on top (scored configurations are
streamed into one incumbent and never retained).  Only partial
configurations of size < K are stored, so for fixed K the search over all
C(N, K) medoid sets runs in O(N^{K+1}) time and O(N^{K-1} + N^2) space.

`solve_ekm` first grows the level stores of partials of sizes 1 .. K-1,
then scores the size K-1 partials in groups of consecutive store rows.
A group's row-mins over the cache's medoid-major distance matrix are
built once; each later point q then meets a prefix of them, the partials
that end below q, in tiles that fit a core's L2 cache.  Each objective is
one `minimum` and one pairwise sum of a length-N row, the sum
`evaluate_batch` takes, so objectives are bit-equal to it.  K = 1 has no
partials to reduce: its N single-point sets are scored by
`evaluate_batch` itself.

Tie rule: configurations are not scored in colexicographic order, so the
incumbent compares (objective, colex rank) and keeps the smaller pair.
The minimal-colex optimal medoid set is returned, deterministically.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import DistanceOverflow, ExactKMedoidsError, InstanceTooLarge, RankOverflow
from .metrics import (
    _FLY_THREADS,
    DistanceCache,
    _build_rows,
    _chunk_rows,
    _kept_buffer,
    _kernel_scratch,
    _solve_cache,
    _threads,
    assign,
    distance_cache,
    evaluate_batch,
    evaluate_objective,
)
from .problem import _INT64_MAX, Solution, SolverParams, check_instance

# floats of row-min per group and per scoring tile, so that a tile, the
# row-min it reads and the matrix rows it scores stay in a core's L2
_CHUNK_ELEMS = 1 << 16

# numpy's ufunc buffer size while scoring, in floats (numpy's default is
# 8192).  numpy copies the operands of a broadcast `minimum` through
# buffers of this size when its contiguous runs are shorter; scoring runs
# are at least this long.  At numpy's default, K=3 at N=200 and K=2 at
# N=640 solved about a third slower
_BUFSIZE = 1024



def estimate_solver_bytes(n: int, k: int) -> int:
    """Upper estimate of solver-owned memory for an (n, k) instance.

    Counts the level stores of partials of sizes 1 .. k-1 and, for K >= 2,
    the N x N distance matrix scoring reads, the row blocks its build has
    in flight (one per build thread), and the scoring scratch with numpy's
    buffers for it.  K = 1 holds no matrix: it scores through
    `evaluate_batch` on the fly, with one chunk of distance rows in flight
    on each of up to `_FLY_THREADS` threads, whatever the CPU count.  One
    more chunk is counted for a metric that does not declare itself
    symmetric: it runs on one thread, and its chunk's `pairwise` block and
    transposed copy are alive together.  K = 1 also holds the N candidates
    and their N objectives.  Each block or chunk in flight has the numpy
    kernel's scratch row block beside it on instances small enough to
    run that kernel.
    """
    levels = sum(math.comb(n, j) * j * 8 for j in range(1, k))
    if k == 1:
        rows = _chunk_rows(n)
        fly = (_FLY_THREADS + 1) * rows * n + _FLY_THREADS * _kernel_scratch(n, rows)
        return levels + 8 * (fly + 2 * n)
    rows = _build_rows(n)
    build = _threads(-(-n // rows)) * (rows * n + _kernel_scratch(n, rows))
    scratch = _scratch(n, k)
    # numpy buffers the broadcast `minimum` of scoring: at most three
    # operands of `_BUFSIZE` floats
    ufunc = 3 * _BUFSIZE
    # the row offsets of a tile hold one integer per row; a run of new
    # level rows (see `_levels`) holds k+1 while it is built
    run = max(_CHUNK_ELEMS // 8, math.comb(n - 1, k - 2)) if k > 2 else 0
    extra = scratch[5] + (k + 1) * min(math.comb(n, k - 1), run)
    # finding a group's first valid entry at its minimum takes two boolean
    # masks of its values, one byte each, and an index per value column
    # and row
    ties = 2 * scratch[4] + 8 * (scratch[5] + n)
    return levels + 8 * (n * n + build + sum(scratch) + ufunc + extra) + ties


def _shape(n: int, k: int) -> tuple[int, int, int]:
    """(partials per group, rows per tile, repeats of a point's row) for
    K >= 2.  A group's row-mins and a tile each hold at most
    `_CHUNK_ELEMS` floats, or one length-N row when N is larger, and a
    tile no more rows than a group's values; a point's row is repeated
    to fill at least one `_BUFSIZE` run, and a full group is a whole
    number of repeats, or one partial when a repeat alone is over
    `_CHUNK_ELEMS`."""
    rows = max(1, _CHUNK_ELEMS // n)
    reps = -(-_BUFSIZE // (n + 1))
    g = min(math.comb(n - 1, k - 1), max(1, rows // reps * reps))
    return g, max(-(-g // reps) * reps, min(rows, g * (n - k + 1))), reps


def _scratch(n: int, k: int) -> tuple[int, ...]:
    """Floats of scoring scratch, K >= 2: a group's zero-led row-mins,
    padded to a whole number of repeats, the gather buffer, a tile's
    later points, each repeated, the tile, the values of a group and one
    tile's sums; K = 1 needs none.  A group's later points are those
    above its first partial's last point, at most N-K+1 of them."""
    if k == 1:
        return ()
    g, rows, reps = _shape(n, k)
    nq = n - k + 1
    return (-(-g // reps) * reps * (n + 1), g * n, min(rows // reps, nq) * reps * (n + 1),
            rows * (n + 1), g * nq, rows)


def _levels(n: int, k: int, log: Optional[list[list[int]]]) -> list[np.ndarray]:
    """The level stores of partials of sizes 0 .. k-1, each in colex order.

    They grow one point at a time: step p appends each size j-1 partial
    that ends below p, plus p, to level j, after the retained prefix.
    Level 1 is the points in order; each higher level is filled for runs
    of steps at once.  `log`, if given, receives each level's size after
    each step, counted in the filled stores.
    """
    arrays = [np.empty((math.comb(n, j), j), dtype=np.int64) for j in range(k)]
    if k > 1:
        arrays[1][:, 0] = np.arange(n)
    for j in range(2, k):
        counts = [math.comb(s, j - 1) for s in range(n)]
        p = j - 1
        while p < n:
            # the steps p .. e-1, in runs of at most _CHUNK_ELEMS // 8 new
            # rows or one step
            e, run = p + 1, counts[p]
            while e < n and run + counts[e] <= _CHUNK_ELEMS // 8:
                run += counts[e]
                e += 1
            block = arrays[j][math.comb(p, j) : math.comb(e, j)]
            # row i of step s takes partial i - (rows of the earlier steps)
            firsts = np.repeat(np.cumsum(counts[p:e]) - counts[p:e], counts[p:e])
            block[:, :-1] = arrays[j - 1][np.arange(run) - firsts]
            block[:, -1] = np.repeat(np.arange(p, e), counts[p:e])
            p = e
    if log is not None:
        # level j after step p holds its partials that end at or below p
        ends = [np.full(n, len(arrays[0]))] + [
            np.searchsorted(arrays[j][:, -1], np.arange(n), side="right") for j in range(1, k)
        ]
        log.extend(list(map(int, sizes)) for sizes in zip(*ends))
    return arrays


def _score_partials(dt, store, g, cap, reps, buffers):
    """Score every size K-1 partial in `store` against every later point.

    Yields (values, r0, p0, valid) per group of g consecutive partials,
    where p0 is the last point of the group's first partial: values[i, j]
    is the objective of store[r0 + j] extended by q = p0 + 1 + i for
    j < valid[i], the partials that end below q.  Past that prefix an
    entry is +inf, or, where a wider tile scored it, the sum for q and a
    partial that does not end below q (see `solve_ekm`).  A group's
    row-mins over the medoid-major matrix `dt` are built once.  A tile
    takes a run of later points and the prefix of the group that they
    extend, as many points as keep it within `cap` rows.  Its `minimum` is point-major, and each point's
    row, repeated `reps` times, meets `reps` row-mins at once, so that
    both operands run contiguously.

    Rows are led by a 0.0, and `add.reduceat` sums each zero-led row:
    it starts from that 0.0 and adds numpy's pairwise sum of the N
    entries, which is what `add.reduce` of the row computes, so values
    are bit-equal to `evaluate_batch`'s; it skips the per-row cost that
    `add.reduce` pays when N is small.
    """
    n = dt.shape[0]
    w = n + 1
    rows_buf, gather_buf, points_buf, tile_buf, values_buf, sums_buf = buffers
    # the zero-led layouts keep their leading zeros whatever the shape
    rows_buf[::w] = 0.0
    points_buf[::w] = 0.0
    starts = np.arange(0, cap * w, w)
    size = store.shape[1]
    # the store's first C(q, K-1) partials are those below q, so the ones
    # of a group that q extends are a prefix of it
    below = [math.comb(q, size) for q in range(n)]
    # partials ending at n-1 have no later point
    total = below[n - 1]
    for r0 in range(0, total, g):
        parts = store[r0 : min(r0 + g, total)]
        m = parts.shape[0]
        p0 = int(parts[0, -1])
        nq = n - 1 - p0
        rows = rows_buf[: -(-m // reps) * reps * w].reshape(-1, w)
        rows[m:, 1:] = 0.0
        rowmin = rows[:m, 1:]
        # gathers go to contiguous buffers, the tile's being free until the
        # group's first tile: `take` into a strided `out` would copy through
        # a temporary
        head = gather_buf[: m * n].reshape(m, n)
        dt.take(parts[:, 0], axis=0, out=head, mode="clip")
        if size == 1:
            np.copyto(rowmin, head)
        other = tile_buf[: m * n].reshape(m, n)
        for j in range(1, size):
            dt.take(parts[:, j], axis=0, out=other, mode="clip")
            np.minimum(head, other, out=rowmin if j == size - 1 else head)
        values = values_buf[: nq * m].reshape(nq, m)
        values.fill(np.inf)
        valid = [min(m, c - r0) for c in below[p0 + 1 : n]]
        padded = [-(-v // reps) * reps for v in valid]
        c0 = 0
        while c0 < nq:
            # widen the tile while it stays within `cap` rows
            b = 1
            while c0 + b < nq and (b + 1) * padded[c0 + b] <= cap:
                b += 1
            mt = valid[c0 + b - 1]
            chunks = -(-mt // reps)
            points = points_buf[: b * reps * w].reshape(b, 1, reps, w)
            points[:, 0, :, 1:] = dt[p0 + 1 + c0 : p0 + 1 + c0 + b, None]
            tile = tile_buf[: b * chunks * reps * w]
            np.minimum(points, rows[: chunks * reps].reshape(1, chunks, reps, w),
                       out=tile.reshape(b, chunks, reps, w))
            if b == 1:
                np.add.reduceat(tile[: mt * w], starts[:mt], out=values[c0, :mt])
            else:
                sums = sums_buf[: b * chunks * reps]
                np.add.reduceat(tile, starts[: b * chunks * reps], out=sums)
                values[c0 : c0 + b, :mt] = sums.reshape(b, chunks * reps)[:, :mt]
            c0 += b
        yield values, r0, p0, valid


def check_solvable(ds: Dataset, params: SolverParams) -> int:
    """Make every refusal of `solve_ekm` (the instance, `RankOverflow`, the
    memory budget) before any distance is computed; return K."""
    k = check_instance(ds, params.k)
    if math.comb(ds.n, k) > _INT64_MAX:
        raise RankOverflow(
            f"C({ds.n}, {k}) = {math.comb(ds.n, k)} exceeds the 64-bit "
            f"configuration counter"
        )
    estimate = estimate_solver_bytes(ds.n, k)
    if estimate > params.memory_budget_bytes:
        raise InstanceTooLarge(
            f"estimated {estimate} bytes of solver memory "
            f"for N={ds.n}, K={k} exceeds the {params.memory_budget_bytes} "
            f"byte budget",
            estimate=estimate,
        )
    return k


def solve_ekm(
    ds: Dataset,
    params: SolverParams,
    cache: Optional[DistanceCache] = None,
    record_level_sizes: bool = False,
) -> Solution:
    """Exact K-medoids by the fused recursion over points 0 .. N-1.

    Returns the global optimum of the clustering objective; ties between
    optimal medoid sets resolve to the minimal colex rank.  Passing a
    prebuilt `cache` keeps its construction out of the reported wall time.
    Refuses instances whose solver memory (`estimate_solver_bytes`) would
    exceed the memory budget, reporting the estimate instead of exhausting
    memory, and a `cache` built on another dataset.
    """
    k = check_solvable(ds, params)
    t0 = time.perf_counter()
    # for K >= 2, check_solvable counted the matrix this builds
    cache = _solve_cache(ds, cache, params.metric, params.distance_budget())
    n = ds.n
    level_log: Optional[list[list[int]]] = [] if record_level_sizes else None
    store = _levels(n, k, level_log)[k - 1]
    # the incumbent orders by (objective, colex rank); every objective is
    # finite (see DistanceCache), so the +inf of an unscored entry never wins
    best_val = math.inf
    best_rank = best_row = best_q = -1
    if k == 1:
        # the colex rank of {q} is q, so the first minimum wins the tie rule
        values = evaluate_batch(ds, np.arange(n)[:, None], cache)
        best_q = best_rank = int(values.argmin())
        best_val, best_row, evaluated = float(values[best_q]), 0, n
    else:
        # scoring reads whole rows, so a passed on-the-fly cache is precomputed here
        if cache.mode != "precomputed":
            cache = distance_cache(ds, cache.metric, 8 * n * n)
        sizes = _scratch(n, k)
        # one scratch buffer, cut into the six; each thread keeps the one of
        # its largest solve so far: a fresh one page faults on first touch,
        # which in the a5 sweep made K=2 at N=100 cost about a quarter more
        # per distance-min
        scratch = _kept_buffer("score", sum(sizes))
        ends = list(itertools.accumulate(sizes))
        buffers = [scratch[e - size : e] for e, size in zip(ends, sizes)]
        evaluated = 0
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            for values, r0, p0, valid in _score_partials(cache.matrix, store, *_shape(n, k), buffers):
                evaluated += sum(valid)
                vmin = float(values.min())
                if vmin > best_val:
                    continue
                # past a point's prefix a tile scores the point with a partial
                # that does not end below it: a K-set, whose own entry has the
                # same bits as `minimum` is exact, or a K-1 set, which the
                # partial's entry with its next point does not undercut.  So
                # the minimum is a K-set's; the first valid entry at it has
                # the group's least rank there, and if there is none, the
                # K-set's own entry is at it in another group
                hits = values == vmin
                hits &= np.arange(hits.shape[1]) < np.array(valid)[:, None]
                flat = int(hits.argmax())
                if not hits.flat[flat]:
                    continue
                dq, dr = divmod(flat, hits.shape[1])
                q, row = p0 + 1 + dq, r0 + dr
                rank = math.comb(q, k) + row
                if vmin < best_val or rank < best_rank:
                    best_val, best_rank, best_row, best_q = vmin, rank, row, q
        finally:
            np.setbufsize(bufsize)
    if best_rank < 0:
        raise DistanceOverflow("no medoid set has a finite objective")
    medoids = np.append(store[best_row], best_q)
    check = evaluate_objective(ds, medoids, cache)
    if check != best_val:
        raise ExactKMedoidsError(
            f"objective drift: streamed {best_val!r} vs recomputed {check!r}"
        )
    labels = assign(ds, medoids, cache)
    wall = time.perf_counter() - t0
    return Solution(
        medoid_indices=medoids,
        objective=best_val,
        assignment=labels,
        wall_time_seconds=wall,
        evaluated_configurations=evaluated,
        level_sizes=level_log,
    )
