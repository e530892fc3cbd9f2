"""The fused exact solver: evaluate-while-generating with a single incumbent.

The solver is a combination generator with evaluation and selection fused
in.  Unfused, the generator grows level stores of every combination of
the points seen so far, one point at a time, and would materialize every
configuration before scoring it (the tests keep that plain-list form as
their reference).  Here the evaluator is fused into the level-store merge
(a configuration reaching the target size K is scored as soon as its
parts exist) and the selector is fused on top (scored configurations are
streamed into one incumbent and never retained).  Only partial
configurations of size < K are stored, so for fixed K the search over all
C(N, K) medoid sets runs in O(N^{K+1}) time and O(N^{K-1} + N^2) space.

`solve_ekm` scores partial-major: step p creates the size K-1 partials
that end at p; each one's row-min over the cache's medoid-major distance
matrix is built once and then scored against every later point q with one
`minimum` and one contiguous length-N row sum, the same sum
`evaluate_batch` takes, so objectives are bit-equal to it.  Steps whose
work is small are batched into one scoring round.  K = 1 has no partials
to reduce: its N single-point sets are scored by `evaluate_batch` itself.

Tie rule: configurations are not scored in colexicographic order, so the
incumbent compares (objective, colex rank) and keeps the smaller pair.
The minimal-colex optimal medoid set is returned, deterministically.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import DistanceOverflow, InstanceTooLarge, RankOverflow
from .metrics import (
    _FLY_THREADS,
    DistanceCache,
    _build_rows,
    _chunk_rows,
    _solve_cache,
    _threads,
    assign,
    distance_cache,
    evaluate_batch,
    evaluate_objective,
)
from .problem import _INT64_MAX, Solution, SolverParams, check_instance

# floats per scoring block; cache-sized blocks would speed up large N alone
# and push the a5 runtime slopes under their bounds
_CHUNK_ELEMS = 1 << 23

# floats of scoring work up to which consecutive steps share one batch
_BATCH_ELEMS = 1 << 16


def estimate_solver_bytes(n: int, k: int) -> int:
    """Upper estimate of solver-owned memory for an (n, k) instance.

    Counts the level stores of partials of sizes 1 .. k-1 and, for K >= 2,
    the N x N distance matrix scoring reads, the row blocks its build has
    in flight (one per build thread), the scoring scratch with numpy's
    buffers for it, and the round plan.  K = 1 holds no matrix: it scores
    through `evaluate_batch` on the fly, with one chunk of distance rows
    in flight on each of up to `_FLY_THREADS` threads, whatever the CPU
    count.  One more chunk is counted for a metric that does not declare
    itself symmetric: it runs on one thread, and its chunk's `pairwise`
    block and transposed copy are alive together.  K = 1 also holds the
    N candidates and their N objectives.
    """
    return _solver_bytes(n, k, *_plan(n, k))


def _solver_bytes(n: int, k: int, rounds: np.ndarray, scratch: tuple[int, ...]) -> int:
    """`estimate_solver_bytes` for a plan already made."""
    levels = sum(math.comb(n, j) * j * 8 for j in range(1, k))
    if k == 1:
        return levels + 8 * ((_FLY_THREADS + 1) * _chunk_rows(n) * n + 2 * n)
    rows = _build_rows(n)
    build = _threads(-(-n // rows)) * rows * n
    # numpy buffers the broadcast `minimum` of scoring: at most three
    # operands of `getbufsize()` floats
    ufunc = 3 * np.getbufsize()
    return levels + 8 * (n * n + build + sum(scratch) + ufunc) + rounds.nbytes


def _batches(n: int, k: int):
    """The scoring schedule: yields (p, lo, hi, p0) for K >= 2.

    After step p, the size k-1 partials in store rows lo:hi, created at
    steps p0 .. p, are scored against every point q > p0.  Consecutive
    steps are batched until that work reaches `_BATCH_ELEMS` floats, so
    the fixed cost of a scoring round stays small next to its work at
    small N; step n-2, the last with a later point, closes the final batch.
    """
    lo, p0 = 0, k - 2
    for p in range(k - 2, n - 1):
        hi = math.comb(p + 1, k - 1)
        if p == n - 2 or (hi - lo) * (n - 1 - p0) * n >= _BATCH_ELEMS:
            yield p, lo, hi, p0
            lo, p0 = hi, p + 1


def _block_shape(n: int, m: int, p0: int) -> tuple[int, int]:
    """(later points, partials) per scoring block for a batch of m partials
    starting at step p0: at most `_CHUNK_ELEMS` floats, or one length-N
    row when N is larger."""
    qb = min(n - 1 - p0, max(1, _CHUNK_ELEMS // n))
    return qb, min(m, max(1, _CHUNK_ELEMS // (qb * n)))


def _plan(n: int, k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The scoring rounds of a solve, one (p, lo, hi, p0, qb, mb) row per
    round in step order, p the step after which it runs, and the floats
    of scratch they need for the scoring block, the row-min and the gather
    buffer.  K = 1 has neither."""
    if k == 1:
        return np.empty((0, 6), dtype=np.int64), ()
    rounds = np.array(
        [(p, lo, hi, p0, *_block_shape(n, hi - lo, p0)) for p, lo, hi, p0 in _batches(n, k)],
        dtype=np.int64,
    )
    qb, mb = rounds[:, 4], rounds[:, 5]
    rows = int(mb.max()) * n
    block = int((qb * mb).max()) * n
    return rounds, (block, rows, rows if k > 2 else 0)


def _score_partials(dt, store, lo, hi, p0, qb, mb, buffers):
    """Score the partials store[lo:hi], created at steps p0 and later,
    against every point q > p0.

    Yields (values, q0, r0) blocks in which values[i, j] is the objective
    of store[r0 + j] extended by q0 + i, or +inf where q0 + i is not above
    the partial's last point.  A partial's row-min over the medoid-major
    matrix `dt` is built once per block and each objective is the sum of
    one contiguous length-N row, so values are bit-equal to `evaluate_batch`'s.
    """
    n = dt.shape[0]
    block_buf, rowmin_buf, gather_buf = buffers
    for r0 in range(lo, hi, mb):
        parts = store[r0 : min(r0 + mb, hi)]
        m = parts.shape[0]
        rowmin = rowmin_buf[: m * n].reshape(m, n)
        np.take(dt, parts[:, 0], axis=0, out=rowmin, mode="clip")
        for j in range(1, parts.shape[1]):
            gather = gather_buf[: m * n].reshape(m, n)
            np.take(dt, parts[:, j], axis=0, out=gather, mode="clip")
            np.minimum(rowmin, gather, out=rowmin)
        last = parts[:, -1]
        for q0 in range(p0 + 1, n, qb):
            nb = min(qb, n - q0)
            # numpy runs the broadcast fastest with the smaller count outermost
            if m < nb:
                block = block_buf[: nb * m * n].reshape(m, nb, n)
                np.minimum(rowmin[:, None], dt[None, q0 : q0 + nb], out=block)
                values = np.add.reduce(block, axis=2).T
            else:
                block = block_buf[: nb * m * n].reshape(nb, m, n)
                np.minimum(dt[q0 : q0 + nb, None], rowmin[None], out=block)
                values = np.add.reduce(block, axis=2)
            if last[-1] >= q0:
                values[np.arange(q0, q0 + nb)[:, None] <= last] = np.inf
            yield values, q0, r0


def check_solvable(ds: Dataset, params: SolverParams) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Make every refusal of `solve_ekm` (the instance, `RankOverflow`, the
    memory budget) before any distance is computed; return K and the plan."""
    k = check_instance(ds, params.k)
    if math.comb(ds.n, k) > _INT64_MAX:
        raise RankOverflow(
            f"C({ds.n}, {k}) = {math.comb(ds.n, k)} exceeds the 64-bit "
            f"configuration counter"
        )
    rounds, sizes = _plan(ds.n, k)
    estimate = _solver_bytes(ds.n, k, rounds, sizes)
    if estimate > params.memory_budget_bytes:
        raise InstanceTooLarge(
            f"estimated {estimate} bytes of solver memory "
            f"for N={ds.n}, K={k} exceeds the {params.memory_budget_bytes} "
            f"byte budget",
            estimate=estimate,
        )
    return k, rounds, sizes


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
    k, rounds, sizes = check_solvable(ds, params)
    t0 = time.perf_counter()
    # for K >= 2, check_solvable counted the matrix this builds
    cache = _solve_cache(ds, cache, params.metric, params.distance_budget())
    n = ds.n
    # preallocated level stores for sizes 1 .. k-1; level 0 is the implicit
    # empty configuration
    capacity = [math.comb(n, j) for j in range(k)]
    arrays = [np.empty((capacity[j], j), dtype=np.int64) for j in range(k)]
    counts = [1] + [0] * (k - 1)
    store = arrays[k - 1]
    if k > 1:
        # scoring reads whole rows, so a passed on-the-fly cache is precomputed here
        if cache.mode != "precomputed":
            cache = distance_cache(ds, cache.metric, 8 * n * n)
        dt = cache.matrix
        # one scratch allocation per solve, split into the three buffers
        buffers = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    # the incumbent orders by (objective, colex rank); every objective is
    # finite (see DistanceCache), so the +inf of a skipped entry never wins
    best_val = math.inf
    best_rank = best_row = best_q = -1
    evaluated = 0
    r = 0  # the next round of the plan, run after step `at`
    at = int(rounds[0, 0]) if len(rounds) else n
    level_log: Optional[list[list[int]]] = [] if record_level_sizes else None
    for p in range(n):
        # extend the store: append each size j-1 partial + p to level j,
        # after the retained prefix (keeps colex order)
        for j in range(k - 1, 0, -1):
            m = counts[j - 1]
            if m == 0:
                continue
            dst = arrays[j]
            lo = counts[j]
            if j > 1:
                dst[lo : lo + m, : j - 1] = arrays[j - 1][:m]
            dst[lo : lo + m, j - 1] = p
            counts[j] += m
        if level_log is not None:
            level_log.append(list(counts))
        if p != at:
            continue
        lo, hi, p0, qb, mb = rounds[r, 1:].tolist()
        r += 1
        at = int(rounds[r, 0]) if r < len(rounds) else n
        evaluated += int((n - 1 - store[lo:hi, -1]).sum())
        for values, q0, r0 in _score_partials(dt, store, lo, hi, p0, qb, mb, buffers):
            flat = int(values.argmin())
            vmin = float(values.flat[flat])
            if vmin > best_val:
                continue
            dq, dr = divmod(flat, values.shape[1])
            q, row = q0 + dq, r0 + dr
            rank = math.comb(q, k) + row
            if vmin < best_val or rank < best_rank:
                best_val, best_rank, best_row, best_q = vmin, rank, row, q
    if k == 1:
        # the colex rank of {q} is q, so the first minimum wins the tie rule
        values = evaluate_batch(ds, np.arange(n)[:, None], cache)
        best_q = best_rank = int(values.argmin())
        best_val, best_row, evaluated = float(values[best_q]), 0, n
    if best_rank < 0:
        raise DistanceOverflow("no medoid set has a finite objective")
    medoids = np.append(store[best_row], best_q)
    check = evaluate_objective(ds, medoids, cache)
    if check != best_val:
        raise AssertionError(
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
