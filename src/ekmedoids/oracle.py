"""Independent exhaustive search over all C(N, K) medoid sets.

This is the correctness oracle for the fused solver, so it deliberately
shares none of the solver's enumeration: combinations are made in colex
order, `_BLOCK` at a time, by unranking a range of colex ranks through
the closed formula rank(c) = sum_i C(c_i, i), and scored by
`evaluate_batch`.  The rank of a block's row is the block's first rank
plus the row, so the colex tie rule is the scan order itself rather
than the solver's `comb(q, K) + row`.  Nor does it import the solver:
only the Dataset, the metrics primitives and the shared problem
definitions are shared, which is what makes exact objective agreement
meaningful.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import DistanceOverflow, ExactKMedoidsError, InstanceTooLarge
from .metrics import DistanceCache, _solve_cache, assign, evaluate_batch, evaluate_objective
from .problem import Solution, SolverParams, check_instance

DEFAULT_ENUMERATION_LIMIT = 10**8

_BLOCK = 4096


def solve_exhaustive(
    ds: Dataset,
    params: SolverParams,
    cache: Optional[DistanceCache] = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Solution:
    """Brute-force the optimal medoid set; ties resolve to minimal colex rank.

    Every combination is scored through the shared evaluation primitive, so
    the returned objective is bit-equal to the fused solver's on the same
    instance.  Instances with C(N, K) beyond the enumeration limit are
    refused.
    """
    k = check_instance(ds, params.k)
    total = math.comb(ds.n, k)
    if total > enumeration_limit:
        raise InstanceTooLarge(
            f"C({ds.n}, {k}) = {total} exceeds the enumeration limit "
            f"{enumeration_limit}",
            estimate=total,
        )
    t0 = time.perf_counter()
    cache = _solve_cache(ds, cache, params.metric, params.distance_budget())
    # closed-form colex rank: rank(c) = sum_i C(c_i, i), 1-based position i;
    # table[j, i] = C(i, j).  No term of a valid combination's rank exceeds the rank, which is below
    # C(N, K), so entries are capped there: C(70, 35) would not fit int64
    table = np.array(
        [[min(math.comb(i, j), total) for i in range(ds.n + 1)] for j in range(k + 1)],
        dtype=np.int64,
    )
    best_val = math.inf
    best_cfg: Optional[np.ndarray] = None
    for first in range(0, total, _BLOCK):
        sub = _colex_block(table, first, min(_BLOCK, total - first))
        values = evaluate_batch(ds, sub, cache)
        # ranks rise along a block and from block to block, so the first
        # minimum and a strict `<` keep the minimal colex rank
        j = int(np.argmin(values))
        if values[j] < best_val:
            best_val = float(values[j])
            best_cfg = sub[j].copy()
    if best_cfg is None:
        raise DistanceOverflow("no medoid set has a finite objective")
    check = evaluate_objective(ds, best_cfg, cache)
    if check != best_val:
        raise ExactKMedoidsError(
            f"objective drift: block minimum {best_val!r} vs recomputed {check!r}"
        )
    labels = assign(ds, best_cfg, cache)
    wall = time.perf_counter() - t0
    return Solution(
        medoid_indices=best_cfg,
        objective=best_val,
        assignment=labels,
        wall_time_seconds=wall,
        evaluated_configurations=total,
    )


def _colex_block(table: np.ndarray, first: int, count: int) -> np.ndarray:
    """The K-subsets of colex ranks `first` .. `first + count - 1`, one per
    row in rank order, from `table[j, i] = C(i, j)` (capped).

    Position j, from K down to 1, holds the largest c with C(c, j) at most
    the rank the positions above it leave over.  The rows are the columns
    of a (K, count) array, so each medoid position is contiguous.
    """
    k = table.shape[0] - 1
    rest = np.arange(first, first + count, dtype=np.int64)
    out = np.empty((k, count), dtype=np.int64)
    for j in range(k, 0, -1):
        c = np.searchsorted(table[j], rest, side="right") - 1
        rest -= table[j, c]
        out[j - 1] = c
    return out.T
