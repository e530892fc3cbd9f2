"""Independent exhaustive search over all C(N, K) medoid sets.

This is the correctness oracle for the fused solver, so it deliberately
shares none of the solver's enumeration: combinations are enumerated by
the textbook lexicographic successor (the stdlib combinations iterator),
read `_BLOCK` combinations at a time into an int64 array with
`np.fromiter` and scored by `evaluate_batch`, and the colex tie rule is
recomputed here from the closed formula rather than taken from the
solver's `comb(q, K) + row`.  Nor does it import the solver: only the
Dataset, the metrics primitives and the shared problem definitions are
shared, which is what makes exact objective agreement meaningful.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import InstanceTooLarge
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
    n = ds.n
    # closed-form colex rank: rank(c) = sum_i C(c_i, i), 1-based position i.
    # No term of a valid combination's rank exceeds the rank, which is below
    # C(N, K), so entries are capped there: C(70, 35) would not fit int64
    table = np.array(
        [[min(math.comb(i, j), total) for j in range(k + 1)] for i in range(n + 1)],
        dtype=np.int64,
    )
    positions = np.arange(1, k + 1)
    best_val = math.inf
    best_rank = -1
    best_cfg: Optional[np.ndarray] = None
    evaluated = 0
    combos = itertools.combinations(range(n), k)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(combos, _BLOCK))
        sub = np.fromiter(flat, np.int64).reshape(-1, k)
        if sub.shape[0] == 0:
            break
        values = evaluate_batch(ds, sub, cache)
        evaluated += sub.shape[0]
        vmin = float(values.min())
        if vmin > best_val:
            continue
        ties = sub[values == vmin]
        ranks = table[ties, positions].sum(axis=1)
        jmin = int(np.argmin(ranks))
        rank = int(ranks[jmin])
        if vmin < best_val or (vmin == best_val and rank < best_rank):
            best_val = vmin
            best_rank = rank
            best_cfg = ties[jmin].copy()
    assert best_cfg is not None and evaluated == total
    check = evaluate_objective(ds, best_cfg, cache)
    if check != best_val:
        raise AssertionError(
            f"objective drift: block minimum {best_val!r} vs recomputed {check!r}"
        )
    labels = assign(ds, best_cfg, cache)
    wall = time.perf_counter() - t0
    return Solution(
        medoid_indices=best_cfg,
        objective=best_val,
        assignment=labels,
        wall_time_seconds=wall,
        evaluated_configurations=evaluated,
    )
