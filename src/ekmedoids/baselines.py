"""Approximate K-medoids baselines: PAM, FasterPAM, and CLARANS.

These provide the upper-bound context for the exact solver: every local
search here can only land at or above the global optimum.  All three run
against the shared distance cache and recompute their final objective
through the shared evaluation primitive, so their numbers are directly
comparable with the exact solvers' bit-for-bit.

PAM is BUILD initialization plus best-improvement SWAP and is fully
deterministic; FasterPAM and CLARANS are deterministic given their seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import InvalidArguments, check_int
from .metrics import (
    DEFAULT_METRIC,
    DistanceCache,
    _solve_cache,
    assign,
    evaluate_objective,
)
from .problem import Solution, check_instance

# floats of candidate distance rows fetched per block in vectorized scans;
# a block of 512 KB stays in L2 cache
_BLOCK_ELEMS = 1 << 16


@dataclass(frozen=True)
class BaselineParams:
    """Shared baseline knobs; CLARANS neighbor count defaults to its
    original publication's recommendation max(250, 1.25% of K*(N-K))."""

    seed: int = 0
    max_iter: int = 100
    clarans_numlocal: int = 2
    clarans_maxneighbor: Optional[int] = None

    def __post_init__(self):
        for name in ("seed", "max_iter", "clarans_numlocal"):
            check_int(getattr(self, name), name)
        if self.clarans_maxneighbor is not None:
            check_int(self.clarans_maxneighbor, "clarans_maxneighbor")
        if self.seed < 0:
            raise InvalidArguments(f"seed must be >= 0, got {self.seed}")
        if self.max_iter < 1 or self.clarans_numlocal < 1:
            raise InvalidArguments("iteration counts must be >= 1")
        if self.clarans_maxneighbor is not None and self.clarans_maxneighbor < 1:
            raise InvalidArguments("clarans_maxneighbor must be >= 1")

    def maxneighbor(self, n: int, k: int) -> int:
        if self.clarans_maxneighbor is not None:
            return self.clarans_maxneighbor
        return max(250, math.ceil(0.0125 * k * (n - k)))


def _nearest_two(rows_med: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point, from the medoids' (K, N) distance rows: position of nearest
    medoid, its distance, and the second-nearest distance (inf when K == 1)."""
    k, n = rows_med.shape
    nearest = np.argmin(rows_med, axis=0)
    points = np.arange(n)
    ds1 = rows_med[nearest, points]
    if k == 1:
        ds2 = np.full(n, np.inf)
    else:
        masked = rows_med.copy()
        masked[nearest, points] = np.inf
        ds2 = masked.min(axis=0)
    return nearest, ds1, ds2


def _finalize(ds, cache, medoids, t0, evaluated) -> Solution:
    med = np.sort(np.asarray(medoids, dtype=np.int64))
    objective = evaluate_objective(ds, med, cache)
    labels = assign(ds, med, cache)
    return Solution(
        medoid_indices=med,
        objective=objective,
        assignment=labels,
        wall_time_seconds=time.perf_counter() - t0,
        evaluated_configurations=evaluated,
    )


def pam(
    ds: Dataset,
    k: int,
    params: Optional[BaselineParams] = None,
    cache: Optional[DistanceCache] = None,
    metric_name: str = DEFAULT_METRIC,
) -> Solution:
    """Classic PAM: greedy BUILD then best-improvement SWAP to a local optimum.

    Needs no randomness, so the result is a pure function of the dataset
    and K.  `evaluated_configurations` counts candidate moves examined.
    """
    params = params or BaselineParams()
    k = check_instance(ds, k)
    t0 = time.perf_counter()
    cache = _solve_cache(ds, cache, metric_name)
    n = ds.n
    block = max(1, _BLOCK_ELEMS // n)
    evaluated = 0

    # BUILD: start from the point with minimal total distance, then add the
    # point with the largest aggregate gain until K medoids are chosen
    totals = np.empty(n)
    for lo in range(0, n, block):
        idx = np.arange(lo, min(lo + block, n))
        totals[idx] = cache.columns(idx).sum(axis=1)
    evaluated += n
    medoids = [int(np.argmin(totals))]
    mindist = cache.columns([medoids[0]]).ravel().copy()
    while len(medoids) < k:
        gains = np.full(n, -np.inf)
        for lo in range(0, n, block):
            idx = np.arange(lo, min(lo + block, n))
            rows = cache.columns(idx)
            gains[idx] = np.maximum(0.0, mindist[None] - rows).sum(axis=1)
        gains[medoids] = -np.inf
        nxt = int(np.argmax(gains))
        evaluated += n - len(medoids)
        medoids.append(nxt)
        mindist = np.minimum(mindist, cache.columns([nxt]).ravel())

    # SWAP: evaluate every (medoid, candidate) exchange, apply the best
    # strictly improving one, repeat
    med = np.array(medoids, dtype=np.int64)
    total = evaluate_objective(ds, np.sort(med), cache)
    for _ in range(params.max_iter):
        nearest, ds1, ds2 = _nearest_two(cache.columns(med))
        delta = np.full((k, n), np.inf)
        for i in range(k):
            base = np.where(nearest == i, ds2, ds1)
            for lo in range(0, n, block):
                idx = np.arange(lo, min(lo + block, n))
                rows = cache.columns(idx)
                delta[i, idx] = np.minimum(base[None], rows).sum(axis=1) - total
        delta[:, med] = np.inf
        evaluated += k * (n - k)
        flat = int(np.argmin(delta))
        i_star, h_star = divmod(flat, n)
        if not delta[i_star, h_star] < 0.0:
            break
        med[i_star] = h_star
        total = evaluate_objective(ds, np.sort(med), cache)
    return _finalize(ds, cache, med, t0, evaluated)


def fasterpam(
    ds: Dataset,
    k: int,
    params: Optional[BaselineParams] = None,
    cache: Optional[DistanceCache] = None,
    metric_name: str = DEFAULT_METRIC,
) -> Solution:
    """FasterPAM: seeded random init, then eager swaps where each candidate
    scan scores the removal of every medoid jointly in one O(N) pass."""
    params = params or BaselineParams()
    k = check_instance(ds, k)
    t0 = time.perf_counter()
    cache = _solve_cache(ds, cache, metric_name)
    n = ds.n
    rng = np.random.default_rng(params.seed)
    med = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    total = evaluate_objective(ds, med, cache)
    evaluated = 0

    def refresh():
        nearest, ds1, ds2 = _nearest_two(cache.columns(med))
        if k == 1:
            removal = None
        else:
            removal = np.zeros(k)
            np.add.at(removal, nearest, ds2 - ds1)
        return nearest, ds1, ds2, removal

    nearest, ds1, ds2, removal = refresh()
    member = set(int(m) for m in med)
    for _ in range(params.max_iter):
        swapped = False
        for h in range(n):
            if h in member:
                continue
            col_h = cache.columns([h]).ravel()
            evaluated += k
            if k == 1:
                change = col_h.sum() - total
                if change < 0.0:
                    member = {h}
                    med = np.array([h], dtype=np.int64)
                    total = evaluate_objective(ds, med, cache)
                    nearest, ds1, ds2, removal = refresh()
                    swapped = True
                continue
            closer = col_h < ds1
            mid = ~closer & (col_h < ds2)
            acc = (col_h[closer] - ds1[closer]).sum()
            dtd = removal.copy()
            np.add.at(dtd, nearest[closer], ds1[closer] - ds2[closer])
            np.add.at(dtd, nearest[mid], col_h[mid] - ds2[mid])
            i_star = int(np.argmin(dtd))
            if dtd[i_star] + acc < 0.0:
                member.discard(int(med[i_star]))
                member.add(h)
                med[i_star] = h
                total = evaluate_objective(ds, np.sort(med), cache)
                nearest, ds1, ds2, removal = refresh()
                swapped = True
        if not swapped:
            break
    return _finalize(ds, cache, med, t0, evaluated)


def clarans(
    ds: Dataset,
    k: int,
    params: Optional[BaselineParams] = None,
    cache: Optional[DistanceCache] = None,
    metric_name: str = DEFAULT_METRIC,
) -> Solution:
    """CLARANS: randomized neighbor search with numlocal restarts and
    maxneighbor samples before declaring a local optimum."""
    params = params or BaselineParams()
    k = check_instance(ds, k)
    t0 = time.perf_counter()
    cache = _solve_cache(ds, cache, metric_name)
    n = ds.n
    rng = np.random.default_rng(params.seed)
    maxneighbor = params.maxneighbor(n, k)
    best_med = None
    best_total = np.inf
    evaluated = 0
    for _ in range(params.clarans_numlocal):
        med = rng.choice(n, size=k, replace=False).astype(np.int64)
        member = set(int(m) for m in med)
        total = evaluate_objective(ds, np.sort(med), cache)
        nearest, ds1, ds2 = _nearest_two(cache.columns(med))
        tries = 0
        while tries < maxneighbor:
            i = int(rng.integers(k))
            h = int(rng.integers(n))
            if h in member:
                tries += 1
                continue
            col_h = cache.columns([h]).ravel()
            base = np.where(nearest == i, ds2, ds1)
            new_total = np.minimum(base, col_h).sum()
            evaluated += 1
            if new_total < total:
                member.discard(int(med[i]))
                member.add(h)
                med[i] = h
                total = evaluate_objective(ds, np.sort(med), cache)
                nearest, ds1, ds2 = _nearest_two(cache.columns(med))
                tries = 0
            else:
                tries += 1
        if total < best_total:
            best_total = total
            best_med = med.copy()
    return _finalize(ds, cache, best_med, t0, evaluated)
