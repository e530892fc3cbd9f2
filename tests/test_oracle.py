import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ekmedoids import (
    Dataset,
    DistanceOverflow,
    EmptyDataset,
    InstanceTooLarge,
    InvalidArguments,
    SolverParams,
    distance_cache,
    evaluate_objective,
    get_metric,
    solve_ekm,
    solve_exhaustive,
    synthetic,
)
from ekmedoids import oracle
from ekmedoids.metrics import evaluate_batch


def test_k_equals_n_zero_objective():
    ds = synthetic(6, 2, 2, seed=1)
    sol = solve_exhaustive(ds, SolverParams(k=6))
    assert sol.objective == 0.0
    assert sol.medoid_indices.tolist() == list(range(6))


def test_toy_brute_force(toy):
    sol = solve_exhaustive(toy, SolverParams(k=2))
    assert sol.medoid_indices.tolist() == [1, 3]
    assert sol.objective == 3.0
    assert sol.evaluated_configurations == 10


def test_three_way_tie_takes_minimal_colex():
    ds = Dataset(points=np.array([[0.0], [4.0], [8.0]]))
    cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    assert evaluate_objective(ds, [0, 1], cache) == evaluate_objective(ds, [1, 2], cache)
    sol = solve_exhaustive(ds, SolverParams(k=2), cache=cache)
    assert sol.medoid_indices.tolist() == [0, 1]


# lookup-table metric whose unique optima are {0,3} and {1,2}, both at 12:
# {0,3} comes first in lexicographic order, but colex rank orders {1,2}
# (rank 2) before {0,3} (rank 3).  The oracle scans in colex order and the
# fused solver in its own, so each must keep the tie rule, not the first
# optimum another order would meet
_TIE_TABLE = np.array(
    [
        [0, 6, 7, 8, 8],
        [6, 0, 7, 1, 5],
        [7, 7, 0, 6, 6],
        [8, 1, 6, 0, 5],
        [8, 5, 6, 5, 0],
    ],
    dtype=np.float64,
)


def test_tie_resolved_by_colex_not_enumeration_order():
    from ekmedoids import register_metric

    register_metric(
        "tie_table5", lambda x, y: float(_TIE_TABLE[int(x[0]), int(y[0])])
    )
    ds = Dataset(points=np.arange(5.0)[:, None])
    cache = distance_cache(ds, get_metric("tie_table5"), 2**31)
    assert evaluate_objective(ds, [0, 3], cache) == 12.0
    assert evaluate_objective(ds, [1, 2], cache) == 12.0
    sol = solve_exhaustive(ds, SolverParams(k=2, metric="tie_table5"), cache=cache)
    assert sol.medoid_indices.tolist() == [1, 2]
    assert sol.objective == 12.0
    fused = solve_ekm(ds, SolverParams(k=2, metric="tie_table5"), cache=cache)
    assert fused.medoid_indices.tolist() == [1, 2]


def test_counts_every_combination():
    ds = synthetic(11, 2, 3, seed=6)
    for k in (1, 2, 3, 4):
        sol = solve_exhaustive(ds, SolverParams(k=k))
        assert sol.evaluated_configurations == math.comb(11, k)


def test_k_near_n_ranks_fit_int64():
    # C(70, 35) overflows int64, but ranks of K = 67 stay below C(70, 67).
    # A set leaves out 3 points, each costing the distance to its nearest
    # kept point; brute force over all C(70, 3) excluded triples, ties
    # (mutual nearest neighbours) to the minimal colex rank
    n, k = 70, 67
    ds = Dataset(points=np.random.default_rng(12).normal(size=(n, 3)))
    d = distance_cache(ds, get_metric("sqeuclidean")).matrix.copy()
    np.fill_diagonal(d, np.inf)
    best, want = (math.inf, 0), None
    for trio in itertools.combinations(range(n), 3):
        keep = np.ones(n, dtype=bool)
        keep[list(trio)] = False
        cost = sum(float(d[i, keep].min()) for i in trio)
        if cost <= best[0]:
            medoids = np.flatnonzero(keep).tolist()
            rank = sum(math.comb(c, i) for i, c in enumerate(medoids, 1))
            if (cost, rank) < best:
                best, want = (cost, rank), medoids
    sol = solve_exhaustive(ds, SolverParams(k=k))
    assert sol.evaluated_configurations == math.comb(n, k) == 54_740
    assert sol.medoid_indices.tolist() == want
    assert sol.objective == pytest.approx(best[0], rel=1e-12)


def test_enumeration_limit():
    ds = synthetic(30, 2, 3, seed=2)
    with pytest.raises(InstanceTooLarge) as exc:
        solve_exhaustive(ds, SolverParams(k=3), enumeration_limit=1000)
    assert exc.value.estimate == math.comb(30, 3)


def test_validation():
    ds = synthetic(5, 1, 1, seed=0)
    with pytest.raises(InvalidArguments):
        solve_exhaustive(ds, SolverParams(k=0))
    with pytest.raises(InvalidArguments):
        solve_exhaustive(ds, SolverParams(k=9))
    with pytest.raises(EmptyDataset):
        solve_exhaustive(Dataset(points=np.empty((0, 1))), SolverParams(k=1))


def test_agrees_with_ekm_across_metrics():
    rng = np.random.default_rng(55)
    for _ in range(8):
        n = int(rng.integers(8, 20))
        k = int(rng.integers(1, 5))
        ds = synthetic(n, int(rng.integers(1, 4)), min(k, n), int(rng.integers(2**32)))
        # "asymmetric" (see conftest) on a small integer grid, with many
        # ties, pins which side of each distance the two solvers read
        grid = Dataset(points=rng.integers(0, 4, size=(n, 2)).astype(float))
        for data, metric, budget in [
            (ds, "sqeuclidean", 2**31),
            (ds, "euclidean", 2**31),
            (ds, "manhattan", 2**31),
            (grid, "asymmetric", 2**31),
            (grid, "asymmetric", 0),
        ]:
            cache = distance_cache(data, get_metric(metric), budget)
            a = solve_ekm(data, SolverParams(k=k, metric=metric), cache=cache)
            b = solve_exhaustive(data, SolverParams(k=k, metric=metric), cache=cache)
            assert a.objective == b.objective
            assert np.array_equal(a.medoid_indices, b.medoid_indices)


def test_solution_fields_consistent():
    ds = synthetic(13, 2, 2, seed=19)
    cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    sol = solve_exhaustive(ds, SolverParams(k=2), cache=cache)
    assert sol.objective == evaluate_objective(ds, sol.medoid_indices, cache)
    assert sol.wall_time_seconds > 0.0


@pytest.mark.parametrize("block", [7, oracle._BLOCK], ids=["block-7", "default-block"])
@pytest.mark.parametrize("n, k", [(12, 1), (9, 9), (11, 3), (40, 3)])
def test_partial_last_block(monkeypatch, block, n, k):
    # C(N, K) = 12, 1, 165 and 9880: none is a multiple of either block
    # size, so the last block is partial (or the only one)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    ds = synthetic(n, 2, min(k, 3), seed=n)
    cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    got = solve_exhaustive(ds, SolverParams(k=k), cache=cache)
    want = solve_ekm(ds, SolverParams(k=k), cache=cache)
    assert got.evaluated_configurations == math.comb(n, k)
    assert got.objective.hex() == want.objective.hex()
    assert got.medoid_indices.tolist() == want.medoid_indices.tolist()


def _colex(n, k):
    # colex order: by the largest element first, then the next largest, ...
    return sorted(itertools.combinations(range(n), k), key=lambda c: c[::-1])


@pytest.mark.parametrize("block", [1, 7, oracle._BLOCK], ids=["block-1", "block-7", "default-block"])
def test_blocks_enumerate_every_subset_once_in_colex_order(monkeypatch, block):
    monkeypatch.setattr(oracle, "_BLOCK", block)
    scored = []

    def recording(ds, configs, cache):
        scored.append(np.array(configs))
        return evaluate_batch(ds, configs, cache)

    monkeypatch.setattr(oracle, "evaluate_batch", recording)
    for n in range(1, 11):
        ds = synthetic(n, 2, 1, seed=n)
        cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
        for k in range(1, n + 1):
            scored.clear()
            sol = solve_exhaustive(ds, SolverParams(k=k), cache=cache)
            total = math.comb(n, k)
            assert [len(b) for b in scored] == [
                min(block, total - lo) for lo in range(0, total, block)
            ]
            got = [tuple(c) for b in scored for c in b.tolist()]
            assert got == _colex(n, k), (n, k)
            assert sol.evaluated_configurations == total


@pytest.mark.parametrize("block", [1, 2, 3, 4, oracle._BLOCK])
def test_tie_across_blocks_takes_minimal_colex_rank(monkeypatch, block):
    # points 1 and 3 coincide, and so do 2 and 4: the optimum 25 is
    # reached by {1,2}, {2,3}, {1,4} and {3,4}, colex ranks 2, 5, 7 and 9,
    # so blocks of 1 to 4 combinations spread the tie over several blocks
    monkeypatch.setattr(oracle, "_BLOCK", block)
    ds = Dataset(points=np.array([[5.0], [0.0], [10.0], [0.0], [10.0]]))
    cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    ties = [[1, 2], [2, 3], [1, 4], [3, 4]]
    assert {evaluate_objective(ds, t, cache) for t in ties} == {25.0}
    sol = solve_exhaustive(ds, SolverParams(k=2), cache=cache)
    assert sol.medoid_indices.tolist() == [1, 2]
    assert sol.objective == 25.0
    assert solve_ekm(ds, SolverParams(k=2), cache=cache).medoid_indices.tolist() == [1, 2]


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_no_finite_objective_raises_distance_overflow(monkeypatch, value):
    # distances are checked where they are made, so this cannot happen
    # through the cache; the oracle must still not return a set it never chose
    monkeypatch.setattr(
        oracle, "evaluate_batch", lambda ds, configs, cache: np.full(len(configs), value)
    )
    with pytest.raises(DistanceOverflow):
        solve_exhaustive(synthetic(8, 2, 2, seed=3), SolverParams(k=2))


def test_k1_builds_no_distance_matrix():
    # K = 1 reads each distance row once, so without a passed cache the
    # oracle, like the solver, scores on the fly: a matrix would take 8·N²
    # bytes for no fewer row reads
    n = 4000
    ds = synthetic(n, 2, 1, seed=0)
    tracemalloc.start()
    try:
        sol = solve_exhaustive(ds, SolverParams(k=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 100
    assert sol.objective.hex() == solve_ekm(ds, SolverParams(k=1)).objective.hex()
