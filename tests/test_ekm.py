import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekmedoids import (
    Dataset,
    EmptyDataset,
    InstanceTooLarge,
    InvalidArguments,
    RankOverflow,
    SolverParams,
    assign,
    distance_cache,
    evaluate_objective,
    get_metric,
    solve_ekm,
    solve_exhaustive,
    synthetic,
)
from ekmedoids import ekm, metrics
from ekmedoids.ekm import estimate_solver_bytes
from ekmedoids.metrics import evaluate_batch

from conftest import CountingCache
from generator_reference import conv, cross_join, merge


def cache_for(ds, name="sqeuclidean"):
    return distance_cache(ds, get_metric(name), 2**31)


def solve_by_fused_merge(ds, k, cache):
    """List-based fused reference built from the generator's operators.

    Each cross-join scores its size-k unions in colex order into a
    strict-< incumbent (so a tie keeps the earlier configuration) and
    keeps only the smaller unions.  Returns (objective, medoids,
    evaluated count, retained level store).
    """
    best_val, best_cfg, evaluated = math.inf, None, 0

    def join(l1, l2):
        nonlocal best_val, best_cfg, evaluated
        unions = cross_join(l1, l2)
        complete = [u for u in unions if len(u) == k]
        if complete:
            values = evaluate_batch(ds, np.array(complete, dtype=np.int64), cache)
            for cfg, val in zip(complete, values):
                evaluated += 1
                if val < best_val:
                    best_val, best_cfg = float(val), cfg
        return [u for u in unions if len(u) < k]

    acc = merge([], k)
    for p in range(ds.n):
        acc = conv(join, merge([p], k), acc, k)[:k]
    return best_val, best_cfg, evaluated, acc


def test_merge_eval_drains_complete_level(toy):
    cache = cache_for(toy)
    best_val, best_cfg, evaluated, acc = solve_by_fused_merge(toy, 2, cache)
    # retained store holds sizes 0..K-1 only, with binomial level sizes
    assert len(acc) == 2
    assert [len(lvl) for lvl in acc] == [1, 5]
    assert all(len(cfg) < 2 for lvl in acc for cfg in lvl)
    assert evaluated == math.comb(5, 2)
    assert best_cfg == (1, 3)
    assert best_val == 3.0


def test_merge_eval_matches_solver_on_random_instances():
    # half synthetic mixtures, half integer grids with many exact ties
    rng = np.random.default_rng(77)
    for i in range(20):
        n = int(rng.integers(5, 13))
        k = int(rng.integers(1, 5))
        if i % 2:
            ds = Dataset(points=rng.integers(0, 3, size=(n, 2)).astype(float))
        else:
            ds = synthetic(n, 2, min(k, n), int(rng.integers(2**32)))
        cache = cache_for(ds)
        best_val, best_cfg, evaluated, acc = solve_by_fused_merge(ds, k, cache)
        sol = solve_ekm(ds, SolverParams(k=k), cache=cache)
        assert best_val.hex() == sol.objective.hex()
        assert best_cfg == tuple(sol.medoid_indices)
        assert evaluated == sol.evaluated_configurations
        assert [len(lvl) for lvl in acc] == [math.comb(n, j) for j in range(k)]


def test_solve_toy(toy):
    sol = solve_ekm(toy, SolverParams(k=2))
    assert sol.medoid_indices.tolist() == [1, 3]
    assert sol.objective == 3.0
    assert sol.assignment.tolist() == [0, 0, 0, 1, 1]
    assert sol.evaluated_configurations == 10


def test_solve_tie_breaks_to_minimal_colex(toy):
    # {1,3} and {1,4} both cost 3; colex rank 4 < 7 decides
    cache = cache_for(toy)
    assert evaluate_objective(toy, [1, 4], cache) == 3.0
    sol = solve_ekm(toy, SolverParams(k=2), cache=cache)
    assert sol.medoid_indices.tolist() == [1, 3]


def test_solve_k_equals_n():
    ds = synthetic(7, 2, 2, seed=4)
    sol = solve_ekm(ds, SolverParams(k=7))
    assert sol.objective == 0.0
    assert sol.medoid_indices.tolist() == list(range(7))


def test_solve_k_one(toy):
    sol = solve_ekm(toy, SolverParams(k=1))
    assert sol.medoid_indices.tolist() == [2]
    assert sol.evaluated_configurations == 5


def test_solution_invariants_hold_exactly():
    ds = synthetic(24, 3, 3, seed=21)
    cache = cache_for(ds)
    sol = solve_ekm(ds, SolverParams(k=3), cache=cache)
    assert sol.objective == evaluate_objective(ds, sol.medoid_indices, cache)
    assert np.array_equal(sol.assignment, assign(ds, sol.medoid_indices, cache))
    assert sol.wall_time_seconds > 0.0


def test_frozen_oracle_instances():
    # expected values computed once by the independent oracle, then frozen
    ds = synthetic(20, 2, 3, 123)
    sol = solve_ekm(ds, SolverParams(k=3))
    assert sol.medoid_indices.tolist() == [1, 9, 11]
    assert sol.objective == pytest.approx(38.94505750062864, rel=1e-12)
    assert sol.evaluated_configurations == 1140

    ds = synthetic(12, 1, 2, 5)
    sol = solve_ekm(ds, SolverParams(k=2, metric="manhattan"))
    assert sol.medoid_indices.tolist() == [5, 6]
    assert sol.objective == pytest.approx(4.9291345181395245, rel=1e-12)

    ds = synthetic(16, 3, 2, 99)
    sol = solve_ekm(ds, SolverParams(k=4, metric="euclidean"))
    assert sol.medoid_indices.tolist() == [5, 10, 13, 14]
    assert sol.objective == pytest.approx(13.664763564353969, rel=1e-12)


def test_counting_and_level_sizes():
    ds = synthetic(12, 2, 3, seed=8)
    sol = solve_ekm(ds, SolverParams(k=3), record_level_sizes=True)
    assert sol.evaluated_configurations == math.comb(12, 3)
    # after step n the retained store holds exactly C(n, j) partials
    for step, counts in enumerate(sol.level_sizes):
        n_seen = step + 1
        assert counts == [math.comb(n_seen, j) for j in range(3)]


@pytest.mark.parametrize("n, k", [(1, 1), (6, 4), (12, 5), (40, 4)])
@pytest.mark.parametrize("chunk", [8, 1 << 16], ids=["one-step-runs", "long-runs"])
def test_level_stores_are_the_subsets_in_colex_order(monkeypatch, n, k, chunk):
    # each level j holds every size-j subset of range(n) once, in colex
    # order, whether its rows are filled one step at a time or many
    monkeypatch.setattr(ekm, "_CHUNK_ELEMS", chunk)
    log = []
    levels = ekm._levels(n, k, log)
    for j, level in enumerate(levels):
        want = sorted(itertools.combinations(range(n), j), key=lambda c: c[::-1])
        assert level.tolist() == [list(c) for c in want]
    assert log == [[math.comb(p + 1, j) for j in range(k)] for p in range(n)]


def test_determinism():
    ds = synthetic(15, 3, 2, seed=31)
    a = solve_ekm(ds, SolverParams(k=2))
    b = solve_ekm(ds, SolverParams(k=2))
    assert a.objective == b.objective
    assert np.array_equal(a.medoid_indices, b.medoid_indices)
    assert np.array_equal(a.assignment, b.assignment)


def test_monotone_in_k():
    ds = synthetic(14, 2, 3, seed=2)
    cache = cache_for(ds)
    objectives = [
        solve_ekm(ds, SolverParams(k=k), cache=cache).objective for k in range(1, 6)
    ]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_validation_errors():
    ds = synthetic(5, 1, 1, seed=0)
    with pytest.raises(InvalidArguments):
        solve_ekm(ds, SolverParams(k=0))
    with pytest.raises(InvalidArguments):
        solve_ekm(ds, SolverParams(k=6))
    empty = Dataset(points=np.empty((0, 2)))
    with pytest.raises(EmptyDataset):
        solve_ekm(empty, SolverParams(k=1))


def test_rank_overflow_refused():
    ds = synthetic(1000, 1, 2, seed=0)
    with pytest.raises(RankOverflow):
        solve_ekm(ds, SolverParams(k=31))  # C(1000, 31) >= 2^63


def test_memory_estimate_refusal():
    ds = synthetic(100, 2, 3, seed=0)
    with pytest.raises(InstanceTooLarge) as exc:
        solve_ekm(ds, SolverParams(k=3, memory_budget_bytes=10_000))
    assert exc.value.estimate == estimate_solver_bytes(100, 3)
    assert exc.value.estimate > 10_000


def test_memory_estimate_counts_transpose_only_for_k_above_one():
    n = 4000
    assert estimate_solver_bytes(n, 1) < 8 * n * n
    assert estimate_solver_bytes(n, 2) >= 8 * n * n + 8 * math.comb(n, 1)


def test_k1_memory_estimate_bounds_the_solve():
    # K = 1 holds one `evaluate_batch` chunk of distance rows per thread,
    # plus one for a metric that does not declare itself symmetric, the N
    # candidates and their N objectives, with a prebuilt matrix (not its
    # own) and without one (it then builds no matrix)
    n = 4000
    ds = synthetic(n, 2, 1, seed=0)
    for cache in (cache_for(ds), None):
        tracemalloc.start()
        try:
            solve_ekm(ds, SolverParams(k=1), cache=cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate_solver_bytes(n, 1) + 16 * 1024


def test_k1_memory_does_not_grow_with_the_cpu_count(monkeypatch):
    # on eight CPUs the on-the-fly chunks still run on at most three
    # threads: the solve stays within its estimate and the oracle, like
    # the solver, within 1 % of the matrix it does not build
    monkeypatch.setattr(metrics, "_THREADS", 8)
    n = 4000
    ds = synthetic(n, 2, 1, seed=0)
    peaks = []
    for solve in (solve_ekm, solve_exhaustive):
        tracemalloc.start()
        try:
            solve(ds, SolverParams(k=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= estimate_solver_bytes(n, 1) + 16 * 1024
    assert peaks[1] < 8 * n * n // 100


@pytest.mark.parametrize(
    "n, k, chunk",
    [(800, 2, None), (50, 3, None), (12, 5, None), (40, 4, None), (800, 2, 1 << 12)],
    ids=["n800-k2", "n50-k3", "n12-k5", "n40-k4", "build-bound"],
)
def test_memory_estimate_bounds_a_solve_that_builds_its_matrix(monkeypatch, n, k, chunk):
    # with no cache passed, a K >= 2 solve builds its matrix, a block in
    # flight on each build thread, then scores it: numpy buffers the
    # broadcast minimum, and the round plan is alive throughout.  Small
    # scoring blocks leave the build's blocks, ten of them on two
    # threads, to set the peak
    monkeypatch.setattr(metrics, "_THREADS", 2)
    if chunk:
        monkeypatch.setattr(ekm, "_CHUNK_ELEMS", chunk)
        monkeypatch.setattr(metrics, "_BUILD_ELEMS", 1 << 16)
    ds = synthetic(n, 2, k, seed=0)
    tracemalloc.start()
    try:
        solve_ekm(ds, SolverParams(k=k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate_solver_bytes(n, k) + 16 * 1024


@pytest.mark.parametrize("budget", [2**31, 0], ids=["precomputed", "on-the-fly"])
def test_k1_scores_through_evaluate_batch(budget):
    # chunks of at least 8 single-point sets, then one verify and one
    # assign: an on-the-fly cache computes 8 medoids per `pairwise`
    n = 3000
    ds = synthetic(n, 2, 1, seed=5)
    base = distance_cache(ds, get_metric("sqeuclidean"), budget)
    cache = CountingCache(ds, base.metric, base.mode, base.matrix)
    sol = solve_ekm(ds, SolverParams(k=1), cache=cache)
    assert cache.calls <= -(-n // 8) + 2
    assert sol.evaluated_configurations == n
    want = solve_exhaustive(ds, SolverParams(k=1), cache=base)
    assert sol.objective.hex() == want.objective.hex()
    assert sol.medoid_indices.tolist() == want.medoid_indices.tolist()


def test_prebuilt_matrix_is_not_copied():
    # scoring reads a precomputed cache's matrix in place: beyond the
    # planned scratch the solve allocates far less than one N x N matrix
    n, k = 800, 2
    ds = synthetic(n, 2, 2, seed=0)
    cache = cache_for(ds)
    tracemalloc.start()
    try:
        solve_ekm(ds, SolverParams(k=k), cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * sum(ekm._scratch(n, k)) < 4 * n * n


@pytest.mark.parametrize(
    "chunk, smallest, largest",
    [(1, 1, 1), (1 << 62, None, None), (40, 2, 6)],
    ids=["one-config-blocks", "one-batch", "small-groups"],
)
def test_ties_across_scoring_blocks(monkeypatch, chunk, smallest, largest):
    # integer-grid points with many duplicates make many exact ties.  With
    # point rows repeated 2-3 times per 16-float buffer: groups of one
    # partial with tiles of one point; one group for the whole store, in
    # tiles of several points; groups of 2-6 partials, tiles of 3-8 rows,
    # that split one step's partials and span steps
    monkeypatch.setattr(ekm, "_CHUNK_ELEMS", chunk)
    monkeypatch.setattr(ekm, "_BUFSIZE", 16)
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(5, 14))
        ds = Dataset(points=rng.integers(0, 3, size=(n, 2)).astype(float))
        cache = cache_for(ds)
        for k in range(1, 5):
            if k > 1:
                g = ekm._shape(n, k)[0]
                whole = math.comb(n - 1, k - 1)
                assert g == whole if smallest is None else smallest <= g <= min(largest, whole)
            a = solve_ekm(ds, SolverParams(k=k), cache=cache)
            b = solve_exhaustive(ds, SolverParams(k=k), cache=cache)
            assert a.objective.hex() == b.objective.hex()
            assert a.medoid_indices.tolist() == b.medoid_indices.tolist()
            assert a.evaluated_configurations == math.comb(n, k)


@pytest.mark.parametrize(
    "chunk, bufsize",
    [(3 * 9, 16), (40 * 9, 16), (1 << 62, 1024)],
    ids=["groups-split-steps", "repeated-rows", "one-group"],
)
def test_ties_across_block_shapes_k2_to_k5(monkeypatch, chunk, bufsize):
    # at N = 9, with point rows repeated twice per 16-float buffer: groups
    # of 2 partials that start and end inside a step's partials (K >= 3)
    # and span several steps; groups of up to 40 whose tiles take several
    # points; one group for everything, each point's row repeated 103 times
    monkeypatch.setattr(ekm, "_CHUNK_ELEMS", chunk)
    monkeypatch.setattr(ekm, "_BUFSIZE", bufsize)
    rng = np.random.default_rng(13)
    for _ in range(6):
        ds = Dataset(points=rng.integers(0, 3, size=(9, 2)).astype(float))
        cache = cache_for(ds)
        for k in range(2, 6):
            a = solve_ekm(ds, SolverParams(k=k), cache=cache)
            b = solve_exhaustive(ds, SolverParams(k=k), cache=cache)
            assert a.objective.hex() == b.objective.hex()
            assert a.medoid_indices.tolist() == b.medoid_indices.tolist()
            assert a.evaluated_configurations == math.comb(9, k)


def test_all_zero_distances_keep_the_oracle_bits():
    # every objective is a sum of zeros; the zero-led sums must keep its sign
    ds = Dataset(points=np.zeros((7, 2)))
    cache = cache_for(ds)
    for k in range(2, 5):
        a = solve_ekm(ds, SolverParams(k=k), cache=cache)
        b = solve_exhaustive(ds, SolverParams(k=k), cache=cache)
        assert a.objective.hex() == b.objective.hex() == (0.0).hex()
        assert a.medoid_indices.tolist() == b.medoid_indices.tolist() == list(range(k))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 50, 127, 128, 129, 300, 1600, 8191, 8192, 8193, 20000])
def test_zero_led_reduceat_is_the_row_sum(n):
    # scoring sums each row as `add.reduceat` over the row led by a 0.0,
    # into a slice of a larger values array, under the solver's buffer
    # size: the bits must be those of `add.reduce` over the row alone
    rng = np.random.default_rng(n)
    rows = rng.random((16, n)) * 10.0 ** rng.integers(-3, 7, size=(16, 1))
    led = np.zeros((16, n + 1))
    led[:, 1:] = rows
    values = np.full((3, 20), np.nan)
    old = np.setbufsize(ekm._BUFSIZE)
    try:
        np.add.reduceat(led.ravel(), np.arange(0, 16 * (n + 1), n + 1), out=values[1, 2:18])
    finally:
        np.setbufsize(old)
    assert values[1, 2:18].tobytes() == np.add.reduce(rows, axis=1).tobytes()


@pytest.mark.parametrize("n", [10, 50, 129, 300])
def test_zero_led_row_sums_match_evaluate_batch(n):
    # the solver's objectives, one zero-led row-min per pair summed by
    # `add.reduceat`, against `evaluate_batch` on the same sets
    ds = synthetic(n, 2, 2, seed=n)
    cache = cache_for(ds)
    dt = cache.matrix
    pairs = np.array([(a, q) for q in range(n) for a in range(q)][:40], dtype=np.int64)
    led = np.zeros((len(pairs), n + 1))
    led[:, 1:] = np.minimum(dt[pairs[:, 0]], dt[pairs[:, 1]])
    got = np.add.reduceat(led.ravel(), np.arange(0, led.size, n + 1))
    assert got.tobytes() == evaluate_batch(ds, pairs, cache).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 16), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_matches_oracle(n, k, seed):
    ds = synthetic(n, 2, min(k, n), seed)
    cache = cache_for(ds)
    a = solve_ekm(ds, SolverParams(k=k), cache=cache)
    b = solve_exhaustive(ds, SolverParams(k=k), cache=cache)
    assert a.objective == b.objective
    assert np.array_equal(a.medoid_indices, b.medoid_indices)
