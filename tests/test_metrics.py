import itertools
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekmedoids import (
    Dataset,
    DistanceCache,
    DistanceOverflow,
    InvalidArguments,
    Metric,
    ShapeError,
    SolverParams,
    UnknownMetric,
    assign,
    distance_cache,
    evaluate_objective,
    get_metric,
    list_metrics,
    pam,
    register_metric,
    solve_ekm,
    solve_exhaustive,
    synthetic,
)
from ekmedoids import metrics
from ekmedoids.metrics import evaluate_batch

from conftest import CountingCache


def cache_for(ds, name="sqeuclidean", budget=2**31):
    return distance_cache(ds, get_metric(name), budget)


sq_euclidean = get_metric("sqeuclidean")


def test_sq_euclidean_examples():
    assert sq_euclidean([0.0], [3.0]) == 9.0
    assert sq_euclidean([1.0, 2.0], [4.0, 6.0]) == 25.0
    x = np.array([2.5, -1.0, 7.0])
    assert sq_euclidean(x, x) == 0.0


def test_sq_euclidean_dimension_mismatch():
    with pytest.raises(ShapeError):
        sq_euclidean([1.0, 2.0], [1.0])


def test_registry_names_and_unknown():
    assert set(list_metrics()) >= {"sqeuclidean", "euclidean", "manhattan"}
    with pytest.raises(UnknownMetric) as exc:
        get_metric("cosine")
    # the error names what is actually registered
    assert "sqeuclidean" in str(exc.value)


def test_register_custom_metric():
    register_metric("l1_halved", lambda x, y: 0.5 * np.abs(np.subtract(x, y)).sum())
    m = get_metric("l1_halved")
    assert m([0.0], [4.0]) == 2.0
    assert not m.symmetric  # a registered metric is never assumed symmetric


def test_known_metric_values():
    e = get_metric("euclidean")
    m = get_metric("manhattan")
    assert e([1.0, 2.0], [4.0, 6.0]) == 5.0
    assert m([1.0, 2.0], [4.0, 6.0]) == 7.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5),
    st.sampled_from(["sqeuclidean", "euclidean", "manhattan"]),
)
def test_metric_axioms(xs, ys, name):
    # d(x, x) = 0; d(x, y) >= 0 and finite
    d = min(len(xs), len(ys))
    x, y = xs[:d], ys[:d]
    m = get_metric(name)
    assert m(x, x) == 0.0
    v = m(x, y)
    assert v >= 0.0 and np.isfinite(v)


def test_cache_precomputed_small():
    ds = synthetic(3, 2, 1, seed=0)
    c = cache_for(ds, budget=2**30)
    assert c.mode == "precomputed"
    assert c.matrix.shape == (3, 3)
    assert np.all(np.diag(c.matrix) == 0.0)
    assert np.array_equal(c.matrix, c.matrix.T)  # sq-euclidean is symmetric


def test_cache_threshold():
    # 8 * 100000^2 = 8e10 bytes exceeds a 2 GiB budget
    pts = np.zeros((100000, 1))
    pts[:, 0] = np.arange(100000)
    ds = Dataset(points=pts)
    c = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    assert c.mode == "on-the-fly"
    assert c.matrix is None


BUILTIN_METRICS = ("sqeuclidean", "euclidean", "manhattan")


def test_cache_lookup_equals_direct_metric():
    # "asymmetric" (see conftest) pins the orientation: row j of columns
    # holds d(x_i, x_j), point first
    ds = synthetic(40, 3, 2, seed=3)
    for name in BUILTIN_METRICS + ("asymmetric",):
        m = get_metric(name)
        pre = distance_cache(ds, m, 2**31)
        fly = distance_cache(ds, m, 0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            i, j = rng.integers(0, ds.n, size=2)
            direct = m(ds.points[i], ds.points[j])
            assert pre.columns([j])[0, i] == direct
            assert fly.columns([j])[0, i] == direct


def test_only_builtin_metrics_declare_symmetry():
    assert all(get_metric(name).symmetric for name in BUILTIN_METRICS)
    assert not get_metric("asymmetric").symmetric


# rows per build block, fixed by setting the block size to STEP * N floats
STEP = 8


@pytest.mark.parametrize("d", [1, 2, 48])
@pytest.mark.parametrize("n", [1, 2, STEP - 1, STEP, STEP + 1, 3 * STEP + 7])
@pytest.mark.parametrize("name", BUILTIN_METRICS)
def test_half_triangle_build_equals_full_build(monkeypatch, name, n, d):
    # a symmetric metric computes the upper triangle and mirrors it; the
    # bits must be those of the full points-first build, transposed
    ds = Dataset(points=np.random.default_rng(n * d).normal(size=(n, d)) * 1e3)
    m = get_metric(name)
    want = np.ascontiguousarray(m.pairwise(ds.points, ds.points).T)
    monkeypatch.setattr(metrics, "_BUILD_ELEMS", STEP * n)
    got = distance_cache(ds, m, 2**31).matrix
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", BUILTIN_METRICS)
def test_numpy_kernel_has_the_bits_of_cdist(name):
    # the numpy kernel sums each distance's terms in `cdist`'s order: the
    # same bits from underflow to overflow, with signed zeros, and so
    # d(x, y) == d(y, x) and d(x, x) == 0 bit for bit
    builtin = get_metric(name).pairwise
    cdist = builtin.kernel(metrics._NUMPY_PAIR_DIMS + 1)
    rng = np.random.default_rng(14)
    for scale in 10.0 ** np.arange(-300, 301, 50):
        for d in (1, 2, 3, 8, 33, 48):
            for n in (1, 2, 17, 100):
                X = rng.normal(size=(n, d)) * scale
                X[rng.random(X.shape) < 0.1] = 0.0
                X[rng.random(X.shape) < 0.1] = -0.0
                Y = np.concatenate([rng.normal(size=(3, d)) * scale, -X])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = builtin.numpy(X, Y)
                    assert got.tobytes() == cdist(X, Y).tobytes()
                    assert builtin.numpy(Y, X).T.tobytes() == got.tobytes()
                    assert builtin.numpy(X, X).diagonal().tobytes() == bytes(8 * n)


@pytest.mark.parametrize("name", BUILTIN_METRICS)
def test_kernel_choice_never_changes_a_solution(monkeypatch, name):
    # numpy computes these instances' distances, or `cdist` with the
    # threshold at 0: the same objective bits, medoids and labels
    ds = synthetic(90, 3, 3, seed=14)
    m = get_metric(name)
    solutions = []
    for pair_dims in (metrics._NUMPY_PAIR_DIMS, 0):
        monkeypatch.setattr(metrics, "_NUMPY_PAIR_DIMS", pair_dims)
        assert (metrics._kernel(m, ds.n, ds.d) == m.pairwise.numpy) == (pair_dims > 0)
        solutions.append([
            (s.objective.hex(), s.medoid_indices.tolist(), s.assignment.tolist())
            for s in (solve_ekm(ds, SolverParams(k=k, metric=name)) for k in (1, 2, 3))
        ])
    assert solutions[0] == solutions[1]


def test_kernel_is_chosen_per_instance():
    # an on-the-fly cache computes small chunks of rows, but the kernel is
    # the instance's: over the threshold N * N * d stays on `cdist`
    m = get_metric("sqeuclidean")
    small = synthetic(1024, 1, 2, seed=1)
    large = synthetic(1025, 1, 2, seed=1)
    assert small.n ** 2 <= metrics._NUMPY_PAIR_DIMS < large.n ** 2
    assert distance_cache(small, m, 0)._pairwise == m.pairwise.numpy
    assert distance_cache(large, m, 0)._pairwise != m.pairwise.numpy
    # called directly, `pairwise` chooses by the size of the call: numpy
    # here, with the bits of the cache's `cdist` rows
    rows = m.pairwise(large.points[:8], large.points)
    assert rows.tobytes() == distance_cache(large, m, 0).columns(range(8)).tobytes()


def _counting_metric(symmetric: bool) -> tuple[Metric, list]:
    pairs = []

    def pairwise(X, Y):
        pairs.append(len(X) * len(Y))
        return get_metric("manhattan").pairwise(X, Y)

    return Metric("counting", pairwise, symmetric=symmetric), pairs


@pytest.mark.parametrize("block_elems", [STEP * 100, metrics._BUILD_ELEMS])
def test_symmetric_build_computes_each_distance_once(monkeypatch, block_elems):
    # a count of evaluated pairs, not a timing: the symmetric build covers
    # the upper triangle plus the lower halves of its diagonal blocks
    monkeypatch.setattr(metrics, "_BUILD_ELEMS", block_elems)
    ds = synthetic(100, 3, 2, seed=6)
    n, step = ds.n, max(1, block_elems // ds.n)
    sym, sym_pairs = _counting_metric(symmetric=True)
    full, full_pairs = _counting_metric(symmetric=False)
    got = distance_cache(ds, sym, 2**31).matrix
    assert got.tobytes() == distance_cache(ds, full, 2**31).matrix.tobytes()
    assert sum(sym_pairs) <= n * (n + step) // 2
    assert sum(full_pairs) == n * n


def test_cache_modes_agree_bit_exactly():
    # on-the-fly rows, single or chunked, carry the precomputed rows' bits
    ds = synthetic(25, 4, 3, seed=7)
    chunks = [[j] for j in range(ds.n)] + [[0, 5, 24], list(range(ds.n))[::-1]]
    for name in BUILTIN_METRICS + ("asymmetric",):
        pre = cache_for(ds, name, 2**31)
        fly = cache_for(ds, name, 0)
        for idx in chunks:
            rows = fly.columns(idx)
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert rows.tobytes() == pre.columns(idx).tobytes()


@pytest.mark.parametrize(
    "mode, matrix, error",
    [
        ("lazy", None, InvalidArguments),
        ("precomputed", None, InvalidArguments),
        ("precomputed", np.zeros((5, 4)), ShapeError),
    ],
    ids=["unknown-mode", "no-matrix", "not-n-by-n"],
)
def test_cache_refuses_malformed_fields(mode, matrix, error):
    ds = synthetic(5, 2, 1, seed=0)
    with pytest.raises(error):
        DistanceCache(ds, sq_euclidean, mode, matrix)


def test_evaluation_refuses_cache_of_another_dataset():
    ds = synthetic(10, 2, 2, seed=1)
    cache = cache_for(synthetic(14, 2, 2, seed=1))
    with pytest.raises(InvalidArguments):
        evaluate_batch(ds, [[0, 1]], cache)
    with pytest.raises(InvalidArguments):
        evaluate_objective(ds, [0, 1], cache)
    with pytest.raises(InvalidArguments):
        assign(ds, [0, 1], cache)


def test_evaluate_objective_all_points_zero():
    ds = synthetic(12, 2, 3, seed=1)
    c = cache_for(ds)
    assert evaluate_objective(ds, np.arange(12), c) == 0.0


def test_evaluate_objective_toy(toy):
    c = cache_for(toy)
    # hand sum: 1 + 0 + 1 + 0 + 1
    assert evaluate_objective(toy, [1, 3], c) == 3.0


def test_evaluate_objective_validation(toy):
    c = cache_for(toy)
    with pytest.raises(InvalidArguments):
        evaluate_objective(toy, [], c)
    with pytest.raises(IndexError):
        evaluate_objective(toy, [1, 7], c)
    with pytest.raises(InvalidArguments):
        evaluate_objective(toy, [3, 1], c)  # must be sorted unique
    with pytest.raises(InvalidArguments):
        evaluate_batch(toy, np.empty((2, 0), dtype=int), c)


def test_objective_monotone_in_medoid_set():
    ds = synthetic(20, 3, 2, seed=11)
    c = cache_for(ds)
    medoids = [2, 9, 15]
    base = evaluate_objective(ds, medoids, c)
    for extra in range(20):
        if extra in medoids:
            continue
        grown = sorted(medoids + [extra])
        assert evaluate_objective(ds, grown, c) <= base


def test_objective_equals_clusterwise_sum():
    # Eq-of-two-forms: total deviation == sum over clusters of distances
    # to the cluster's medoid
    ds = synthetic(30, 2, 3, seed=5)
    c = cache_for(ds)
    medoids = np.array([3, 11, 22])
    labels = assign(ds, medoids, c)
    m = get_metric("sqeuclidean")
    parts = 0.0
    for pos, med in enumerate(medoids):
        members = np.where(labels == pos)[0]
        parts += sum(m(ds.points[i], ds.points[med]) for i in members)
    assert parts == pytest.approx(evaluate_objective(ds, medoids, c), rel=1e-12)


def test_assign_single_medoid(toy):
    c = cache_for(toy)
    assert assign(toy, [2], c).tolist() == [0] * 5


def test_assign_toy(toy):
    c = cache_for(toy)
    assert assign(toy, [1, 3], c).tolist() == [0, 0, 0, 1, 1]


def test_assign_tie_goes_to_smaller_medoid():
    # point 1 is equidistant from medoids 0 and 2
    ds = Dataset(points=np.array([[0.0], [1.0], [2.0]]))
    c = cache_for(ds)
    assert assign(ds, [0, 2], c).tolist() == [0, 0, 1]


def test_evaluate_batch_matches_objective():
    ds = synthetic(18, 2, 2, seed=13)
    c = cache_for(ds)
    configs = np.array([[0, 1], [3, 9], [10, 17], [2, 5]])
    got = evaluate_batch(ds, configs, c)
    want = [evaluate_objective(ds, cfg, c) for cfg in configs]
    assert got.tolist() == want


@pytest.mark.parametrize("budget", [2**31, 0], ids=["precomputed", "on-the-fly"])
@pytest.mark.parametrize("configs", [[[-1, 0]], [[0, 5]]], ids=["negative", "past-end"])
def test_evaluate_batch_rejects_out_of_range(toy, budget, configs):
    # a negative index must not wrap around to a valid point
    with pytest.raises(IndexError, match=r"out of range \[0, 5\)"):
        evaluate_batch(toy, configs, cache_for(toy, budget=budget))


def test_evaluate_batch_is_chunk_invariant(monkeypatch):
    # the per-config sum must not depend on how configs are chunked
    ds = synthetic(30, 3, 3, seed=2)
    configs = np.array(list(itertools.combinations(range(ds.n), 3)))
    for budget in (2**31, 0):
        cache = cache_for(ds, budget=budget)
        whole = evaluate_batch(ds, configs, cache)
        with monkeypatch.context() as mp:
            # one config per chunk
            mp.setattr(metrics, "_CHUNK_ELEMS", 1)
            mp.setattr(metrics, "_BUFFER_ELEMS", 1)
            mp.setattr(metrics, "_MIN_CHUNK_CONFIGS", 1)
            split = evaluate_batch(ds, configs, cache)
        assert np.array_equal(whole, split)


@pytest.mark.parametrize("budget", [2**31, 0], ids=["precomputed", "on-the-fly"])
@pytest.mark.parametrize("name", ["sqeuclidean", "euclidean", "manhattan", "asymmetric"])
def test_evaluate_batch_bits_match_one_shot_min(name, budget):
    # the chained chunk-wise minimum must give the bits of one (m, K, N)
    # gather reduced by .min(axis=1).sum(axis=1); 1000 configs at N=40 span
    # three chunks, the last one partial
    rng = np.random.default_rng(71)
    ds = Dataset(points=rng.normal(size=(40, 3)) * 1e3)
    cache = cache_for(ds, name, budget)
    for k in range(1, 6):
        configs = np.sort(
            np.array([rng.choice(ds.n, k, replace=False) for _ in range(1000)]), axis=1
        )
        rows = cache.columns(configs.ravel()).reshape(len(configs), k, ds.n)
        want = rows.min(axis=1).sum(axis=1)
        got = evaluate_batch(ds, configs, cache)
        assert got.tobytes() == want.tobytes()


def test_evaluate_batch_scratch_is_bounded():
    # scoring all C(60, 3) configs at once must not gather them all at once
    ds = synthetic(60, 2, 3, seed=4)
    cache = cache_for(ds)
    configs = np.array(list(itertools.combinations(range(ds.n), 3)))
    tracemalloc.start()
    try:
        evaluate_batch(ds, configs, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class _ReadOnlyCache(DistanceCache):
    """A cache whose `columns` hands out arrays that must not be written."""

    def columns(self, indices):
        rows = super().columns(indices)
        rows.flags.writeable = False
        return rows


def test_evaluate_batch_chunks_hold_several_configs():
    # at N = 3000 a chunk of 2^14 floats is 5 rows; it still takes 8
    # configs, so an on-the-fly cache computes 8 medoids per `pairwise`
    ds = synthetic(3000, 2, 3, seed=5)
    cache = CountingCache(ds, get_metric("sqeuclidean"), "on-the-fly")
    configs = np.arange(20).reshape(-1, 1)
    got = evaluate_batch(ds, configs, cache)
    assert cache.calls == 3
    assert np.array_equal(got, cache.columns(configs.ravel()).sum(axis=1))


def test_evaluate_batch_leaves_columns_unwritten():
    # only on-the-fly scoring reads `columns`; a precomputed cache is
    # gathered from its matrix (see the read-only matrix test below)
    ds = synthetic(25, 2, 3, seed=8)
    cache = cache_for(ds)
    frozen = _ReadOnlyCache(ds, cache.metric, "on-the-fly")
    for k in range(1, 5):
        configs = np.array(list(itertools.combinations(range(ds.n), k)))
        assert np.array_equal(
            evaluate_batch(ds, configs, frozen), evaluate_batch(ds, configs, cache)
        )
    want = solve_exhaustive(ds, SolverParams(k=3), cache=cache)
    got = solve_exhaustive(ds, SolverParams(k=3), cache=frozen)
    assert got.objective == want.objective
    assert got.medoid_indices.tolist() == want.medoid_indices.tolist()


@pytest.mark.parametrize("rows", [None, 3], ids=["default-chunk", "3-row-chunk"])
@pytest.mark.parametrize("name", BUILTIN_METRICS)
def test_precomputed_batch_bits_match_on_the_fly(monkeypatch, name, rows):
    # the precomputed path gathers into reused buffers, the on-the-fly path
    # computes fresh rows; 2000 configs are no multiple of either chunk
    rng = np.random.default_rng(83)
    ds = Dataset(points=rng.normal(size=(40, 3)) * 1e3)
    pre, fly = cache_for(ds, name, 2**31), cache_for(ds, name, 0)
    if rows is not None:
        monkeypatch.setattr(metrics, "_BUFFER_ELEMS", rows * ds.n)
        monkeypatch.setattr(metrics, "_MIN_CHUNK_CONFIGS", 1)
    for k in range(1, 5):
        configs = np.sort(
            np.array([rng.choice(ds.n, k, replace=False) for _ in range(2000)]), axis=1
        )
        got = evaluate_batch(ds, configs, pre)
        assert got.tobytes() == evaluate_batch(ds, configs, fly).tobytes()


def test_read_only_matrix_is_never_written():
    ds = synthetic(30, 2, 3, seed=12)
    cache = cache_for(ds)
    cache.matrix.flags.writeable = False
    before = cache.matrix.copy()
    for k in range(1, 5):
        configs = np.array(list(itertools.combinations(range(ds.n), k)))
        evaluate_batch(ds, configs, cache)
    solve_exhaustive(ds, SolverParams(k=3), cache=cache)
    assert np.array_equal(cache.matrix, before)


@pytest.mark.parametrize("bad", [-1, 40], ids=["minus-one", "N"])
@pytest.mark.parametrize("pos", [0, 2], ids=["first-position", "last-position"])
def test_precomputed_gather_never_clips(bad, pos):
    # the gathers take `mode="clip"`, which would turn -1 into 0 and N into
    # N - 1; the range check before them refuses such an index in any
    # chunk, here the last config of a batch of several chunks
    ds = synthetic(40, 2, 3, seed=13)
    cache = cache_for(ds)
    configs = np.array(list(itertools.combinations(range(ds.n), 3)))
    configs[-1, pos] = bad
    with pytest.raises(IndexError, match=r"out of range \[0, 40\)"):
        evaluate_batch(ds, configs, cache)


def test_precomputed_batch_allocates_no_chunk_arrays():
    # 60 chunks: the peak is the two gather buffers and the output; a fresh
    # chunk array (256 KB, as each buffer) would not fit in the 64 KB slack
    ds = synthetic(100, 2, 3, seed=14)
    cache = cache_for(ds)
    step = metrics._BUFFER_ELEMS // ds.n
    configs = np.sort(
        np.random.default_rng(14).integers(0, ds.n, size=(60 * step, 3)), axis=1
    )
    buffers = 2 * step * ds.n * 8
    tracemalloc.start()
    try:
        evaluate_batch(ds, configs, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers + 8 * len(configs) + 64 * 1024


def test_precomputed_batches_reuse_the_gather_buffers():
    # the thread keeps its gather buffers: fresh ones per call faulted
    # their pages in again after each heap trim, once per oracle block
    ds = synthetic(100, 2, 3, seed=14)
    cache = cache_for(ds)
    configs = np.array(list(itertools.combinations(range(ds.n), 3)))[:4096]
    want = evaluate_batch(ds, configs, cache)
    tracemalloc.start()
    try:
        got = evaluate_batch(ds, configs, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 8 * len(configs) + 64 * 1024


# finite points whose squared distances overflow to inf
OVERFLOW_POINTS = [1e200, 2e200, -1e200, 5.0]

# each solver gets a prebuilt cache, precomputed or on the fly by `budget`
SOLVERS = {
    "ekm": lambda ds, budget: solve_ekm(
        ds, SolverParams(k=2), cache=distance_cache(ds, sq_euclidean, budget)
    ),
    "oracle": lambda ds, budget: solve_exhaustive(
        ds, SolverParams(k=2), cache=distance_cache(ds, sq_euclidean, budget)
    ),
    "pam": lambda ds, budget: pam(ds, 2, cache=distance_cache(ds, sq_euclidean, budget)),
}


@pytest.mark.parametrize("budget", [2**31, 0], ids=["precomputed", "on-the-fly"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_overflowing_distances_refused(solver, budget):
    # silently: the kernel's overflow warns no more than `cdist` does
    ds = Dataset(points=np.array(OVERFLOW_POINTS)[:, None])
    with warnings.catch_warnings(), pytest.raises(DistanceOverflow):
        warnings.simplefilter("error")
        SOLVERS[solver](ds, budget)


@pytest.mark.parametrize("budget", [2**31, 0], ids=["precomputed", "on-the-fly"])
def test_overflowing_objective_refused(budget):
    # every distance is finite (1.44e308), but ten of them sum past the range
    ds = Dataset(points=np.array([0.0, 1.2e154] * 10)[:, None])
    assert np.isfinite(sq_euclidean([0.0], [1.2e154]))
    with pytest.raises(DistanceOverflow):
        SOLVERS["ekm"](ds, budget)


def test_large_finite_distances_accepted():
    ds = Dataset(points=np.array([0.0, 1e150, 3e150, 7e150])[:, None])
    a = solve_ekm(ds, SolverParams(k=2))
    b = solve_exhaustive(ds, SolverParams(k=2))
    assert np.isfinite(a.objective)
    assert a.objective == b.objective
    assert a.medoid_indices.tolist() == b.medoid_indices.tolist()


# --- the parallel row-block map ---------------------------------------------


def _matrix_and_batches(ds, name):
    """A precomputed matrix, and `evaluate_batch` over K = 1 and K = 3 on
    an on-the-fly and a precomputed cache, all as bytes."""
    pre = cache_for(ds, name, 2**31)
    fly = cache_for(ds, name, 0)
    one = np.arange(ds.n)[:, None]
    three = np.array(list(itertools.combinations(range(ds.n), 3)))[::7]
    got = [pre.matrix.tobytes()]
    for cache in (fly, pre):
        got += [evaluate_batch(ds, c, cache).tobytes() for c in (one, three)]
    return got


@pytest.mark.parametrize("name", BUILTIN_METRICS)
def test_threads_do_not_change_bits(monkeypatch, name):
    # 8-row build blocks and 16-config chunks make each map many blocks
    monkeypatch.setattr(metrics, "_BUILD_ELEMS", 8 * 61)
    monkeypatch.setattr(metrics, "_CHUNK_ELEMS", 16 * 61)
    ds = Dataset(points=np.random.default_rng(61).normal(size=(61, 5)) * 1e3)
    monkeypatch.setattr(metrics, "_THREADS", 1)
    serial = _matrix_and_batches(ds, name)
    monkeypatch.setattr(metrics, "_THREADS", 3)
    assert _matrix_and_batches(ds, name) == serial


def test_builtin_metrics_compute_on_several_threads(monkeypatch):
    # the first `meet` kernel calls of a map wait for each other, so that
    # many threads must each take a block.  On-the-fly chunks run on three
    # threads even when eight CPUs are there
    threads = set()
    kernel = metrics._kernel

    def meeting(meet):
        threads.clear()
        order = itertools.count()
        barrier = threading.Barrier(meet, timeout=10)

        def meeting_kernel(*instance):
            pairwise = kernel(*instance)

            def meeting_pairwise(X, Y):
                threads.add(threading.get_ident())
                if next(order) < meet:
                    barrier.wait()
                return pairwise(X, Y)

            return meeting_pairwise

        monkeypatch.setattr(metrics, "_kernel", meeting_kernel)

    ds = synthetic(40, 2, 2, seed=9)
    monkeypatch.setattr(metrics, "_BUILD_ELEMS", 4 * ds.n)
    monkeypatch.setattr(metrics, "_CHUNK_ELEMS", 8 * ds.n)
    monkeypatch.setattr(metrics, "_THREADS", 3)
    meeting(3)
    distance_cache(ds, sq_euclidean, 2**31)
    assert len(threads) == 3
    monkeypatch.setattr(metrics, "_THREADS", 8)
    meeting(metrics._FLY_THREADS)
    evaluate_batch(ds, np.arange(200).reshape(-1, 1) % ds.n, cache_for(ds, budget=0))
    assert len(threads) == metrics._FLY_THREADS == 3
    # one block, or two (a build of 21 and 19 rows), run where they are called
    meeting(1)
    evaluate_objective(ds, [3], cache_for(ds, budget=0))
    monkeypatch.setattr(metrics, "_BUILD_ELEMS", 21 * ds.n)
    distance_cache(ds, sq_euclidean, 2**31)
    assert threads == {threading.get_ident()}


def test_failing_late_block_raises_distance_overflow(monkeypatch):
    # the kernel overflows only for the rows of point 57, in the chunk of
    # configs 56 .. 63 (the eighth of 13); the threads are gone afterwards
    ds = Dataset(points=np.random.default_rng(57).normal(size=(100, 2)))
    monkeypatch.setattr(metrics, "_CHUNK_ELEMS", 8 * ds.n)
    kernel = metrics._kernel

    def kernel_57(*instance):
        pairwise = kernel(*instance)

        def pairwise_57(X, Y):
            out = pairwise(X, Y)
            out[(X == ds.points[57]).all(axis=1)] = np.inf
            return out

        return pairwise_57

    monkeypatch.setattr(metrics, "_kernel", kernel_57)
    monkeypatch.setattr(metrics, "_THREADS", 3)
    cache = cache_for(ds, budget=0)
    before = threading.active_count()
    with pytest.raises(DistanceOverflow):
        evaluate_batch(ds, np.arange(ds.n)[:, None], cache)
    assert threading.active_count() == before
    assert np.isfinite(evaluate_batch(ds, np.arange(56)[:, None], cache)).all()


def test_map_raises_the_lowest_failing_block(monkeypatch):
    # block 9 fails first, block 5 later: the error is block 5's, as in a
    # serial run; every earlier block ran, and later ones stop being handed out
    done = []

    def run(lo):
        if lo == 5:
            time.sleep(0.05)
            raise DistanceOverflow("block 5")
        if lo == 9:
            raise DistanceOverflow("block 9")
        done.append(lo)

    before = threading.active_count()
    with pytest.raises(DistanceOverflow, match="block 5"):
        metrics._map_blocks(run, range(40), 3)
    assert threading.active_count() == before
    assert set(range(5)) <= set(done)
    assert max(done) < 20


def test_registered_metric_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(metrics, "_REGISTRY", dict(metrics._REGISTRY))
    monkeypatch.setattr(metrics, "_THREADS", 3)
    threads = set()

    def pairwise(X, Y):
        threads.add(threading.get_ident())
        return sq_euclidean.pairwise(X, Y)

    m = register_metric("recording", pairwise=pairwise)
    ds = synthetic(61, 2, 2, seed=10)
    monkeypatch.setattr(metrics, "_BUILD_ELEMS", 4 * ds.n)
    pre = distance_cache(ds, m, 2**31)
    fly = distance_cache(ds, m, 0)
    configs = np.array(list(itertools.combinations(range(ds.n), 2)))
    assert evaluate_batch(ds, configs, fly).tobytes() == evaluate_batch(ds, configs, pre).tobytes()
    assert threads == {threading.get_ident()}
