import numpy as np
import pytest

from ekmedoids import (
    BaselineParams,
    EmptyDataset,
    InvalidArguments,
    SolverParams,
    clarans,
    distance_cache,
    evaluate_objective,
    fasterpam,
    get_metric,
    pam,
    solve_ekm,
    synthetic,
)
from ekmedoids.bench import COMPARE_ALGORITHMS, run_algorithm
from ekmedoids.dataset import Dataset

ALL = (pam, fasterpam, clarans)


def test_params_defaults_and_validation():
    p = BaselineParams()
    assert (p.seed, p.max_iter, p.clarans_numlocal) == (0, 100, 2)
    # the published CLARANS default: max(250, 1.25% of K*(N-K))
    assert p.maxneighbor(100, 2) == 250
    assert p.maxneighbor(10000, 3) == 375
    with pytest.raises(InvalidArguments):
        BaselineParams(max_iter=0)
    with pytest.raises(InvalidArguments):
        BaselineParams(clarans_numlocal=0)
    with pytest.raises(InvalidArguments):
        BaselineParams(clarans_maxneighbor=0)
    for bad in ({"max_iter": 2.5}, {"clarans_numlocal": 2.5},
                {"clarans_maxneighbor": 2.5}, {"seed": 1.5}, {"seed": -1}):
        with pytest.raises(InvalidArguments):
            BaselineParams(**bad)


@pytest.mark.parametrize("algo", ALL)
def test_k_equals_n_objective_zero(algo):
    ds = synthetic(6, 2, 2, seed=3)
    sol = algo(ds, 6)
    assert sol.objective == 0.0
    assert sol.medoid_indices.tolist() == list(range(6))


@pytest.mark.parametrize("name", COMPARE_ALGORITHMS)
def test_argument_validation(name):
    # every solver, exact or approximate, refuses the same instances
    ds = synthetic(5, 1, 1, seed=0)
    for k in (0, 6, 2.7, "2"):
        with pytest.raises(InvalidArguments):
            run_algorithm(name, ds, k)
    with pytest.raises(EmptyDataset):
        run_algorithm(name, Dataset(points=np.empty((0, 1))), 1)


@pytest.mark.parametrize("name", COMPARE_ALGORITHMS)
def test_cache_of_another_dataset_refused(name):
    # a cache of 14 points or of 10 other points, in either mode, would
    # score the wrong distances; equal points in a copy are the same data
    ds = synthetic(10, 2, 2, seed=1)
    metric = get_metric("sqeuclidean")
    for k in (1, 2):
        for other in (synthetic(14, 2, 2, seed=1), synthetic(10, 2, 2, seed=2)):
            for budget in (2**31, 0):
                with pytest.raises(InvalidArguments):
                    run_algorithm(name, ds, k, cache=distance_cache(other, metric, budget))
        twin = distance_cache(Dataset(points=ds.points.copy()), metric)
        want = run_algorithm(name, ds, k)
        got = run_algorithm(name, ds, k, cache=twin)
        assert got.objective == want.objective
        assert got.medoid_indices.tolist() == want.medoid_indices.tolist()


def test_pam_toy_reaches_optimum(toy):
    sol = pam(toy, 2)
    assert sol.medoid_indices.tolist() == [1, 3]
    assert sol.objective == 3.0


def test_pam_is_deterministic():
    ds = synthetic(40, 3, 4, seed=14)
    a = pam(ds, 4)
    b = pam(ds, 4)
    assert a.objective == b.objective
    assert np.array_equal(a.medoid_indices, b.medoid_indices)
    assert np.array_equal(a.assignment, b.assignment)


def test_clarans_toy_with_enough_samples(toy):
    # C(5,2) = 10 medoid sets; hundreds of neighbor samples explore them all
    sol = clarans(toy, 2, BaselineParams(seed=3))
    assert sol.objective == 3.0


@pytest.mark.parametrize("algo", (fasterpam, clarans))
def test_seeded_algorithms_reproduce(algo):
    ds = synthetic(35, 2, 3, seed=23)
    a = algo(ds, 3, BaselineParams(seed=9))
    b = algo(ds, 3, BaselineParams(seed=9))
    assert a.objective == b.objective
    assert np.array_equal(a.medoid_indices, b.medoid_indices)


@pytest.mark.parametrize("algo", ALL)
def test_never_beats_exact(algo):
    rng = np.random.default_rng(71)
    for _ in range(6):
        n = int(rng.integers(10, 30))
        k = int(rng.integers(1, 5))
        ds = synthetic(n, 2, min(k, n), int(rng.integers(2**32)))
        cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
        exact = solve_ekm(ds, SolverParams(k=k), cache=cache)
        approx = algo(ds, k, BaselineParams(seed=int(rng.integers(2**32))), cache=cache)
        assert approx.objective >= exact.objective


@pytest.mark.parametrize("algo", ALL)
def test_solution_invariants(algo):
    ds = synthetic(25, 3, 3, seed=41)
    cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    sol = algo(ds, 3, BaselineParams(seed=2), cache=cache)
    med = sol.medoid_indices
    assert list(med) == sorted(set(int(i) for i in med))
    assert sol.objective == evaluate_objective(ds, med, cache)
    assert len(sol.assignment) == ds.n
    assert sol.evaluated_configurations > 0


def test_fasterpam_close_to_exact_best_of_seeds():
    # on easy well-separated instances a few restarts find the optimum
    ds = synthetic(40, 2, 3, seed=101)
    cache = distance_cache(ds, get_metric("sqeuclidean"), 2**31)
    exact = solve_ekm(ds, SolverParams(k=3), cache=cache)
    best = min(
        fasterpam(ds, 3, BaselineParams(seed=s), cache=cache).objective
        for s in range(10)
    )
    assert best <= 1.01 * exact.objective


def test_baselines_work_with_other_metrics(toy):
    for metric in ("euclidean", "manhattan"):
        sol = pam(toy, 2, metric_name=metric)
        assert sol.objective >= 0.0
        assert len(sol.medoid_indices) == 2
