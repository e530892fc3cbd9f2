"""Acceptance gates, one test per release criterion.

Run `pytest -v tests/test_acceptance.py` for a per-gate verdict; each test
also prints a one-line summary with the measured numbers.  Gates:

  a1  fused solver == exhaustive oracle on 200 random instances
  a2  fused objective == minimum over the unfused generator's output
  a3  configuration counts and retained level sizes match closed forms
  a4  reference objectives on classic datasets, exact <= every baseline
  a5  log-log runtime slopes near the predicted exponents
  a6  baselines are deterministic per seed and never beat the exact solver
  a7  colex rank/unrank is an order-preserving bijection

a5 is the long one (a few minutes); everything else is seconds.
"""

import itertools
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

from ekmedoids import (
    BaselineParams,
    Dataset,
    SolverParams,
    clarans,
    distance_cache,
    evaluate_batch,
    fasterpam,
    fit_slope,
    get_metric,
    load_csv,
    pam,
    run_scaling,
    solve_ekm,
    solve_exhaustive,
    standardize,
    synthetic,
)
from ekmedoids.bench import ns_per_distance_min

from conftest import instance_corpus
from generator_reference import gen_combs, rank_colex, unrank_colex

_CORPUS = instance_corpus(200)
_EXACT = {}


def _exact(i):
    """Exact solution for corpus instance i, shared between a1 and a6."""
    if i not in _EXACT:
        ds, k = _CORPUS[i]
        _EXACT[i] = solve_ekm(ds, SolverParams(k=k))
    return _EXACT[i]


def test_a1_oracle_equivalence():
    bad = []
    for i, (ds, k) in enumerate(_CORPUS):
        sol = _exact(i)
        ref = solve_exhaustive(ds, SolverParams(k=k))
        same = (sol.objective == ref.objective
                and np.array_equal(sol.medoid_indices, ref.medoid_indices))
        if not same:
            bad.append((i, ds.n, k, sol.objective, ref.objective,
                        sol.medoid_indices.tolist(), ref.medoid_indices.tolist()))
    assert bad == [], f"solver/oracle disagreement on {len(bad)} instances: {bad[:5]}"
    print(f"a1: {len(_CORPUS)} instances, objectives bit-equal, medoid sets identical")


def test_a2_generator_fusion_law():
    rng = np.random.default_rng(2718)
    for trial in range(50):
        n = int(rng.integers(4, 16))
        k = min(int(rng.integers(1, 5)), n)
        ds = synthetic(n, int(rng.integers(1, 4)), k, int(rng.integers(2**63)))
        cache = distance_cache(ds, get_metric("sqeuclidean"))
        level = np.array(gen_combs(n, k)[k], dtype=np.int64)
        unfused_min = float(evaluate_batch(ds, level, cache).min())
        fused = solve_ekm(ds, SolverParams(k=k), cache=cache).objective
        assert unfused_min == fused, (
            f"trial {trial} (n={n}, k={k}): unfused min {unfused_min!r} "
            f"!= fused {fused!r}"
        )
    print("a2: 50 instances, fused objective bit-equal to unfused minimum")


def test_a3_counting_invariants():
    for ds, k in instance_corpus(20, seed=555):
        sol = solve_ekm(ds, SolverParams(k=k))
        assert sol.evaluated_configurations == comb(ds.n, k)
    steps = 0
    for ds, k in instance_corpus(12, seed=556, n_range=(4, 13)):
        sol = solve_ekm(ds, SolverParams(k=k), record_level_sizes=True)
        for seen, sizes in enumerate(sol.level_sizes, start=1):
            assert sizes == [comb(seen, j) for j in range(k)], (
                f"after point {seen - 1} (n={ds.n}, k={k}): retained {sizes}"
            )
            steps += 1
    print(f"a3: evaluated counts C(N,K) on 20 solves; {steps} instrumented "
          f"steps match C(n,j) level sizes")


_DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# expected optimal total deviation at K=3, squared euclidean, and the
# feature-count check guarding against a mangled local CSV
_REFERENCE = {
    "iris": (8.40e1, 150, 4),
    "seeds": (5.98e2, 210, 7),
    "glass": (6.29e2, 214, 9),
    "wine": (2.39e6, 178, 13),
}


def _reference_dataset(name):
    if name in ("iris", "wine"):
        sk = pytest.importorskip("sklearn.datasets")
        raw = {"iris": sk.load_iris, "wine": sk.load_wine}[name]().data
        return Dataset(points=np.asarray(raw, dtype=np.float64), source=name)
    path = _DATA_DIR / f"{name}.csv"
    if not path.exists():
        pytest.skip(f"{path} not present; run scripts/fetch_uci_data.py "
                    f"(needs network access) to create it")
    return load_csv(path)


@pytest.mark.parametrize("name", list(_REFERENCE))
def test_a4_reference_objectives(name):
    expected, n, d = _REFERENCE[name]
    ds = _reference_dataset(name)
    assert (ds.n, ds.d) == (n, d), f"{name}: got shape {(ds.n, ds.d)}"

    t0 = time.perf_counter()
    sol = solve_ekm(ds, SolverParams(k=3))
    elapsed = time.perf_counter() - t0
    mode = "raw"
    rel = abs(sol.objective - expected) / expected
    if rel > 0.005:
        raw_rel = rel
        sol = solve_ekm(standardize(ds), SolverParams(k=3))
        mode = "standardized"
        rel = abs(sol.objective - expected) / expected
        assert rel <= 0.005, (
            f"{name}: expected {expected:g}, got raw rel {raw_rel:.4%} "
            f"and standardized rel {rel:.4%}"
        )
    assert elapsed <= 60.0, f"{name}: exact solve took {elapsed:.1f}s"

    points = ds if mode == "raw" else standardize(ds)
    worse = {}
    for fn in (pam, fasterpam, clarans):
        other = fn(points, 3, BaselineParams(seed=0))
        assert sol.objective <= other.objective, (
            f"{name}: exact {sol.objective!r} > {fn.__name__} {other.objective!r}"
        )
        worse[fn.__name__] = other.objective
    print(f"a4[{name}]: objective {sol.objective:.6g} vs reference {expected:g} "
          f"(rel {rel:.3%}, mode={mode}, {elapsed:.1f}s); baselines {worse}")


def test_a5_runtime_slopes():
    recs2 = run_scaling(2, (100, 200, 400, 800, 1600), reps=3, seed=11)
    slope2 = fit_slope(recs2)
    recs3 = run_scaling(3, (50, 100, 150, 220, 300), reps=3, seed=11)
    slope3 = fit_slope(recs3)
    print(f"a5: K=2 slope {slope2:.3f} (want [2.65, 3.35]), "
          f"K=3 slope {slope3:.3f} (want [3.6, 4.4])")
    costs = [" ".join(f"{n}:{ns:.3f}" for n, ns in ns_per_distance_min(recs).items())
             for recs in (recs2, recs3)]
    print(f"a5 ns per distance-min: K=2 {costs[0]}; K=3 {costs[1]}")
    assert 2.65 <= slope2 <= 3.35, f"K=2 slope {slope2:.3f} outside [2.65, 3.35]"
    assert 3.6 <= slope3 <= 4.4, f"K=3 slope {slope3:.3f} outside [3.6, 4.4]"


def test_a6_baseline_sanity():
    ds, k = _CORPUS[3]
    for fn in (pam, fasterpam, clarans):
        a = fn(ds, k, BaselineParams(seed=9))
        b = fn(ds, k, BaselineParams(seed=9))
        assert a.objective == b.objective
        assert np.array_equal(a.medoid_indices, b.medoid_indices)
        assert np.array_equal(a.assignment, b.assignment)
    beats = []
    for i, (ds, k) in enumerate(_CORPUS):
        exact = _exact(i).objective
        for fn in (pam, fasterpam, clarans):
            got = fn(ds, k, BaselineParams(seed=3)).objective
            if got < exact:
                beats.append((fn.__name__, i, got, exact))
    assert beats == [], f"baseline below the exact optimum: {beats[:5]}"
    print(f"a6: baselines deterministic per seed; {3 * len(_CORPUS)} runs, "
          f"none below the exact optimum")


def test_a7_rank_unrank():
    checked = 0
    for k in range(1, 6):
        combos = sorted(itertools.combinations(range(10), k),
                        key=lambda c: c[::-1])
        ranks = [rank_colex(c) for c in combos]
        assert ranks == list(range(comb(10, k)))
        for r, c in zip(ranks, combos):
            assert unrank_colex(r, k) == c
        checked += len(combos)
    print(f"a7: {checked} combinations round-trip; ranks increase in colex order")
