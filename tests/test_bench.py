import json
import math

import pytest

from ekmedoids import (
    InsufficientData,
    InvalidArguments,
    compare,
    fit_slope,
    run_scaling,
    scaling_summary,
    synthetic,
    write_scaling_csv,
)
from ekmedoids import bench
from ekmedoids.bench import ScalingRecord, compare_rows_to_dicts, scaling_csv_text


def fake_records(ns, times, k=2):
    return [
        ScalingRecord(k=k, n=n, rep=0, seed=1, wall_time_seconds=t,
                      evaluated_configurations=math.comb(n, k))
        for n, t in zip(ns, times)
    ]


def test_run_scaling_shape_and_counts():
    records = run_scaling(2, [10, 14, 18], reps=2, seed=5)
    assert len(records) == 6
    for r in records:
        assert r.k == 2
        assert r.evaluated_configurations == math.comb(r.n, 2)
        assert r.wall_time_seconds > 0.0


def test_run_scaling_reps_zero():
    assert run_scaling(2, [10, 20], reps=0, seed=1) == []


def test_run_scaling_is_seed_reproducible():
    a = run_scaling(2, [12, 16], reps=2, seed=9)
    b = run_scaling(2, [12, 16], reps=2, seed=9)
    assert [(r.n, r.rep, r.seed, r.evaluated_configurations) for r in a] == [
        (r.n, r.rep, r.seed, r.evaluated_configurations) for r in b
    ]
    # distinct reps use distinct derived seeds
    assert a[0].seed != a[1].seed


def test_run_scaling_validates():
    with pytest.raises(InvalidArguments):
        run_scaling(2, [20, 10], reps=1, seed=0)  # not ascending
    with pytest.raises(InvalidArguments):
        run_scaling(0, [10], reps=1, seed=0)
    with pytest.raises(InvalidArguments):
        run_scaling(3, [2, 10], reps=1, seed=0)  # size < k


@pytest.mark.parametrize("k", [2.7, "2"])
def test_run_scaling_refuses_non_integer_k(k):
    with pytest.raises(InvalidArguments, match="K must be an integer"):
        run_scaling(k, [10], reps=1)


@pytest.mark.parametrize(
    "kwargs, match",
    [({"seed": -1}, "seed >= 0"), ({"seed": 1.5}, "seed must be an integer"),
     ({"reps": 1.5}, "reps must be an integer")],
    ids=["negative-seed", "float-seed", "float-reps"],
)
def test_run_scaling_refuses_bad_seed_and_reps(kwargs, match):
    with pytest.raises(InvalidArguments, match=match):
        run_scaling(2, [10, 12], **{"reps": 1, "seed": 0, **kwargs})


def test_run_scaling_skips_infeasible_with_warning(monkeypatch):
    # a refused instance is refused before its distance cache is built
    builds = []
    monkeypatch.setattr(bench, "distance_cache", lambda *a: builds.append(a))
    with pytest.warns(UserWarning):
        records = run_scaling(2, [10, 12], reps=1, seed=0, memory_budget_bytes=16)
    assert records == []
    assert builds == []


def test_fit_slope_exact_cubic():
    ns = [100, 200, 400, 800]
    records = fake_records(ns, [2e-9 * n**3 for n in ns])
    assert fit_slope(records) == pytest.approx(3.0, abs=1e-9)


def test_ns_per_distance_min_is_the_median_per_size():
    recs = [
        ScalingRecord(k=2, n=n, rep=r, seed=r, wall_time_seconds=t,
                      evaluated_configurations=math.comb(n, 2))
        for n, ts in [(100, (1e-3, 2e-3, 9.0)), (200, (8e-3,))]
        for r, t in enumerate(ts)
    ]
    costs = bench.ns_per_distance_min(recs)
    assert list(costs) == [100, 200]
    assert costs[100] == pytest.approx(2e-3 / (4950 * 100) * 1e9)
    assert costs[200] == pytest.approx(8e-3 / (19900 * 200) * 1e9)


def test_fit_slope_uses_median_over_reps():
    base = fake_records([100, 200, 400], [1.0, 8.0, 64.0])
    # one wild outlier rep per n must not move the median
    noisy = base + [
        ScalingRecord(k=2, n=n, rep=1, seed=2, wall_time_seconds=t,
                      evaluated_configurations=1)
        for n, t in [(100, 1.0), (200, 8.0), (400, 64.0)]
    ] + [
        ScalingRecord(k=2, n=n, rep=2, seed=3, wall_time_seconds=500.0,
                      evaluated_configurations=1)
        for n in (100, 200, 400)
    ]
    assert fit_slope(noisy) == pytest.approx(fit_slope(base), abs=1e-12)


def test_fit_slope_invariant_under_rescaling():
    ns = [50, 100, 200, 400]
    times = [3.0, 17.0, 160.0, 1300.0]
    s1 = fit_slope(fake_records(ns, times))
    s2 = fit_slope(fake_records(ns, [t * 1000.0 for t in times]))
    assert s2 == pytest.approx(s1, abs=1e-9)


def test_fit_slope_needs_three_sizes():
    with pytest.raises(InsufficientData):
        fit_slope(fake_records([100, 200], [1.0, 8.0]))
    # two sizes across many reps still count as two points
    with pytest.raises(InsufficientData):
        fit_slope(fake_records([100, 100, 200, 200], [1.0, 1.1, 8.0, 8.1]))


def test_scaling_summary_contains_slope():
    ns = [100, 200, 400]
    summary = scaling_summary(fake_records(ns, [1.0, 8.0, 64.0]))
    assert summary["slope"] == pytest.approx(3.0, abs=1e-9)
    assert summary["slopes"]["2"] == summary["slope"]
    assert summary["runs"] == 3
    json.dumps(summary)  # must be JSON-serializable as-is


def test_csv_emission_column_order(tmp_path):
    records = fake_records([10, 12], [0.5, 0.9])
    out = tmp_path / "scaling.csv"
    write_scaling_csv(records, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,n,rep,seed,wall_time_seconds,evaluated_configurations"
    assert len(lines) == 3
    assert lines[1].split(",")[:4] == ["2", "10", "0", "1"]
    assert scaling_csv_text(records).strip().splitlines() == lines


def test_compare_empty_input():
    assert compare([], 2) == []


def test_compare_oracle_equals_ekm():
    ds = synthetic(15, 2, 2, seed=33)
    rows = compare([("synth", ds)], 2, algorithms=("oracle", "ekm"), seed=0)
    assert len(rows) == 1
    row = rows[0]
    assert (row.n, row.d) == (15, 2)
    assert row.results["oracle"].objective == row.results["ekm"].objective


def test_compare_row_invariant_and_all_algorithms():
    ds = synthetic(20, 2, 3, seed=44)
    rows = compare(
        [("synth", ds)], 3, algorithms=("ekm", "pam", "fasterpam", "clarans"), seed=1
    )
    cells = rows[0].results
    for alg in ("pam", "fasterpam", "clarans"):
        assert cells[alg].objective >= cells["ekm"].objective
        assert cells[alg].wall_time_seconds > 0.0


def test_compare_marks_load_failure(tmp_path):
    bad = tmp_path / "missing.csv"
    rows = compare([str(bad)], 2, algorithms=("pam",))
    assert rows[0].error is not None
    assert rows[0].n is None


def test_compare_accepts_paths(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0\n1\n2\n10\n11\n")
    rows = compare([str(p)], 2, algorithms=("ekm",))
    assert rows[0].results["ekm"].objective == 3.0


def test_compare_rejects_unknown_algorithm():
    ds = synthetic(10, 2, 2, seed=0)
    with pytest.raises(InvalidArguments):
        compare([("x", ds)], 2, algorithms=("ekm", "banditpam"))


def test_compare_rows_to_dicts_flattening():
    ds = synthetic(12, 2, 2, seed=3)
    rows = compare([("a", ds)], 2, algorithms=("ekm", "pam"))
    docs = compare_rows_to_dicts(rows)
    assert docs[0]["dataset"] == "a"
    assert set(docs[0]) >= {
        "n", "d", "ekm_objective", "ekm_wall_time_seconds",
        "pam_objective", "pam_wall_time_seconds",
    }
