import json
import re
import subprocess
import sys

import pytest

from ekmedoids.cli import main

TOY_CSV = "0\n1\n2\n10\n11\n"


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(TOY_CSV)
    return str(p)


def run(argv):
    return main(argv)


def test_cluster_oracle_toy(toy_csv, capsys):
    code = run(["cluster", "--input", toy_csv, "--k", "2", "--algorithm", "oracle"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["medoid_indices"] == [1, 3]
    assert doc["objective"] == 3.0
    assert doc["assignment"] == [0, 0, 0, 1, 1]


def test_cluster_json_key_order(toy_csv, capsys):
    run(["cluster", "--input", toy_csv, "--k", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "algorithm", "n", "d", "k", "metric", "objective", "medoid_indices",
        "assignment", "wall_time_seconds", "evaluated_configurations",
    ]
    assert doc["algorithm"] == "ekm"
    assert (doc["n"], doc["d"], doc["k"]) == (5, 1, 2)
    assert doc["metric"] == "sqeuclidean"
    assert doc["evaluated_configurations"] == 10


def test_cluster_writes_out_file(toy_csv, tmp_path):
    out = tmp_path / "result.json"
    code = run(["cluster", "--input", toy_csv, "--k", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["objective"] == 3.0


def test_cluster_byte_identical_modulo_wall_time(toy_csv, capsys):
    run(["cluster", "--input", toy_csv, "--k", "2", "--algorithm", "pam"])
    first = capsys.readouterr().out
    run(["cluster", "--input", toy_csv, "--k", "2", "--algorithm", "pam"])
    second = capsys.readouterr().out
    scrub = lambda s: re.sub(r'"wall_time_seconds": [^,]+,', '"wall_time_seconds": 0,', s)
    assert scrub(first) == scrub(second)


@pytest.mark.parametrize("algo", ["pam", "fasterpam", "clarans"])
def test_cluster_baseline_algorithms(toy_csv, capsys, algo):
    code = run(["cluster", "--input", toy_csv, "--k", "2",
                "--algorithm", algo, "--seed", "7"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] >= 3.0


def test_k_zero_exits_2(toy_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", toy_csv, "--k", "0"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_algorithm_exits_2(toy_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", toy_csv, "--k", "2", "--algorithm", "kmeans"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--max-iter", "--clarans-numlocal", "--clarans-maxneighbor"])
def test_invalid_baseline_flag_exits_2(toy_csv, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", toy_csv, "--k", "2", "--algorithm", "pam", flag, "0"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["cluster", "compare"])
def test_negative_seed_exits_2(toy_csv, capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        run([subcommand, "--input", toy_csv, "--k", "2", "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed" in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    code = run(["cluster", "--input", "/nonexistent/x.csv", "--k", "2"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_ragged_csv_exits_3(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    code = run(["cluster", "--input", str(p), "--k", "1"])
    assert code == 3


def test_overflowing_distances_exit_3(tmp_path, capsys):
    p = tmp_path / "huge.csv"
    p.write_text("1e200\n2e200\n-1e200\n5.0\n")
    code = run(["cluster", "--input", str(p), "--k", "2"])
    assert code == 3
    assert "not finite" in capsys.readouterr().err


def test_objective_drift_is_typed_and_exits_3(toy_csv, capsys, monkeypatch):
    # a verify that disagrees with the streamed minimum raises the package's
    # base error, not a bare AssertionError, and the CLI maps it to 3
    from ekmedoids import ExactKMedoidsError, SolverParams, ekm, solve_ekm, synthetic

    real = ekm.evaluate_objective
    monkeypatch.setattr(ekm, "evaluate_objective", lambda *a: real(*a) + 1.0)
    with pytest.raises(ExactKMedoidsError, match="objective drift"):
        solve_ekm(synthetic(12, 2, 2, seed=0), SolverParams(k=2))
    code = run(["cluster", "--input", toy_csv, "--k", "2"])
    assert code == 3
    assert "objective drift" in capsys.readouterr().err


def test_k_larger_than_n_exits_3(toy_csv, capsys):
    code = run(["cluster", "--input", toy_csv, "--k", "9"])
    assert code == 3


def test_infeasible_instance_exits_4(tmp_path, capsys):
    p = tmp_path / "wide.csv"
    p.write_text("".join(f"{i}\n" for i in range(40)))
    code = run(["cluster", "--input", p.as_posix(), "--k", "20"])
    assert code == 4
    err = capsys.readouterr().err
    assert "estimate" in err


def test_cluster_standardize_and_metric(toy_csv, capsys):
    code = run(["cluster", "--input", toy_csv, "--k", "2",
                "--metric", "manhattan", "--standardize"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metric"] == "manhattan"


def test_cluster_has_header_and_delimiter(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("x;y\n0;0\n1;1\n5;5\n")
    code = run(["cluster", "--input", str(p), "--k", "1",
                "--has-header", "--delimiter", ";"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_compare_json(toy_csv, capsys):
    code = run(["compare", "--input", toy_csv, "--k", "2",
                "--algorithms", "ekm,pam"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["ekm_objective"] == 3.0
    assert rows[0]["pam_objective"] >= 3.0


def test_compare_multiple_inputs_one_row_each(toy_csv, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("0\n4\n8\n12\n")
    code = run(["compare", "--input", toy_csv, "--input", str(other),
                "--k", "2", "--algorithms", "ekm"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in rows] == [5, 4]


def test_compare_csv_format(toy_csv, capsys):
    code = run(["compare", "--input", toy_csv, "--k", "2",
                "--algorithms", "ekm,pam", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["dataset", "n", "d", "error"]
    assert "ekm_objective" in lines[0]
    assert len(lines) == 2


def test_compare_unknown_algorithm_exits_2(toy_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["compare", "--input", toy_csv, "--k", "2",
             "--algorithms", "ekm,banditpam"])
    assert exc.value.code == 2


def test_bench_scaling_csv_rows(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    code = run(["bench", "scaling", "--k", "2", "--sizes", "10,12,14",
                "--reps", "3", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,n,rep,seed,wall_time_seconds,evaluated_configurations"
    assert len(lines) == 10  # 3 sizes x 3 reps + header


def test_bench_summary_contains_slope(tmp_path):
    out = tmp_path / "scaling.csv"
    summary_path = tmp_path / "summary.json"
    code = run(["bench", "scaling", "--k", "2", "--sizes", "10,14,18,24",
                "--reps", "2", "--seed", "3", "--out", str(out),
                "--summary-out", str(summary_path)])
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert "slope" in summary
    assert summary["k"] == 2


def test_bench_bad_sizes_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "scaling", "--k", "2", "--sizes", "ten,20"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["bench", "scaling", "--k", "2", "--sizes", "20,10"])
    assert exc.value.code == 2


def test_bench_negative_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "scaling", "--k", "2", "--sizes", "10,12", "--reps", "1",
             "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_console_script_entry_point(toy_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "ekmedoids.cli", "cluster", "--input", toy_csv,
         "--k", "2", "--algorithm", "oracle"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["medoid_indices"] == [1, 3]


# imports `ekmedoids.cli`, then runs `cluster` on argv; prints whether any
# scipy module was loaded after each step
_SCIPY_PROBE = """
import sys
def scipy():
    return any(m.partition(".")[0] == "scipy" for m in sys.modules)
import ekmedoids.cli
print(scipy())
code = ekmedoids.cli.main(sys.argv[1:])
print(code, scipy())
"""


@pytest.mark.parametrize("d, loads", [(2, False), (48, True)], ids=["small", "above-threshold"])
def test_cluster_imports_scipy_only_where_an_instance_needs_it(tmp_path, d, loads):
    # N * N * d = 80,000 is computed by the numpy kernel: neither the import
    # nor the run loads scipy.  1,920,000 is over the threshold: `cdist`
    from ekmedoids import save_csv, synthetic
    from ekmedoids.metrics import _NUMPY_PAIR_DIMS

    assert (200 * 200 * d > _NUMPY_PAIR_DIMS) == loads
    path = tmp_path / "points.csv"
    save_csv(synthetic(200, d, 3, seed=4), path)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, "cluster", "--input", str(path), "--k", "2",
         "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", str(loads)]
