import importlib.util
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"name": "oracle_s", "unit": "s", "better": "lower", "bound": 0.25}


def run(value):
    return {"metrics": {"oracle_s": {"value": value}}}


def workload(parent, change, correct=True, failed=(0, 0)):
    pairs = [(run(p), run(c)) for p, c in zip(parent, change)]
    return {
        "correct": correct,
        "failed": {"parent": failed[0], "change": failed[1]},
        "metrics": {"oracle_s": bench_pairs.compare(SPEC, pairs)},
    }


PARENT = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]
FASTER = [1.0] * 10


def test_compare_quartiles_wins_and_bound():
    m = workload(PARENT, FASTER)["metrics"]["oracle_s"]
    assert m["parent"]["median"] == pytest.approx(3.45)
    assert m["parent"]["q3"] - m["parent"]["q1"] == pytest.approx(0.45)
    assert m["change"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert m["change_wins"] == "10/10"
    assert m["change_vs_parent"] == round(1.0 / 3.45, 4)
    assert m["within_bound"] and m["beyond_parent_iqr"]
    slower = workload(PARENT, [p * 1.3 for p in PARENT])["metrics"]["oracle_s"]
    assert slower["change_wins"] == "0/10"
    assert not slower["within_bound"]


def test_claim_met_needs_wins_margin_and_direction():
    assert bench_pairs.claim_met(workload(PARENT, FASTER), "oracle_s")
    # 8 of 10 pairs won is too few, however large the median gain
    assert not bench_pairs.claim_met(workload(PARENT, FASTER[:8] + [9.0, 9.0]), "oracle_s")
    # a gain inside the parent's interquartile range does not count
    assert not bench_pairs.claim_met(workload(PARENT, [p - 0.1 for p in PARENT]), "oracle_s")
    assert not bench_pairs.claim_met(workload(FASTER, PARENT), "oracle_s")


def test_claim_met_needs_correct_runs_and_no_more_failures():
    assert not bench_pairs.claim_met(workload(PARENT, FASTER, correct=False), "oracle_s")
    assert not bench_pairs.claim_met(workload(PARENT, FASTER, failed=(0, 1)), "oracle_s")
    assert bench_pairs.claim_met(workload(PARENT, FASTER, failed=(2, 1)), "oracle_s")


def test_machine_records_the_cpus_the_runs_may_use():
    m = bench_pairs.machine()
    assert m["nproc"] == os.cpu_count()
    assert m["affinity"] == len(os.sched_getaffinity(0))
    assert 1 <= m["affinity"] <= m["nproc"]


A5_OUT = (
    "a5: K=2 slope 2.874 (want [2.65, 3.35]), K=3 slope 3.912 (want [3.6, 4.4])\n"
    "a5 ns per distance-min: K=2 100:1.250 200:0.900 400:0.800; K=3 50:1.400 300:0.700\n"
)


def test_parse_a5_reads_slopes_and_per_size_costs():
    run = bench_pairs.parse_a5("....\n" + A5_OUT + "1 passed\n")
    assert run["k2"] == 2.874 and run["k3"] == 3.912
    assert run["ns_per_dmin"] == {"2": {100: 1.25, 200: 0.9, 400: 0.8},
                                  "3": {50: 1.4, 300: 0.7}}


def test_parse_a5_of_a_gate_without_costs_records_slopes_only():
    run = bench_pairs.parse_a5(A5_OUT.splitlines()[0] + "\n")
    assert run == {"k2": 2.874, "k3": 3.912}
    with pytest.raises(RuntimeError):
        bench_pairs.parse_a5("1 passed\n")


def test_cost_table_takes_the_median_per_size():
    runs = [bench_pairs.parse_a5(A5_OUT),
            bench_pairs.parse_a5(A5_OUT.replace("100:1.250", "100:2.000")),
            bench_pairs.parse_a5(A5_OUT.replace("100:1.250", "100:1.500")),
            {"k2": 2.9, "k3": 3.9}]
    table = bench_pairs.cost_table(runs)
    assert table["2"][100] == 1.5 and table["3"] == {50: 1.4, 300: 0.7}
    assert bench_pairs.cost_table(runs[3:]) == {}
