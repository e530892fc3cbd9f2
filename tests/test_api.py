"""Structure of the package: what may import what, and what it exports."""

import ast
import importlib.util
from pathlib import Path

import pytest

import ekmedoids
from ekmedoids import ekm

SRC = Path(ekmedoids.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

PUBLIC = {
    "BaselineParams",
    "CompareRow",
    "Dataset",
    "DistanceCache",
    "DistanceOverflow",
    "EmptyDataset",
    "ExactKMedoidsError",
    "InstanceTooLarge",
    "InsufficientData",
    "InvalidArguments",
    "Metric",
    "ParseError",
    "RankOverflow",
    "ScalingRecord",
    "ShapeError",
    "Solution",
    "SolverParams",
    "UnknownMetric",
    "assign",
    "clarans",
    "compare",
    "distance_cache",
    "evaluate_batch",
    "evaluate_objective",
    "fasterpam",
    "fit_slope",
    "get_metric",
    "list_metrics",
    "load_csv",
    "pam",
    "register_metric",
    "run_scaling",
    "save_csv",
    "scaling_csv_text",
    "scaling_summary",
    "solve_ekm",
    "solve_exhaustive",
    "standardize",
    "synthetic",
    "write_scaling_csv",
}


def _relative_imports(module: str) -> set[str]:
    """Sibling modules that `module` imports with `from .x import ...` or
    `from . import x`."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_oracle_and_baselines_stay_independent_of_the_solver():
    # the oracle is the solver's correctness reference, so it must not
    # share the solver
    assert "ekm" not in _relative_imports("oracle")
    assert "ekm" not in _relative_imports("baselines")


def test_public_names_resolve():
    missing = [name for name in ekmedoids.__all__ if not hasattr(ekmedoids, name)]
    assert missing == []
    assert ekm.SolverParams is ekmedoids.SolverParams
    assert ekm.Solution is ekmedoids.Solution


def test_public_api_is_locked():
    # adding or removing a public name is an API change: make it here too
    assert len(ekmedoids.__all__) == len(PUBLIC)
    assert set(ekmedoids.__all__) == PUBLIC
    # the list-based generator is the tests' reference, not a package module
    assert importlib.util.find_spec("ekmedoids.generator") is None


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demos_import_only_public_names(demo):
    # parsed, not run: a demo that imports a name the package no longer
    # exports fails here
    imports = [
        node
        for node in ast.walk(ast.parse(demo.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "ekmedoids"
    ]
    names = {a.name for node in imports if node.module == "ekmedoids" for a in node.names}
    assert names
    assert names <= set(ekmedoids.__all__)
    for node in imports:
        assert importlib.util.find_spec(node.module) is not None
