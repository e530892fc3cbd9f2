"""Structure of the package: what may import what, and what it exports."""

import ast
from pathlib import Path

import ekmedoids
from ekmedoids import ekm

SRC = Path(ekmedoids.__file__).parent


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
    # the oracle is the solver's correctness reference, so it must share
    # neither the solver nor the generator machinery
    assert not _relative_imports("oracle") & {"ekm", "generator"}
    assert "ekm" not in _relative_imports("baselines")


def test_public_names_resolve():
    missing = [name for name in ekmedoids.__all__ if not hasattr(ekmedoids, name)]
    assert missing == []
    assert ekm.SolverParams is ekmedoids.SolverParams
    assert ekm.Solution is ekmedoids.Solution
