"""What every solver shares: the instance check, the parameters, the result.

The exact solver, the oracle and the baselines all import from here, so
none of them needs another solver's module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import EmptyDataset, InvalidArguments
from .metrics import DEFAULT_CACHE_BUDGET, DEFAULT_METRIC

DEFAULT_MEMORY_BUDGET = 2**32  # 4 GiB

# largest configuration count or colex rank a solve may reach
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class SolverParams:
    """Exact-solver knobs: cluster count, metric name, budgets."""

    k: int
    metric: str = DEFAULT_METRIC
    cache_budget_bytes: int = DEFAULT_CACHE_BUDGET
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET


@dataclass
class Solution:
    """An exact or heuristic clustering result."""

    medoid_indices: np.ndarray
    objective: float
    assignment: np.ndarray
    wall_time_seconds: float
    evaluated_configurations: int
    # per-step retained level sizes, filled only when instrumentation is on
    level_sizes: Optional[list[list[int]]] = field(default=None, repr=False)


def check_k(k) -> int:
    """Refuse a K that is not an integer (2.7, "2"); return it as an int."""
    try:
        return operator.index(k)
    except TypeError:
        raise InvalidArguments(f"K must be an integer, got {k!r}") from None


def check_instance(ds: Dataset, k) -> int:
    """Refuse an empty dataset and any K but an integer in 1 .. N; return K."""
    k = check_k(k)
    if ds.n == 0:
        raise EmptyDataset("cannot cluster an empty dataset")
    if k < 1 or k > ds.n:
        raise InvalidArguments(f"need 1 <= K <= N, got K={k}, N={ds.n}")
    return k
