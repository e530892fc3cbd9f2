"""What every solver shares: the instance check, the parameters, the result.

The exact solver, the oracle and the baselines all import from here, so
none of them needs another solver's module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import EmptyDataset, InvalidArguments, check_int
from .metrics import DEFAULT_MEMORY_BUDGET, DEFAULT_METRIC

# largest configuration count or colex rank a solve may reach
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class SolverParams:
    """Exact-solver knobs: cluster count, metric name, memory budget."""

    k: int
    metric: str = DEFAULT_METRIC
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET

    def distance_budget(self) -> int:
        """Bytes an exact solve's own distance matrix may take.  K = 1 reads
        each distance row once, so it gets 0 and scores on the fly: a
        matrix would save distance computations (N(N+step)/2 against N²
        for a built-in metric) but take 8·N² bytes, 128 MB at N = 4000
        against under 1 MB of rows on the fly."""
        return self.memory_budget_bytes if self.k > 1 else 0


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


def check_instance(ds: Dataset, k) -> int:
    """Refuse an empty dataset and any K but an integer in 1 .. N; return K."""
    k = check_int(k, "K")
    if ds.n == 0:
        raise EmptyDataset("cannot cluster an empty dataset")
    if k < 1 or k > ds.n:
        raise InvalidArguments(f"need 1 <= K <= N, got K={k}, N={ds.n}")
    return k
