"""Workload definitions and the seeded input generator.

Inputs are made here with numpy alone, never with `ekmedoids.synthetic`,
so a change to the package cannot change what the benchmark feeds it.
The package sees only the CSV written by `write_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    k: int  # medoids asked of every solver
    n: int  # points
    d: int  # dimensions
    components: int  # Gaussian mixture components
    baseline_seeds: int  # PAM/FasterPAM/CLARANS seeds 0 .. baseline_seeds-1 per round


WORKLOADS = {
    w.name: w
    for w in (
        # gather of K-1 stored columns and the min over them dominate
        Workload("kernel_k3", k=3, n=200, d=2, components=3, baseline_seeds=16),
        # one stored column per partial: transpose + row sum, loop, scratch;
        # the 31k-cell CSV gives load_csv weight
        Workload("wide_k2", k=2, n=640, d=48, components=2, baseline_seeds=2),
        # O(N^2) search: distance build, 128k-cell parse, assign, baselines
        Workload("large_n_k1", k=1, n=4000, d=32, components=4, baseline_seeds=1),
    )
}


def make_points(w: Workload, seed: int) -> np.ndarray:
    """N x D Gaussian mixture: centers uniform in [0, 10]^D, unit noise,
    components assigned round-robin.  Same (workload, seed), same bits."""
    rng = np.random.default_rng([seed, w.k, w.n, w.d])
    centers = rng.uniform(0.0, 10.0, size=(w.components, w.d))
    noise = rng.standard_normal(size=(w.n, w.d))
    return centers[np.arange(w.n) % w.components] + noise


def write_csv(points: np.ndarray, path) -> None:
    """Write with shortest round-trip float formatting, so parsing the
    file gives back the exact bits of `points`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
