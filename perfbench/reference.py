"""Independent reference results, computed without importing `ekmedoids`.

Distances are squared Euclidean, computed here from the raw points by
explicit differences (the package uses scipy's `cdist`), and the optimum
is a brute force over all C(N, K) medoid sets in lexicographic order.
The two computations may differ in the last bits, so objectives are
compared within `REL_TOL`.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9

_BLOCK_ELEMS = 1 << 22  # floats per difference block while building D


def sq_distances(points: np.ndarray) -> np.ndarray:
    """N x N matrix of squared Euclidean distances; exactly symmetric."""
    n, d = points.shape
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // (n * d))
    for lo in range(0, n, rows):
        diff = points[lo : lo + rows, None, :] - points[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[lo : lo + rows])
    return out


def brute_force(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Objectives of all C(N, K) medoid sets, with the sets, in lex order.

    `dist` is symmetric, so row m holds every point's distance to medoid m.
    """
    n = dist.shape[0]
    values: list[np.ndarray] = []
    configs: list[np.ndarray] = []

    def extend(prefix: list[int], row_min: np.ndarray | None, start: int) -> None:
        if len(prefix) == k - 1:
            last = dist[start:]
            vals = last.sum(axis=1) if row_min is None else np.minimum(last, row_min).sum(axis=1)
            block = np.empty((n - start, k), dtype=np.int64)
            block[:, : k - 1] = prefix
            block[:, k - 1] = np.arange(start, n)
            values.append(vals)
            configs.append(block)
            return
        for i in range(start, n - (k - 1 - len(prefix))):
            m = dist[i] if row_min is None else np.minimum(row_min, dist[i])
            extend(prefix + [i], m, i + 1)

    extend([], None, 0)
    return np.concatenate(values), np.concatenate(configs)


def optimum(values: np.ndarray, configs: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Best objective, its medoid set, and whether it beats every other set
    by more than REL_TOL (only then must a solver return that very set)."""
    if values.size == 1:
        return float(values[0]), configs[0], True
    two = np.argpartition(values, 1)[:2]
    best, second = sorted(two, key=lambda i: values[i])
    unique = values[second] - values[best] > REL_TOL * abs(values[best])
    return float(values[best]), configs[best], bool(unique)


def labels_nearest(dist: np.ndarray, medoids, labels) -> bool:
    """Every label names a medoid at the least distance, within REL_TOL."""
    med = np.asarray(medoids, dtype=np.int64)
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (dist.shape[0],) or lab.min() < 0 or lab.max() >= med.size:
        return False
    to_med = dist[med].T  # (N, K)
    chosen = to_med[np.arange(lab.size), lab]
    return bool(np.all(chosen <= to_med.min(axis=1) * (1.0 + REL_TOL)))
