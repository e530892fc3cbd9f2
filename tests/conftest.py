import numpy as np
import pytest

from ekmedoids import Dataset, DistanceCache, register_metric, synthetic

# a 5-point line with two obvious clusters: optimal K=2 medoids are
# {1, 3} at objective 3, tied with {1, 4} and won on colex rank
TOY_POINTS = [0.0, 1.0, 2.0, 10.0, 11.0]


@pytest.fixture
def toy() -> Dataset:
    return Dataset(points=np.array(TOY_POINTS)[:, None], source="toy")


def _asymmetric(X, Y):
    # |x - y|_1 + 3 max(0, y_0 - x_0): d(x, y) != d(y, x) whenever x_0 != y_0,
    # so a distance table read the wrong way round changes results
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    l1 = np.abs(X[:, None, :] - Y[None, :, :]).sum(axis=2)
    return l1 + 3.0 * np.maximum(0.0, Y[None, :, 0] - X[:, None, 0])


register_metric("asymmetric", pairwise=_asymmetric)


class CountingCache(DistanceCache):
    """A distance cache that counts its `columns` calls."""

    calls = 0

    def columns(self, indices):
        self.calls += 1
        return super().columns(indices)


def instance_corpus(count: int, seed: int = 8128, n_range=(8, 41),
                    d_range=(1, 6), k_range=(1, 5)):
    """Deterministic random (Dataset, k) pairs. The a1 and a6 acceptance
    gates share the default corpus so they quantify over the same
    instances."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(*n_range))
        d = int(rng.integers(*d_range))
        k = int(rng.integers(*k_range))
        ds = synthetic(n, d, min(k, n), int(rng.integers(2**63)))
        out.append((ds, k))
    return out
