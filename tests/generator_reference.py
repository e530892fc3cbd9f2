"""Unfused combination-generator machinery: the semantic ground truth.

Combinations (configurations) are strictly increasing tuples of point
indices.  A level store is a list [S_0, S_1, ..., S_k] where S_j holds all
size-j combinations seen so far.  Levels combine through a cross-join
operator and a truncated convolution product: joining stores for two
disjoint index blocks produces the store for their union, with level t
gathering every way of taking i indices from one block and t - i from the
other.  Iterating that merge over single points enumerates every
combination of the first n points, grouped by size, in colexicographic
order within each level.

This is the plain-list reference that the tests hold the fused solver in
`ekmedoids.ekm` to (gates a2 and a7, the fused-merge reference solver);
it is meant for small n (say n <= 20) and is not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ekmedoids.errors import ExactKMedoidsError, InvalidArguments, RankOverflow
from ekmedoids.problem import _INT64_MAX


class DisjointnessViolation(ExactKMedoidsError):
    """Cross-joined configurations share an index."""


# A configuration: strictly increasing tuple of point indices.
Config = tuple[int, ...]


@dataclass(frozen=True)
class LevelStore:
    """Levels [S_0, ..., S_k]; every config in S_j has exactly j indices."""

    levels: list[list[Config]]

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, j):
        return self.levels[j]

    def sizes(self) -> list[int]:
        return [len(level) for level in self.levels]


def cross_join(l1: list[Config], l2: list[Config]) -> list[Config]:
    """All pairwise unions of configs from l1 and l2, l1-major order.

    Operands must be disjoint pair by pair (guaranteed when the two sides
    come from disjoint index blocks, as in gen_combs).
    """
    out = []
    for s1 in l1:
        for s2 in l2:
            u = s1 + s2
            if len(set(u)) != len(u):
                raise DisjointnessViolation(
                    f"configs {s1} and {s2} share an index"
                )
            out.append(tuple(sorted(u)))
    return out


def conv(f, la: list[list[Config]], lb: list[list[Config]], k: int) -> list[list[Config]]:
    """Truncated convolution product: level t concatenates f(la[i], lb[t-i]).

    Returns levels [c_0, ..., c_k]; terms run in ascending i and missing
    operand levels count as empty.
    """
    out = []
    for t in range(k + 1):
        level: list[Config] = []
        for i in range(t + 1):
            j = t - i
            if i < len(la) and j < len(lb):
                level.extend(f(la[i], lb[j]))
        out.append(level)
    return out


def merge(*args) -> list[list[Config]]:
    """Level-store merge, defined by pattern matching on the operand.

    merge([], k)          -> [[()]]                  (just the empty config)
    merge([i], k)         -> [[()], [(i,)]]          (singleton point i)
    merge(la, lb, k)      -> conv(cross_join, la, lb, k)
    """
    if len(args) == 2:
        a, k = args
        if a == []:
            return [[()]]
        if isinstance(a, (list, tuple)) and len(a) == 1 and isinstance(a[0], int):
            return [[()], [(a[0],)]]
        raise InvalidArguments(f"two-argument merge takes [] or a singleton point, got {a!r}")
    if len(args) == 3:
        a, b, k = args
        if not (isinstance(a, list) and isinstance(b, list)):
            raise InvalidArguments("three-argument merge takes two level stores")
        return conv(cross_join, a, b, k)
    raise InvalidArguments(f"merge takes 2 or 3 arguments, got {len(args)}")


def gen_combs(n: int, k: int) -> LevelStore:
    """All combinations of the first n point indices, grouped by size.

    Level j of the result lists the C(n, j) size-j combinations in
    colexicographic order, for j = 0 .. min(k, n).  Built by folding the
    singleton merge over points 0 .. n-1:

        acc(0) = merge([], k)
        acc(p) = merge(merge([p - 1], k), acc(p - 1), k)

    so each step keeps the previous combinations and appends those extended
    by the new (largest) index, which is exactly colex grouping.
    """
    if n < 0 or k < 0:
        raise InvalidArguments(f"need n >= 0 and k >= 0, got n={n}, k={k}")
    acc = merge([], k)
    for p in range(n):
        acc = merge(merge([p], k), acc, k)
    return LevelStore(acc[: min(k, n) + 1])


def rank_colex(c: Config) -> int:
    """Colex rank of a combination: sum of C(c_i, i) over 1-based positions i.

    A bijection from size-k combinations onto [0, C(N, k)) that respects
    colex order.  Raises RankOverflow if the rank exceeds 64-bit range.
    """
    r = 0
    for i, ci in enumerate(c, start=1):
        r += comb(ci, i)
    if r > _INT64_MAX:
        raise RankOverflow(f"colex rank {r} exceeds 64-bit range")
    return r


def unrank_colex(r: int, k: int) -> Config:
    """Inverse of rank_colex: the size-k combination with colex rank r."""
    if r < 0 or k < 0:
        raise InvalidArguments(f"need r >= 0 and k >= 0, got r={r}, k={k}")
    out = []
    for j in range(k, 0, -1):
        # largest c with C(c, j) <= r
        c = j - 1
        while comb(c + 1, j) <= r:
            c += 1
        out.append(c)
        r -= comb(c, j)
    return tuple(reversed(out))
