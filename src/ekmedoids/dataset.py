"""Datasets: CSV loading, standardization, and synthetic Gaussian mixtures.

A :class:`Dataset` is an immutable N x D matrix of 64-bit reals plus a
free-text provenance label.  All operations here are pure; the returned
arrays are marked read-only so a Dataset is safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDataset,
    InsufficientData,
    InvalidArguments,
    ParseError,
    ShapeError,
    check_int,
)


@dataclass(frozen=True)
class Dataset:
    """N x D matrix of data points, row-indexed from 0."""

    points: np.ndarray
    source: str = "unknown"
    n: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ShapeError(f"points must be a 2-D matrix, got ndim={pts.ndim}")
        if pts.shape[1] < 1:
            raise ShapeError("dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            bad = np.argwhere(~np.isfinite(pts))[0]
            raise ParseError(
                f"non-finite value at row {bad[0]}, column {bad[1]}",
                row=int(bad[0]),
                column=int(bad[1]),
            )
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", int(pts.shape[0]))
        object.__setattr__(self, "d", int(pts.shape[1]))


def load_csv(path, has_header: bool = False, delimiter: str = ",") -> Dataset:
    """Parse a numeric CSV file into a Dataset.

    Every cell is parsed as a 64-bit real (integer-looking cells are
    promoted silently).  Raises EmptyDataset for a file with no data rows,
    ShapeError for ragged rows, ParseError for non-numeric cells, and
    InvalidArguments for a delimiter that is not one character.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise InvalidArguments(f"delimiter must be one character, got {delimiter!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return _parse_csv(text, has_header=has_header, delimiter=delimiter, source=str(path))


def _parse_csv(text: str, has_header: bool, delimiter: str, source: str) -> Dataset:
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows = [r for r in reader if r]  # ignore blank lines
    if has_header and rows:
        rows = rows[1:]
    if not rows:
        raise EmptyDataset(f"no data rows in {source!r}")
    width = len(rows[0])
    if all(len(row) == width for row in rows):
        # every cell in one pass; `float` parses each as the loop below does
        cells = map(float, itertools.chain.from_iterable(rows))
        try:
            out = np.fromiter(cells, np.float64, len(rows) * width)
        except ValueError:
            pass  # a bad cell: the loop below names it
        else:
            return Dataset(out.reshape(len(rows), width), source=source)
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ShapeError(
                f"row {i} has {len(row)} cells, expected {width}", row=i
            )
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"cannot parse cell {cell!r} at row {i}, column {j}",
                    row=i,
                    column=j,
                ) from None
    return Dataset(out, source=source)


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV so that load_csv round-trips exactly.

    Cells use shortest-round-trip float formatting, so re-parsing yields
    bit-identical values.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in ds.points:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def standardize(ds: Dataset) -> Dataset:
    """Z-score each column to sample mean 0 and sample standard deviation 1.

    Constant columns become all-zero.  Each column is first scaled by the
    power of two that brings its largest magnitude into [0.5, 1); that is
    exact and leaves the z-scores' bits unchanged, but keeps the squares
    of tiny deviations from underflowing and the sums of huge values from
    overflowing.  Requires n >= 2.
    """
    if ds.n < 2:
        raise InsufficientData(f"standardize needs n >= 2, got n={ds.n}")
    pts = np.ldexp(ds.points, -np.frexp(np.abs(ds.points).max(axis=0))[1])
    constant = np.ptp(pts, axis=0) == 0
    sd = np.where(constant, 1.0, pts.std(axis=0, ddof=1))
    # centre twice: the second pass removes the first one's rounding error,
    # which a later standardize would otherwise remove (not idempotent)
    centred = pts - pts.mean(axis=0)
    centred -= centred.mean(axis=0)
    out = np.where(constant, 0.0, centred / sd)
    return Dataset(out, source=f"standardize({ds.source})")


def synthetic(n: int, d: int, k_true: int, seed: int) -> Dataset:
    """Sample n points from a mixture of k_true isotropic unit-variance Gaussians.

    Centers are drawn uniformly in [0, 10]^d; points are assigned to
    components round-robin so component sizes differ by at most one.  The
    generator is numpy's PCG64 seeded by `seed`, so the same arguments give
    bit-identical output within one build.
    """
    n, d, k_true = check_int(n, "n"), check_int(d, "d"), check_int(k_true, "k_true")
    if d < 1 or k_true < 1:
        raise InvalidArguments(f"need d >= 1 and k_true >= 1, got d={d}, k_true={k_true}")
    if n < k_true:
        raise InvalidArguments(f"need n >= k_true, got n={n}, k_true={k_true}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 10.0, size=(k_true, d))
    noise = rng.standard_normal(size=(n, d))
    comp = np.arange(n) % k_true
    pts = centers[comp] + noise
    return Dataset(pts, source=f"synthetic(n={n},d={d},k_true={k_true},seed={seed})")
