import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ekmedoids import (
    Dataset,
    EmptyDataset,
    InsufficientData,
    InvalidArguments,
    ParseError,
    ShapeError,
    load_csv,
    save_csv,
    standardize,
    synthetic,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    ds = load_csv(write(tmp_path, "1,2\n3,4\n"))
    assert (ds.n, ds.d) == (2, 2)
    assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.source.endswith("data.csv")


def test_load_csv_header_skipped(tmp_path):
    ds = load_csv(write(tmp_path, "a,b\n1,2\n"), has_header=True)
    assert (ds.n, ds.d) == (1, 2)
    assert ds.points.tolist() == [[1.0, 2.0]]


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(ShapeError) as exc:
        load_csv(write(tmp_path, "1,2\n3\n"))
    assert exc.value.row == 1


def test_load_csv_bad_cell(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, "1,2\n3,oops\n"))
    assert (exc.value.row, exc.value.column) == (1, 1)


@pytest.mark.parametrize(
    "text, error, where",
    [
        ("1,2\n3,4,5\n6\n", ShapeError, (1,)),
        ("1,2\n3\n4,x\n", ShapeError, (1,)),
        ("x,2\n3,4\n", ParseError, (0, 0)),
        ("1,2\n3,4\n5,\n", ParseError, (2, 1)),
        ("1,2\n3,y\n5,z\n", ParseError, (1, 1)),
        ("1,2\n3,inf\n", ParseError, (1, 1)),
    ],
)
def test_load_csv_names_the_first_bad_row_and_cell(tmp_path, text, error, where):
    # whole rows are parsed at once; a failure anywhere still reports the
    # first bad row or cell, as a cell by cell parse does
    with pytest.raises(error) as exc:
        load_csv(write(tmp_path, text))
    got = (exc.value.row,) if error is ShapeError else (exc.value.row, exc.value.column)
    assert got == where


def test_load_csv_parses_each_cell_as_float(tmp_path):
    cells = [" 1.5", "2_0", "-0", "1e-320", "7", "+.5"]
    ds = load_csv(write(tmp_path, ",".join(cells) + "\n" + ",".join(reversed(cells)) + "\n"))
    want = [[float(c) for c in cells], [float(c) for c in reversed(cells)]]
    assert ds.points.tobytes() == np.array(want).tobytes()


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(EmptyDataset):
        load_csv(write(tmp_path, ""))
    # a lone header is still no data
    with pytest.raises(EmptyDataset):
        load_csv(write(tmp_path, "a,b\n"), has_header=True)


def test_load_csv_blank_lines_and_crlf(tmp_path):
    ds = load_csv(write(tmp_path, "1,2\r\n\r\n3,4\r\n"))
    assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_delimiter(tmp_path):
    ds = load_csv(write(tmp_path, "1;2\n3;4\n"), delimiter=";")
    assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_rejects_long_delimiter(tmp_path):
    with pytest.raises(InvalidArguments):
        load_csv(write(tmp_path, "1;;2\n"), delimiter=";;")


def test_integer_cells_promoted(tmp_path):
    ds = load_csv(write(tmp_path, "7\n-3\n"))
    assert ds.points.dtype == np.float64


def test_dataset_rejects_non_finite():
    with pytest.raises(ParseError) as exc:
        Dataset(points=np.array([[0.0], [np.nan]]))
    assert (exc.value.row, exc.value.column) == (1, 0)


def test_dataset_rejects_bad_shape():
    with pytest.raises(ShapeError):
        Dataset(points=np.zeros(4))
    with pytest.raises(ShapeError):
        Dataset(points=np.zeros((3, 0)))


def test_dataset_immutable():
    ds = Dataset(points=np.ones((2, 2)))
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 4)),
        elements=st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_save_load_round_trip(tmp_path_factory, pts):
    # repr-based emission must round-trip every float bit-exactly
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    ds = Dataset(points=pts)
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.points, ds.points)


def test_standardize_two_point_column():
    ds = Dataset(points=np.array([[0.0], [2.0]]))
    out = standardize(ds)
    # sample sd of [0, 2] is sqrt(2); z-scores are -+1/sqrt(2)
    root = 0.7071067811865475
    assert out.points.tolist() == [[-root], [root]]
    assert out.points.mean() == pytest.approx(0.0, abs=1e-15)
    assert out.points.std(ddof=1) == pytest.approx(1.0, rel=1e-15)


def test_standardize_constant_column():
    ds = Dataset(points=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    out = standardize(ds)
    assert np.all(out.points[:, 0] == 0.0)


@pytest.mark.parametrize("value", [0.1, 0.0125, 349525.34909955])
def test_standardize_constant_column_is_zero(value):
    # the mean of equal values can round away from them; ptp == 0 cannot
    out = standardize(Dataset(points=np.array([[value]] * 3)))
    assert out.points.tolist() == [[0.0]] * 3


@pytest.mark.parametrize(
    "column",
    [[0.0, 5e-324, 5e-324], [1e-160, 0.0, 3e-160], [-1.7e308, 1.7e308, 0.0]],
    ids=["subnormal", "tiny-squares", "huge-sum"],
)
def test_standardize_extreme_scales_idempotent(column):
    once = standardize(Dataset(points=np.array(column)[:, None]))
    twice = standardize(once)
    assert once.points.std(ddof=1) == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(twice.points, once.points, atol=1e-12, rtol=0)


def test_standardize_idempotent_small_spread_large_offset():
    # one-pass centring left a mean of 1.16e-12 here, and a second
    # standardize moved a value by 1.159e-12
    once = standardize(Dataset(points=np.array([[999598.0], [999656.0], [999656.0]])))
    twice = standardize(once)
    assert abs(once.points.mean()) < 1e-15
    assert np.allclose(twice.points, once.points, atol=1e-12, rtol=0)


def test_standardize_requires_two_rows():
    with pytest.raises(InsufficientData):
        standardize(Dataset(points=np.array([[1.0, 2.0]])))


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(1, 4)),
        elements=st.floats(min_value=-1e6, max_value=1e6,
                           allow_nan=False, allow_infinity=False),
    )
)
def test_standardize_idempotent(pts):
    once = standardize(Dataset(points=pts))
    twice = standardize(once)
    assert np.allclose(twice.points, once.points, atol=1e-12, rtol=0)


def test_synthetic_shape_and_determinism():
    a = synthetic(30, 3, 4, seed=9)
    b = synthetic(30, 3, 4, seed=9)
    c = synthetic(30, 3, 4, seed=10)
    assert (a.n, a.d) == (30, 3)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_synthetic_validates_arguments():
    for bad in ((0, 2, 1, 0), (10, 0, 1, 0), (10, 2, 0, 0), (5, 2, 6, 0), (10.5, 2, 1, 0)):
        with pytest.raises(InvalidArguments):
            synthetic(*bad)
