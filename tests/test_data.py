import os

import numpy as np
import pytest

from mvclust.data import (MultiViewDataset, build_partition, load_manifest,
                          load_views, make_synthetic, normalize_view,
                          read_labels, read_manifest)
from mvclust.errors import DataError

from conftest import rel_err


def write_csv(path, array):
    np.savetxt(path, np.atleast_2d(array), delimiter=",", fmt="%.6f")


def test_load_views_basic(tmp_path, rng):
    a = rng.normal(size=(10, 3))
    b = rng.normal(size=(10, 5))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pa, a)
    write_csv(pb, b)
    ds = load_views([str(pa), str(pb)])
    assert ds.n == 10 and ds.n_views == 2
    np.testing.assert_allclose(ds.views[0], a, atol=1e-6)


def test_single_view_rejected(tmp_path, rng):
    p = tmp_path / "a.csv"
    write_csv(p, rng.normal(size=(5, 2)))
    with pytest.raises(DataError, match="at least 2"):
        load_views([str(p)])


def test_row_mismatch_names_both_files(tmp_path, rng):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pa, rng.normal(size=(5, 2)))
    write_csv(pb, rng.normal(size=(6, 2)))
    with pytest.raises(DataError) as err:
        load_views([str(pa), str(pb)])
    assert "a.csv" in str(err.value) and "b.csv" in str(err.value)


def test_non_numeric_cell_reports_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        load_views([str(p), str(p)])


@pytest.mark.parametrize("kind,text,expected", [
    ("view", "1;2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("view", "1,2\n\n  \n\t\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("labels", "0\n\n2\n \n1\n", [0, 2, 1]),
    ("view", "", "empty file"),
    ("view", "\n  \n", "empty file"),
    ("labels", "", "empty file"),
    ("view", "1,2\n\n3\n", "row 3 has 1 cells, expected 2"),
    ("view", "# header\n1,2\n", "non-numeric cell at row 1, column 1"),
    ("labels", "1,2\n", "2 cells per row"),
    ("labels", "0\n\n2.7\n", "label at row 3 is not an integer .*: '2.7'"),
    ("labels", "1\nnan\n", "label at row 2 is not an integer .*: 'nan'"),
    ("labels", "1e20\n", "label at row 1 is not an integer .*: '1e20'"),
])
def test_reader_contract(tmp_path, kind, text, expected):
    p = tmp_path / "f.csv"
    p.write_text(text)
    read = {"view": lambda path: load_views([path, path]).views[0],
            "labels": read_labels}[kind]
    if isinstance(expected, str):
        with pytest.raises(DataError, match=expected):
            read(str(p))
    else:
        got = read(str(p))
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == (int if kind == "labels" else float)


def test_zscore_normalization():
    out = normalize_view(np.array([[1.0], [2.0], [3.0]]), "zscore")
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12


def test_minmax_constant_column_is_zero():
    out = normalize_view(np.full((4, 2), 7.0), "minmax")
    np.testing.assert_array_equal(out, 0.0)


def test_normalization_matches_straightline(rng):
    x = rng.normal(size=(20, 6)) * 3.0 + 1.0
    ref = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        ref[:, j] = (col - col.mean()) / col.std()
    assert rel_err(normalize_view(x, "zscore"), ref) < 1e-12


def test_partition_one_dimensional_example():
    views = [np.array([[0.0], [1.0], [2.0], [10.0]]),
             np.array([[0.0], [1.0], [2.0], [10.0]])]
    ds = MultiViewDataset(views)
    part = build_partition(ds, 0, 0, 2)
    np.testing.assert_array_equal(part.positive, [1, 2])
    np.testing.assert_array_equal(part.negative, [3])


def test_partition_k_equals_n_minus_one():
    ds = MultiViewDataset([np.arange(5.0).reshape(-1, 1)] * 2)
    part = build_partition(ds, 0, 2, 4)
    assert len(part.negative) == 0
    assert len(part.positive) == 4


def test_partition_tie_breaks_by_index():
    # samples 1 and 2 are equidistant from the anchor; k=1 must take index 1
    views = [np.array([[0.0], [1.0], [-1.0], [5.0]])] * 2
    ds = MultiViewDataset(views)
    part = build_partition(ds, 0, 0, 1)
    np.testing.assert_array_equal(part.positive, [1])
    assert 2 in part.negative


def test_partition_completeness(rng):
    ds = MultiViewDataset([rng.normal(size=(30, 4)), rng.normal(size=(30, 2))])
    for k in (1, 10, 29):
        part = build_partition(ds, 0, 7, k)
        assert len(part.positive) + len(part.negative) == 29
        if k < 29:
            assert part.anchor_distances[part.positive].max() <= \
                part.anchor_distances[part.negative].min() + 1e-12


def test_partition_anchor_out_of_range(rng):
    ds = MultiViewDataset([rng.normal(size=(5, 2))] * 2)
    with pytest.raises(DataError):
        build_partition(ds, 0, 5, 2)


def test_manifest_roundtrip(tmp_path):
    man = make_synthetic(str(tmp_path), clusters=3, samples=60, views=2,
                         noise=0.1, seed=4)
    spec = read_manifest(man)
    assert len(spec["views"]) == 2
    ds1 = load_manifest(man)
    ds2 = load_manifest(man)
    for a, b in zip(ds1.views, ds2.views):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ds1.labels, ds2.labels)


def test_manifest_unknown_key(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("view = a.csv\nview = b.csv\nbogus = 1\n")
    with pytest.raises(DataError, match="bogus"):
        read_manifest(str(p))


def test_synthetic_same_seed_same_bytes(tmp_path):
    m1 = make_synthetic(str(tmp_path / "a"), 3, 60, seed=5)
    m2 = make_synthetic(str(tmp_path / "b"), 3, 60, seed=5)
    for name in ("view0.csv", "view1.csv", "labels.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    m3 = make_synthetic(str(tmp_path / "c"), 3, 60, seed=6)
    assert (tmp_path / "a" / "view0.csv").read_bytes() != \
        (tmp_path / "c" / "view0.csv").read_bytes()
