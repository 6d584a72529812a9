"""The COO gather and the row scatter accumulate in a fixed order."""

import numpy as np

from agrec import kernels
from agrec.kernels import gather_rows, scatter_rows


def _random_coo(rng, n_rows, n_src, n_edges):
    rows = np.sort(rng.integers(0, n_rows, size=n_edges)).astype(np.int64)
    indices = rng.integers(0, n_src, size=n_edges).astype(np.int64)
    coef = rng.uniform(0.1, 1.0, size=n_edges)
    return rows, indices, coef


def test_gather_matches_explicit_loop():
    rng = np.random.default_rng(0)
    rows, indices, coef = _random_coo(rng, 7, 5, 30)
    src = rng.normal(size=(5, 3))
    got = gather_rows(rows, indices, coef, src, 7)
    want = np.zeros((7, 3))
    for e in range(rows.shape[0]):
        want[rows[e]] += coef[e] * src[indices[e]]
    np.testing.assert_array_equal(got, want)


def test_gather_matches_add_at_bitwise():
    # unsorted rows too: accumulation follows edge order, whatever it is
    rng = np.random.default_rng(1)
    for _ in range(20):
        n_rows = int(rng.integers(1, 50))
        n_src = int(rng.integers(1, 50))
        n_edges = int(rng.integers(0, 300))
        d = int(rng.integers(1, 8))
        rows, indices, coef = _random_coo(rng, n_rows, n_src, n_edges)
        rng.shuffle(rows)
        src = rng.normal(size=(n_src, d))
        want = np.zeros((n_rows, d))
        np.add.at(want, rows, src[indices] * coef[:, None])
        got = gather_rows(rows, indices, coef, src, n_rows)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


def test_gather_empty_rows_are_zero():
    empty = np.zeros(0, np.int64)
    out = gather_rows(empty, empty, np.zeros(0), np.zeros((0, 4)), 2)
    assert out.shape == (2, 4)
    assert (out == 0).all()


def test_scatter_accumulates_duplicates():
    out = np.zeros((3, 2))
    idx = np.array([1, 1, 2], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    scatter_rows(out, idx, rows)
    np.testing.assert_array_equal(out, [[0, 0], [4, 6], [5, 6]])


def test_backend_is_numpy():
    assert kernels.active_backend() == "numpy"
