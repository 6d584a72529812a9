"""The planned gather and the row scatter accumulate in a fixed order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrec import kernels
from agrec.kernels import (_BLOCK, _HUB_CELLS, _JAGGED_MAX_DEGREE, gather_rows,
                           plan_gather, scatter_rows)
from helpers import dense_union_matrix, hub_world, traced_peak


def _random_coo(rng, n_rows, n_src, n_edges):
    rows = np.sort(rng.integers(0, n_rows, size=n_edges)).astype(np.int64)
    indices = rng.integers(0, n_src, size=n_edges).astype(np.int64)
    coef = rng.uniform(0.1, 1.0, size=n_edges)
    return rows, indices, coef


def _add_at(rows, indices, coef, src, n_rows):
    want = np.zeros((n_rows, src.shape[1]))
    np.add.at(want, rows, src[indices] * coef[:, None])
    return want


def test_gather_matches_explicit_loop():
    rng = np.random.default_rng(0)
    rows, indices, coef = _random_coo(rng, 7, 5, 30)
    src = rng.normal(size=(5, 3))
    got = gather_rows(plan_gather(rows, indices, coef, 7), src)
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
        want = _add_at(rows, indices, coef, src, n_rows)
        got = gather_rows(plan_gather(rows, indices, coef, n_rows), src)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


# degrees straddle the light/heavy threshold: 0, a few, exactly T and T + 1
_DEGREES = st.sampled_from([0, 1, 2, 3, _JAGGED_MAX_DEGREE - 1, _JAGGED_MAX_DEGREE,
                            _JAGGED_MAX_DEGREE + 1, 2 * _JAGGED_MAX_DEGREE + 5])
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e300, -1e300, np.inf, -np.inf])


@settings(max_examples=150, deadline=None)
@given(degrees=st.lists(_DEGREES, min_size=1, max_size=6),
       n_src=st.integers(1, 12), dim=st.sampled_from([1, 2, 3, 4, 7, 8, 9, 16, 17]),
       seed=st.integers(0, 2**32 - 1), specials=st.lists(_VALUES, max_size=8))
def test_gather_plan_is_bitwise_add_at(degrees, n_src, dim, seed, specials):
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(len(degrees)), degrees)
    rng.shuffle(rows)  # unsorted COO
    indices = rng.integers(0, n_src, size=rows.size)
    coef = rng.choice([0.5, -1.0, 0.0, 1 / 3, 2.0], size=rows.size)
    src = rng.normal(size=(n_src, dim))
    flat = src.reshape(-1)
    flat[rng.integers(0, flat.size, size=len(specials))] = specials
    with np.errstate(invalid="ignore", over="ignore"):
        want = _add_at(rows, indices, coef, src, len(degrees))
        got = gather_rows(plan_gather(rows, indices, coef, len(degrees)), src)
    assert got.tobytes() == want.tobytes()


# one hub per chunk, and chunks of two or three of hub_world's hubs (degrees
# 50-69); dim 19 is blocks of 8 + 8 + 3 columns
@pytest.mark.parametrize("cells", [1, 150 * _BLOCK], ids=["cells1", "cells1200"])
def test_hub_chunks_are_bitwise_add_at(monkeypatch, cells):
    monkeypatch.setattr(kernels, "_HUB_CELLS", cells)
    bundle, _ = hub_world()
    op = bundle.operator
    dense = dense_union_matrix(bundle)
    rows, cols = np.nonzero(dense)  # entries in (row, col) order
    coef = dense[rows, cols]
    src = np.random.default_rng(4).normal(size=(op.size, 19))
    for plan, out_rows, in_rows in ((op.forward, rows, cols), (op.transpose, cols, rows)):
        chunks = list(kernels._hub_chunks(plan.heavy_ptr))
        assert len(chunks) > 1 and chunks[-1][1] == plan.heavy_rows.size
        assert (max(h1 - h0 for h0, h1 in chunks) > 1) == (cells > 1)
        want = _add_at(out_rows, in_rows, coef, src, op.size)
        assert gather_rows(plan, src).tobytes() == want.tobytes()


def test_hub_scratch_is_one_chunk():
    # 96,000 hub edges are 12x the cells of one chunk of 8 columns
    n_hub, degree, n_light, dim = 12, 8_000, 20_000, 8
    assert n_hub * degree * _BLOCK > 10 * _HUB_CELLS
    rows = np.concatenate((np.repeat(np.arange(n_hub), degree),
                           np.arange(n_hub, n_hub + n_light)))
    rng = np.random.default_rng(5)
    plan = plan_gather(rows, rng.integers(0, 64, size=rows.size),
                       rng.uniform(size=rows.size), n_hub + n_light)
    src = rng.normal(size=(64, dim))
    out, peak = traced_peak(gather_rows, plan, src)
    acc = n_light * dim * 8
    assert peak <= out.nbytes + acc + 16 * _HUB_CELLS


@pytest.mark.parametrize("index, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_plan_indices_never_wrap(index, dtype):
    # the plan alone: no source of 2**31 rows is allocated
    plan = plan_gather([0], [index], [1.0], 1)
    assert plan.nbr.dtype == dtype and plan.nbr[0] == index
    assert plan.n_src == index + 1


def test_plan_splits_rows_at_the_threshold():
    t = _JAGGED_MAX_DEGREE
    degrees = [t + 1, 0, t, 2, t + 1]
    rows = np.repeat(np.arange(5), degrees)
    plan = plan_gather(rows, np.zeros(rows.size, np.int64), np.ones(rows.size), 5)
    assert plan.heavy_rows.tolist() == [0, 4]
    assert plan.light_rows.tolist() == [2, 3, 1]  # descending degree, stable
    assert np.diff(plan.slot_ptr).tolist() == [2, 2] + [1] * (t - 2)


def test_gather_empty_rows_are_zero():
    empty = np.zeros(0, np.int64)
    out = gather_rows(plan_gather(empty, empty, np.zeros(0), 2), np.zeros((0, 4)))
    assert out.shape == (2, 4)
    assert (out == 0).all()


@pytest.mark.parametrize("degree", [2, _JAGGED_MAX_DEGREE + 1])
def test_gather_rejects_short_sources(degree):
    # light and hub rows alike: a missing source row raises, never reads
    # a clipped neighbour
    rows = np.zeros(degree, np.int64)
    indices = np.arange(degree)
    plan = plan_gather(rows, indices, np.ones(degree), 1)
    assert gather_rows(plan, np.ones((degree, 2)))[0].tolist() == [degree] * 2
    with pytest.raises(IndexError, match="source row"):
        gather_rows(plan, np.ones((degree - 1, 2)))


def test_plan_rejects_negative_index():
    with pytest.raises(IndexError, match="negative"):
        plan_gather([0, 0], [1, -1], [1.0, 1.0], 1)


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), min_size=1, max_size=3),
       n_out=st.integers(1, 6), dim=st.sampled_from([1, 3, 7, 8, 9, 16, 17]),
       zeroed=st.booleans(), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(_VALUES, max_size=8))
def test_scatter_is_bitwise_add_at(sizes, n_out, dim, zeroed, seed, specials):
    # few output rows: every index repeats; several scatters in a row onto
    # one output, as backward makes them
    rng = np.random.default_rng(seed)
    start = np.zeros((n_out, dim)) if zeroed else rng.normal(size=(n_out, dim))
    got, want = start.copy(), start.copy()
    for n in sizes:
        rows = rng.normal(size=(n, dim))
        flat = rows.reshape(-1)
        flat[rng.integers(0, flat.size, size=min(len(specials), flat.size))] = \
            specials[:flat.size]
        idx = rng.integers(0, n_out, size=n)
        with np.errstate(invalid="ignore", over="ignore"):
            assert scatter_rows(got, idx, rows) is got
            np.add.at(want, idx, rows)
    assert got.tobytes() == want.tobytes()


def test_scatter_adds_into_a_row_slice_view():
    # backward scatters into class views of one stacked gradient table
    stacked = np.zeros((5, 10))
    idx = np.array([0, 2, 2, 0])
    rows = np.arange(40.0).reshape(4, 10)
    scatter_rows(stacked[1:4], idx, rows)
    want = np.zeros((5, 10))
    np.add.at(want[1:4], idx, rows)
    assert stacked.tobytes() == want.tobytes()


def test_scatter_onto_a_strided_view_is_refused():
    # np.add.at runs on the flattened output, which must be a view of it
    out = np.ones((4, 6))
    with pytest.raises(ValueError, match="C-contiguous"):
        scatter_rows(out[:, :3], np.array([1, 1]), np.ones((2, 3)))
    assert (out == 1).all()


def test_scatter_accumulates_duplicates():
    out = np.zeros((3, 2))
    idx = np.array([1, 1, 2], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    scatter_rows(out, idx, rows)
    np.testing.assert_array_equal(out, [[0, 0], [4, 6], [5, 6]])


def test_backend_is_numpy():
    assert kernels.active_backend() == "numpy"
