"""Hot numeric kernels: planned weighted row gather and row scatter-add.

Every propagation step, forward and backward, is one `gather_rows` over a
`GatherPlan` of the union operator (see graphs.PropagationOperator). Both
kernels accumulate in a fixed order, so their results are exactly
reproducible and bitwise equal to np.add.at.

Hub rows and scatters share one idiom: a row-major (E, w) block of terms,
w <= _BLOCK columns, whose cells carry flattened keys row * width + j. Hub
rows sum such a block with a weighted np.bincount onto zeros (width w), one
chunk of whole hubs at a time; scatters add it with np.add.at onto the
flattened output (width: the output's columns). Both add each cell's terms
in input order, so every cell sums in edge order, bitwise as row-wise
np.add.at does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows with more edges than this are gathered by the blocked bincount instead
# of the jagged slots: a hub of degree d costs d slots of one row each. On
# the benchmark's worlds, with the blocked hub, forward plus transpose gather
# time was flat from 32 to 64 (converge), 32 to 128 (train-mid) and 24 to 64
# (serve-wide), and rose below those; 48 sits inside every flat part.
_JAGGED_MAX_DEGREE = 48

# Columns per block. A block's keys and terms hold 16 bytes per term of one
# block at a time, whatever the embedding width.
_BLOCK = 8

# Cells of keys and terms per chunk of hub rows: a gather's hub scratch is
# at most 16 bytes times this (1 MB), whatever the hubs' total degree. A
# hub with more edges than fit is a chunk of its own.
_HUB_CELLS = 1 << 16


def active_backend() -> str:
    """Name of the kernel implementation, stamped into benchmark records."""
    return "numpy"


@dataclass(frozen=True)
class GatherPlan:
    """A sparse matrix laid out for `gather_rows` (jagged diagonals, Saad,
    Iterative Methods for Sparse Linear Systems, §3.4, plus a hub part).

    Light rows (degree <= _JAGGED_MAX_DEGREE, empty rows included) are
    ordered by descending degree; slot j holds the j-th edge of each light
    row whose degree exceeds j, so it covers a prefix of `light_rows`.
    Heavy row h keeps its edges at heavy_nbr/heavy_coef[heavy_ptr[h]:
    heavy_ptr[h + 1]]. Within every row the edges keep their input order.
    Neighbour indices are int32 when the largest one fits, else int64.
    """

    n_out: int
    n_src: int               # 1 + the largest neighbour index
    light_rows: np.ndarray   # output row per light position
    slot_ptr: np.ndarray     # slot j is nbr/coef[slot_ptr[j]:slot_ptr[j + 1]]
    nbr: np.ndarray
    coef: np.ndarray
    heavy_rows: np.ndarray
    heavy_ptr: np.ndarray
    heavy_nbr: np.ndarray
    heavy_coef: np.ndarray


def plan_gather(rows, indices, coef, n_out: int) -> GatherPlan:
    """Plan out[rows[e]] += coef[e] * src[indices[e]] over every edge e; each
    output row will add its edges in ascending edge index. Indices must not
    be negative; gather_rows rejects sources too short for the largest."""
    rows = np.asarray(rows, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and indices.min() < 0:
        raise IndexError("negative neighbour index in gather plan")
    coef = np.asarray(coef, dtype=np.float64)
    order = np.argsort(rows, kind="stable")  # edges grouped by row
    deg = np.bincount(rows, minlength=n_out)
    start = np.cumsum(deg) - deg
    heavy = deg > _JAGGED_MAX_DEGREE
    light_rows = np.flatnonzero(~heavy)
    light_rows = light_rows[np.argsort(-deg[light_rows], kind="stable")]
    light_deg = deg[light_rows]
    n_slots = int(light_deg[0]) if light_deg.size else 0
    # slot j holds the light rows of degree > j, a prefix as degrees fall
    width = np.searchsorted(-light_deg, -np.arange(n_slots))
    slots = [start[light_rows[:w]] + j for j, w in enumerate(width)]
    pos = order[np.concatenate(slots)] if slots else np.zeros(0, np.int64)
    hub = order[np.repeat(heavy, deg)]
    heavy_rows = np.flatnonzero(heavy)
    n_src = int(indices.max()) + 1 if indices.size else 0
    nbr_type = np.int32 if n_src <= 2**31 else np.int64
    return GatherPlan(
        n_out=int(n_out), n_src=n_src, light_rows=light_rows,
        slot_ptr=np.concatenate(([0], np.cumsum(width))).astype(np.int64),
        nbr=indices[pos].astype(nbr_type, copy=False), coef=coef[pos],
        heavy_rows=heavy_rows,
        heavy_ptr=np.concatenate(([0], np.cumsum(deg[heavy_rows]))).astype(np.int64),
        heavy_nbr=indices[hub].astype(nbr_type, copy=False), heavy_coef=coef[hub])


def _column_blocks(n, dim, keys_of):
    """Yield (lo, hi, keys, block) for each block of at most _BLOCK columns
    of a dim-column target. `block` is a row-major (n, hi - lo) buffer for
    the block's terms, and keys = keys_of(hi - lo) holds the flattened
    target's key of each of its cells. Blocks of one width share keys and
    buffer."""
    buffers = {}
    for lo in range(0, dim, _BLOCK):
        hi = min(lo + _BLOCK, dim)
        w = hi - lo
        if w not in buffers:
            buffers[w] = keys_of(w), np.empty((n, w))
        yield (lo, hi) + buffers[w]


def _hub_chunks(ptr):
    """(first, end) of each run of whole hubs, in order, whose edges fill at
    most _HUB_CELLS cells of one block; a larger hub is a run of its own."""
    per_chunk = _HUB_CELLS // _BLOCK
    h, n_hub = 0, ptr.size - 1
    while h < n_hub:
        end = int(np.searchsorted(ptr, ptr[h] + per_chunk, side="right")) - 1
        end = max(end, h + 1)
        yield h, end
        h = end


def gather_rows(plan: GatherPlan, src):
    """out[r] = sum over row r's edges e of coef[e] * src[nbr[e]], in edge
    order from +0.0, as np.add.at would; rows with no edges are zero.

    Light rows add one slot at a time, acc[:n_j] += w_j * src[nbr_j], with
    `out` as the scratch row buffer until the rows land in it. Heavy rows
    run, per chunk of whole hubs (_hub_chunks), one weighted bincount per
    block of 8 columns, keyed by hub * w + j, which adds in edge order too.
    """
    src = np.asarray(src, dtype=np.float64)
    if src.shape[0] < plan.n_src:
        raise IndexError(f"plan reads source row {plan.n_src - 1}, "
                         f"src has {src.shape[0]} rows")
    # every index is now in range, so take's mode="clip" never clips; it
    # only spares the buffered copy of `out` that mode="raise" makes
    dim = src.shape[1]
    out = np.empty((plan.n_out, dim), dtype=np.float64)
    acc = np.zeros((plan.light_rows.size, dim), dtype=np.float64)
    ptr = plan.slot_ptr
    for j in range(ptr.size - 1):
        lo, hi = ptr[j], ptr[j + 1]
        term = out[:hi - lo]
        src.take(plan.nbr[lo:hi], axis=0, out=term, mode="clip")
        term *= plan.coef[lo:hi, None]
        acc[:hi - lo] += term
    out[plan.light_rows] = acc
    del acc  # before the hub chunks' keys and terms: gathers set train's peak

    ptr = plan.heavy_ptr
    for h0, h1 in _hub_chunks(ptr):
        a, b, n_hub = ptr[h0], ptr[h1], h1 - h0
        deg = np.diff(ptr[h0:h1 + 1])
        nbr, coef = plan.heavy_nbr[a:b], plan.heavy_coef[a:b, None]

        def hub_keys(w):  # hub h's cell j is key h * w + j, on each of its edges
            cells = np.arange(n_hub * w).reshape(n_hub, w)
            return np.repeat(cells, deg, axis=0).reshape(-1)

        for lo, hi, keys, term in _column_blocks(b - a, dim, hub_keys):
            src[:, lo:hi].take(nbr, axis=0, out=term, mode="clip")
            term *= coef
            sums = np.bincount(keys, weights=term.reshape(-1), minlength=n_hub * (hi - lo))
            out[plan.heavy_rows[h0:h1], lo:hi] = sums.reshape(n_hub, hi - lo)
    return out


def scatter_rows(out, idx, rows):
    """out[idx[t]] += rows[t], accumulated in ascending t order, in place;
    returns `out`, which must be C-contiguous.

    np.add.at adds each block of at most 8 columns onto the flattened `out`,
    keyed by idx * dim + j. Every cell still adds its terms in ascending t,
    so the result is bitwise that of row-wise np.add.at, which is 2-3x
    slower.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter_rows adds onto a C-contiguous output only")
    flat, dim = out.reshape(-1), out.shape[1]

    def row_keys(w):  # row idx[t]'s cell j is key idx[t] * dim + j
        return (idx[:, None] * dim + np.arange(w)).reshape(-1)

    for lo, hi, keys, block in _column_blocks(idx.size, dim, row_keys):
        np.copyto(block, rows[:, lo:hi])
        np.add.at(flat[lo:], keys, block.reshape(-1))
    return out
