"""Hot numeric kernels: COO weighted row gather and row scatter-add.

Every propagation step, forward and backward, is one `gather_rows` over the
union operator (see graphs.PropagationOperator). Both kernels accumulate in
a fixed order, so their results are exactly reproducible.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, stamped into benchmark records."""
    return "numpy"


def gather_rows(rows, indices, coef, src, n_out: int):
    """out[rows[e]] += coef[e] * src[indices[e]] for every edge e.

    ``rows``/``indices``/``coef`` form a COO view of a sparse matrix; rows
    with no edges yield zero vectors. It runs one weighted bincount per
    column, and bincount adds its weights in input order, so each output row
    sums its edges in ascending edge index, exactly as np.add.at would.
    """
    out = np.empty((n_out, src.shape[1]), dtype=np.float64)
    src_t = np.ascontiguousarray(src.T)
    for c in range(src.shape[1]):
        out[:, c] = np.bincount(rows, weights=coef * src_t[c, indices],
                                minlength=n_out)
    return out


def scatter_rows(out, idx, rows):
    """out[idx[t]] += rows[t], accumulated in ascending t order, in place."""
    if idx.size:
        np.add.at(out, idx, rows)
    return out
