"""Pairwise ranking optimization of the stacked embedding table.

Training minimizes, over sampled (user, positive, negative) triples,

    mean[-ln sigmoid(s_pos - s_neg)] + l2_weight * mean[||u0||^2 + ||p0||^2 + ||n0||^2]

with plain SGD. Because every propagation step is linear, gradients are the
transposed propagations applied to the output-side gradients, accumulated
down the layers with the same alpha weights; no autograd involved, which
keeps them auditable against finite differences.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .graphs import GraphBundle, _in_sorted
from .ingest import SplitDataset, atomic_write
from .kernels import gather_rows, scatter_rows
from .model import ModelConfig, final_embeddings, forward, init_tables


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bpr_loss(s_pos, s_neg):
    """-ln sigmoid(s_pos - s_neg), in overflow-safe softplus form."""
    return softplus(-(np.asarray(s_pos, dtype=np.float64) - s_neg))


def _sample_negatives_block(users: np.ndarray, item_count: int,
                            positives: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """A uniform item per entry of `users` outside the user's positives, the
    sorted distinct keys `user * item_count + item`; hits redraw in order,
    against a set of the user's items built at the user's first hit."""
    negs = rng.integers(item_count, size=users.shape[0])
    firsts = users * item_count
    seen: dict[int, set[int]] = {}
    for t in np.flatnonzero(_in_sorted(positives, firsts + negs)).tolist():
        user = int(users[t])
        items = seen.get(user)
        if items is None:
            lo, hi = np.searchsorted(positives, (firsts[t], firsts[t] + item_count))
            if hi - lo == item_count:
                raise DataError(f"no negatives available for user {user}")
            items = seen[user] = set((positives[lo:hi] - firsts[t]).tolist())
        neg = int(rng.integers(item_count))
        while neg in items:
            neg = int(rng.integers(item_count))
        negs[t] = neg
    return negs


PHASES = ("sample_s", "forward_s", "backward_s", "step_s", "validate_s")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    reg: float
    triples: int
    seconds: float
    val_recall: float | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict)
    maxrss_mb: float = 0.0  # the process's peak resident set so far


class _PhaseClock:
    """Wall seconds per phase: lap(phase) charges the time since the last
    lap (or the start) to `phase`, so the phases split the time between."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._last
        self._last = now


def _pair_scores(e_u, e_i, users, pos, negs):
    u_rows = e_u[users]
    s_pos = np.einsum("td,td->t", u_rows, e_i[pos])
    s_neg = np.einsum("td,td->t", u_rows, e_i[negs])
    return s_pos, s_neg


def _square_sum(rows, idx):
    """Sum of the squared rows[idx], squared in place: one (len(idx), dim)
    array, summed whole so that its bits do not depend on any blocking."""
    sq = rows[idx]
    sq *= sq
    return sq.sum()


def _l2_sum(tables: np.ndarray, bounds, users, pos, negs):
    """The batch's sum of squared layer-0 user, positive and negative rows."""
    n_u, n_ui = bounds[1:3]
    return (_square_sum(tables[:n_u], users) + _square_sum(tables[n_u:n_ui], pos)
            + _square_sum(tables[n_u:n_ui], negs))


def batch_loss(tables: np.ndarray, bundle: GraphBundle, config: ModelConfig,
               users, pos, negs) -> tuple[float, float, float]:
    """(total, bpr_mean, reg_mean) for a triple batch; recomputes the forward.

    This is the scalar objective that output_gradient and backward
    differentiate, kept as a plain function so finite-difference checks can
    probe it directly.
    """
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    negs = np.asarray(negs, dtype=np.int64)
    e_u, e_i = final_embeddings(forward(tables, bundle, config))
    s_pos, s_neg = _pair_scores(e_u, e_i, users, pos, negs)
    bpr = float(bpr_loss(s_pos, s_neg).mean())
    reg = config.l2_weight * float(
        _l2_sum(tables, bundle.operator.bounds, users, pos, negs)) / users.shape[0]
    return bpr + reg, bpr, reg


# Triples per block of the per-triple terms of output_gradient and
# backward: the scores and the scatters hold (block, dim) arrays whatever
# the batch size. A block of 4096 dim-64 rows is 2 MB.
_TRIPLE_BLOCK = 4096


def _triple_blocks(n: int):
    return (slice(lo, lo + _TRIPLE_BLOCK) for lo in range(0, n, _TRIPLE_BLOCK))


def _scatter_blocked(out, idx, terms) -> None:
    """scatter_rows(out, idx[b], terms(b)) over the triple blocks b in
    order, so every cell adds its terms in ascending triple order, as one
    scatter of the whole batch does."""
    for b in _triple_blocks(idx.shape[0]):
        scatter_rows(out, idx[b], terms(b))


def output_gradient(users, pos, negs, final: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, float]:
    """(G, bpr_mean): the gradient of the batch's mean BPR loss on the
    final embeddings `final` = final_embeddings(forward(...)), one row per
    user and item (the attribute rows of G are zero), and that mean."""
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    negs = np.asarray(negs, dtype=np.int64)
    n_triples = users.shape[0]
    e_u, e_i = final
    n_u = e_u.shape[0]

    delta = np.empty(n_triples)
    for b in _triple_blocks(n_triples):
        np.subtract(*_pair_scores(e_u, e_i, users[b], pos[b], negs[b]), out=delta[b])
    g = (-sigmoid(-delta) / n_triples)[:, None]
    bpr_mean = float(softplus(-delta).mean())
    del delta

    grad_final = np.zeros((n_u + e_i.shape[0], e_u.shape[1]))
    grad_u, grad_i = grad_final[:n_u], grad_final[n_u:]
    _scatter_blocked(grad_u, users, lambda b: g[b] * (e_i[pos[b]] - e_i[negs[b]]))
    _scatter_blocked(grad_i, pos, lambda b: g[b] * e_u[users[b]])
    _scatter_blocked(grad_i, negs, lambda b: -(g[b] * e_u[users[b]]))
    return grad_final, bpr_mean


def backward(users, pos, negs, grad_final: np.ndarray, tables: np.ndarray,
             bundle: GraphBundle, config: ModelConfig) -> tuple[np.ndarray, float]:
    """Exact gradient of the batch objective w.r.t. the stacked layer-0 table.

    `grad_final` is G from output_gradient, so the final embeddings need
    not live through the adjoint. Returns (gradients, reg_mean). The
    adjoint recursion mirrors the forward: z_K = alpha_K G and
    z_k = alpha_k G + Mᵀ z_{k+1}, with Mᵀ the transposed operator.
    """
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    negs = np.asarray(negs, dtype=np.int64)
    n_triples = users.shape[0]
    alpha = config.alpha()
    op = bundle.operator
    n_u, n_ui = op.bounds[1:3]

    reg_mean = 0.0
    if config.l2_weight:  # before the adjoint: its (T, dim) square is freed by then
        reg_mean = config.l2_weight * float(
            _l2_sum(tables, op.bounds, users, pos, negs)) / n_triples

    # adding alpha_k * +0.0 leaves a gathered row as it is (a gather never
    # yields -0.0), so only the scored rows take the alpha_k G term
    z = np.zeros((op.size, grad_final.shape[1]))
    np.multiply(grad_final, alpha[config.layers], out=z[:n_ui])
    for k in range(config.layers - 1, -1, -1):
        z = gather_rows(op.transpose, z)
        z[:n_ui] += alpha[k] * grad_final

    if config.l2_weight:
        c = 2.0 * config.l2_weight / n_triples
        z_u, z_i = z[:n_u], z[n_u:n_ui]
        e_u0, e_i0 = tables[:n_u], tables[n_u:n_ui]
        _scatter_blocked(z_u, users, lambda b: c * e_u0[users[b]])
        _scatter_blocked(z_i, pos, lambda b: c * e_i0[pos[b]])
        _scatter_blocked(z_i, negs, lambda b: c * e_i0[negs[b]])
    return z, reg_mean


def sgd_step(tables: np.ndarray, grads: np.ndarray, lr: float) -> None:
    tables -= lr * grads


@dataclass
class TrainResult:
    tables: np.ndarray
    stats: list[EpochStats]
    best_epoch: int | None = None
    best_val_recall: float | None = None


def train(split: SplitDataset, bundle: GraphBundle, config: ModelConfig, *,
          epochs: int, batch_size: int = 256, val_k: int = 50,
          patience: int = 5, log_path=None, checkpoint_path=None,
          checkpoint_extra: dict | None = None) -> TrainResult:
    """Run shuffled mini-batch SGD epochs; single-threaded and deterministic.

    Each epoch expands every training interaction into n_negatives triples.
    With a validation split, Recall@val_k is tracked per epoch, training
    stops after `patience` epochs without improvement (never with 0), and
    the best tables are kept and, given `checkpoint_path`, saved whole there
    on each improvement, or once at the end when nothing was validated.
    Each epoch appends one JSON line to `log_path`; with a
    `checkpoint_path` the first save replaces the old file with this run's
    lines, so a run that saves nothing leaves both files as they were. Each
    epoch's `phase_seconds` splits its time by PHASES; the validation
    forward counts under validate_s, and the next epoch's first batch
    reuses its final embeddings. `maxrss_mb` is the process's peak resident
    set at the end of the epoch.

    A step keeps only what its next operation reads: the forward's final
    embeddings, not its layers, go on to `output_gradient`, its gradient
    G, not the embeddings, goes on to `backward`, and the table's gradient
    is dropped once the step has applied it.
    """
    from . import evaluation  # local import; evaluation depends on model only
    from .model import save_checkpoint

    config.validate()
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if val_k < 1:
        raise ConfigError(f"validation k must be >= 1, got {val_k}")
    if patience < 0:
        raise ConfigError(f"patience must be >= 0, got {patience}")
    rng = np.random.default_rng(config.seed)
    tables = init_tables(bundle, config, rng)

    n_pairs = split.train.shape[0]
    if n_pairs == 0:
        raise DataError("empty training split")
    item_count = len(bundle.vocab_i)
    positives = bundle.g_ui.left * item_count + bundle.g_ui.right  # sorted
    # Build the three plans before the first batch rather than inside its
    # forward and backward. Live memory is about the same either way, but
    # among the batch arrays the serve-wide world's train peak RSS measured
    # 1.7 MB (2%) higher, through where the allocator placed them.
    op = bundle.operator
    _ = op.forward, op.head, op.transpose
    n_n = config.n_negatives

    stats: list[EpochStats] = []
    best_tables: np.ndarray | None = None
    best_val = -np.inf
    best_epoch = None
    stale = 0
    log_in_file = not checkpoint_path  # else the old log stays until a save

    def _save(t: np.ndarray) -> None:
        nonlocal log_in_file
        save_checkpoint(checkpoint_path, t, bundle, config, extra=checkpoint_extra)
        if log_path is not None and not log_in_file:
            with atomic_write(log_path) as fh:
                fh.writelines(_log_line(s, val_k) for s in stats)
        log_in_file = True

    final = None  # final embeddings of the current tables, once computed
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        clock = _PhaseClock()
        order = rng.permutation(n_pairs)
        loss_sum = reg_sum = 0.0
        batches = 0
        val_recall = None
        try:  # propagation, the loss or the validation scores can overflow
            for start in range(0, n_pairs, batch_size):
                sel = order[start:start + batch_size]
                users = np.repeat(split.train[sel, 0], n_n)
                pos = np.repeat(split.train[sel, 1], n_n)
                negs = _sample_negatives_block(users, item_count, positives, rng)
                clock.lap("sample_s")
                if final is None:  # the layers above 0 die here
                    final = final_embeddings(forward(tables, bundle, config))
                clock.lap("forward_s")
                grad_final, bpr_mean = output_gradient(users, pos, negs, final)
                final = None  # before the adjoint
                grads, reg_mean = backward(users, pos, negs, grad_final,
                                           tables, bundle, config)
                del grad_final  # before the next batch's forward
                clock.lap("backward_s")
                if not np.isfinite(bpr_mean):
                    raise NumericError("loss became non-finite")
                sgd_step(tables, grads, config.learning_rate)
                del grads  # before the next batch's backward
                loss_sum += bpr_mean
                reg_sum += reg_mean
                batches += 1
                clock.lap("step_s")
            if split.validation.size:  # the next epoch's first batch reuses `final`
                final = final_embeddings(forward(tables, bundle, config))
                val_recall = evaluation.mean_recall_at_k(
                    *final, split.validation, bundle.g_ui, val_k)
                clock.lap("validate_s")
        except NumericError as exc:
            raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc

        st = EpochStats(epoch=epoch, loss=loss_sum / batches,
                        reg=reg_sum / batches, triples=n_pairs * n_n,
                        seconds=time.perf_counter() - t0, val_recall=val_recall,
                        phase_seconds=clock.seconds, maxrss_mb=_maxrss_mb())
        stats.append(st)
        if log_path is not None and log_in_file:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(_log_line(st, val_k))

        if val_recall is not None:
            if val_recall > best_val + 1e-12:
                best_val = val_recall
                best_epoch = epoch
                best_tables = tables.copy()
                stale = 0
                if checkpoint_path:
                    _save(tables)
            else:
                stale += 1
                if stale == patience:  # stale >= 1 here, so never with 0
                    break

    final = best_tables if best_tables is not None else tables
    if checkpoint_path and best_epoch is None:
        # an improving epoch saved best_tables already; without one, the
        # file must still match the returned tables
        _save(final)
    return TrainResult(tables=final, stats=stats, best_epoch=best_epoch,
                       best_val_recall=None if best_epoch is None else best_val)


def _maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log_line(st: EpochStats, val_k: int) -> str:
    rec = {"epoch": st.epoch, "loss": st.loss, "reg": st.reg,
           f"val_recall@{val_k}": st.val_recall, "seconds": st.seconds,
           "maxrss_mb": st.maxrss_mb, **st.phase_seconds}
    return json.dumps(rec, sort_keys=True) + "\n"
