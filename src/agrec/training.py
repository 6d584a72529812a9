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
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .graphs import GraphBundle
from .ingest import SplitDataset
from .kernels import gather_rows, scatter_rows
from .model import LayerStack, ModelConfig, final_embeddings, forward, init_tables


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
                            user_positives: dict,
                            rng: np.random.Generator) -> np.ndarray:
    negs = rng.integers(item_count, size=users.shape[0])
    for t in range(users.shape[0]):
        positives = user_positives.get(int(users[t]), frozenset())
        if item_count <= len(positives):
            raise DataError(f"no negatives available for user {int(users[t])}")
        while int(negs[t]) in positives:
            negs[t] = rng.integers(item_count)
    return negs.astype(np.int64)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    reg: float
    triples: int
    seconds: float
    val_recall: float | None = None


class TrainDivergedError(NumericError):
    """Loss became non-finite; carries the tables from the last good epoch."""

    def __init__(self, message: str, last_good: np.ndarray | None,
                 stats: list[EpochStats]):
        super().__init__(message)
        self.last_good = last_good
        self.stats = stats


def _pair_scores(e_u, e_i, users, pos, negs):
    u_rows = e_u[users]
    s_pos = np.einsum("td,td->t", u_rows, e_i[pos])
    s_neg = np.einsum("td,td->t", u_rows, e_i[negs])
    return u_rows, s_pos, s_neg


def batch_loss(tables: np.ndarray, bundle: GraphBundle, config: ModelConfig,
               users, pos, negs) -> tuple[float, float, float]:
    """(total, bpr_mean, reg_mean) for a triple batch; recomputes the forward.

    This is the scalar objective that `backward` differentiates, kept as a
    plain function so finite-difference checks can probe it directly.
    """
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    negs = np.asarray(negs, dtype=np.int64)
    stack = forward(tables, bundle, config)
    e_u, e_i = final_embeddings(stack, config.alpha())
    _, s_pos, s_neg = _pair_scores(e_u, e_i, users, pos, negs)
    bpr = float(bpr_loss(s_pos, s_neg).mean())
    e_u0, e_i0 = stack.split(0)[:2]
    reg = config.l2_weight * float(
        (e_u0[users] ** 2).sum() + (e_i0[pos] ** 2).sum()
        + (e_i0[negs] ** 2).sum()) / users.shape[0]
    return bpr + reg, bpr, reg


def backward(users, pos, negs, stack: LayerStack, bundle: GraphBundle,
             config: ModelConfig) -> tuple[np.ndarray, float, float]:
    """Exact gradient of the batch objective w.r.t. the stacked layer-0 table.

    Returns (gradients, bpr_mean, reg_mean). The adjoint recursion mirrors the
    forward: z_K = alpha_K G and z_k = alpha_k G + Mᵀ z_{k+1}, where G is the
    loss gradient on the final embeddings and Mᵀ the transposed operator.
    """
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    negs = np.asarray(negs, dtype=np.int64)
    n_triples = users.shape[0]
    alpha = config.alpha()

    e_u, e_i = final_embeddings(stack, alpha)
    u_rows, s_pos, s_neg = _pair_scores(e_u, e_i, users, pos, negs)
    delta = s_pos - s_neg
    g = (-sigmoid(-delta) / n_triples)[:, None]

    # gradient on the final embeddings, stacked like the tables; attribute
    # rows stay zero because only users and items are scored
    op = bundle.operator
    grad_final = np.zeros((op.size, e_u.shape[1]))
    grad_u, grad_i, _, _ = op.split(grad_final)
    # temporaries in place (IEEE + and * commute, negation is exact): the
    # blocked scatters' transient memory is paid for by the ones saved here
    d = e_i[pos]
    d -= e_i[negs]
    d *= g
    scatter_rows(grad_u, users, d)
    u_rows *= g
    scatter_rows(grad_i, pos, u_rows)
    np.negative(u_rows, out=u_rows)
    scatter_rows(grad_i, negs, u_rows)
    del d, u_rows  # training's peak memory falls in the adjoint gathers

    z = alpha[config.layers] * grad_final
    for k in range(config.layers - 1, -1, -1):
        z = gather_rows(op.transpose, z)
        z += alpha[k] * grad_final

    reg_mean = 0.0
    if config.l2_weight:
        c = 2.0 * config.l2_weight / n_triples
        z_u, z_i = op.split(z)[:2]
        e_u0, e_i0 = stack.split(0)[:2]
        scatter_rows(z_u, users, c * e_u0[users])
        scatter_rows(z_i, pos, c * e_i0[pos])
        scatter_rows(z_i, negs, c * e_i0[negs])
        reg_mean = config.l2_weight * float(
            (e_u0[users] ** 2).sum() + (e_i0[pos] ** 2).sum()
            + (e_i0[negs] ** 2).sum()) / n_triples

    bpr_mean = float(softplus(-delta).mean())
    return z, bpr_mean, reg_mean


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
          patience: int | None = 5, log_path=None, checkpoint_path=None,
          checkpoint_every: int = 0, checkpoint_extra: dict | None = None) -> TrainResult:
    """Run shuffled mini-batch SGD epochs; single-threaded and deterministic.

    Each epoch expands every training interaction into n_negatives triples.
    When a validation split is present, Recall@val_k is tracked per epoch,
    the best-validation tables are kept (and checkpointed if a path is
    given), and training stops after `patience` epochs without improvement.
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
    if patience is not None and patience < 0:
        raise ConfigError(f"patience must be >= 0, got {patience}")
    if checkpoint_every < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    rng = np.random.default_rng(config.seed)
    tables = init_tables(bundle, config, rng)

    pairs = np.asarray(split.train, dtype=np.int64).reshape(-1, 2)
    n_pairs = pairs.shape[0]
    if n_pairs == 0:
        raise DataError("empty training split")
    item_count = len(bundle.vocab_i)
    # Build both plans before the first batch rather than inside its forward
    # and backward. Live memory is about the same either way, but among the
    # batch arrays the serve-wide world's train peak RSS measured 1.7 MB
    # (2%) higher, through where the allocator placed them.
    _ = bundle.operator.forward, bundle.operator.transpose
    n_n = config.n_negatives

    val_by_user: dict[int, set[int]] = {}
    for u, i in split.validation:
        val_by_user.setdefault(int(u), set()).add(int(i))

    stats: list[EpochStats] = []
    last_good: np.ndarray | None = None
    best_tables: np.ndarray | None = None
    best_val = -np.inf
    best_epoch = None
    stale = 0

    def _checkpoint(path, tbl):
        save_checkpoint(path, tbl, bundle, config, extra=checkpoint_extra)

    stack = None  # forward of the current tables, once computed
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n_pairs)
        loss_sum = reg_sum = 0.0
        batches = 0
        val_recall = None
        try:  # propagation, the loss or the validation scores can overflow
            for start in range(0, n_pairs, batch_size):
                sel = order[start:start + batch_size]
                users = np.repeat(pairs[sel, 0], n_n)
                pos = np.repeat(pairs[sel, 1], n_n)
                negs = _sample_negatives_block(users, item_count,
                                               split.user_positives, rng)
                if stack is None:
                    stack = forward(tables, bundle, config)
                grads, bpr_mean, reg_mean = backward(users, pos, negs, stack,
                                                     bundle, config)
                if not np.isfinite(bpr_mean):
                    raise NumericError("loss became non-finite")
                sgd_step(tables, grads, config.learning_rate)
                stack = None
                loss_sum += bpr_mean
                reg_sum += reg_mean
                batches += 1
            if val_by_user:  # the next epoch's first batch reuses this stack
                stack = forward(tables, bundle, config)
                e_u, e_i = final_embeddings(stack, config.alpha())
                val_recall = evaluation.mean_recall_at_k(
                    e_u, e_i, val_by_user, split.user_positives, val_k)
        except NumericError as exc:
            raise TrainDivergedError(
                f"training diverged at epoch {epoch}: {exc}",
                last_good, stats) from exc

        st = EpochStats(epoch=epoch, loss=loss_sum / batches,
                        reg=reg_sum / batches, triples=n_pairs * n_n,
                        seconds=time.perf_counter() - t0, val_recall=val_recall)
        stats.append(st)
        last_good = tables.copy()
        if log_path is not None:
            _append_log_line(log_path, st, val_k)
        if checkpoint_every and epoch % checkpoint_every == 0 and checkpoint_path:
            _checkpoint(checkpoint_path, tables)

        if val_recall is not None:
            if val_recall > best_val + 1e-12:
                best_val = val_recall
                best_epoch = epoch
                best_tables = tables.copy()
                stale = 0
                if checkpoint_path:
                    _checkpoint(checkpoint_path, tables)
            else:
                stale += 1
                if patience is not None and stale >= patience:
                    break

    final = best_tables if best_tables is not None else tables
    if checkpoint_path:
        # authoritative write: the file always matches the returned tables
        _checkpoint(checkpoint_path, final)
    return TrainResult(tables=final, stats=stats, best_epoch=best_epoch,
                       best_val_recall=None if best_epoch is None else best_val)


def _append_log_line(path, st: EpochStats, val_k: int) -> None:
    rec = {"epoch": st.epoch, "loss": st.loss, "reg": st.reg,
           f"val_recall@{val_k}": st.val_recall, "seconds": st.seconds}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
