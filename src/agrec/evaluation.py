"""Top-k ranking and Recall/NDCG/Precision metrics.

Standard mode ranks every trained item except the user's training positives;
cold-start mode ranks only items absent from training interactions, scored
purely through their attribute keywords. Metrics use binary relevance and are
averaged over users with at least one test positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ColdItemError, ConfigError, DataError, IntegrityError,
                     NumericError)
from .graphs import GraphBundle
from .ingest import SplitDataset
from .model import (Checkpoint, cold_item_embedding, final_embeddings, forward,
                    vocab_hashes)


@dataclass
class RankingResult:
    """Full candidate ordering for one user, best first.

    Ties break by ascending item index, so the ordering is deterministic.
    """

    user: int
    ordering: np.ndarray


@dataclass
class MetricsReport:
    """Metrics averaged over the `users` that were ranked.

    excluded_users counts users with test positives that could not be
    ranked: no candidate item is left after removing their training
    positives, or (cold-start) every one of their cold positives is
    unscorable. unscorable_cold_items counts cold items with no trained
    keyword, which cannot be embedded and are left out of the candidates.
    """

    mode: str
    k: int
    users: int
    recall: float
    ndcg: float
    precision: float
    checkpoint_hash: str = ""
    dataset_hash: str = ""
    excluded_users: int = 0
    unscorable_cold_items: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "k": self.k, "users": self.users,
            "recall": self.recall, "ndcg": self.ndcg, "precision": self.precision,
            "checkpoint_hash": self.checkpoint_hash,
            "dataset_hash": self.dataset_hash,
            "excluded_users": self.excluded_users,
            "unscorable_cold_items": self.unscorable_cold_items,
        }


def rank_items(user: int, candidates, e_u: np.ndarray, e_i: np.ndarray,
               train_positives=None) -> RankingResult:
    """Sort candidates by descending score for `user`, ties by ascending index."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise DataError("empty candidate set")
    if train_positives:
        overlap = set(int(c) for c in candidates) & set(train_positives)
        if overlap:
            raise DataError(
                f"candidates include training positives: {sorted(overlap)[:5]}")
    scores = e_i[candidates] @ e_u[user]
    order = np.lexsort((candidates, -scores))
    return RankingResult(user=int(user), ordering=candidates[order])


# scores per ranking block: 2^16 float64 scores are 512 KB, small beside peak RSS
_BLOCK_SCORES = 1 << 16


def top_k(user_vecs: np.ndarray, item_vecs: np.ndarray, k: int,
          exclude=None) -> list[np.ndarray]:
    """Best-first indices of the top k items for each user row, ties by
    ascending index also at the k-th place: row r is rank_items' ordering[:k]
    over the items not in exclude[r], and shorter when fewer are left."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n_items = item_vecs.shape[0]
    rows, kth = max(1, _BLOCK_SCORES // n_items), min(k, n_items) - 1
    out: list[np.ndarray] = []
    for start in range(0, user_vecs.shape[0], rows):
        neg = user_vecs[start:start + rows] @ item_vecs.T
        np.negative(neg, out=neg)
        if not np.isfinite(neg).all():
            raise NumericError("non-finite ranking scores")
        for r, excluded in enumerate(exclude[start:start + rows] if exclude else ()):
            neg[r, list(excluded)] = np.inf
        for row in neg:
            idx = np.flatnonzero(row <= np.partition(row, kth)[kth])
            idx = idx[np.argsort(row[idx], kind="stable")][:k]
            out.append(idx[row[idx] < np.inf])  # +inf marks an excluded item
    return out


def _hit_ranks(ordering, positives, k: int) -> np.ndarray:
    """1-based ranks of the positives among the first k items of ordering."""
    return np.array([rank for rank, item in enumerate(ordering[:k].tolist(), 1)
                     if item in positives], dtype=np.int64)


def recall_at_k(result: RankingResult, positives, k: int) -> float:
    if not positives:
        raise DataError("recall undefined without positives")
    return _hit_ranks(result.ordering, positives, k).size / len(positives)


def precision_at_k(result: RankingResult, positives, k: int) -> float:
    return _hit_ranks(result.ordering, positives, k).size / k


def ndcg_at_k(result: RankingResult, positives, k: int) -> float:
    """Binary-relevance NDCG with 1/log2(rank+1) discount; IDCG truncates at
    min(k, |positives|)."""
    if not positives:
        raise DataError("ndcg undefined without positives")
    hit_ranks = _hit_ranks(result.ordering, positives, k)
    dcg = float(np.sum(1.0 / np.log2(hit_ranks + 1)))
    ideal = np.arange(1, min(k, len(positives)) + 1)
    idcg = float(np.sum(1.0 / np.log2(ideal + 1)))
    return dcg / idcg


def mean_recall_at_k(e_u: np.ndarray, e_i: np.ndarray,
                     positives_by_user: dict[int, set[int]],
                     train_positives: dict[int, set[int]], k: int) -> float:
    """Average Recall@k over users with positives; used for early stopping."""
    users = sorted(positives_by_user)
    tops = top_k(e_u[users], e_i, k,
                 exclude=[train_positives.get(u, ()) for u in users])
    values = [recall_at_k(RankingResult(u, top), positives_by_user[u], k)
              for u, top in zip(users, tops) if top.size]
    if not values:
        return 0.0
    return float(np.sum(np.asarray(values)) / len(values))


@dataclass
class ColdCandidates:
    """Items absent from training interactions: external IDs, their attribute
    keywords, and the (user index, item ID) test pairs that hit them."""

    ids: list[str]
    keywords: dict[str, list[str]]
    test_pairs: list[tuple[int, str]]


def _aggregate(per_user: list[tuple[float, float, float]]) -> tuple[float, float, float]:
    arr = np.asarray(per_user, dtype=np.float64)
    sums = arr.sum(axis=0)  # numpy pairwise summation keeps this order-stable
    n = arr.shape[0]
    return float(sums[0] / n), float(sums[1] / n), float(sums[2] / n)


def evaluate(checkpoint: Checkpoint, bundle: GraphBundle, split: SplitDataset,
             k: int, mode: str = "standard",
             cold: ColdCandidates | None = None,
             checkpoint_hash: str = "", dataset_hash: str = "") -> MetricsReport:
    """Score, rank and average metrics over eligible users.

    Refuses to run when the checkpoint's vocabulary hashes do not match the
    graphs rebuilt from the dataset.
    """
    if mode not in ("standard", "cold_start"):
        raise ConfigError(f"unknown evaluation mode {mode!r}")
    expected = vocab_hashes(bundle)
    stored = checkpoint.header.get("vocab_sha256")
    if stored != expected:
        raise IntegrityError("checkpoint vocabularies do not match dataset")

    config = checkpoint.config()
    stack = forward(checkpoint.tables, bundle, config)
    e_u, e_i = final_embeddings(stack, config.alpha())

    if mode == "standard":
        items, seen, pairs = e_i, split.user_positives, split.test
        eligible = len({int(u) for u, _ in pairs})
        unscorable = 0
    else:
        if cold is None:
            raise ConfigError("cold_start mode requires cold candidates")
        rows: list[np.ndarray] = []
        row_of: dict[str, int] = {}
        for item_id in cold.ids:
            try:
                vec = cold_item_embedding(cold.keywords.get(item_id, ()),
                                          bundle.vocab_ia, bundle.g_iia,
                                          stack, config.alpha())
            except ColdItemError:
                continue  # no trained keyword overlap: counted as unscorable
            row_of[item_id] = len(rows)
            rows.append(vec)
        if not rows:
            raise DataError("no scorable cold items")
        items, seen = np.vstack(rows), {}
        pairs = [(u, row_of[i]) for u, i in cold.test_pairs if i in row_of]
        eligible = len({int(u) for u, _ in cold.test_pairs})
        unscorable = len(cold.ids) - len(rows)

    by_user: dict[int, set[int]] = {}
    for u, i in pairs:
        by_user.setdefault(int(u), set()).add(int(i))
    users = sorted(by_user)
    tops = top_k(e_u[users], items, k, exclude=[seen.get(u, ()) for u in users])
    per_user: list[tuple[float, float, float]] = []
    for user, top in zip(users, tops):
        if not top.size:
            continue
        res, positives = RankingResult(user, top), by_user[user]
        per_user.append((recall_at_k(res, positives, k),
                         ndcg_at_k(res, positives, k),
                         precision_at_k(res, positives, k)))

    if per_user:
        recall, ndcg, precision = _aggregate(per_user)
    else:
        recall = ndcg = precision = 0.0
    return MetricsReport(mode=mode, k=k, users=len(per_user), recall=recall,
                         ndcg=ndcg, precision=precision,
                         checkpoint_hash=checkpoint_hash,
                         dataset_hash=dataset_hash,
                         excluded_users=eligible - len(per_user),
                         unscorable_cold_items=unscorable)
