"""Top-k ranking and Recall/NDCG/Precision metrics.

Standard mode ranks every trained item except the user's training positives;
cold-start mode ranks only items absent from training interactions, scored
purely through their attribute keywords. Metrics use binary relevance and are
averaged over users with at least one test positive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .graphs import BipartiteGraph, GraphBundle, _in_sorted, _sorted_unique
from .ingest import SplitDataset
from .model import Checkpoint, cold_item_embedding, final_embeddings, forward


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
        return asdict(self)


def _scores(user_vecs: np.ndarray, item_t: np.ndarray) -> np.ndarray:
    """The (users, items) scores, the dot products of the user rows with the
    columns of `item_t`, the C-contiguous transpose of the item table.

    einsum adds each cell's products in the order of the embedding dimension,
    without BLAS, so a cell's bits depend neither on the other users and
    items scored with it nor on a thread count, and equal item rows score
    equally."""
    return np.einsum("ud,di->ui", np.ascontiguousarray(user_vecs), item_t)


def rank_items(user: int, candidates, e_u: np.ndarray, e_i: np.ndarray) -> RankingResult:
    """Sort candidates by descending score for `user`, ties by ascending index."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise DataError("empty candidate set")
    row = _scores(e_u[[user]], np.ascontiguousarray(e_i.T))[0, candidates]
    order = np.lexsort((candidates, -row))
    return RankingResult(user=int(user), ordering=candidates[order])


# scores per ranking block: 2^16 float64 scores are 512 KB, small beside peak RSS
_BLOCK_SCORES = 1 << 16


def top_k(user_vecs: np.ndarray, item_vecs: np.ndarray, k: int,
          exclude: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(users, min(k, n_items)) best-first item indices, ties by ascending
    index also at the k-th place, and their scores: row r is rank_items'
    ordering[:k] over the items i whose key r * n_items + i is not in the
    ascending `exclude` keys, padded with -1 (and a NaN score) when fewer
    are left. A row's indices and scores are those of ranking it alone."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    n_items = item_vecs.shape[0]
    rows, width = max(1, _BLOCK_SCORES // n_items), min(k, n_items)
    tops = np.full((user_vecs.shape[0], width), -1, dtype=np.int64)
    ranked = np.full(tops.shape, np.nan)
    item_t = np.ascontiguousarray(item_vecs.T)
    for start in range(0, user_vecs.shape[0], rows):
        neg = _scores(user_vecs[start:start + rows], item_t)
        np.negative(neg, out=neg)
        if not np.isfinite(neg).all():
            raise NumericError("non-finite ranking scores")
        if exclude is not None:  # the block's cell j holds key first + j
            first = start * n_items
            lo, hi = np.searchsorted(exclude, (first, first + neg.size))
            np.put(neg, exclude[lo:hi] - first, np.inf)
        for top, score, row in zip(tops[start:], ranked[start:], neg):
            idx = np.flatnonzero(row <= np.partition(row, width - 1)[width - 1])
            idx = idx[np.argsort(row[idx], kind="stable")][:width]
            idx = idx[row[idx] < np.inf]  # +inf marks an excluded item
            top[:idx.size] = idx
            np.negative(row[idx], out=score[:idx.size])
    return tops, ranked


def hit_matrix(tops: np.ndarray, users: np.ndarray, keys: np.ndarray,
               n_items: int) -> np.ndarray:
    """Booleans shaped like the top_k array `tops`: cell [r, j] says whether
    tops[r, j] is a positive of users[r], i.e. whether users[r] * n_items +
    tops[r, j] is among the sorted `keys`; -1 padding is never a hit. The
    keys are looked up one block of about _BLOCK_SCORES cells at a time, so
    the lookup's temporaries do not grow with the number of users."""
    hits = np.empty(tops.shape, dtype=bool)
    rows = max(1, _BLOCK_SCORES // max(1, tops.shape[1]))
    for start in range(0, tops.shape[0], rows):
        block = tops[start:start + rows]
        query = users[start:start + rows, None] * n_items + block
        hits[start:start + rows] = (block >= 0) & _in_sorted(keys, query)
    return hits


def _check_positives(n_positives) -> np.ndarray:
    n_positives = np.asarray(n_positives, dtype=np.int64)
    if (n_positives < 1).any():
        raise DataError("recall and ndcg are undefined without positives")
    return n_positives


def recall_at_k(hits: np.ndarray, n_positives) -> np.ndarray:
    """Per row of a hit matrix: hits in the top k over the row's positives."""
    return hits.sum(axis=1) / _check_positives(n_positives)


def precision_at_k(hits: np.ndarray, k: int) -> np.ndarray:
    """Per row of a hit matrix: hits over k, which the matrix's width
    falls short of when there are fewer than k items."""
    return hits.sum(axis=1) / k


def ndcg_at_k(hits: np.ndarray, n_positives) -> np.ndarray:
    """Binary-relevance NDCG per row of a hit matrix, with 1/log2(rank+1)
    discount; IDCG truncates at min(width, positives), which is min(k,
    positives) since a user's positives are among the ranked items.

    Rows are summed in groups of equal hit count, one (rows, hits) block at
    a time, so that np.sum adds each row's discounts as it adds a 1-d array
    of them: the result is bitwise that of scoring one user at a time."""
    n_positives = _check_positives(n_positives)
    k = hits.shape[1]
    discount = 1.0 / np.log2(np.arange(1, k + 1) + 1)
    count = hits.sum(axis=1)
    dcg = np.zeros(hits.shape[0])
    for h in np.flatnonzero(np.bincount(count)[1:]) + 1:
        rows = np.flatnonzero(count == h)
        ranks = np.nonzero(hits[rows])[1].reshape(-1, h)
        dcg[rows] = discount[ranks].sum(axis=1)
    ideal = np.minimum(k, n_positives)
    idcg = np.zeros(k + 1)
    for m in np.flatnonzero(np.bincount(ideal)):
        idcg[m] = np.sum(discount[:m])
    return dcg / idcg[ideal]


def _rank_positives(e_u: np.ndarray, items: np.ndarray, pairs: np.ndarray,
                    seen: BipartiteGraph, k: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Rank `items` for every user of the positive (user, item) `pairs`,
    leaving out the user's edges in the `seen` graph. Returns the hit
    matrix and the positive counts of the users that had a candidate left,
    in ascending user order; a repeated pair counts once."""
    n_items = items.shape[0]
    keys = _sorted_unique(pairs[:, 0] * n_items + pairs[:, 1])
    owner = keys // n_items
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    users = owner[first]
    n_positives = np.diff(np.append(first, keys.size))
    mine = _in_sorted(users, seen.left)  # edges sorted, so the keys are too
    exclude = np.searchsorted(users, seen.left[mine]) * n_items + seen.right[mine]
    tops, _ = top_k(e_u[users], items, k, exclude=exclude)
    ranked = tops[:, 0] >= 0
    # select ranked rows of the bool hits, not of the int64 ranking (8x the bytes)
    return hit_matrix(tops, users, keys, n_items)[ranked], n_positives[ranked]


def mean_recall_at_k(e_u: np.ndarray, e_i: np.ndarray, pairs: np.ndarray,
                     train_positives: BipartiteGraph, k: int) -> float:
    """Average Recall@k over the users of the (n, 2) (user, item) positive
    `pairs`, ranked outside their `train_positives` edges; for early stopping."""
    hits, n_positives = _rank_positives(e_u, e_i, pairs, train_positives, k)
    if not n_positives.size:
        return 0.0
    values = recall_at_k(hits, n_positives)
    return float(np.sum(values) / len(values))


@dataclass
class ColdCandidates:
    """Items absent from training interactions: their external IDs at ID
    level, and at index level their known attribute keywords and the test
    pairs that hit them, both keyed by an item's position in `ids`.

    `edges` is an (n, 2) int64 array of (position, vocab_ia index), grouped
    by position, each item's keywords in first-occurrence order and without
    repeats; a keyword outside the trained vocabulary has no edge.
    `test_pairs` is an (n, 2) int64 array of (vocab_u index, position).
    """

    ids: list[str]
    edges: np.ndarray
    test_pairs: np.ndarray


def _aggregate(per_user: np.ndarray) -> tuple[float, float, float]:
    sums = per_user.sum(axis=0)  # numpy pairwise summation keeps this order-stable
    n = per_user.shape[0]
    return float(sums[0] / n), float(sums[1] / n), float(sums[2] / n)


def evaluate(checkpoint: Checkpoint, bundle: GraphBundle, split: SplitDataset,
             k: int, mode: str = "standard",
             cold: ColdCandidates | None = None,
             dataset_hash: str = "") -> MetricsReport:
    """Score, rank and average metrics over eligible users.

    Refuses to run when the checkpoint's vocabulary hashes or per-class
    counts do not match the graphs rebuilt from the dataset.
    """
    if mode not in ("standard", "cold_start"):
        raise ConfigError(f"unknown evaluation mode {mode!r}")
    checkpoint.check_matches(bundle)

    stack = forward(checkpoint.tables, bundle, checkpoint.config())
    e_u, e_i = final_embeddings(stack)

    if mode == "standard":
        items, seen, pairs = e_i, bundle.g_ui, split.test
        eligible = _sorted_unique(pairs[:, 0]).size
        unscorable = 0
    else:
        if cold is None:
            raise ConfigError("cold_start mode requires cold candidates")
        embedded, scorable = cold_item_embedding(
            cold.edges, len(cold.ids), bundle.g_iia, stack)
        if not scorable.any():
            raise DataError("no scorable cold items")
        # nobody has trained on a cold item
        items, seen = embedded[scorable], BipartiteGraph(0, 0, ())
        eligible = _sorted_unique(cold.test_pairs[:, 0]).size
        # an unscorable item is no candidate; the rest become rows of `items`
        pairs = cold.test_pairs[scorable[cold.test_pairs[:, 1]]]
        pairs[:, 1] = (np.cumsum(scorable) - 1)[pairs[:, 1]]
        unscorable = len(cold.ids) - int(scorable.sum())

    hits, n_positives = _rank_positives(e_u, items, pairs, seen, k)
    ranked = hits.shape[0]
    if ranked:
        recall, ndcg, precision = _aggregate(np.column_stack(
            (recall_at_k(hits, n_positives), ndcg_at_k(hits, n_positives),
             precision_at_k(hits, k))))
    else:
        recall = ndcg = precision = 0.0
    return MetricsReport(mode=mode, k=k, users=ranked, recall=recall,
                         ndcg=ndcg, precision=precision,
                         checkpoint_hash=checkpoint.sha256,
                         dataset_hash=dataset_hash,
                         excluded_users=eligible - ranked,
                         unscorable_cold_items=unscorable)
