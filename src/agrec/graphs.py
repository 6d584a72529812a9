"""Vertex vocabularies, bipartite edge lists and symmetric normalization.

The model works on two attribute graphs: items x item-attribute keywords,
and a user graph stored as two bipartite relations (users x items,
users x aesthetic keywords) sharing the user vertex set. All propagation
coefficients are 1/sqrt(deg_left * deg_right), precomputed per edge, and
the relations combine into one sparse propagation operator per bundle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphError, UnknownIdError
from .kernels import GatherPlan, plan_gather


@dataclass
class Vocabulary:
    """Bijective mapping between external string IDs and dense 0-based indices.

    Index assignment order is first appearance in the input stream, which
    keeps builds reproducible.
    """

    entries: list[str] = field(default_factory=list)
    index: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "Vocabulary":
        entries = list(dict.fromkeys(ids))
        return cls(entries, dict(zip(entries, range(len(entries)))))

    def index_of(self, external_id: str) -> int:
        try:
            return self.index[external_id]
        except KeyError:
            raise UnknownIdError(f"unknown ID: {external_id!r}") from None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, external_id: str) -> bool:
        return external_id in self.index

    def sha256(self) -> str:
        """Digest of entry list; used for checkpoint/dataset integrity checks."""
        h = hashlib.sha256()
        for e in self.entries:
            h.update(e.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


class BipartiteGraph:
    """One bipartite relation as an edge list with degrees and per-edge
    coefficients 1/sqrt(deg_left * deg_right).

    `pairs` is any (E, 2) array-like of (left, right) indices; duplicates
    collapse to one edge, and `left`, `right` and `coef` list the edges
    sorted by (left, right), so propagation sums have a fixed order.
    Instances are immutable once built and safe to share across threads.
    """

    def __init__(self, left_count: int, right_count: int, pairs):
        self.left_count = left_count
        self.right_count = right_count

        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        left, right = pairs[:, 0], pairs[:, 1]
        if pairs.size:
            if left.min() < 0 or left.max() >= left_count:
                raise GraphError("left index out of range")
            if right.min() < 0 or right.max() >= right_count:
                raise GraphError("right index out of range")
        # sorted unique keys; np.unique would import numpy.ma on first use,
        # about 17 ms and 1 MB in every CLI process
        keys = np.sort(left * right_count + right)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.left, self.right = np.divmod(keys, right_count)

        self.edge_count = keys.shape[0]
        self.left_deg = np.bincount(self.left, minlength=left_count)
        self.right_deg = np.bincount(self.right, minlength=right_count)
        self.coef = 1.0 / np.sqrt(self.left_deg[self.left] * self.right_deg[self.right])


@dataclass
class GraphBundle:
    """The two attribute graphs plus their vocabularies."""

    g_iia: BipartiteGraph
    g_ui: BipartiteGraph
    g_uiaa: BipartiteGraph
    vocab_u: Vocabulary
    vocab_i: Vocabulary
    vocab_ia: Vocabulary
    vocab_iaa: Vocabulary

    def validate(self) -> None:
        if self.g_ui.left_count != len(self.vocab_u) or self.g_uiaa.left_count != len(self.vocab_u):
            raise GraphError("user vertex counts disagree across relations")
        if self.g_iia.left_count != len(self.vocab_i) or self.g_ui.right_count != len(self.vocab_i):
            raise GraphError("item vertex counts disagree across relations")
        if self.g_iia.right_count != len(self.vocab_ia):
            raise GraphError("item-attribute vertex count mismatch")
        if self.g_uiaa.right_count != len(self.vocab_iaa):
            raise GraphError("aesthetic vertex count mismatch")

    @cached_property
    def operator(self) -> "PropagationOperator":
        """The union propagation operator, built on first use."""
        return build_operator(self)


@dataclass(frozen=True)
class PropagationOperator:
    """One propagation layer as a sparse matrix M over the stacked vertex
    index [users | items | item_attrs | aesthetics].

    x -> M x is ``gather_rows(op.forward, x)`` and backpropagation applies
    Mᵀ as ``gather_rows(op.transpose, z)``. Each plan is built from the
    relation graphs on first use, so a process that never backpropagates
    never builds the transpose; no COO copy of the edges is kept.
    ``bounds`` are the class boundaries in the stacked index.
    """

    # (graph, left offset, right offset, also right <- left)
    relations: tuple[tuple[BipartiteGraph, int, int, bool], ...]
    bounds: tuple[int, int, int, int, int]

    @property
    def size(self) -> int:
        return self.bounds[-1]

    def split(self, stacked: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-class row views of a stacked table, in stacking order."""
        b = self.bounds
        return tuple(stacked[b[j]:b[j + 1]] for j in range(4))

    def _triplet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M as a COO triplet (rows, cols, coef). Each relation lists its
        edges sorted by (left, right), and where two relations share a row
        (users) or a column (items), the one with the lower offset on the
        other side comes first. So every row's entries appear in ascending
        column and every column's in ascending row, and both plans sum in
        ascending vertex index."""
        rows, cols, coef = [], [], []
        for g, left_off, right_off, both_ways in self.relations:
            left, right = g.left + left_off, g.right + right_off
            rows.append(left)
            cols.append(right)
            coef.append(g.coef)
            if both_ways:
                rows.append(right)
                cols.append(left)
                coef.append(g.coef)
        return tuple(np.concatenate(parts) for parts in (rows, cols, coef))

    @cached_property
    def forward(self) -> GatherPlan:
        rows, cols, coef = self._triplet()
        return plan_gather(rows, cols, coef, self.size)

    @cached_property
    def transpose(self) -> GatherPlan:
        rows, cols, coef = self._triplet()
        return plan_gather(cols, rows, coef, self.size)


def build_operator(bundle: GraphBundle) -> PropagationOperator:
    """Stack the relations into M (LightGCN's operator view, He et al. 2020).

    Users gather items and aesthetic keywords, items gather their
    attributes, attributes gather items and aesthetic keywords gather users;
    every entry is its relation's 1/sqrt(deg_left * deg_right).
    """
    g_ui, g_uiaa, g_iia = bundle.g_ui, bundle.g_uiaa, bundle.g_iia
    counts = (g_ui.left_count, g_iia.left_count, g_iia.right_count,
              g_uiaa.right_count)
    bounds = tuple(int(b) for b in np.cumsum((0,) + counts))
    u, i, ia, iaa = bounds[:4]
    return PropagationOperator(
        relations=((g_ui, u, i, False), (g_uiaa, u, iaa, True),
                   (g_iia, i, ia, True)),
        bounds=bounds)


def _columns(pairs) -> tuple[tuple, tuple]:
    """The first and second fields of a list of pairs, as two tuples."""
    return tuple(zip(*pairs)) or ((), ())


def _first_blank(keywords: Sequence[str], vocab: Vocabulary) -> int | None:
    """Position in `keywords` of the first blank one, or None."""
    blank = [kw for kw in vocab.entries if not kw or not kw.strip()]
    return keywords.index(blank[0]) if blank else None


def _indices(ids: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    return np.fromiter(map(vocab.index.__getitem__, ids), np.int64, len(ids))


def build_item_attribute_graph(
    assignments: Sequence[tuple[str, str]],
) -> tuple[BipartiteGraph, Vocabulary, Vocabulary]:
    """Build the items x item-attributes graph from (item_id, keyword) pairs.

    Keywords are expected already normalized (lowercase, trimmed); duplicate
    pairs collapse to a single edge. Vocabularies cover exactly the IDs seen,
    indexed by first appearance.
    """
    if not assignments:
        raise GraphError("empty graph")
    items, keywords = _columns(assignments)
    vocab_i = Vocabulary.from_ids(items)
    vocab_a = Vocabulary.from_ids(keywords)
    blank = _first_blank(keywords, vocab_a)
    if blank is not None:
        raise GraphError(f"blank keyword for item {items[blank]!r}")
    graph = BipartiteGraph(len(vocab_i), len(vocab_a), np.column_stack(
        (_indices(items, vocab_i), _indices(keywords, vocab_a))))
    return graph, vocab_i, vocab_a


def build_user_graph(
    interactions: Sequence[tuple[str, str]],
    aesthetic_assignments: Sequence[tuple[str, str]],
    item_vocab: Vocabulary,
) -> tuple[BipartiteGraph, BipartiteGraph, Vocabulary, Vocabulary]:
    """Build the user graph relations (users x items, users x aesthetics).

    A user is linked to an aesthetic keyword iff some item they interacted
    with carries it; edges are binary and deduplicated regardless of how many
    of the user's items share the keyword.
    """
    # aesthetics for items outside the trained vocabulary are ignored here;
    # cold-start scoring consumes them elsewhere
    known = [(i, kw) for i, kw in aesthetic_assignments if i in item_vocab.index]
    aes_items, aes_keywords = _columns(known)
    vocab_iaa = Vocabulary.from_ids(aes_keywords)
    blank = _first_blank(aes_keywords, vocab_iaa)
    if blank is not None:
        raise GraphError(f"blank aesthetic keyword for item {aes_items[blank]!r}")

    users, items = _columns(interactions)
    try:
        ui_i = _indices(items, item_vocab)
    except KeyError as exc:
        raise UnknownIdError(
            f"interaction references unknown item: {exc.args[0]!r}") from None
    vocab_u = Vocabulary.from_ids(users)
    ui_u = _indices(users, vocab_u)

    # join each (user, item) edge with the item's aesthetics through an
    # item -> aesthetic CSR: the edge repeats once per aesthetic of its item
    aes_i = _indices(aes_items, item_vocab)
    by_item = _indices(aes_keywords, vocab_iaa)[np.argsort(aes_i, kind="stable")]
    per_item = np.bincount(aes_i, minlength=len(item_vocab))
    start = np.cumsum(per_item) - per_item
    reps = per_item[ui_i]
    slot = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    uiaa = np.column_stack((np.repeat(ui_u, reps),
                            by_item[np.repeat(start[ui_i], reps) + slot]))

    g_ui = BipartiteGraph(len(vocab_u), len(item_vocab),
                          np.column_stack((ui_u, ui_i)))
    g_uiaa = BipartiteGraph(len(vocab_u), len(vocab_iaa), uiaa)
    return g_ui, g_uiaa, vocab_u, vocab_iaa
