"""Vertex vocabularies, bipartite adjacency and symmetric normalization.

The model works on two attribute graphs: items x item-attribute keywords,
and a user graph stored as two bipartite relations (users x items,
users x aesthetic keywords) sharing the user vertex set. All propagation
coefficients are 1/sqrt(deg_left * deg_right), precomputed per edge, and
the relations combine into one sparse propagation operator per bundle.
"""

from __future__ import annotations

import hashlib
import math
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
        vocab = cls()
        for external_id in ids:
            vocab.add(external_id)
        return vocab

    def add(self, external_id: str) -> int:
        got = self.index.get(external_id)
        if got is not None:
            return got
        idx = len(self.entries)
        self.entries.append(external_id)
        self.index[external_id] = idx
        return idx

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


def norm_coefficient(deg_a: int, deg_b: int) -> float:
    """Symmetric normalization factor 1/sqrt(deg_a * deg_b)."""
    if deg_a < 1 or deg_b < 1:
        raise GraphError("isolated vertex in normalization")
    return 1.0 / math.sqrt(deg_a * deg_b)


class BipartiteGraph:
    """Compressed bipartite adjacency with degrees and per-edge coefficients.

    Both orientations are stored CSR-style with neighbor lists strictly
    increasing, so propagation sums have a fixed order. Instances are
    immutable once built and safe to share across threads.
    """

    def __init__(self, left_count: int, right_count: int,
                 edges: Sequence[tuple[int, int]]):
        self.left_count = left_count
        self.right_count = right_count

        if edges:
            arr = np.array(sorted(set(edges)), dtype=np.int64)
            left, right = arr[:, 0], arr[:, 1]
            if left.min() < 0 or left.max() >= left_count:
                raise GraphError("left index out of range")
            if right.min() < 0 or right.max() >= right_count:
                raise GraphError("right index out of range")
        else:
            left = np.zeros(0, dtype=np.int64)
            right = np.zeros(0, dtype=np.int64)

        self.edge_count = left.shape[0]
        self.left_deg = np.bincount(left, minlength=left_count).astype(np.int64)
        self.right_deg = np.bincount(right, minlength=right_count).astype(np.int64)

        # left -> right orientation (edges already sorted by (left, right))
        self.left_indptr = np.zeros(left_count + 1, dtype=np.int64)
        np.cumsum(self.left_deg, out=self.left_indptr[1:])
        self.left_indices = right.copy()

        # right -> left orientation
        order = np.lexsort((left, right))
        self.right_indptr = np.zeros(right_count + 1, dtype=np.int64)
        np.cumsum(self.right_deg, out=self.right_indptr[1:])
        self.right_indices = left[order]

        if self.edge_count:
            coef = 1.0 / np.sqrt(self.left_deg[left] * self.right_deg[right])
            self.left_coef = coef
            self.right_coef = coef[order]
        else:
            self.left_coef = np.zeros(0, dtype=np.float64)
            self.right_coef = np.zeros(0, dtype=np.float64)

    def left_adj(self, i: int) -> np.ndarray:
        return self.left_indices[self.left_indptr[i]:self.left_indptr[i + 1]]

    def right_adj(self, j: int) -> np.ndarray:
        return self.right_indices[self.right_indptr[j]:self.right_indptr[j + 1]]

    def edges(self):
        """Yield (left, right) pairs in (left, right) sorted order."""
        for i in range(self.left_count):
            for j in self.left_adj(i):
                yield i, int(j)


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
            left = np.repeat(np.arange(g.left_count), g.left_deg) + left_off
            right = g.left_indices + right_off
            rows.append(left)
            cols.append(right)
            coef.append(g.left_coef)
            if both_ways:
                rows.append(right)
                cols.append(left)
                coef.append(g.left_coef)
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
    vocab_i = Vocabulary()
    vocab_a = Vocabulary()
    edges = []
    for item_id, keyword in assignments:
        if not keyword or not keyword.strip():
            raise GraphError(f"blank keyword for item {item_id!r}")
        edges.append((vocab_i.add(item_id), vocab_a.add(keyword)))
    graph = BipartiteGraph(len(vocab_i), len(vocab_a), edges)
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
    vocab_u = Vocabulary()
    vocab_iaa = Vocabulary()

    item_aesthetics: dict[int, list[int]] = {}
    for item_id, keyword in aesthetic_assignments:
        if item_id not in item_vocab:
            # aesthetics for items outside the trained vocabulary are ignored
            # here; cold-start scoring consumes them elsewhere
            continue
        if not keyword or not keyword.strip():
            raise GraphError(f"blank aesthetic keyword for item {item_id!r}")
        item_aesthetics.setdefault(item_vocab.index_of(item_id), []).append(vocab_iaa.add(keyword))

    ui_edges = []
    uiaa_edges = set()
    for user_id, item_id in interactions:
        if item_id not in item_vocab:
            raise UnknownIdError(f"interaction references unknown item: {item_id!r}")
        u = vocab_u.add(user_id)
        i = item_vocab.index_of(item_id)
        ui_edges.append((u, i))
        for a in item_aesthetics.get(i, ()):
            uiaa_edges.add((u, a))

    g_ui = BipartiteGraph(len(vocab_u), len(item_vocab), ui_edges)
    g_uiaa = BipartiteGraph(len(vocab_u), len(vocab_iaa), sorted(uiaa_edges))
    return g_ui, g_uiaa, vocab_u, vocab_iaa


def dump_edges(graph: BipartiteGraph, left_vocab: Vocabulary,
               right_vocab: Vocabulary, path) -> None:
    """Write the debug/interop edge dump: `left_id<TAB>right_id` per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j in graph.edges():
            fh.write(f"{left_vocab.entries[i]}\t{right_vocab.entries[j]}\n")


def load_edge_dump(path) -> list[tuple[str, str]]:
    """Read an edge dump back as (left_id, right_id) pairs."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            left_id, right_id = line.split("\t")
            pairs.append((left_id, right_id))
    return pairs
