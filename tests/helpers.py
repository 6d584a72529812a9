"""Shared test utilities: random graph/world builders and independent oracles.

The oracles here are deliberately naive (dense matrices, python loops,
explicit set arithmetic) so they stay independent of the production path
they check.
"""

import math

import numpy as np

from agrec.graphs import BipartiteGraph, GraphBundle, Vocabulary
from agrec.model import EmbeddingTables


def random_bipartite(rng, n_left, n_right, p=0.3):
    edges = [(a, b) for a in range(n_left) for b in range(n_right)
             if rng.random() < p]
    return BipartiteGraph(n_left, n_right, edges)


def random_bundle(rng, n_u, n_i, n_ia, n_iaa, p=0.3):
    def vocab(prefix, n):
        return Vocabulary.from_ids(f"{prefix}{j}" for j in range(n))

    return GraphBundle(
        g_iia=random_bipartite(rng, n_i, n_ia, p),
        g_ui=random_bipartite(rng, n_u, n_i, p),
        g_uiaa=random_bipartite(rng, n_u, n_iaa, p),
        vocab_u=vocab("u", n_u), vocab_i=vocab("i", n_i),
        vocab_ia=vocab("a", n_ia), vocab_iaa=vocab("s", n_iaa),
    )


def random_tables(rng, bundle, dim, scale=0.3):
    return EmbeddingTables(
        users=scale * rng.normal(size=(len(bundle.vocab_u), dim)),
        items=scale * rng.normal(size=(len(bundle.vocab_i), dim)),
        item_attrs=scale * rng.normal(size=(len(bundle.vocab_ia), dim)),
        aesthetics=scale * rng.normal(size=(len(bundle.vocab_iaa), dim)),
    )


def dense_propagation_matrix(g):
    """Dense left<-right matrix with 1/sqrt(deg_left*deg_right) entries."""
    out = np.zeros((g.left_count, g.right_count))
    for i in range(g.left_count):
        for j in g.left_adj(i):
            out[i, j] = 1.0 / math.sqrt(g.left_deg[i] * g.right_deg[j])
    return out


def dense_union_matrix(bundle):
    """Dense block matrix of one layer over [users | items | attrs | aesthetics]."""
    n_u, n_i = len(bundle.vocab_u), len(bundle.vocab_i)
    n_ia, n_iaa = len(bundle.vocab_ia), len(bundle.vocab_iaa)
    u, i, ia, iaa = 0, n_u, n_u + n_i, n_u + n_i + n_ia
    out = np.zeros((iaa + n_iaa,) * 2)
    p_ui = dense_propagation_matrix(bundle.g_ui)
    p_uiaa = dense_propagation_matrix(bundle.g_uiaa)
    p_iia = dense_propagation_matrix(bundle.g_iia)
    out[u:i, i:ia] = p_ui
    out[u:i, iaa:] = p_uiaa
    out[i:ia, ia:iaa] = p_iia
    out[ia:iaa, i:ia] = p_iia.T
    out[iaa:, u:i] = p_uiaa.T
    return out


def dense_forward(tables, bundle, layers):
    """Reference forward pass as explicit dense matrix products."""
    prop_ia_to_i = dense_propagation_matrix(bundle.g_iia)
    prop_i_to_u = dense_propagation_matrix(bundle.g_ui)
    prop_iaa_to_u = dense_propagation_matrix(bundle.g_uiaa)
    u, i = tables.users, tables.items
    ia, iaa = tables.item_attrs, tables.aesthetics
    out = [(u, i, ia, iaa)]
    for _ in range(layers):
        u, i, ia, iaa = (
            prop_iaa_to_u @ iaa + prop_i_to_u @ i,
            prop_ia_to_i @ ia,
            prop_ia_to_i.T @ i,
            prop_iaa_to_u.T @ u,
        )
        out.append((u, i, ia, iaa))
    return out


def brute_force_metrics(ordering, positives, k):
    """Recall/NDCG/Precision by explicit scanning, no numpy set tricks."""
    positives = set(positives)
    hits = 0
    dcg = 0.0
    for rank, item in enumerate(list(ordering)[:k], start=1):
        if item in positives:
            hits += 1
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(r + 1)
               for r in range(1, min(k, len(positives)) + 1))
    recall = hits / len(positives)
    precision = hits / k
    ndcg = dcg / idcg if idcg else 0.0
    return recall, ndcg, precision


def finite_difference_gradients(tables, loss_fn, h=1e-5):
    """Central differences of loss_fn(tables) w.r.t. every table coordinate."""
    grads = []
    for _, arr in tables.classes():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_fn(tables)
            arr[idx] = orig - h
            down = loss_fn(tables)
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * h)
            it.iternext()
        grads.append(grad)
    return grads
