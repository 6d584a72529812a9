"""Shared test utilities: random graph/world builders and independent oracles.

The oracles here are deliberately naive (dense matrices, python loops,
explicit set arithmetic) so they stay independent of the production path
they check.
"""

import errno
import json
import math
import os

import numpy as np

from agrec import ingest
from agrec.errors import DataError
from agrec.graphs import BipartiteGraph, GraphBundle, Vocabulary
from agrec.ingest import split_dataset, write_manifest
from agrec.pipeline import MANIFEST_NAME, TEXT_ATTRS_NAME
from agrec.synth import assemble_world, hold_out_items, planted_world


def hub_world():
    """(bundle, split) of a planted world whose keyword and aesthetic hubs
    put rows on both sides of the gather plans' degree split."""
    world = planted_world(n_users=40, n_items=200, n_item_keywords=3,
                          n_aesthetic_keywords=4, tastes_per_user=2,
                          interact_prob=0.5, seed=3)
    bundle, split, _ = assemble_world(world, seed=1)
    return bundle, split


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


def class_counts(bundle):
    """Vertex counts per class, from the vocabularies: users, items,
    item attributes, aesthetics."""
    return (len(bundle.vocab_u), len(bundle.vocab_i), len(bundle.vocab_ia),
            len(bundle.vocab_iaa))


def split_classes(stacked, bundle):
    """Per-class row views of a stacked table, cut at the vocabulary sizes."""
    ends = np.cumsum(class_counts(bundle))
    return tuple(np.split(stacked, ends[:-1]))


def random_tables(rng, bundle, dim, scale=0.3):
    """A stacked layer-0 table, one class after another."""
    return np.concatenate([scale * rng.normal(size=(n, dim))
                           for n in class_counts(bundle)])


def dense_propagation_matrix(g):
    """Dense left<-right matrix with 1/sqrt(deg_left*deg_right) entries,
    degrees counted here from the edge list."""
    edges = list(zip(g.left.tolist(), g.right.tolist()))
    deg_left, deg_right = [0] * g.left_count, [0] * g.right_count
    for i, j in edges:
        deg_left[i] += 1
        deg_right[j] += 1
    out = np.zeros((g.left_count, g.right_count))
    for i, j in edges:
        out[i, j] = 1.0 / math.sqrt(deg_left[i] * deg_right[j])
    return out


def reference_edges(left_count, right_count, pairs):
    """(sorted unique edges, left degrees, right degrees, coefficients) by
    python loops."""
    edges = sorted(set(pairs))
    deg_left, deg_right = [0] * left_count, [0] * right_count
    for i, j in edges:
        deg_left[i] += 1
        deg_right[j] += 1
    coef = [1.0 / math.sqrt(deg_left[i] * deg_right[j]) for i, j in edges]
    return edges, deg_left, deg_right, coef


def reference_item_attribute_graph(assignments):
    """(item entries, keyword entries, edges, degrees, coef) of the items x
    keywords graph, vocabularies in first-appearance order."""
    items, keywords = {}, {}
    for item_id, kw in assignments:
        items.setdefault(item_id, len(items))
        keywords.setdefault(kw, len(keywords))
    pairs = [(items[i], keywords[kw]) for i, kw in assignments]
    return (list(items), list(keywords),
            reference_edges(len(items), len(keywords), pairs))


def reference_user_graph(interactions, aesthetic_assignments, item_entries):
    """(user entries, aesthetic entries, user x item edges, user x aesthetic
    edges) by python loops: a user links to every aesthetic of an item they
    interacted with; aesthetics of items outside item_entries are ignored."""
    item_index = {i: k for k, i in enumerate(item_entries)}
    aesthetics, item_aes = {}, {}
    for item_id, kw in aesthetic_assignments:
        if item_id in item_index:
            aesthetics.setdefault(kw, len(aesthetics))
            item_aes.setdefault(item_index[item_id], []).append(aesthetics[kw])
    users = {}
    for user_id, _ in interactions:
        users.setdefault(user_id, len(users))
    ui = [(users[u], item_index[i]) for u, i in interactions]
    uiaa = [(u, a) for u, i in ui for a in item_aes.get(i, [])]
    return (list(users), list(aesthetics),
            reference_edges(len(users), len(item_entries), ui),
            reference_edges(len(users), len(aesthetics), uiaa))


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
    """Reference forward pass as explicit dense matrix products; returns the
    per-class (users, items, item_attrs, aesthetics) of every layer."""
    prop_ia_to_i = dense_propagation_matrix(bundle.g_iia)
    prop_i_to_u = dense_propagation_matrix(bundle.g_ui)
    prop_iaa_to_u = dense_propagation_matrix(bundle.g_uiaa)
    u, i, ia, iaa = split_classes(tables, bundle)
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


def reference_cold_item_embedding(keywords, vocab_ia, g_iia, stack, alpha):
    """One cold item embedded on its own, as a fresh vertex with a zero
    layer-0 row linked to its known keywords: a small matrix-vector product
    per layer. Repeated and unknown keywords are dropped; returns None when
    no keyword is known."""
    known = []
    for kw in dict.fromkeys(keywords):
        if kw in vocab_ia:
            known.append(vocab_ia.index_of(kw))
    if not known:
        return None
    idx = np.asarray(known, dtype=np.int64)
    coef = 1.0 / np.sqrt(len(known) * g_iia.right_deg[idx].astype(np.float64))
    rows = idx + stack.bounds[2]  # the keywords' rows in the stacked layers
    out = np.zeros(stack.layers[0].shape[1], dtype=np.float64)
    for k in range(1, stack.depth + 1):
        if alpha[k] != 0.0:
            out += alpha[k] * (coef @ stack.layers[k - 1][rows])
    return out


def keys_of(rows, n_items):
    """The ascending int64 keys row * n_items + item of a {row: items}
    mapping: the layout of the sampler's positives and top_k's exclusions."""
    return np.array(sorted({r * n_items + i for r, items in rows.items() for i in items}),
                    dtype=np.int64)


def reference_sample_negatives(users, item_count, user_positives, rng):
    """The sampler as a per-slot loop over {user: set of items}: each slot
    draws until it misses the user's positives, in block order."""
    negs = rng.integers(item_count, size=users.shape[0])
    for t in range(users.shape[0]):
        positives = user_positives.get(int(users[t]), frozenset())
        if item_count <= len(positives):
            raise DataError(f"no negatives available for user {int(users[t])}")
        while int(negs[t]) in positives:
            negs[t] = rng.integers(item_count)
    return negs.astype(np.int64)


def hits_of(ordering, positives, k):
    """The one-row hit matrix of `ordering` cut at min(k, len(ordering)),
    as top_k cuts a ranking, and the one-element positive count, through
    the production searchsorted lookup."""
    from agrec.evaluation import hit_matrix

    keys = np.sort(np.fromiter(positives, np.int64))
    tops = np.asarray(ordering, dtype=np.int64)[None, :k]
    n_items = int(max(tops.max(initial=0), keys.max(initial=0))) + 1
    return (hit_matrix(tops, np.zeros(1, np.int64), keys, n_items),
            np.array([len(positives)]))


def backward_from_final(users, pos, negs, final, tables, bundle, config):
    """training.output_gradient, then training.backward on its G: (z,
    bpr_mean, reg_mean), the gradient and loss parts of one batch from the
    final embeddings, as reference_backward returns them."""
    from agrec.training import backward, output_gradient

    grad_final, bpr_mean = output_gradient(users, pos, negs, final)
    z, reg_mean = backward(users, pos, negs, grad_final, tables, bundle, config)
    return z, bpr_mean, reg_mean


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc saw allocated
    during the call); what was allocated before it does not count."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_backward(users, pos, negs, final, tables, bundle, config):
    """The adjoint as it was written before its per-triple terms were
    blocked: three np.add.at scatters of the whole batch onto a zeroed
    full-height final gradient, out-of-place temporaries and Mᵀ z added on
    the right. `final` is the (e_u, e_i) pair of final_embeddings. Returns
    (z, bpr_mean, reg_mean)."""
    from agrec.kernels import gather_rows
    from agrec.training import sigmoid, softplus

    users, pos, negs = (np.asarray(a, dtype=np.int64) for a in (users, pos, negs))
    n_triples = users.shape[0]
    alpha = config.alpha()
    e_u, e_i = final
    u_rows = e_u[users]
    delta = (np.einsum("td,td->t", u_rows, e_i[pos])
             - np.einsum("td,td->t", u_rows, e_i[negs]))
    g = (-sigmoid(-delta) / n_triples)[:, None]
    op = bundle.operator
    grad_final = np.zeros((op.size, e_u.shape[1]))
    grad_u, grad_i, _, _ = op.split(grad_final)
    np.add.at(grad_u, users, g * (e_i[pos] - e_i[negs]))
    np.add.at(grad_i, pos, g * u_rows)
    np.add.at(grad_i, negs, -g * u_rows)
    z = alpha[config.layers] * grad_final
    for k in range(config.layers - 1, -1, -1):
        z = alpha[k] * grad_final + gather_rows(op.transpose, z)
    reg_mean = 0.0
    if config.l2_weight:
        c = 2.0 * config.l2_weight / n_triples
        z_u, z_i = op.split(z)[:2]
        e_u0, e_i0 = op.split(tables)[:2]
        np.add.at(z_u, users, c * e_u0[users])
        np.add.at(z_i, pos, c * e_i0[pos])
        np.add.at(z_i, negs, c * e_i0[negs])
        reg_mean = config.l2_weight * float(
            (e_u0[users] ** 2).sum() + (e_i0[pos] ** 2).sum()
            + (e_i0[negs] ** 2).sum()) / n_triples
    return z, float(softplus(-delta).mean()), reg_mean


def finite_difference_gradients(tables, loss_fn, h=1e-5):
    """Central differences of loss_fn(tables) w.r.t. every coordinate of the
    stacked table."""
    grad = np.zeros_like(tables)
    it = np.nditer(tables, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tables[idx]
        tables[idx] = orig + h
        up = loss_fn(tables)
        tables[idx] = orig - h
        down = loss_fn(tables)
        tables[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def reference_manifest_bytes(*, seed, ratios, split, config=None, extra=None):
    """The manifest write_manifest must produce, as bytes: the document
    dumped whole by json.dump(doc, fh, indent=2, sort_keys=True) and a
    newline."""
    import io

    pairs = split.train + split.validation + split.test
    doc = {
        "seed": seed,
        "ratios": list(ratios),
        "counts": {
            "users": len({u for u, _ in pairs}),
            "items": len({i for _, i in pairs}),
            "interactions": len(pairs),
            "train": len(split.train),
            "validation": len(split.validation),
            "test": len(split.test),
        },
    }
    if config is not None:
        doc["config"] = config
    if extra:
        doc.update(extra)
    doc["splits"] = {name: [list(p) for p in getattr(split, name)]
                     for name in ("train", "validation", "test")}
    fh = io.StringIO()
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue().encode("utf-8")


def write_prepared_dir(directory, seed=0):
    """A prepared data directory plus an extractor output for a small planted
    world with held-out cold items: returns (data_dir, attrs_path).

    Every item gets a text keyword (one non-ASCII) and extracted item and
    aesthetic keywords; the test split carries pairs that hit cold items.
    """
    world = planted_world(n_users=16, n_items=40, n_item_keywords=6,
                          n_aesthetic_keywords=3, tastes_per_user=2, seed=seed)
    cold = set(hold_out_items(world, 0.15))
    split = split_dataset([p for p in world.interactions if p[1] not in cold],
                          seed=seed)
    split.test += [p for p in world.interactions if p[1] in cold][:12]
    data = os.path.join(directory, "data")
    os.makedirs(data, exist_ok=True)
    write_manifest(os.path.join(data, MANIFEST_NAME), seed=seed,
                   ratios=(0.8, 0.1, 0.1), split=split)
    with open(os.path.join(data, TEXT_ATTRS_NAME), "w", encoding="utf-8") as fh:
        for n, iid in enumerate(world.items):
            keywords = [f"price:{n % 3}"] + (["colour:grün"] if n % 5 == 0 else [])
            fh.write(json.dumps({"item_id": iid, "keywords": keywords}) + "\n")
    attrs = os.path.join(directory, "attrs.jsonl")
    with open(attrs, "w", encoding="utf-8") as fh:
        for iid in world.items:
            for kind, keywords in (("item", world.item_keywords[iid]),
                                   ("aesthetic", world.item_aesthetics[iid])):
                fh.write(json.dumps({"item_id": iid, "kind": kind,
                                     "keywords": keywords}) + "\n")
    return data, attrs


def _assert_same_pairs(got, want, name):
    assert got.dtype == want.dtype == np.int64, name
    assert got.shape == want.shape and got.ndim == 2 and got.shape[1] == 2, name
    assert got.tobytes() == want.tobytes(), name


def assert_same_dataset(got, want):
    """Field-by-field equality of two PreparedDatasets, down to the Python
    types of the IDs and the dtype, shape and bytes of every array."""
    assert type(got.dataset_hash) is str and got.dataset_hash == want.dataset_hash
    for name in ("vocab_u", "vocab_i", "vocab_ia", "vocab_iaa"):
        a, b = getattr(got.bundle, name), getattr(want.bundle, name)
        assert a.entries == b.entries and a.index == b.index, name
        assert all(type(e) is str for e in a.entries), name
    for name in ("g_iia", "g_ui", "g_uiaa"):
        a, b = getattr(got.bundle, name), getattr(want.bundle, name)
        assert (a.left_count, a.right_count, a.edge_count) == \
            (b.left_count, b.right_count, b.edge_count), name
        for field in ("left", "right", "left_deg", "right_deg", "coef"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, field)
    for name in ("train", "validation", "test"):
        _assert_same_pairs(getattr(got.split, name), getattr(want.split, name), name)
    assert got.cold.ids == want.cold.ids
    assert all(type(i) is str for i in got.cold.ids)
    _assert_same_pairs(got.cold.edges, want.cold.edges, "cold edges")
    _assert_same_pairs(got.cold.test_pairs, want.cold.test_pairs, "cold test pairs")


class _TornFile:
    """A writable file that runs out of space: once `budget` bytes (text
    characters) are written, a write puts what still fits and then raises
    ENOSPC, as a full disk tears a file part-way through."""

    def __init__(self, fh, budget):
        self._fh, self._budget = fh, budget

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self._budget:
            self._fh.write(data[:self._budget])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget -= len(data)
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def tear_nth_write(monkeypatch, nth=1, budget=64):
    """Make the `nth` file agrec opens for writing fail after `budget`
    bytes; returns the list of paths opened for writing so far. Every
    whole-file writer opens through ingest.atomic_write, so the patch is on
    that module's `open`."""
    opened = []

    def torn_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        opened.append(str(path))
        return _TornFile(fh, budget) if len(opened) == nth else fh

    monkeypatch.setattr(ingest, "open", torn_open, raising=False)
    return opened


def snapshot(directory):
    """{name: bytes} of every file in `directory`."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out
