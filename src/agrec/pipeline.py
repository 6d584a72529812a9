"""Glue between prepared data directories and the model: loads the split
manifest and attribute files, builds the graphs for the training item
universe (items with at least one training interaction), and collects cold
candidates for strict cold-start evaluation.

A finished load is kept in ``<data_dir>/dataset.cache.npz`` under a key that
hashes the agrec sources and the bytes of every input file; a later load
with the same key reads the vocabularies, edges, index-level splits and cold
candidates back instead of parsing and building again.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataError, GraphError
from .evaluation import ColdCandidates
from .extractor import PromptKind, attribute_problem
from .graphs import (BipartiteGraph, GraphBundle, Vocabulary,
                     build_item_attribute_graph, build_user_graph)
from .ingest import (MANIFEST_NAME, TEXT_ATTRS_NAME, SplitDataset, atomic_write,
                     jsonl_records, manifest_split, open_text, read_manifest)

CACHE_NAME = "dataset.cache.npz"
_CACHE_FORMAT = b"agrec dataset cache 3\n"  # the first bytes of every key
_VOCABS = ("vocab_u", "vocab_i", "vocab_ia", "vocab_iaa")
# each relation with the vocabularies of its left and right vertices
_GRAPHS = {"g_iia": ("vocab_i", "vocab_ia"), "g_ui": ("vocab_u", "vocab_i"),
           "g_uiaa": ("vocab_u", "vocab_iaa")}
_SPLITS = ("train", "validation", "test")


@dataclass
class PreparedDataset:
    dataset_hash: str
    bundle: GraphBundle
    split: SplitDataset
    cold: ColdCandidates


def load_attribute_files(text_attrs_path=None, attrs_path=None):
    """Merge item keywords from the text tokenizer output and extractor
    records; returns (item_keywords, aesthetic_keywords), items in order of
    first appearance, each with its keywords in file order, repeats kept."""
    item_keywords: dict[str, list[str]] = {}
    aesthetic_keywords: dict[str, list[str]] = {}
    if text_attrs_path and os.path.exists(text_attrs_path):
        with open_text(text_attrs_path) as fh:
            for _, obj in jsonl_records(fh, text_attrs_path,
                                        lambda obj: attribute_problem(obj, kinded=False)):
                item_keywords.setdefault(obj["item_id"], []).extend(obj["keywords"])
    if attrs_path:
        with open_text(attrs_path) as fh:
            for _, obj in jsonl_records(fh, attrs_path, attribute_problem):
                target = (item_keywords if obj["kind"] == PromptKind.ITEM_ATTRIBUTES.value
                          else aesthetic_keywords)
                target.setdefault(obj["item_id"], []).extend(obj["keywords"])
    return item_keywords, aesthetic_keywords


def load_dataset(data_dir, attrs_path=None) -> PreparedDataset:
    """Graphs, index-level splits and cold candidates of a prepared directory.

    Deterministic given identical files, which is what makes the checkpoint
    vocabulary-hash check meaningful. A cache hit returns what a build of
    the same files returns; a miss builds and then rewrites the cache.
    """
    key = _cache_key(data_dir, attrs_path)
    cache_path = os.path.join(data_dir, CACHE_NAME)
    prepared = _read_cache(cache_path, key)
    if prepared is None:
        prepared = _build_dataset(data_dir, attrs_path)
        # an input rewritten during the build: the payload may not match key
        if _cache_key(data_dir, attrs_path) == key:
            _write_cache(cache_path, key, prepared)
    return prepared


def _build_dataset(data_dir, attrs_path) -> PreparedDataset:
    doc, dataset_hash = read_manifest(os.path.join(data_dir, MANIFEST_NAME))
    id_split = manifest_split(doc)

    item_keywords, aesthetic_keywords = load_attribute_files(
        os.path.join(data_dir, TEXT_ATTRS_NAME), attrs_path)

    train_items = {i for _, i in id_split.train}
    missing = [i for i in sorted(train_items)
               if not item_keywords.get(i)]
    if missing:
        raise DataError(
            f"{len(missing)} training items have no attribute keywords "
            f"(first few: {missing[:5]}); provide text attributes or --attrs")

    warm_pairs = [(iid, kw) for iid, kws in item_keywords.items()
                  if iid in train_items for kw in kws]
    aes_pairs = [(iid, kw) for iid, kws in aesthetic_keywords.items() for kw in kws]
    cold_keywords = {iid: kws for iid, kws in item_keywords.items()
                     if iid not in train_items}
    bundle, split, cold = build_bundle(
        id_split, warm_pairs, aes_pairs, cold_keywords, cold_pairs=id_split.test)
    return PreparedDataset(dataset_hash=dataset_hash, bundle=bundle,
                           split=split, cold=cold)


def _cache_key(data_dir, attrs_path) -> str:
    """sha256 over the format tag, the agrec sources and the load's inputs.

    Each input is hashed behind a marker saying whether the load reads it.
    A missing manifest or attrs file raises here as the build would.
    """
    h = hashlib.sha256(_CACHE_FORMAT)

    def _add(path, label: bytes):
        if path is None:
            h.update(label + b" -\n")
            return
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(label + b" %d\n" % len(data))
        h.update(data)

    src = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            _add(os.path.join(src, name), name.encode())
    text_attrs_path = os.path.join(data_dir, TEXT_ATTRS_NAME)
    _add(os.path.join(data_dir, MANIFEST_NAME), b"manifest")
    _add(text_attrs_path if os.path.exists(text_attrs_path) else None, b"text")
    _add(attrs_path or None, b"attrs")
    return h.hexdigest()


def _payload_digest(arrays: dict) -> str:
    """sha256 over every array but the digest: name, dtype, shape, bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        if name != "digest":
            arr = np.ascontiguousarray(arrays[name])
            h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
            h.update(arr)
    return h.hexdigest()


def _strings(values: list[str]) -> np.ndarray:
    """A numpy string array that reads back as `values`; numpy drops
    trailing NULs from its fixed-width strings, so a NUL is refused."""
    if "\x00" in "".join(values):
        raise ValueError("a string holds NUL")
    return np.array(values, dtype=str)


def _index_pairs(pairs) -> np.ndarray:
    """A list of (int, int) pairs as an (n, 2) int64 array."""
    return np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)


def _write_cache(path, key: str, prepared: PreparedDataset) -> None:
    """Store `prepared` at `path` under `key`, atomically; a directory that
    cannot take the file, or strings numpy cannot hold, leave no cache."""
    bundle, split, cold = prepared.bundle, prepared.split, prepared.cold
    try:
        arrays = {"key": np.array(key), "dataset_hash": np.array(prepared.dataset_hash)}
        for name in _VOCABS:
            arrays[name] = _strings(getattr(bundle, name).entries)
        for name in _GRAPHS:
            graph = getattr(bundle, name)
            arrays[name + "_left"], arrays[name + "_right"] = graph.left, graph.right
        for name in _SPLITS:
            arrays[name] = getattr(split, name)
        arrays["cold_ids"] = _strings(cold.ids)
        arrays["cold_edges"] = cold.edges
        arrays["cold_test"] = cold.test_pairs
    except ValueError:
        return
    arrays["digest"] = np.array(_payload_digest(arrays))
    try:
        with atomic_write(path, "wb") as fh:
            np.savez(fh, **arrays)
    except OSError:
        pass


# What np.load and zipfile raise on a missing, cut or damaged file: an
# unreadable path, a bad zip structure, an npy header that does not parse,
# a flag for encryption or an unknown zip version, or a claimed array size
# that cannot be allocated. np.load returns a bare array, which is not a
# context manager, for a file that starts like an npy file.
_DAMAGE = (OSError, EOFError, ValueError, KeyError, TypeError, RuntimeError,
           MemoryError, zipfile.BadZipFile)


def _read_cache(path, key: str) -> PreparedDataset | None:
    """The dataset stored at `path` under `key`, or None when the file is
    missing, damaged, inconsistent or stored under another key."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            # np.savez stores every member as is; any other method is damage,
            # and reading it would raise the decompressor's own errors
            if (any(info.compress_type != zipfile.ZIP_STORED
                    for info in npz.zip.infolist())
                    or _member(npz, "key", "U", 0).item() != key):
                return None
            arrays = {name: npz[name] for name in npz.files}
    except _DAMAGE:
        return None
    try:
        if _member(arrays, "digest", "U", 0).item() != _payload_digest(arrays):
            return None
        return _from_arrays(arrays)
    except (KeyError, ValueError, GraphError):
        return None


def _member(arrays, name: str, kind: str, ndim: int) -> np.ndarray:
    arr = arrays[name]
    if arr.dtype.kind != kind or arr.ndim != ndim:
        raise ValueError(f"cache member {name} has dtype {arr.dtype}, shape {arr.shape}")
    return arr


def _index_array(arrays: dict, name: str, left_count: int, right_count: int
                 ) -> np.ndarray:
    """An (n, 2) int64 index array, range-checked column by column."""
    arr = _member(arrays, name, "i", 2)
    if arr.shape[1] != 2:
        raise ValueError(f"cache member {name} has shape {arr.shape}")
    if arr.size and not (arr.min() >= 0 and arr[:, 0].max() < left_count
                         and arr[:, 1].max() < right_count):
        raise GraphError(f"cache member {name}: index out of range")
    return arr.astype(np.int64, copy=False)


def _from_arrays(arrays: dict) -> PreparedDataset:
    vocabs = {}
    for name in _VOCABS:
        entries = _member(arrays, name, "U", 1).tolist()
        vocabs[name] = Vocabulary.from_ids(entries)
        if len(vocabs[name]) != len(entries):
            raise ValueError(f"cache member {name} repeats an entry")
    graphs = {}
    for name, (lv, rv) in _GRAPHS.items():
        left = _member(arrays, name + "_left", "i", 1)
        right = _member(arrays, name + "_right", "i", 1)
        if left.shape != right.shape:
            raise ValueError(f"cache members of {name} differ in length")
        graphs[name] = BipartiteGraph(len(vocabs[lv]), len(vocabs[rv]),
                                      np.column_stack((left, right)))
    bundle = GraphBundle(**graphs, **vocabs)

    n_u, n_i = len(bundle.vocab_u), len(bundle.vocab_i)
    split = SplitDataset(*(_index_array(arrays, name, n_u, n_i) for name in _SPLITS))

    ids = _member(arrays, "cold_ids", "U", 1).tolist()
    if len(set(ids)) != len(ids):
        raise ValueError("cache member cold_ids repeats an entry")
    cold = ColdCandidates(
        ids=ids,
        edges=_index_array(arrays, "cold_edges", len(ids), len(bundle.vocab_ia)),
        test_pairs=_index_array(arrays, "cold_test", n_u, len(ids)))
    return PreparedDataset(
        dataset_hash=_member(arrays, "dataset_hash", "U", 0).item(),
        bundle=bundle, split=split, cold=cold)


def _cold_edges(cold_keywords: dict[str, list[str]], vocab_ia: Vocabulary) -> np.ndarray:
    """(position, vocab_ia index) edges of the cold items, in order: each
    item's known keywords once, in order of first occurrence."""
    index = vocab_ia.index
    return _index_pairs([(n, kw) for n, keywords in enumerate(cold_keywords.values())
                         for kw in dict.fromkeys(index[k] for k in keywords if k in index)])


def build_bundle(id_split: SplitDataset, item_keyword_pairs, aesthetic_pairs,
                 cold_keywords: dict[str, list[str]], cold_pairs,
                 ) -> tuple[GraphBundle, SplitDataset, ColdCandidates]:
    """Graphs, index-level split and cold candidates from ID-level data.

    `item_keyword_pairs` fix the item and item-attribute vocabularies in
    order of first appearance; users and aesthetic keywords are indexed as
    the training pairs reach them. `cold_keywords` lists the cold items in
    order with their keywords, which become edges to the trained keywords;
    those of the (user_id, item_id) `cold_pairs` that hit a cold item and
    whose user has trained become the cold test pairs.
    """
    g_iia, vocab_i, vocab_ia = build_item_attribute_graph(item_keyword_pairs)
    g_ui, g_uiaa, vocab_u, vocab_iaa = build_user_graph(
        id_split.train, aesthetic_pairs, vocab_i)
    bundle = GraphBundle(g_iia=g_iia, g_ui=g_ui, g_uiaa=g_uiaa,
                         vocab_u=vocab_u, vocab_i=vocab_i,
                         vocab_ia=vocab_ia, vocab_iaa=vocab_iaa)

    def _indexed(pairs, vocab_right: Vocabulary) -> np.ndarray:
        """The (user_id, right_id) pairs whose IDs are both known, indexed."""
        index_u, index_r = vocab_u.index, vocab_right.index
        return _index_pairs([(a, b) for u, r in pairs
                             if (a := index_u.get(u)) is not None
                             and (b := index_r.get(r)) is not None])

    split = SplitDataset(*(_indexed(getattr(id_split, name), vocab_i) for name in _SPLITS))
    vocab_cold = Vocabulary.from_ids(cold_keywords)
    cold = ColdCandidates(
        ids=vocab_cold.entries, edges=_cold_edges(cold_keywords, vocab_ia),
        test_pairs=_indexed(cold_pairs, vocab_cold))
    return bundle, split, cold
