"""Glue between prepared data directories and the model: loads the split
manifest and attribute files, builds the graphs for the training item
universe (items with at least one training interaction), and collects cold
candidates for strict cold-start evaluation."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import DataError
from .evaluation import ColdCandidates
from .graphs import GraphBundle, build_item_attribute_graph, build_user_graph
from .ingest import SplitDataset, manifest_split, read_manifest
from .model import file_sha256

MANIFEST_NAME = "manifest.json"
TEXT_ATTRS_NAME = "text_attributes.jsonl"


@dataclass
class PreparedDataset:
    manifest: dict
    dataset_hash: str
    id_split: SplitDataset
    bundle: GraphBundle
    split: SplitDataset
    item_keywords: dict[str, list[str]]
    cold: ColdCandidates


def _record_problem(obj, fields: tuple[str, ...]) -> str | None:
    """What makes an attribute record unusable, or None: it must be an
    object with `fields`, a string item_id and a list of string keywords."""
    if not isinstance(obj, dict):
        return "expected a JSON object"
    if not obj.keys() >= set(fields):
        return "missing " + ", ".join(f for f in fields if f not in obj)
    if not isinstance(obj["item_id"], str):
        return "item_id must be a string"
    keywords = obj["keywords"]
    if not (isinstance(keywords, list)
            and all(isinstance(kw, str) for kw in keywords)):
        return "keywords must be a list of strings"
    return None


def _read_jsonl(path, fields: tuple[str, ...]):
    """(lineno, record) per non-blank line, each record checked."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path} line {lineno}: invalid JSON ({exc.msg})") from None
            problem = _record_problem(obj, fields)
            if problem:
                raise DataError(f"{path} line {lineno}: {problem}")
            yield lineno, obj


def load_attribute_files(text_attrs_path=None, attrs_path=None):
    """Merge item keywords from the text tokenizer output and extractor
    records; returns (item_order, item_keywords, aesthetic_keywords)."""
    item_order: list[str] = []
    item_keywords: dict[str, list[str]] = {}
    aesthetic_keywords: dict[str, list[str]] = {}

    def _register(item_id: str, keywords, target: dict):
        if item_id not in item_keywords and target is item_keywords:
            item_order.append(item_id)
        bucket = target.setdefault(item_id, [])
        for kw in keywords:
            if kw not in bucket:
                bucket.append(kw)

    if text_attrs_path and os.path.exists(text_attrs_path):
        for _, obj in _read_jsonl(text_attrs_path, ("item_id", "keywords")):
            _register(obj["item_id"], obj["keywords"], item_keywords)
    if attrs_path:
        for lineno, obj in _read_jsonl(attrs_path, ("item_id", "kind", "keywords")):
            kind = obj["kind"]
            if kind == "item":
                _register(obj["item_id"], obj["keywords"], item_keywords)
            elif kind == "aesthetic":
                _register(obj["item_id"], obj["keywords"], aesthetic_keywords)
            else:
                raise DataError(f"{attrs_path} line {lineno}: unknown kind {kind!r}")
    return item_order, item_keywords, aesthetic_keywords


def load_dataset(data_dir, attrs_path=None) -> PreparedDataset:
    """Rebuild graphs and index-level splits from a prepared directory.

    Deterministic given identical files, which is what makes the checkpoint
    vocabulary-hash check meaningful.
    """
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    manifest = read_manifest(manifest_path)
    dataset_hash = file_sha256(manifest_path)
    id_split = manifest_split(manifest)

    item_order, item_keywords, aesthetic_keywords = load_attribute_files(
        os.path.join(data_dir, TEXT_ATTRS_NAME), attrs_path)

    train_items = {i for _, i in id_split.train}
    missing = [i for i in sorted(train_items)
               if not item_keywords.get(i)]
    if missing:
        raise DataError(
            f"{len(missing)} training items have no attribute keywords "
            f"(first few: {missing[:5]}); provide text attributes or --attrs")

    warm_pairs = [(iid, kw) for iid in item_order if iid in train_items
                  for kw in item_keywords[iid]]
    aes_pairs = [(iid, kw) for iid, kws in aesthetic_keywords.items() for kw in kws]
    cold_keywords = {iid: item_keywords[iid] for iid in item_order
                     if iid not in train_items}
    bundle, split, cold = build_bundle(
        id_split, warm_pairs, aes_pairs, cold_keywords,
        cold_pairs=[(u, i) for u, i in id_split.test if i in cold_keywords])
    return PreparedDataset(manifest=manifest, dataset_hash=dataset_hash,
                           id_split=id_split, bundle=bundle, split=split,
                           item_keywords=item_keywords, cold=cold)


def build_bundle(id_split: SplitDataset, item_keyword_pairs, aesthetic_pairs,
                 cold_keywords: dict[str, list[str]], cold_pairs,
                 ) -> tuple[GraphBundle, SplitDataset, ColdCandidates]:
    """Graphs, index-level split and cold candidates from ID-level data.

    `item_keyword_pairs` fix the item and item-attribute vocabularies in
    order of first appearance; users and aesthetic keywords are indexed as
    the training pairs reach them. `cold_keywords` lists the cold items in
    order, and `cold_pairs` are the (user_id, item_id) pairs that hit them,
    kept as cold test pairs when the user has trained.
    """
    g_iia, vocab_i, vocab_ia = build_item_attribute_graph(item_keyword_pairs)
    g_ui, g_uiaa, vocab_u, vocab_iaa = build_user_graph(
        id_split.train, aesthetic_pairs, vocab_i)
    bundle = GraphBundle(g_iia=g_iia, g_ui=g_ui, g_uiaa=g_uiaa,
                         vocab_u=vocab_u, vocab_i=vocab_i,
                         vocab_ia=vocab_ia, vocab_iaa=vocab_iaa)
    bundle.validate()

    def _indexed(pairs):
        index_u, index_i = vocab_u.index, vocab_i.index
        return [(a, b) for u, i in pairs
                if (a := index_u.get(u)) is not None
                and (b := index_i.get(i)) is not None]

    train_idx = _indexed(id_split.train)
    positives: dict[int, set[int]] = {}
    for u, i in train_idx:
        positives.setdefault(u, set()).add(i)
    split = SplitDataset(train=train_idx, validation=_indexed(id_split.validation),
                         test=_indexed(id_split.test), user_positives=positives,
                         split_seed=id_split.split_seed)
    cold = ColdCandidates(
        ids=list(cold_keywords), keywords=cold_keywords,
        test_pairs=[(vocab_u.index_of(u), i) for u, i in cold_pairs
                    if u in vocab_u])
    return bundle, split, cold
