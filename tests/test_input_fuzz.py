"""Mutated input files: the readers and load_dataset may only raise AgrecError.

Each example starts from valid files, then truncates them, flips bytes
(which also makes them invalid UTF-8), inserts or appends junk, or swaps
one JSON value for a value of another type. Swapped-in strings may hold a
lone surrogate, which JSON can escape but UTF-8 cannot encode, so whatever
a reader accepts must encode as UTF-8. A load that raises must leave
the dataset cache as it was; a load that succeeds must serve the same
dataset again from the cache it wrote.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrec import pipeline
from agrec.errors import AgrecError
from agrec.ingest import read_interactions, read_items
from agrec.model import vocab_hashes
from agrec.synth import planted_world, write_world_files
from helpers import assert_same_dataset, write_prepared_dir

_CHARS = st.characters() | st.just("\ud800")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(_CHARS, max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(_CHARS, max_size=4), inner, max_size=3),
    max_leaves=5)

_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 30)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.integers(0, 1 << 30), st.integers(1, 255)), min_size=1, max_size=3)),
    st.tuples(st.just("insert"), st.tuples(st.integers(0, 1 << 30), st.binary(min_size=1))),
    st.tuples(st.just("append"), st.binary(min_size=1)),
    st.tuples(st.just("swap"), st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30),
                                         _JSON_VALUES)),
)


def _nodes(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _swap(doc, pick: int, new):
    paths = list(_nodes(doc))
    path = paths[pick % len(paths)]
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def _mutate(blob: bytes, mutation, jsonl: bool) -> bytes:
    op, arg = mutation
    if op == "truncate":
        return blob[:arg % (len(blob) + 1)]
    if op == "flip":
        out = bytearray(blob)
        for pos, mask in arg:
            out[pos % len(out)] ^= mask
        return bytes(out)
    if op == "insert":
        pos, junk = arg
        pos %= len(blob) + 1
        return blob[:pos] + junk + blob[pos:]
    if op == "append":
        return blob + arg
    line_pick, pick, new = arg
    if not jsonl:
        return json.dumps(_swap(json.loads(blob), pick, new)).encode()
    lines = blob.decode().splitlines()
    n = line_pick % len(lines)
    lines[n] = json.dumps(_swap(json.loads(lines[n]), pick, new))
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """(data_dir, attrs_path, cache bytes) of a valid prepared directory."""
    data, attrs = write_prepared_dir(tmp_path_factory.mktemp("fuzz"), seed=2)
    pipeline.load_dataset(data, attrs)
    with open(os.path.join(data, pipeline.CACHE_NAME), "rb") as fh:
        return data, attrs, fh.read()


@pytest.fixture(scope="module")
def raw_files(tmp_path_factory):
    world = planted_world(n_users=8, n_items=12, n_item_keywords=3,
                          n_aesthetic_keywords=2, seed=4)
    paths = write_world_files(world, tmp_path_factory.mktemp("raw"))
    return {name: open(paths[name], "rb").read() for name in ("interactions", "items")}


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(["manifest", "text", "attrs"]), mutation=_MUTATIONS)
def test_load_dataset_raises_only_agrec_errors(prepared, which, mutation):
    data, attrs, cache = prepared
    with tempfile.TemporaryDirectory() as tmp:
        copy_data, copy_attrs = os.path.join(tmp, "data"), os.path.join(tmp, "attrs.jsonl")
        shutil.copytree(data, copy_data)
        shutil.copy(attrs, copy_attrs)
        path = {"manifest": os.path.join(copy_data, pipeline.MANIFEST_NAME),
                "text": os.path.join(copy_data, pipeline.TEXT_ATTRS_NAME),
                "attrs": copy_attrs}[which]
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(_mutate(blob, mutation, jsonl=which != "manifest"))
        cache_path = os.path.join(copy_data, pipeline.CACHE_NAME)
        try:
            first = pipeline.load_dataset(copy_data, copy_attrs)
        except AgrecError:
            with open(cache_path, "rb") as fh:
                assert fh.read() == cache
            return
        vocab_hashes(first.bundle)  # every ID and keyword encodes as UTF-8
        assert_same_dataset(pipeline.load_dataset(copy_data, copy_attrs), first)


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(["interactions", "items"]), mutation=_MUTATIONS)
def test_readers_raise_only_agrec_errors(raw_files, which, mutation):
    if mutation[0] == "swap" and which == "interactions":
        mutation = ("append", b"\t")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, which)
        with open(path, "wb") as fh:
            fh.write(_mutate(raw_files[which], mutation, jsonl=True))
        try:
            records = (read_interactions if which == "interactions" else read_items)(path)
        except AgrecError:
            return
        json.dumps([vars(r) if which == "items" else r for r in records],
                   ensure_ascii=False).encode("utf-8")
