"""Attribute files as pipeline.load_attribute_files and a resuming
extraction read them: through the one JSONL reader of ingest, and with
repeated keywords kept, since the graph builders and the cold edges
collapse repeats on their own."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrec import pipeline
from agrec.errors import DataError
from agrec.extractor import FixtureBackend, PromptKind, run_extraction_batch
from agrec.ingest import read_items, split_dataset, write_manifest
from agrec.synth import hold_out_items, planted_world
from helpers import assert_same_dataset

WORLD = planted_world(n_users=16, n_items=40, n_item_keywords=6,
                      n_aesthetic_keywords=3, tastes_per_user=2, seed=5)
_COLD = set(hold_out_items(WORLD, 0.15))
SPLIT = split_dataset([p for p in WORLD.interactions if p[1] not in _COLD], seed=5)
SPLIT.test += [p for p in WORLD.interactions if p[1] in _COLD][:12]

# small alphabets, so that most draws repeat keywords
_KEYWORDS = st.lists(st.sampled_from(["k0", "k1", "k2", "k3", "colour:grün"]),
                     max_size=5)
_AESTHETICS = st.lists(st.sampled_from(["a0", "a1", "a2"]), max_size=4)
_ITEM = st.integers(0, len(WORLD.items) - 1)


def _write(directory, text, attrs):
    """A prepared directory of SPLIT's manifest, `text` {item_id: keywords}
    and `attrs` [(item_id, kind, keywords)]; returns (data_dir, attrs_path)."""
    data = os.path.join(directory, "data")
    os.makedirs(data)
    write_manifest(os.path.join(data, pipeline.MANIFEST_NAME), seed=5,
                   ratios=(0.8, 0.1, 0.1), split=SPLIT)
    with open(os.path.join(data, pipeline.TEXT_ATTRS_NAME), "w", encoding="utf-8") as fh:
        for iid, keywords in text.items():
            fh.write(json.dumps({"item_id": iid, "keywords": keywords}) + "\n")
    path = os.path.join(directory, "attrs.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for iid, kind, keywords in attrs:
            fh.write(json.dumps({"item_id": iid, "kind": kind, "keywords": keywords}) + "\n")
    return data, path


def _deduplicated(text, attrs):
    """The records with each keyword kept only where its item first has it,
    per kind; text keywords and extracted `item` keywords are one kind."""
    seen: set[tuple[str, str, str]] = set()

    def _first(iid, kind, keywords):
        kept = [kw for kw in keywords if (iid, kind, kw) not in seen]
        seen.update((iid, kind, kw) for kw in keywords)
        return kept

    text = {iid: _first(iid, "item", keywords) for iid, keywords in text.items()}
    return text, [(iid, kind, _first(iid, kind, keywords)) for iid, kind, keywords in attrs]


@settings(max_examples=40, deadline=None)
@given(text=st.lists(_KEYWORDS.filter(bool), min_size=len(WORLD.items),
                     max_size=len(WORLD.items)),
       item=st.lists(_KEYWORDS, min_size=len(WORLD.items), max_size=len(WORLD.items)),
       aesthetic=st.lists(_AESTHETICS, min_size=len(WORLD.items),
                          max_size=len(WORLD.items)),
       extra=st.lists(st.tuples(_ITEM, st.sampled_from(["item", "aesthetic"]),
                                _KEYWORDS | _AESTHETICS), max_size=6))
def test_repeated_keywords_build_the_deduplicated_dataset(text, item, aesthetic, extra):
    """Repeats within a text record, between text and extracted `item`
    records, and within `aesthetic` records give the vocabularies, graphs,
    splits and cold candidates of the same input without them."""
    items = WORLD.items
    text = dict(zip(items, text))
    attrs = [rec for iid, kws, aes in zip(items, item, aesthetic)
             for rec in ((iid, "item", kws), (iid, "aesthetic", aes))]
    attrs += [(items[n], kind, keywords) for n, kind, keywords in extra]
    with tempfile.TemporaryDirectory() as tmp:
        repeated = pipeline._build_dataset(*_write(os.path.join(tmp, "r"), text, attrs))
        deduplicated = pipeline._build_dataset(
            *_write(os.path.join(tmp, "d"), *_deduplicated(text, attrs)))
    assert_same_dataset(repeated, deduplicated)


_ITEM_LINE = '{"item_id": "i1", "kind": "item", "keywords": ["x"]}'


@pytest.mark.parametrize("name", ["items", "text", "attrs", "extraction"])
@pytest.mark.parametrize("line,message", [
    ("{item_id}", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ("[1, 2]", "expected a JSON object"),
    ('{"item_id": "i\\ud800", "kind": "item", "keywords": ["x"]}',
     "a string is not UTF-8 text (lone surrogate escape)"),
], ids=["invalid-json", "non-object", "lone-surrogate"])
def test_each_jsonl_input_names_file_and_line(tmp_path, name, line, message):
    path = tmp_path / f"{name}.jsonl"
    path.write_text(f"{_ITEM_LINE}\n\n{line}\n", encoding="utf-8")
    before = path.read_bytes()
    read = {"items": read_items,
            "text": lambda p: pipeline.load_attribute_files(text_attrs_path=p),
            "attrs": lambda p: pipeline.load_attribute_files(attrs_path=p),
            # a resuming run reads its output before it queries the backend
            "extraction": lambda p: run_extraction_batch(
                [("i1", None)], PromptKind, FixtureBackend({}), 1, p)}[name]
    with pytest.raises(DataError) as excinfo:
        read(str(path))
    assert str(excinfo.value) == f"{path} line 3: {message}"
    assert path.read_bytes() == before
