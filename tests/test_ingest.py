import ast
import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrec import ingest
from agrec.errors import ConfigError, DataError
from agrec.ingest import (SplitDataset, ItemMetadata, PriceBuckets, _permutation,
                          _split_sizes, atomic_write, filter_min_popularity,
                          fit_price_buckets, manifest_split, parse_interactions,
                          parse_items, read_interactions, read_items, split_dataset,
                          text_attributes_line, tokenize_text_attributes,
                          write_manifest, read_manifest)
from helpers import (reference_manifest_bytes, reference_permutation,
                     reference_price_buckets, snapshot, tear_nth_write)

# IDs and keywords that exercise every escape the JSON string encoder makes
ODD_TEXT = (st.text(min_size=1, max_size=8)
            | st.sampled_from(['"', "\\", "\x00", "\n\t", "caf\u00e9", "e\u0301",
                               "\U0001f3a7", "\u2028", "\x7f", "\ufeff"]))


class TestParseInteractions:
    def test_single_line(self):
        assert parse_interactions(["u1\ti9\n"]) == [("u1", "i9")]

    def test_duplicates_preserved(self):
        assert parse_interactions(["u1\ti9\n", "u1\ti9\n"]) == [("u1", "i9")] * 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(DataError, match="line 1"):
            parse_interactions(["u1\n"])
        with pytest.raises(DataError, match="line 3"):
            parse_interactions(["a\tb\n", "c\td\n", "a\tb\tc\n"])

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            parse_interactions([])

    def test_blank_lines_skipped(self):
        assert parse_interactions(["\n", "u\ti\n", "\n"]) == [("u", "i")]


class TestFilterMinPopularity:
    def _rows(self, item, n_users):
        return [(f"u{k}", item) for k in range(n_users)]

    def test_exactly_threshold_removed(self):
        rows = self._rows("hot", 10)
        assert filter_min_popularity(rows, 10) == []

    def test_above_threshold_kept(self):
        rows = self._rows("hot", 11)
        assert filter_min_popularity(rows, 10) == rows

    def test_threshold_zero_is_identity(self):
        rows = self._rows("a", 3) + self._rows("b", 1)
        assert filter_min_popularity(rows, 0) == rows

    def test_counts_distinct_users_not_rows(self):
        rows = [("u1", "x")] * 20  # one user, many rows
        assert filter_min_popularity(rows, 1) == []

    def test_negative_threshold(self):
        with pytest.raises(ConfigError):
            filter_min_popularity([("u", "i")], -1)

    def test_no_surviving_item_below_threshold(self):
        rows = [(f"u{k % 7}", f"i{k % 13}") for k in range(200)]
        out = filter_min_popularity(rows, 4)
        users_per_item = {}
        for u, i in out:
            users_per_item.setdefault(i, set()).add(u)
        assert all(len(us) > 4 for us in users_per_item.values())


class TestSplitDataset:
    def test_ten_rows_deterministic(self):
        rows = [("u1", f"i{k}") for k in range(10)]
        a = split_dataset(rows, seed=42)
        b = split_dataset(rows, seed=42)
        assert (len(a.train), len(a.validation), len(a.test)) == (8, 1, 1)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_multiset_union_preserved(self):
        rows = [(f"u{k % 5}", f"i{k}") for k in range(57)]
        s = split_dataset(rows, seed=3)
        assert Counter(s.train + s.validation + s.test) == Counter(rows)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            split_dataset([("u", "i")] * 10, ratios=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("seed", [-1, -(2 ** 70)], ids=["-1", "-2**70"])
    def test_negative_seed_refused(self, seed):
        with pytest.raises(ConfigError, match=f"seed must be >= 0, got {seed}"):
            split_dataset([("u", "i")] * 10, seed=seed)

    # Seeds past 2**128 have more uint32 words than SeedSequence's 4-word
    # pool, and it mixes the rest in after the pool. n = 257 starts the
    # shuffle at i = 256, where the mask has just widened to 511.
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 300) | st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32,
                                                        2 ** 128 - 1, 2 ** 128]),
           st.integers(0, 3000) | st.sampled_from([0, 1, 2, 3, 256, 257]))
    def test_shuffle_is_numpys_permutation(self, seed, n):
        assert _permutation(n, seed) == reference_permutation(n, seed)

    @pytest.mark.parametrize("seed", [11, np.int64(11)], ids=["int", "numpy-int"])
    def test_split_order_is_numpys_permutation(self, seed):
        rows = [(f"u{k % 7}", f"i{k}") for k in range(50)]
        order = reference_permutation(len(rows), seed)
        s = split_dataset(rows, ratios=(0.6, 0.2, 0.2), seed=seed)
        assert s.train + s.validation + s.test == [rows[j] for j in order]

    def test_users_not_cold_in_val_test(self):
        # u9 appears once: wherever it lands, it must end up in train
        rows = [("u0", f"i{k}") for k in range(40)] + [("u9", "i99")]
        for seed in range(20):
            s = split_dataset(rows, seed=seed)
            train_users = {u for u, _ in s.train}
            assert all(u in train_users for u, _ in s.validation + s.test)

    def test_rebalance_keeps_sizes(self):
        rows = [("u0", f"i{k}") for k in range(40)] + [("u9", "i99")]
        for seed in range(20):
            s = split_dataset(rows, seed=seed)
            n_train, n_val = _split_sizes(41, (0.8, 0.1, 0.1))
            assert len(s.train) == n_train
            assert len(s.validation) == n_val

    def test_different_seeds_differ(self):
        rows = [(f"u{k % 10}", f"i{k}") for k in range(200)]
        a = split_dataset(rows, seed=1)
        b = split_dataset(rows, seed=2)
        assert a.train != b.train

    def test_table_ii_arithmetic(self):
        assert _split_sizes(459_146, (0.8, 0.1, 0.1)) == (367_317, 45_914)
        # remainder: 459146 - 367317 - 45914 == 45915
        assert 459_146 - sum(_split_sizes(459_146, (0.8, 0.1, 0.1))) == 45_915


class TestPriceBuckets:
    def test_rank_split(self):
        b = fit_price_buckets([10, 20, 30, 40], 2)
        assert [b.assign(p) for p in (10, 20, 30, 40)] == [0, 0, 1, 1]

    def test_single_bucket(self):
        b = fit_price_buckets([5, 50, 500], 1)
        assert b.boundaries == []
        assert all(b.assign(p) == 0 for p in (1, 5, 5000))

    def test_ties_share_bucket(self):
        b = fit_price_buckets([5, 5, 5, 9], 2)
        assert b.assign(5) == 0
        assert b.assign(9) == 1

    def test_all_equal_prices(self):
        b = fit_price_buckets([7, 7, 7], 3)
        assert all(b.assign(7) == 0 for _ in range(3))

    def test_bad_n_p(self):
        for prices in ([1.0], []):  # refused with or without prices
            for n_p in (0, -5):
                with pytest.raises(ConfigError,
                                   match=f"price_buckets must be >= 1, got {n_p}"):
                    fit_price_buckets(prices, n_p)

    def test_empty_prices(self):
        # no price to split: every label is 0, however many buckets
        b = fit_price_buckets([], 2)
        assert b.boundaries == []
        assert b.assign(123.0) == 0

    @pytest.mark.parametrize("boundaries", [[], [5.0], [10.0, 20.0, 30.0],
                                            [0.0, 0.5, 1e300]])
    def test_assign_is_searchsorted_right(self, boundaries):
        b = PriceBuckets(boundaries)
        # below, on, just either side of and above each edge, and between
        edges = [0.0, 1.0] + boundaries
        prices = sorted({p for e in edges for p in (
            e, e / 2, e + 1.0, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))})
        prices += [(lo + hi) / 2 for lo, hi in zip(boundaries, boundaries[1:])]
        for price in prices:
            want = int(np.searchsorted(boundaries, price, side="right"))
            assert b.assign(float(price)) == want, price

    # repeats, both zeros and subnormals among prices up to 1e9
    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.0, 1.5, 99.99])
                    | st.floats(0, 1e9), max_size=60),
           st.integers(1, 12))
    def test_boundaries_are_numpys(self, prices, n_p):
        got = fit_price_buckets(prices, n_p).boundaries
        # the manifest writes the boundaries: equal as JSON text, too
        assert json.dumps(got) == json.dumps(reference_price_buckets(prices, n_p))

    @settings(max_examples=60)
    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=40),
           st.integers(1, 8), st.floats(0, 2e6, allow_nan=False))
    def test_fitted_assign_is_searchsorted_right(self, prices, n_p, price):
        b = fit_price_buckets(prices, n_p)
        for p in prices + [price]:
            assert b.assign(p) == int(np.searchsorted(b.boundaries, p, side="right"))

    @settings(max_examples=60)
    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=40),
           st.integers(1, 8))
    def test_assignment_monotone(self, prices, n_p):
        b = fit_price_buckets(prices, n_p)
        ordered = sorted(prices)
        labels = [b.assign(p) for p in ordered]
        assert labels == sorted(labels)
        assert all(0 <= lab < n_p for lab in labels)


class TestTokenizer:
    BUCKETS = PriceBuckets(boundaries=[10.0, 20.0, 30.0])

    def test_structured_fields(self):
        meta = ItemMetadata(item_id="x", brand="Acme", price=25.0,
                            category="skirt", color="navy")
        got = tokenize_text_attributes(meta, self.BUCKETS)
        assert got == ["brand:acme", "price:2", "category:skirt", "color:navy"]

    def test_all_absent(self):
        assert tokenize_text_attributes(ItemMetadata(item_id="x"), self.BUCKETS) == []

    def test_description_pipeline(self):
        meta = ItemMetadata(item_id="x", description="A light summer skirt.")
        got = tokenize_text_attributes(meta, self.BUCKETS,
                                       stop_words=frozenset({"a"}))
        assert got == ["desc:light", "desc:summer", "desc:skirt"]

    def test_description_flag_off(self):
        meta = ItemMetadata(item_id="x", description="anything here")
        assert tokenize_text_attributes(meta, self.BUCKETS,
                                        include_description=False) == []

    def test_short_tokens_dropped(self):
        meta = ItemMetadata(item_id="x", description="a b cc")
        got = tokenize_text_attributes(meta, self.BUCKETS, stop_words=frozenset())
        assert got == ["desc:cc"]

    @staticmethod
    def per_character(description):
        # the description filter written one character at a time
        out = []
        for raw in description.lower().split():
            token = "".join(ch for ch in raw if ch.isalnum())
            if len(token) >= 2:
                out.append(f"desc:{token}")
        return out

    @pytest.mark.parametrize("word", ["naïve", "ß", "Ⅻ", "x²", "e\u0301",
                                      "co-op.", "NAÏVE", "İstanbul", "٣٤"])
    def test_whole_token_path_matches_per_character(self, word):
        description = f"{word} {word}z z{word}!"
        meta = ItemMetadata(item_id="x", description=description)
        got = tokenize_text_attributes(meta, self.BUCKETS, stop_words=frozenset())
        assert got == self.per_character(description)

    @given(st.text(max_size=60))
    def test_description_matches_per_character(self, description):
        meta = ItemMetadata(item_id="x", description=description)
        got = tokenize_text_attributes(meta, self.BUCKETS, stop_words=frozenset())
        assert got == self.per_character(description)

    @given(ODD_TEXT, st.lists(ODD_TEXT, max_size=5))
    def test_line_is_json_dumps(self, item_id, keywords):
        want = json.dumps({"item_id": item_id, "keywords": keywords},
                          sort_keys=True) + "\n"
        assert text_attributes_line(item_id, keywords) == want

    @given(st.builds(ItemMetadata,
                     item_id=st.just("x"),
                     brand=st.none() | st.text(max_size=8),
                     category=st.none() | st.text(max_size=8),
                     color=st.none() | st.text(max_size=8),
                     description=st.none() | st.text(max_size=40)))
    def test_tokens_lowercase_namespaced(self, meta):
        for token in tokenize_text_attributes(meta, self.BUCKETS):
            namespace, _, value = token.partition(":")
            assert namespace in ("brand", "category", "color", "price", "desc")
            assert value
            assert token == token.lower()


class TestItemsFile:
    def test_parse_items(self):
        lines = [json.dumps({"item_id": "i1", "brand": "B", "price": 3.5}),
                 json.dumps({"item_id": "i2"})]
        items = parse_items(lines)
        assert items[0].brand == "B" and items[0].price == 3.5
        assert items[1].color is None

    def test_missing_item_id(self):
        with pytest.raises(DataError, match="line 1"):
            parse_items([json.dumps({"brand": "B"})])

    def test_negative_price(self):
        with pytest.raises(DataError, match="price"):
            parse_items([json.dumps({"item_id": "x", "price": -1})])

    def test_bad_json(self):
        with pytest.raises(DataError, match="line 2"):
            parse_items(["{\"item_id\": \"a\"}", "{nope"])

    @pytest.mark.parametrize("line,problem", [
        ("5", "expected a JSON object"),
        ("[\"i1\"]", "expected a JSON object"),
        ('{"item_id": 7, "price": "x"}', "item_id must be a string"),
        ('{"item_id": "i1", "price": "x"}', "price must be a number"),
        ('{"item_id": "i1", "price": [1]}', "price must be a number"),
        ('{"item_id": "i1", "price": 1' + "0" * 400 + '}', "price must be a number"),
        ('{"item_id": "i1", "brand": 5}', "brand must be a string or null"),
        ('{"item_id": "i1", "description": ["a"]}', "description must be"),
    ])
    def test_malformed_line_names_it(self, line, problem):
        with pytest.raises(DataError, match="items line 2: .*" + problem):
            parse_items(['{"item_id": "i0"}', line])

    def test_numeric_string_price_still_accepted(self):
        assert parse_items(['{"item_id": "i1", "price": "2.5"}'])[0].price == 2.5


class TestNotUtf8:
    def test_interactions(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_bytes(b"u1\ti1\nu1\ti\xff1\n")
        with pytest.raises(DataError, match=f"{path}: not UTF-8"):
            read_interactions(path)

    def test_items(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_bytes(b'{"item_id": "i\xc3"}\n')
        with pytest.raises(DataError, match=f"{path}: not UTF-8"):
            read_items(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [(f"u{k % 4}", f"i{k}") for k in range(30)]
        split = split_dataset(rows, seed=9)
        path = tmp_path / "manifest.json"
        write_manifest(path, seed=9, ratios=(0.8, 0.1, 0.1), split=split,
                       config={"seed": 9})
        doc, _ = read_manifest(path)
        assert doc["counts"]["train"] == len(split.train)
        again = manifest_split(doc)
        assert again.train == split.train
        assert again.validation == split.validation
        assert again.test == split.test

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        rows = [(f"u{k % 4}", f"i{k}") for k in range(30)]
        path = tmp_path / "manifest.json"
        write_manifest(path, seed=9, ratios=(0.8, 0.1, 0.1),
                       split=split_dataset(rows, seed=9))
        before = snapshot(tmp_path)
        tear_nth_write(monkeypatch, budget=200)
        with pytest.raises(OSError, match="No space"):
            write_manifest(path, seed=3, ratios=(0.8, 0.1, 0.1),
                           split=split_dataset(rows, seed=3))
        assert snapshot(tmp_path) == before


class TestAtomicWrite:
    def test_text_is_utf8_with_lf_endings(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path) as fh:
            fh.write("caf\u00e9\n")
        assert path.read_bytes() == b"caf\xc3\xa9\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("exc", [OSError, ValueError, KeyboardInterrupt])
    def test_exception_keeps_the_previous_file(self, tmp_path, exc):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(exc):
            with atomic_write(path, "wb") as fh:
                fh.write(b"new, and more")
                raise exc()
        assert snapshot(tmp_path) == {"out.bin": b"old"}

    def test_unopenable_temporary_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_write(tmp_path / "absent" / "out.txt"):
                pass
        assert os.listdir(tmp_path) == []


def _is_call(node, name, owner=None):
    """`node` is a call of `name`, or of `owner.name` when owner is given."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if owner is None:
        return isinstance(func, ast.Name) and func.id == name
    return (isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id == owner)


def _writes(call) -> bool:
    """An open() call whose mode has "w" or is not a string literal."""
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "w" not in mode.value)


def test_atomic_write_is_the_only_whole_file_writer():
    """Every artifact is written through atomic_write: no other open() in
    agrec takes a "w" mode, and os.replace is called nowhere else."""
    src = os.path.dirname(ingest.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        writers = [f for f in ast.walk(tree) if name == "ingest.py"
                   and isinstance(f, ast.FunctionDef) and f.name == "atomic_write"]
        allowed = {id(node) for f in writers for node in ast.walk(f)}
        for node in ast.walk(tree):
            if ((_is_call(node, "open") and _writes(node))
                    or _is_call(node, "replace", owner="os")):
                found.append((name, node.lineno, id(node) in allowed))
    assert [f for f in found if not f[2]] == []
    assert len(found) == 2  # atomic_write's own open() and os.replace


# (module, function or Class.method) of the readers that may parse JSON;
# parse_json is json.loads itself, with deep nesting made a JSONDecodeError
_JSON_READERS = {("ingest.py", "parse_json"), ("ingest.py", "jsonl_records"),
                 ("ingest.py", "read_manifest"), ("extractor.py", "FixtureBackend.from_file"),
                 ("extractor.py", "HttpBackend.complete"), ("model.py", "load_checkpoint")}


def _defs(tree):
    """(name, node) of each module-level function and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


def test_json_is_parsed_only_by_the_readers():
    """parse_json and json.loads are called only inside _JSON_READERS, and
    each of them calls one: a private JSON-lines loop must go through
    jsonl_records instead."""
    src = os.path.dirname(ingest.__file__)
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        owner = {id(node): (name, qualname) for qualname, f in _defs(tree)
                 if (name, qualname) in _JSON_READERS for node in ast.walk(f)}
        for node in ast.walk(tree):
            if _is_call(node, "parse_json") or _is_call(node, "loads", owner="json"):
                found.add(owner.get(id(node), (name, node.lineno)))
    assert found == _JSON_READERS


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
               | st.floats() | ODD_TEXT)
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(ODD_TEXT, inner, max_size=3), max_leaves=8)
PAIRS = st.lists(st.tuples(ODD_TEXT, ODD_TEXT), max_size=4)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(-2**40, 2**40),
       ratios=st.lists(st.floats(), max_size=3),
       train=PAIRS, validation=PAIRS, test=PAIRS,
       config=st.none() | st.dictionaries(ODD_TEXT, JSON_VALUES, max_size=4),
       extra=st.none() | st.dictionaries(ODD_TEXT, JSON_VALUES, max_size=3))
def test_manifest_bytes_match_json_dump(seed, ratios, train, validation, test,
                                        config, extra):
    split = SplitDataset(train=train, validation=validation, test=test)
    kwargs = dict(seed=seed, ratios=ratios, split=split, config=config,
                  extra=extra)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "manifest.json")
        write_manifest(path, **kwargs)
        with open(path, "rb") as fh:
            assert fh.read() == reference_manifest_bytes(**kwargs)
