"""The content-addressed dataset cache of pipeline.load_dataset.

A hit must return exactly what a build returns; any change to an input or
an agrec source, and any damage to the cache file, must lead to a rebuild,
never to a traceback or a different dataset.
"""

import builtins
import hashlib
import io
import os
import shutil
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agrec import ingest, pipeline
from agrec.cli import main
from agrec.errors import DataError
from agrec.ingest import manifest_split, read_manifest, write_manifest
from helpers import assert_same_dataset, write_prepared_dir

SRC = os.path.dirname(os.path.abspath(pipeline.__file__))


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory):
    return write_prepared_dir(tmp_path_factory.mktemp("prepared"), seed=5)


@pytest.fixture(scope="module")
def fresh(prepared_dir):
    """A build that never touched a cache."""
    return pipeline._build_dataset(*prepared_dir)


@pytest.fixture(scope="module")
def good_cache(prepared_dir):
    """The bytes of the cache file a load of prepared_dir writes."""
    pipeline.load_dataset(*prepared_dir)
    with open(os.path.join(prepared_dir[0], pipeline.CACHE_NAME), "rb") as fh:
        return fh.read()


@pytest.fixture
def copy(prepared_dir, tmp_path):
    """A private copy of prepared_dir, without a cache file."""
    data = tmp_path / "data"
    shutil.copytree(prepared_dir[0], data)
    (data / pipeline.CACHE_NAME).unlink(missing_ok=True)
    attrs = tmp_path / "attrs.jsonl"
    shutil.copy(prepared_dir[1], attrs)
    return str(data), str(attrs)


@pytest.fixture
def builds(monkeypatch):
    """Counts the loads that parse the attribute files, i.e. the misses."""
    calls = []
    real = pipeline.load_attribute_files

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_attribute_files", counted)
    return calls


def _cache(data):
    return os.path.join(data, pipeline.CACHE_NAME)


def _leftovers(data):
    return sorted(n for n in os.listdir(data) if n.startswith(pipeline.CACHE_NAME))


class TestHit:
    def test_hit_equals_fresh_build(self, copy, fresh, builds):
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert len(builds) == 1 and os.path.exists(_cache(copy[0]))
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert len(builds) == 1

    def test_cold_edges_equal_fresh_build(self, copy, fresh, builds):
        pipeline.load_dataset(*copy)
        got = pipeline.load_dataset(*copy).cold
        assert len(builds) == 1  # the second load was a hit
        assert got.edges.size and got.edges.dtype == np.int64
        np.testing.assert_array_equal(got.edges, fresh.cold.edges)
        assert got.ids == fresh.cold.ids

    def test_empty_validation_split(self, copy, builds):
        path = os.path.join(copy[0], pipeline.MANIFEST_NAME)
        doc, _ = read_manifest(path)
        split = manifest_split(doc)
        split.train, split.validation = split.train + split.validation, []
        write_manifest(path, seed=doc["seed"], ratios=doc["ratios"], split=split)
        built = pipeline.load_dataset(*copy)
        hit = pipeline.load_dataset(*copy)
        assert len(builds) == 1  # the second load was a hit
        assert built.split.validation.shape == (0, 2)
        assert_same_dataset(hit, built)

    def test_train_pairs_are_the_user_item_graph(self, copy, builds):
        built = pipeline.load_dataset(*copy)
        hit = pipeline.load_dataset(*copy)
        assert len(builds) == 1  # the second load was a hit
        for got in (built, hit):
            g = got.bundle.g_ui
            assert g.edge_count
            assert sorted(set(map(tuple, got.split.train.tolist()))) == \
                list(zip(g.left.tolist(), g.right.tolist()))

    def test_cache_moves_with_its_directory(self, copy, tmp_path, fresh, builds):
        pipeline.load_dataset(*copy)
        moved = tmp_path / "moved"
        shutil.copytree(copy[0], moved)
        assert_same_dataset(pipeline.load_dataset(str(moved), copy[1]), fresh)
        assert len(builds) == 1


def _flip_first_space(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[data.index(b" ")] = ord("\t")  # JSON whitespace: same content, other bytes
    with open(path, "wb") as fh:
        fh.write(bytes(data))


class TestKey:
    @pytest.mark.parametrize("which", ["manifest", "text", "attrs"])
    def test_one_changed_input_byte_rebuilds(self, copy, fresh, builds, which):
        pipeline.load_dataset(*copy)
        path = {"manifest": os.path.join(copy[0], pipeline.MANIFEST_NAME),
                "text": os.path.join(copy[0], pipeline.TEXT_ATTRS_NAME),
                "attrs": copy[1]}[which]
        _flip_first_space(path)
        got = pipeline.load_dataset(*copy)
        assert len(builds) == 2
        assert_same_dataset(pipeline.load_dataset(*copy), got)
        assert len(builds) == 2  # the rebuilt cache now hits
        assert_same_dataset(got, pipeline._build_dataset(*copy))
        assert (got.dataset_hash == fresh.dataset_hash) == (which != "manifest")

    def test_presence_of_each_input_is_keyed(self, copy, builds):
        data, attrs = copy
        keys = {pipeline._cache_key(data, attrs), pipeline._cache_key(data, None)}
        os.remove(os.path.join(data, pipeline.TEXT_ATTRS_NAME))
        keys.add(pipeline._cache_key(data, attrs))
        assert len(keys) == 3

    def test_one_changed_source_byte_rebuilds(self, copy, tmp_path, monkeypatch,
                                             builds):
        pipeline.load_dataset(*copy)
        src = tmp_path / "agrec"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(pipeline, "__file__", str(src / "pipeline.py"))
        pipeline.load_dataset(*copy)
        assert len(builds) == 1  # same bytes: still a hit
        _flip_first_space(src / "graphs.py")
        pipeline.load_dataset(*copy)
        assert len(builds) == 2

    def test_missing_attrs_file_fails_even_with_a_cache(self, copy, capsys):
        data, attrs = copy
        pipeline.load_dataset(data, None)  # a cache built without attributes
        assert os.path.exists(_cache(data))
        missing = attrs + ".missing"
        for command in (["evaluate"], ["recommend", "--user", "u0001"]):
            code = main(command + ["--model", "nope.agr", "--data", data,
                                   "--attrs", missing])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "missing" in err

    def test_miss_hashes_the_manifest_bytes_it_parsed(self, copy, monkeypatch):
        """A miss reads the manifest for the key, the build and the key
        again; dataset_hash is the sha256 of the bytes the build parsed."""
        manifest = os.path.join(copy[0], pipeline.MANIFEST_NAME)
        with open(manifest, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        opened = []
        real_open = builtins.open

        def counted(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        prepared = pipeline.load_dataset(*copy)
        monkeypatch.undo()
        assert opened.count(manifest) == 3
        assert prepared.dataset_hash == digest
        assert read_manifest(manifest)[1] == digest


def _rewrite(data, edit):
    """Apply edit(arrays) to the cache, keeping its digest consistent."""
    with np.load(_cache(data), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    edit(arrays)
    arrays["digest"] = np.array(pipeline._payload_digest(arrays))
    np.savez(_cache(data), **arrays)


def _bump(name, row, value):
    def edit(arrays):
        arr = arrays[name].copy()
        arr[row] = value
        arrays[name] = arr
    return edit


class TestBadCache:
    @pytest.mark.parametrize("edit", [
        lambda a: a.update(key=np.array("0" * 64)),
        lambda a: a.pop("vocab_ia"),
        lambda a: a.update(g_ui_left=a["g_ui_left"].astype(np.float64)),
        lambda a: a.update(vocab_i=a["vocab_i"].reshape(-1, 1)),
        lambda a: a.update(train=a["train"].reshape(-1)),
        lambda a: a.update(train=a["train"].reshape(-1, 1)),
        lambda a: a.update(g_iia_right=a["g_iia_right"][:-1]),
        lambda a: a.update(vocab_u=np.concatenate([a["vocab_u"], a["vocab_u"][:1]])),
        lambda a: _bump("g_iia_right", 0, len(a["vocab_ia"]))(a),
        lambda a: _bump("g_uiaa_left", -1, -1)(a),
        lambda a: _bump("train", (0, 0), len(a["vocab_u"]))(a),
        lambda a: _bump("test", (0, 1), -1)(a),
        lambda a: _bump("cold_test", (0, 1), len(a["cold_ids"]))(a),
        lambda a: _bump("cold_edges", (0, 1), len(a["vocab_ia"]))(a),
        lambda a: _bump("cold_edges", (-1, 0), len(a["cold_ids"]))(a),
        lambda a: _bump("cold_edges", (0, 0), -1)(a),
        lambda a: a.update(cold_edges=a["cold_edges"].reshape(-1)),
        lambda a: a.update(cold_ids=np.concatenate([a["cold_ids"][:1], a["cold_ids"][:-1]])),
        lambda a: a.update(dataset_hash=np.array(7)),
    ], ids=["other-key", "missing-member", "float-edges", "2d-vocab", "1d-split",
            "split-shape", "edge-lengths", "repeated-vocab", "edge-range",
            "negative-edge", "split-range", "negative-split", "cold-range",
            "cold-edge-range", "cold-position-range", "negative-cold-edge",
            "1d-cold-edges", "repeated-cold-id", "int-hash"])
    def test_inconsistent_cache_rebuilds(self, copy, fresh, builds, edit):
        pipeline.load_dataset(*copy)
        _rewrite(copy[0], edit)
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert len(builds) == 2
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert len(builds) == 2  # rewritten whole

    def test_digest_catches_a_changed_value(self, copy, fresh, builds):
        pipeline.load_dataset(*copy)
        with np.load(_cache(copy[0]), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["train"] = arrays["train"][:-1]  # consistent, but not what was built
        np.savez(_cache(copy[0]), **arrays)
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert len(builds) == 2

    @pytest.mark.parametrize("content", [b"", b"PK\x03\x04", b"\x93NUMPY\x01\x00",
                                         b"not a zip at all"])
    def test_junk_file_rebuilds(self, copy, fresh, content):
        with open(_cache(copy[0]), "wb") as fh:
            fh.write(content)
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)

    def test_directory_in_the_way(self, copy, fresh):
        os.mkdir(_cache(copy[0]))
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert _leftovers(copy[0]) == [pipeline.CACHE_NAME]


def _drop_member(blob: bytes, index: int) -> bytes:
    with zipfile.ZipFile(io.BytesIO(blob)) as src:
        names = src.namelist()
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as dst:
            for n, name in enumerate(names):
                if n != index % len(names):
                    dst.writestr(name, src.read(name))
    return out.getvalue()


_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 30)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.integers(0, 1 << 30), st.integers(1, 255)), min_size=1, max_size=4)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("drop"), st.integers(0, 100)),
)


def _mutate(blob: bytes, mutation) -> bytes:
    op, arg = mutation
    if op == "truncate":
        return blob[:arg % len(blob)]
    if op == "flip":
        out = bytearray(blob)
        for pos, mask in arg:
            out[pos % len(out)] ^= mask
        return bytes(out)
    if op == "append":
        return blob + arg
    return _drop_member(blob, arg)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_MUTATIONS)
def test_damaged_cache_never_changes_the_dataset(copy, fresh, good_cache, mutation):
    damaged = _mutate(good_cache, mutation)
    with open(_cache(copy[0]), "wb") as fh:
        fh.write(damaged)
    assert_same_dataset(pipeline.load_dataset(*copy), fresh)
    with open(_cache(copy[0]), "rb") as fh:
        assert fh.read() in (damaged, good_cache)


class TestWrite:
    @pytest.mark.parametrize("target", ["replace", "savez", "open"])
    def test_oserror_while_writing_still_returns(self, copy, fresh, monkeypatch,
                                                target):
        def boom(*args, **kwargs):
            raise OSError(28, "No space left on device")

        def no_new_files(path, *args, **kwargs):
            # a directory that refuses the temporary file
            if str(path).endswith(".tmp"):
                raise OSError(30, "Read-only file system")
            return open(path, *args, **kwargs)

        if target == "replace":
            monkeypatch.setattr(pipeline.os, "replace", boom)
        elif target == "savez":
            monkeypatch.setattr(pipeline.np, "savez", boom)
        else:
            # the cache file is opened by the one atomic writer
            monkeypatch.setattr(ingest, "open", no_new_files, raising=False)
        assert_same_dataset(pipeline.load_dataset(*copy), fresh)
        assert _leftovers(copy[0]) == []

    def test_failed_build_leaves_no_cache(self, copy):
        data, attrs = copy
        with open(attrs, "a") as fh:
            fh.write('{"item_id": "x", "kind": "colour", "keywords": []}\n')
        with pytest.raises(DataError, match="unknown kind"):
            pipeline.load_dataset(data, attrs)
        assert _leftovers(data) == []

    def test_failed_build_keeps_the_old_cache(self, copy, good_cache):
        data, attrs = copy
        pipeline.load_dataset(data, attrs)
        with open(attrs, "a") as fh:
            fh.write("{oops\n")
        with pytest.raises(DataError, match="invalid JSON"):
            pipeline.load_dataset(data, attrs)
        with open(_cache(data), "rb") as fh:
            assert fh.read() == good_cache

    def test_input_rewritten_during_build_is_not_cached(self, copy, monkeypatch):
        data, attrs = copy
        real = pipeline.load_attribute_files

        def rewriting(*args, **kwargs):
            out = real(*args, **kwargs)
            _flip_first_space(attrs)
            return out

        monkeypatch.setattr(pipeline, "load_attribute_files", rewriting)
        pipeline.load_dataset(data, attrs)
        assert _leftovers(data) == []

    def test_nul_in_a_string_is_not_cached(self, copy, builds):
        data, attrs = copy
        with open(attrs, "a") as fh:
            fh.write('{"item_id": "i0000", "kind": "item", "keywords": ["a\\u0000"]}\n')
        got = pipeline.load_dataset(data, attrs)
        assert "a\x00" in got.bundle.vocab_ia
        assert _leftovers(data) == []
