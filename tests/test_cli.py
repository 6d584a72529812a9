import json
import os
import shutil
import struct
import subprocess
import sys

import pytest

from agrec.cli import main
from agrec.pipeline import load_dataset
from agrec.synth import planted_world, write_world_files


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("world")
    world = planted_world(n_users=30, n_items=60, n_item_keywords=10,
                          n_aesthetic_keywords=5, seed=3)
    paths = write_world_files(world, directory)
    paths["world"] = world
    return paths


@pytest.fixture(scope="module")
def pipeline_dir(world_dir, tmp_path_factory):
    """prepare + extract + train once; downstream tests read the artifacts."""
    base = tmp_path_factory.mktemp("pipeline")
    data = os.path.join(base, "data")
    attrs = os.path.join(base, "attrs.jsonl")
    model = os.path.join(base, "model.agr")
    assert main(["prepare", "--interactions", world_dir["interactions"],
                 "--items", world_dir["items"], "--min-users", "2",
                 "--split", "0.8,0.1,0.1", "--seed", "42",
                 "--price-buckets", "4", "--out", data]) == 0
    assert main(["extract", "--items", world_dir["items"],
                 "--backend", "fixture", "--fixture", world_dir["fixture"],
                 "--out", attrs]) == 0
    assert main(["train", "--data", data, "--attrs", attrs,
                 "--dim", "16", "--layers", "2", "--lr", "8.0",
                 "--l2", "1e-4", "--neg", "1", "--epochs", "12",
                 "--seed", "7", "--batch", "128", "--val-k", "10",
                 "--out", model]) == 0
    return {"data": data, "attrs": attrs, "model": model, "base": base}


class TestPrepare:
    def test_manifest_counts(self, pipeline_dir):
        doc = json.loads(open(os.path.join(pipeline_dir["data"], "manifest.json")).read())
        counts = doc["counts"]
        assert counts["train"] + counts["validation"] + counts["test"] == counts["interactions"]
        assert doc["config"]["seed"] == 42
        assert doc["config"]["min_users"] == 2

    def test_refuses_overwrite_without_force(self, world_dir, pipeline_dir, capsys):
        code = main(["prepare", "--interactions", world_dir["interactions"],
                     "--items", world_dir["items"], "--out", pipeline_dir["data"]])
        assert code == 1
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, world_dir, tmp_path):
        out = str(tmp_path / "data")
        args = ["prepare", "--interactions", world_dir["interactions"],
                "--items", world_dir["items"], "--min-users", "2", "--out", out]
        assert main(args) == 0
        assert main(args + ["--force"]) == 0

    def test_bad_split_ratios_exit_2(self, world_dir, tmp_path):
        code = main(["prepare", "--interactions", world_dir["interactions"],
                     "--items", world_dir["items"], "--split", "0.5,0.5,0.5",
                     "--out", str(tmp_path / "d")])
        assert code == 2

    def test_vocab_files_written(self, pipeline_dir):
        users = open(os.path.join(pipeline_dir["data"], "users.vocab.txt")).read().splitlines()
        assert len(users) == len(set(users)) > 0


class TestExtract:
    def test_rerun_reports_cached(self, world_dir, pipeline_dir, capsys):
        assert main(["extract", "--items", world_dir["items"],
                     "--backend", "fixture", "--fixture", world_dir["fixture"],
                     "--out", pipeline_dir["attrs"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] == 0
        assert doc["cached"] == 120  # 60 items x 2 kinds

    def test_http_backend_without_token_exit_2(self, world_dir, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.delenv("AGREC_VLM_TOKEN", raising=False)
        code = main(["extract", "--items", world_dir["items"],
                     "--backend", "http", "--base-url", "http://localhost:1",
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 2
        assert "AGREC_VLM_TOKEN" in capsys.readouterr().err

    def test_fixture_backend_requires_fixture_path(self, world_dir, tmp_path):
        code = main(["extract", "--items", world_dir["items"],
                     "--backend", "fixture", "--out", str(tmp_path / "a.jsonl")])
        assert code == 2


class TestTrain:
    def test_checkpoint_and_log_exist(self, pipeline_dir):
        assert os.path.exists(pipeline_dir["model"])
        log = pipeline_dir["model"] + ".log.jsonl"
        lines = [json.loads(x) for x in open(log).read().splitlines()]
        assert {"epoch", "loss", "reg", "val_recall@10", "seconds"} == set(lines[0])

    def test_refuses_overwrite(self, pipeline_dir, capsys):
        code = main(["train", "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--epochs", "1",
                     "--out", pipeline_dir["model"]])
        assert code == 1

    def test_layers_beyond_explored_range_accepted(self, pipeline_dir, tmp_path):
        out = str(tmp_path / "deep.agr")
        assert main(["train", "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--dim", "4",
                     "--layers", "6", "--epochs", "1", "--out", out]) == 0

    def test_lr_zero_completes(self, pipeline_dir, tmp_path):
        out = str(tmp_path / "noop.agr")
        assert main(["train", "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--dim", "4",
                     "--lr", "0", "--epochs", "2", "--patience", "0",
                     "--out", out]) == 0


    def _train(self, pipeline_dir, tmp_path, *flags):
        out = tmp_path / "bad.agr"
        code = main(["train", "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--dim", "4",
                     "--epochs", "2", "--out", str(out), *flags])
        return code, out

    def test_nan_lr_exit_2(self, pipeline_dir, tmp_path):
        code, out = self._train(pipeline_dir, tmp_path, "--lr", "nan")
        assert code == 2
        assert not out.exists()

    def test_batch_zero_exit_2(self, pipeline_dir, tmp_path):
        code, out = self._train(pipeline_dir, tmp_path, "--batch", "0")
        assert code == 2
        assert not out.exists()

    def test_zero_epochs_exit_2(self, pipeline_dir, tmp_path):
        code, out = self._train(pipeline_dir, tmp_path, "--epochs", "0")
        assert code == 2
        assert not out.exists()

    def test_unparsable_alpha_exit_2(self, pipeline_dir, tmp_path):
        code, out = self._train(pipeline_dir, tmp_path, "--alpha", "a,b")
        assert code == 2
        assert not out.exists()

    def test_overflowing_lr_writes_no_checkpoint(self, pipeline_dir, tmp_path,
                                                 capsys):
        code, out = self._train(pipeline_dir, tmp_path, "--lr", "1e30")
        assert code == 1
        assert "not finite in float32" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_removed(self, pipeline_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            self._train(pipeline_dir, tmp_path, "--threads", "2")
        assert excinfo.value.code == 2


class TestEvaluate:
    def test_standard_report(self, pipeline_dir, capsys):
        assert main(["evaluate", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--k", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "standard"
        assert doc["k"] == 10
        assert set(doc) >= {"mode", "k", "users", "recall", "ndcg", "precision",
                            "checkpoint_hash", "dataset_hash", "config"}
        assert doc["config"]["k"] == 10  # resolved config echoed for provenance
        assert doc["recall"] > 0.2

    def test_report_file_matches_stdout(self, pipeline_dir, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["evaluate", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--k", "10",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert open(out).read() == stdout

    def test_evaluate_is_deterministic(self, pipeline_dir, tmp_path):
        outs = []
        for j in range(2):
            path = str(tmp_path / f"r{j}.json")
            assert main(["evaluate", "--model", pipeline_dir["model"],
                         "--data", pipeline_dir["data"],
                         "--attrs", pipeline_dir["attrs"], "--k", "5",
                         "--out", path]) == 0
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]

    def test_vocab_mismatch_exit_3(self, pipeline_dir, capsys):
        # evaluating without --attrs rebuilds text-only graphs: different vocab
        code = main(["evaluate", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"], "--k", "10"])
        assert code == 3
        assert capsys.readouterr().out == ""  # no partial report

    def test_cold_start_mode(self, world_dir, tmp_path, capsys):
        from agrec.ingest import manifest_split, read_manifest, write_manifest

        # hold the last 6 items out of training entirely: their interactions
        # go straight into the manifest's test split (the manifest is a
        # public format, so an operator can stage strict cold-start data)
        world = world_dir["world"]
        cold = set(world.items[-6:])
        inter = os.path.join(tmp_path, "warm.tsv")
        with open(inter, "w") as fh:
            fh.writelines(f"{u}\t{i}\n" for u, i in world.interactions
                          if i not in cold)
        data = str(tmp_path / "data")
        attrs = str(tmp_path / "attrs.jsonl")
        model = str(tmp_path / "model.agr")
        assert main(["prepare", "--interactions", inter, "--items",
                     world_dir["items"], "--min-users", "2", "--seed", "1",
                     "--out", data]) == 0
        manifest_path = os.path.join(data, "manifest.json")
        doc = read_manifest(manifest_path)
        split = manifest_split(doc)
        split.test.extend((u, i) for u, i in world.interactions if i in cold)
        write_manifest(manifest_path, seed=doc["seed"], ratios=doc["ratios"],
                       split=split, config=doc.get("config"))
        assert main(["extract", "--items", world_dir["items"], "--backend",
                     "fixture", "--fixture", world_dir["fixture"],
                     "--out", attrs]) == 0
        assert main(["train", "--data", data, "--attrs", attrs,
                     "--dim", "16", "--layers", "2", "--lr", "8.0",
                     "--epochs", "12", "--batch", "128", "--val-k", "10",
                     "--seed", "7", "--out", model]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", model, "--data", data,
                     "--attrs", attrs, "--k", "3", "--cold-start"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "cold_start"
        assert doc["users"] > 0
        assert doc["recall"] > 0.5

    def test_bad_k_exit_2(self, pipeline_dir):
        code = main(["evaluate", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--k", "0"])
        assert code == 2


    def test_imports_neither_scipy_nor_numba(self, pipeline_dir):
        # every CLI process would pay their import time and memory
        script = (
            "import json, sys\n"
            "from agrec.cli import main\n"
            f"code = main(['evaluate', '--model', {pipeline_dir['model']!r},"
            f" '--data', {pipeline_dir['data']!r},"
            f" '--attrs', {pipeline_dir['attrs']!r}, '--k', '10'])\n"
            "print(json.dumps([code, sorted(m for m in ('scipy', 'numba')"
            " if m in sys.modules)]))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]

    @pytest.mark.parametrize("command", [["evaluate", "--k", "10"],
                                         ["recommend", "--user", "u0003"]])
    def test_loads_no_network_or_thread_pool_modules(self, pipeline_dir, command):
        # only extract needs them, and each costs every other CLI process
        # import time and memory
        script = (
            "import json, sys\n"
            "from agrec.cli import main\n"
            f"code = main({command!r} + ['--model', {pipeline_dir['model']!r},"
            f" '--data', {pipeline_dir['data']!r},"
            f" '--attrs', {pipeline_dir['attrs']!r}])\n"
            "print(json.dumps([code, sorted(m for m in ('urllib.request',"
            " 'http.client', 'ssl', 'concurrent.futures') if m in sys.modules)]))\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


    def test_truncated_checkpoint_exit_1_without_traceback(self, pipeline_dir,
                                                          tmp_path):
        cut = tmp_path / "cut.agr"
        with open(pipeline_dir["model"], "rb") as fh:
            cut.write_bytes(fh.read(6))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "agrec.cli", "evaluate", "--model", str(cut),
             "--data", pipeline_dir["data"], "--attrs", pipeline_dir["attrs"]],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def craft_counts(model, path, edit, cut_rows=0):
    """A copy of checkpoint `model` whose header counts went through `edit`,
    its vocabulary hashes untouched, less its last `cut_rows` table rows."""
    with open(model, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    edit(header["counts"])
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    body = blob[8 + hlen:len(blob) - cut_rows * header["dim"] * 4]
    path.write_bytes(b"AGR1" + struct.pack("<I", len(text)) + text + body)


class TestCountsMismatch:
    """Checkpoint rows are vertices by position, so counts that disagree
    with the dataset are refused even when the vocabulary hashes match."""

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("edit,cut_rows", [
        (lambda c: c.update(users=c["users"] + 1, items=c["items"] - 1), 0),
        (lambda c: c.update(aesthetics=c["aesthetics"] - 1), 1),
    ], ids=["item-row-moved-to-users", "aesthetic-row-dropped"])
    def test_exit_3_without_traceback(self, pipeline_dir, tmp_path, command,
                                      edit, cut_rows):
        model = tmp_path / "crafted.agr"
        craft_counts(pipeline_dir["model"], model, edit, cut_rows)
        extra = ["--user", "u0003"] if command == "recommend" else []
        proc = run_cli(command, "--model", str(model), "--data", pipeline_dir["data"],
                       "--attrs", pipeline_dir["attrs"], *extra)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "counts" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestRecommend:
    def test_top_k_json(self, pipeline_dir, capsys):
        assert main(["recommend", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"],
                     "--user", "u0003", "--k", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["user"] == "u0003"
        assert len(doc["items"]) == 5
        assert all("item_id" in r and "score" in r for r in doc["items"])
        scores = [r["score"] for r in doc["items"]]
        assert scores == sorted(scores, reverse=True)
        prepared = load_dataset(pipeline_dir["data"], pipeline_dir["attrs"])
        user = prepared.bundle.vocab_u.index_of("u0003")
        seen = {prepared.bundle.vocab_i.entries[i]
                for u, i in prepared.split.train if u == user}
        assert seen and not seen & {r["item_id"] for r in doc["items"]}

    def test_unknown_user_exit_4(self, pipeline_dir, capsys):
        code = main(["recommend", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"],
                     "--user", "nobody", "--k", "5"])
        assert code == 4
        assert "nobody" in capsys.readouterr().err

    def test_explain_lists_shared_keywords(self, pipeline_dir, capsys):
        assert main(["recommend", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"],
                     "--user", "u0003", "--k", "5", "--explain"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all("shared_keywords" in r for r in doc["items"])
        # the planted world guarantees keyword overlap for top recommendations
        assert any(r["shared_keywords"] for r in doc["items"])


class TestConfigFile:
    def test_file_value_used_and_flag_overrides(self, world_dir, tmp_path, capsys):
        cfg = tmp_path / "agrec.cfg"
        cfg.write_text("min_users = 2\nseed = 9\n# comment\n")
        out = str(tmp_path / "data")
        assert main(["prepare", "--interactions", world_dir["interactions"],
                     "--items", world_dir["items"], "--out", out,
                     "--config", str(cfg), "--seed", "5"]) == 0
        doc = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert doc["config"]["min_users"] == 2   # from file
        assert doc["config"]["seed"] == 5        # flag wins


def run_cli(*args):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    return subprocess.run([sys.executable, "-m", "agrec.cli", *args],
                          env=env, capture_output=True, text=True)


def assert_clean_exit_1(proc):
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestMalformedInput:
    """Each reader rejects what it cannot use with exit 1 and a message."""

    @pytest.fixture(scope="class")
    def warm(self, pipeline_dir):
        with open(os.path.join(pipeline_dir["data"], "manifest.json")) as fh:
            user, item = json.load(fh)["splits"]["train"][0]
        return user, item

    @pytest.mark.parametrize("record", [
        [1, 2],
        {"kind": "item"},
        {"item_id": "WARM", "keywords": ["x"]},
        {"item_id": "WARM", "kind": "item"},
        {"item_id": 7, "kind": "item", "keywords": ["x"]},
        {"item_id": "WARM", "kind": "item", "keywords": 5},
        {"item_id": "WARM", "kind": "item", "keywords": [1]},
        {"item_id": "WARM", "kind": "item", "keywords": ["x\ud800"]},
        {"item_id": "i\udc00", "kind": "item", "keywords": ["x"]},
    ], ids=["non-object", "no-item-id", "no-kind", "no-keywords",
            "int-item-id", "int-keywords", "int-keyword", "surrogate-keyword",
            "surrogate-item-id"])
    def test_attrs_line(self, pipeline_dir, warm, tmp_path, record):
        user, item = warm
        if isinstance(record, dict) and record.get("item_id") == "WARM":
            record["item_id"] = item
        attrs = tmp_path / "attrs.jsonl"
        with open(pipeline_dir["attrs"]) as fh:
            lines = fh.read().splitlines()
        attrs.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        proc = run_cli("recommend", "--model", pipeline_dir["model"],
                       "--data", pipeline_dir["data"], "--attrs", str(attrs),
                       "--user", user)
        assert_clean_exit_1(proc)
        assert f"{attrs} line {len(lines) + 1}:" in proc.stderr

    def test_attrs_not_utf8(self, pipeline_dir, warm, tmp_path):
        attrs = tmp_path / "attrs.jsonl"
        with open(pipeline_dir["attrs"], "rb") as fh:
            attrs.write_bytes(fh.read() + b'{"item_id": "i\xff"}\n')
        proc = run_cli("recommend", "--model", pipeline_dir["model"],
                       "--data", pipeline_dir["data"], "--attrs", str(attrs),
                       "--user", warm[0])
        assert_clean_exit_1(proc)
        assert f"{attrs}: not UTF-8" in proc.stderr

    @pytest.mark.parametrize("name,content,message", [
        ("interactions", b"u1\ti1\nu1\ti\xff1\n", "not UTF-8"),
        ("items", b'{"item_id": "i1"}\n\xfe\n', "not UTF-8"),
        ("items", b'{"item_id": "i1"}\n5\n', "items line 2: expected a JSON object"),
        ("items", b'{"item_id": 7, "price": "x"}\n', "items line 1: item_id must be"),
        ("items", b'{"item_id": "i7", "price": "x"}\n', "price must be a number"),
        ("items", b'{"item_id": "i\\ud800"}\n', "items line 1: a string is not UTF-8"),
        ("items", b'{"item_id": "i1", "brand": "b\\udfff"}\n',
         "items line 1: a string is not UTF-8"),
    ], ids=["interactions-not-utf8", "items-not-utf8", "items-int-line",
            "items-int-id", "items-string-price", "items-surrogate-id",
            "items-surrogate-brand"])
    def test_prepare_input(self, world_dir, tmp_path, name, content, message):
        paths = {"interactions": world_dir["interactions"], "items": world_dir["items"]}
        paths[name] = str(tmp_path / name)
        with open(paths[name], "wb") as fh:
            fh.write(content)
        proc = run_cli("prepare", "--interactions", paths["interactions"],
                       "--items", paths["items"], "--min-users", "0",
                       "--out", str(tmp_path / "data"))
        assert_clean_exit_1(proc)
        assert message in proc.stderr
        if "UTF-8" in message:
            assert paths[name] in proc.stderr

    @pytest.mark.parametrize("edit", [
        lambda doc: "{\"seed\": 1,",
        lambda doc: [1, 2],
        lambda doc: doc["splits"].update(train={"u": "i"}) or doc,
        lambda doc: doc["splits"]["train"].__setitem__(0, [1, 2, 3]) or doc,
        lambda doc: doc["splits"]["test"].__setitem__(0, ["u", 5]) or doc,
        lambda doc: doc["splits"]["train"][0].__setitem__(0, "u\ud800") or doc,
    ], ids=["invalid-json", "non-object", "train-not-list", "three-ints",
            "int-id", "surrogate-id"])
    def test_manifest(self, pipeline_dir, warm, tmp_path, edit):
        data = tmp_path / "data"
        shutil.copytree(pipeline_dir["data"], data)
        with open(data / "manifest.json") as fh:
            doc = edit(json.load(fh))
        (data / "manifest.json").write_text(
            doc if isinstance(doc, str) else json.dumps(doc))
        proc = run_cli("recommend", "--model", pipeline_dir["model"],
                       "--data", str(data), "--attrs", pipeline_dir["attrs"],
                       "--user", warm[0])
        assert_clean_exit_1(proc)
        assert "manifest" in proc.stderr

    @pytest.mark.parametrize("content,message", [
        (b'{"i1": {"item": "a\xff"}}', "not UTF-8"),
        (b'{"i1": ', "invalid fixture JSON"),
        (b'[1,2]', "objects of strings"),
        (b'{"i1": {"item": 5}}', "objects of strings"),
    ], ids=["not-utf8", "invalid-json", "list", "int-response"])
    def test_extract_fixture(self, world_dir, tmp_path, content, message):
        fixture = tmp_path / "fixture.json"
        fixture.write_bytes(content)
        proc = run_cli("extract", "--items", world_dir["items"], "--backend", "fixture",
                       "--fixture", str(fixture), "--out", str(tmp_path / "attrs.jsonl"))
        assert_clean_exit_1(proc)
        assert f"{fixture}: " in proc.stderr and message in proc.stderr

    def test_stop_words_not_utf8(self, world_dir, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\nf\xffr\n")
        proc = run_cli("prepare", "--interactions", world_dir["interactions"],
                       "--items", world_dir["items"], "--min-users", "2",
                       "--stop-words", str(stop), "--out", str(tmp_path / "data"))
        assert_clean_exit_1(proc)
        assert f"{stop}: not UTF-8" in proc.stderr

    def test_config_not_utf8_exit_2(self, world_dir, tmp_path):
        cfg = tmp_path / "agrec.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        proc = run_cli("prepare", "--interactions", world_dir["interactions"],
                       "--items", world_dir["items"], "--config", str(cfg),
                       "--out", str(tmp_path / "data"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {cfg}: not UTF-8")
        assert "Traceback" not in proc.stderr


class TestDeepJson:
    """JSON nested past the recursion limit is invalid input to every
    reader: exit 1 with a message, not a RecursionError traceback."""

    DEEP = "[" * 100_000

    @pytest.fixture(scope="class")
    def warm_user(self, pipeline_dir):
        with open(os.path.join(pipeline_dir["data"], "manifest.json")) as fh:
            return json.load(fh)["splits"]["train"][0][0]

    def recommend(self, pipeline_dir, user, **paths):
        paths = {**pipeline_dir, **paths}
        return run_cli("recommend", "--model", str(paths["model"]),
                       "--data", str(paths["data"]), "--attrs", str(paths["attrs"]),
                       "--user", user)

    def test_items(self, world_dir, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text(self.DEEP + "\n")
        proc = run_cli("extract", "--items", str(items), "--backend", "fixture",
                       "--fixture", world_dir["fixture"],
                       "--out", str(tmp_path / "attrs.jsonl"))
        assert_clean_exit_1(proc)
        assert f"{items} line 1: invalid JSON (nested too deeply)" in proc.stderr

    def test_fixture(self, world_dir, tmp_path):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(self.DEEP)
        proc = run_cli("extract", "--items", world_dir["items"], "--backend", "fixture",
                       "--fixture", str(fixture), "--out", str(tmp_path / "attrs.jsonl"))
        assert_clean_exit_1(proc)
        assert f"{fixture}: invalid fixture JSON (nested too deeply)" in proc.stderr

    def test_extraction_output(self, world_dir, tmp_path):
        out = tmp_path / "attrs.jsonl"
        out.write_text(self.DEEP + "\n")
        proc = run_cli("extract", "--items", world_dir["items"], "--backend", "fixture",
                       "--fixture", world_dir["fixture"], "--out", str(out))
        assert_clean_exit_1(proc)
        assert "corrupt extraction output line" in proc.stderr
        assert out.read_text() == self.DEEP + "\n"

    def test_attrs(self, pipeline_dir, warm_user, tmp_path):
        attrs = tmp_path / "attrs.jsonl"
        with open(pipeline_dir["attrs"]) as fh:
            lines = fh.read().splitlines()
        attrs.write_text("\n".join(lines + [self.DEEP]) + "\n")
        proc = self.recommend(pipeline_dir, warm_user, attrs=attrs)
        assert_clean_exit_1(proc)
        assert f"{attrs} line {len(lines) + 1}: invalid JSON (nested too deeply)" \
            in proc.stderr

    def test_manifest(self, pipeline_dir, warm_user, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline_dir["data"], data)
        (data / "manifest.json").write_text(self.DEEP)
        proc = self.recommend(pipeline_dir, warm_user, data=data)
        assert_clean_exit_1(proc)
        assert "invalid manifest (nested too deeply" in proc.stderr

    def test_checkpoint_header(self, pipeline_dir, warm_user, tmp_path):
        model = tmp_path / "deep.agr"
        header = self.DEEP.encode()
        model.write_bytes(b"AGR1" + struct.pack("<I", len(header)) + header)
        proc = self.recommend(pipeline_dir, warm_user, model=model)
        assert_clean_exit_1(proc)
        assert "corrupt checkpoint header: nested too deeply" in proc.stderr


class TestRefusedSettings:
    """Out-of-range settings exit 2 with a message, by flag or config file."""

    def assert_clean_exit_2(self, proc, message):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    def prepare(self, world_dir, tmp_path, *flags):
        return run_cli("prepare", "--interactions", world_dir["interactions"],
                       "--items", world_dir["items"], "--min-users", "2",
                       "--out", str(tmp_path / "data"), *flags)

    def train(self, pipeline_dir, tmp_path, *flags):
        out = tmp_path / "refused.agr"
        proc = run_cli("train", "--data", pipeline_dir["data"],
                       "--attrs", pipeline_dir["attrs"], "--dim", "4",
                       "--epochs", "2", "--out", str(out), *flags)
        assert not out.exists()
        return proc

    def config(self, tmp_path, line):
        path = tmp_path / "agrec.cfg"
        path.write_text(line + "\n")
        return "--config", str(path)

    @pytest.mark.parametrize("ratios", ["nan,0.1,0.1", "inf,0.1,0.1"])
    def test_split_not_finite_flag(self, world_dir, tmp_path, ratios):
        proc = self.prepare(world_dir, tmp_path, "--split", ratios)
        self.assert_clean_exit_2(proc, "split ratios must be finite")
        assert not (tmp_path / "data").exists()

    def test_split_not_finite_config(self, world_dir, tmp_path):
        proc = self.prepare(world_dir, tmp_path,
                            *self.config(tmp_path, "split = nan,0.1,0.1"))
        self.assert_clean_exit_2(proc, "split ratios must be finite")

    @pytest.mark.parametrize("flag,key", [("--patience", "patience"),
                                          ("--checkpoint-every", "checkpoint_every")])
    def test_negative_flag(self, pipeline_dir, tmp_path, flag, key):
        proc = self.train(pipeline_dir, tmp_path, flag, "-2")
        self.assert_clean_exit_2(proc, f"{key} must be >= 0, got -2")

    @pytest.mark.parametrize("key", ["patience", "checkpoint_every"])
    def test_negative_config_key(self, pipeline_dir, tmp_path, key):
        proc = self.train(pipeline_dir, tmp_path,
                          *self.config(tmp_path, f"{key} = -1"))
        self.assert_clean_exit_2(proc, f"{key} must be >= 0, got -1")

    def test_zero_still_means_off(self, pipeline_dir, tmp_path):
        proc = run_cli("train", "--data", pipeline_dir["data"],
                       "--attrs", pipeline_dir["attrs"], "--dim", "4",
                       "--epochs", "2", "--patience", "0", "--checkpoint-every", "0",
                       "--out", str(tmp_path / "off.agr"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["epochs_run"] == 2
