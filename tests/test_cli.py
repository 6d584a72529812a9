import builtins
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys

import pytest

from agrec import __version__
from agrec.cli import main
from agrec.extractor import FixtureBackend
from agrec.pipeline import load_dataset
from agrec.synth import planted_world, write_world_files
from helpers import snapshot, tear_nth_write


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


@pytest.fixture(scope="module")
def cold_dir(world_dir, tmp_path_factory):
    """A trained pipeline whose last 6 items are held out of training
    entirely: their interactions go straight into the manifest's test split
    (the manifest is a public format, so an operator can stage strict
    cold-start data)."""
    from agrec.ingest import manifest_split, read_manifest, write_manifest

    base = tmp_path_factory.mktemp("cold")
    world = world_dir["world"]
    cold = set(world.items[-6:])
    inter = os.path.join(base, "warm.tsv")
    with open(inter, "w") as fh:
        fh.writelines(f"{u}\t{i}\n" for u, i in world.interactions
                      if i not in cold)
    data = str(base / "data")
    attrs = str(base / "attrs.jsonl")
    model = str(base / "model.agr")
    assert main(["prepare", "--interactions", inter, "--items",
                 world_dir["items"], "--min-users", "2", "--seed", "1",
                 "--out", data]) == 0
    manifest_path = os.path.join(data, "manifest.json")
    doc, _ = read_manifest(manifest_path)
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
    return {"data": data, "attrs": attrs, "model": model}


def _modules_after(script, names):
    """[`code` as `script` left it, the `names` in sys.modules] after
    `script` ran in a fresh interpreter."""
    script += (f"print(json.dumps([code, sorted(m for m in {tuple(names)!r}"
               " if m in sys.modules)]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def modules_loaded(argv, names):
    """[exit code, the `names` in sys.modules] after the CLI ran `argv` in a
    fresh interpreter, agrec.cli imported as a module."""
    return _modules_after("import json, sys\n"
                          "from agrec.cli import main\n"
                          f"code = main({argv!r})\n", names)


# The two ways `agrec ARGV` runs as a program: `python -m agrec.cli` and
# the `agrec` script (`python -m agrec` runs the same function).
AS_MODULE_MAIN = "import runpy; runpy.run_module('agrec.cli', run_name='__main__')"
ENTRY_POINT = "from agrec.__main__ import main; main()"


def program_modules_loaded(argv, names, run=AS_MODULE_MAIN):
    """[exit code, the `names` in sys.modules] after `agrec ARGV` ran as a
    program, through `run`, in a fresh interpreter."""
    return _modules_after("import json, sys\n"
                          f"sys.argv = ['agrec', *{argv!r}]\n"
                          "try:\n"
                          f"    {run}\n"
                          "except SystemExit as exc:\n"
                          "    code = exc.code\n", names)


def served(command, paths):
    """`command` run on the trained pipeline at `paths`."""
    return command + ["--model", paths["model"], "--data", paths["data"],
                      "--attrs", paths["attrs"]]


# Only extract needs these, and each costs every other CLI process import
# time and memory.
NETWORK_AND_THREAD_POOL = ("urllib.request", "http.client", "ssl",
                           "concurrent.futures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "prepare")


class TestPrepare:
    def test_manifest_counts(self, pipeline_dir):
        doc = json.loads(open(os.path.join(pipeline_dir["data"], "manifest.json")).read())
        counts = doc["counts"]
        assert counts["train"] + counts["validation"] + counts["test"] == counts["interactions"]
        assert doc["config"]["seed"] == 42
        assert doc["config"]["min_users"] == 2

    def test_stdout_is_the_manifest_counts(self, world_dir, tmp_path, capsys):
        from agrec.ingest import filter_min_popularity, read_interactions

        out = str(tmp_path / "data")
        assert main(["prepare", "--interactions", world_dir["interactions"],
                     "--items", world_dir["items"], "--min-users", "2",
                     "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        with open(os.path.join(out, "manifest.json")) as fh:
            assert summary == {"out": out, **json.load(fh)["counts"]}
        filtered = filter_min_popularity(
            read_interactions(world_dir["interactions"]), 2)
        assert (summary["users"], summary["items"], summary["interactions"]) == (
            len({u for u, _ in filtered}), len({i for _, i in filtered}),
            len(filtered))

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

    @pytest.mark.parametrize("nth", [1, 2])  # text_attributes.jsonl, manifest
    def test_failed_force_keeps_the_old_outputs(self, world_dir, tmp_path,
                                                monkeypatch, nth):
        out = str(tmp_path / "data")
        args = ["prepare", "--interactions", world_dir["interactions"],
                "--items", world_dir["items"], "--min-users", "2", "--out", out]
        assert main(args) == 0
        before = snapshot(out)
        opened = tear_nth_write(monkeypatch, nth=nth)
        assert main(args + ["--seed", "9", "--force"]) == 1
        assert len(opened) == nth
        assert snapshot(out) == before

    def test_outputs_match_golden_hashes(self, tmp_path, monkeypatch):
        # relative paths, so that the config echo in the manifest is stable
        for name in ("interactions.tsv", "items.jsonl", "stop_words.txt"):
            shutil.copy(os.path.join(GOLDEN, name), tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["prepare", "--interactions", "interactions.tsv",
                     "--items", "items.jsonl", "--stop-words", "stop_words.txt",
                     "--out", "data", "--min-users", "1", "--split", "0.6,0.2,0.2",
                     "--seed", "5", "--price-buckets", "3"]) == 0
        with open(os.path.join(GOLDEN, "outputs.sha256")) as fh:
            want = dict(line.split()[::-1] for line in fh)
        got = {}
        for name in want:
            with open(os.path.join("data", name), "rb") as fh:
                got[name] = hashlib.sha256(fh.read()).hexdigest()
        assert got == want

    def test_loads_no_numpy_ma_network_or_thread_pool_modules(self, world_dir,
                                                              tmp_path):
        argv = ["prepare", "--interactions", world_dir["interactions"],
                "--items", world_dir["items"], "--min-users", "2",
                "--out", str(tmp_path / "data")]
        assert modules_loaded(argv, ("numpy.ma",) + NETWORK_AND_THREAD_POOL) == [0, []]


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

    @pytest.mark.parametrize("record,message", [
        ({"kind": "item"}, "missing keywords"),
        ({"kind": "colour", "keywords": ["red"]}, "unknown kind 'colour'"),
        ({"item_id": 7, "kind": "item", "keywords": ["red"]},
         "item_id must be a string"),
        ({"kind": "item", "keywords": ["red", 1]}, "keywords must be a list of strings"),
    ], ids=["no-keywords", "unknown-kind", "integer-item-id", "non-string-keyword"])
    def test_refuses_what_train_refuses(self, world_dir, pipeline_dir, tmp_path,
                                        monkeypatch, capsys, record, message):
        out = tmp_path / "attrs.jsonl"
        out.write_text(json.dumps({"item_id": world_dir["world"].items[0], **record}) + "\n")
        before = out.read_bytes()
        calls = []
        monkeypatch.setattr(FixtureBackend, "complete", lambda self, *a: calls.append(a))
        code = main(["extract", "--items", world_dir["items"], "--backend", "fixture",
                     "--fixture", world_dir["fixture"], "--out", str(out)])
        assert (code, calls, out.read_bytes()) == (1, [], before)
        assert capsys.readouterr().err == f"error: {out} line 1: {message}\n"
        code = main(["train", "--data", pipeline_dir["data"], "--attrs", str(out),
                     "--epochs", "1", "--out", str(tmp_path / "model.agr")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {out} line 1: {message}\n"


# The layers the model commands add to the ingest layer, numpy among them.
MODEL_LAYERS = ("agrec.graphs", "agrec.kernels", "agrec.model", "agrec.training",
                "agrec.evaluation", "agrec.pipeline")


class TestImportFootprint:
    """Run as a program, each command imports only the layers it runs;
    imported as a module, agrec.cli loads them all."""

    @pytest.mark.parametrize("command,run", [
        ("extract", AS_MODULE_MAIN), ("--version", AS_MODULE_MAIN),
        ("extract", ENTRY_POINT), ("prepare", AS_MODULE_MAIN)],
        ids=["extract", "version", "entry-point-extract", "prepare"])
    def test_loads_no_numpy(self, world_dir, tmp_path, command, run):
        out = tmp_path / "out"
        argv = [command]
        if command == "extract":
            argv += ["--items", world_dir["items"], "--backend", "fixture",
                     "--fixture", world_dir["fixture"], "--out", str(out)]
        elif command == "prepare":
            argv += ["--interactions", world_dir["interactions"],
                     "--items", world_dir["items"], "--min-users", "2",
                     "--out", str(out)]
        assert program_modules_loaded(argv, ("numpy",), run=run) == [0, []]
        assert out.exists() == (command != "--version")

    def test_prepare_loads_no_model_layer(self, world_dir, tmp_path):
        argv = ["prepare", "--interactions", world_dir["interactions"],
                "--items", world_dir["items"], "--min-users", "2",
                "--out", str(tmp_path / "data")]
        assert program_modules_loaded(argv, MODEL_LAYERS) == [0, []]

    @pytest.mark.parametrize("command", [["evaluate", "--k", "10"],
                                         ["recommend", "--user", "u0003"]])
    def test_serving_loads_no_training(self, pipeline_dir, command):
        assert program_modules_loaded(served(command, pipeline_dir),
                                      ("agrec.training",)) == [0, []]

    def test_module_import_loads_every_layer(self):
        layers = ("agrec.errors", "agrec.ingest", "agrec.extractor") + MODEL_LAYERS
        script = ("import json, sys\n"
                  "import agrec.cli, agrec.model\n"
                  "code = agrec.cli.forward is agrec.model.forward\n")
        assert _modules_after(script, layers) == [True, sorted(layers)]


class TestTrain:
    def test_checkpoint_and_log_exist(self, pipeline_dir):
        assert os.path.exists(pipeline_dir["model"])
        log = pipeline_dir["model"] + ".log.jsonl"
        lines = [json.loads(x) for x in open(log).read().splitlines()]
        assert {"epoch", "loss", "reg", "val_recall@10", "seconds", "maxrss_mb",
                "sample_s", "forward_s", "backward_s", "step_s",
                "validate_s"} == set(lines[0])

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

    def test_loads_no_numpy_ma_network_or_thread_pool_modules(self, pipeline_dir,
                                                              tmp_path):
        # the sampler and validation ranking are where np.isin would creep in
        argv = ["train", "--data", pipeline_dir["data"], "--attrs", pipeline_dir["attrs"],
                "--dim", "4", "--epochs", "2", "--out", str(tmp_path / "m.agr")]
        assert modules_loaded(argv, ("numpy.ma",) + NETWORK_AND_THREAD_POOL) == [0, []]

    def test_checkpoint_header_carries_versions(self, pipeline_dir):
        import numpy

        with open(pipeline_dir["model"], "rb") as fh:
            blob = fh.read()
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8:8 + hlen])
        assert header["versions"] == {"agrec": __version__, "numpy": numpy.__version__}

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

    def _good_run(self, pipeline_dir, tmp_path):
        """Train 3 epochs into tmp_path/m.agr; returns the argv."""
        args = ["train", "--data", pipeline_dir["data"], "--attrs", pipeline_dir["attrs"],
                "--dim", "4", "--epochs", "3", "--out", str(tmp_path / "m.agr")]
        assert main(args) == 0
        return args

    def test_failed_force_keeps_model_and_log(self, pipeline_dir, tmp_path, capsys):
        # the log beside --out describes the checkpoint there
        args = self._good_run(pipeline_dir, tmp_path)
        before = snapshot(tmp_path)
        assert main(args + ["--force", "--lr", "1e30"]) == 1
        assert "not finite in float32" in capsys.readouterr().err
        assert snapshot(tmp_path) == before  # both files as they were, no *.tmp

    def test_failure_after_a_save_logs_that_run_only(self, pipeline_dir, tmp_path,
                                                     monkeypatch):
        import agrec.evaluation
        from agrec.errors import NumericError
        from agrec.model import load_checkpoint

        args = self._good_run(pipeline_dir, tmp_path)
        real, calls = agrec.evaluation.mean_recall_at_k, []

        def fail_second(*a, **kw):  # epoch 2's validation, after epoch 1's save
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("injected")
            return real(*a, **kw)

        monkeypatch.setattr(agrec.evaluation, "mean_recall_at_k", fail_second)
        assert main(args + ["--force", "--seed", "8"]) == 1
        monkeypatch.undo()
        # a clean 1-epoch run of the same config gives epoch 1's line and tables
        ref = str(tmp_path / "ref.agr")
        assert main(args[:-1] + [ref, "--epochs", "1", "--seed", "8"]) == 0

        def untimed(model):
            with open(model + ".log.jsonl") as fh:
                return [{k: v for k, v in json.loads(line).items()
                         if k not in ("seconds", "maxrss_mb") and not k.endswith("_s")}
                        for line in fh]

        assert untimed(args[-1]) == untimed(ref) and len(untimed(ref)) == 1
        assert (load_checkpoint(args[-1]).tables == load_checkpoint(ref).tables).all()

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

    def test_report_carries_versions(self, pipeline_dir, capsys):
        import numpy

        assert main(served(["evaluate", "--k", "10"], pipeline_dir)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["versions"] == {"agrec": __version__, "numpy": numpy.__version__}

    def test_reads_the_model_once_and_reports_its_sha256(self, pipeline_dir,
                                                         monkeypatch, capsys):
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        assert main(served(["evaluate", "--k", "10"], pipeline_dir)) == 0
        monkeypatch.undo()
        assert opened.count(pipeline_dir["model"]) == 1
        doc = json.loads(capsys.readouterr().out)
        with open(pipeline_dir["model"], "rb") as fh:
            assert doc["checkpoint_hash"] == hashlib.sha256(fh.read()).hexdigest()

    def test_report_file_matches_stdout(self, pipeline_dir, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert main(["evaluate", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"], "--k", "10",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert open(out).read() == stdout

    def test_failed_report_keeps_the_old_one(self, pipeline_dir, tmp_path,
                                             monkeypatch, capsys):
        args = ["evaluate", "--model", pipeline_dir["model"],
                "--data", pipeline_dir["data"], "--attrs", pipeline_dir["attrs"],
                "--out", str(tmp_path / "report.json")]
        assert main(args + ["--k", "10"]) == 0  # also leaves the dataset cached
        before = snapshot(tmp_path)
        tear_nth_write(monkeypatch)
        assert main(args + ["--k", "5"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert snapshot(tmp_path) == before

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

    def test_cold_start_mode(self, cold_dir, capsys):
        assert main(["evaluate", "--model", cold_dir["model"], "--data", cold_dir["data"],
                     "--attrs", cold_dir["attrs"], "--k", "3", "--cold-start"]) == 0
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
        assert modules_loaded(served(["evaluate", "--k", "10"], pipeline_dir),
                              ("scipy", "numba")) == [0, []]

    @pytest.mark.parametrize("command", [["evaluate", "--k", "10"],
                                         ["recommend", "--user", "u0003"]])
    def test_loads_no_network_or_thread_pool_modules(self, pipeline_dir, command):
        assert modules_loaded(served(command, pipeline_dir),
                              NETWORK_AND_THREAD_POOL) == [0, []]

    @pytest.mark.parametrize("command", [["evaluate", "--k", "10"],
                                         ["evaluate", "--k", "10", "--cold-start"],
                                         ["recommend", "--user", "u0003"]])
    def test_never_imports_numpy_ma(self, pipeline_dir, cold_dir, command):
        # np.unique imports it on first use, ~15 ms per process
        paths = cold_dir if "--cold-start" in command else pipeline_dir
        assert modules_loaded(served(command, paths), ("numpy.ma",)) == [0, []]


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

    @pytest.mark.parametrize("alpha", [[2.0, -1.0, 0.0], [float("nan"), 0.5, 0.5]],
                             ids=["negative-weight", "nan-weight"])
    def test_corrupt_alpha_exit_1_without_report(self, pipeline_dir, tmp_path,
                                                 alpha):
        model, out = tmp_path / "alpha.agr", tmp_path / "report.json"
        craft_header(pipeline_dir["model"], model, lambda h: h.update(alpha=alpha))
        proc = run_cli("evaluate", "--model", str(model), "--data", pipeline_dir["data"],
                       "--attrs", pipeline_dir["attrs"], "--out", str(out))
        assert_clean_exit_1(proc)
        assert proc.stderr.startswith("error: corrupt checkpoint")
        assert not out.exists()

    def test_flipped_table_byte_exit_1_without_report(self, pipeline_dir, tmp_path):
        model, out = tmp_path / "flipped.agr", tmp_path / "report.json"
        blob = bytearray(open(pipeline_dir["model"], "rb").read())
        blob[-4] ^= 0x01  # the lowest mantissa bit of the last value
        model.write_bytes(bytes(blob))
        proc = run_cli("evaluate", "--model", str(model), "--data", pipeline_dir["data"],
                       "--attrs", pipeline_dir["attrs"], "--out", str(out))
        assert_clean_exit_1(proc)
        assert proc.stderr.startswith("error: corrupt checkpoint: table digest mismatch")
        assert not out.exists()


def craft_header(model, path, edit, cut_rows=0):
    """A copy of checkpoint `model` whose header went through `edit`, less
    its last `cut_rows` table rows; the table digest follows the rows."""
    with open(model, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    edit(header)
    body = blob[8 + hlen:len(blob) - cut_rows * header["dim"] * 4]
    header["table_sha256"] = hashlib.sha256(body).hexdigest()
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"AGR1" + struct.pack("<I", len(text)) + text + body)


class TestCountsMismatch:
    """Checkpoint rows are vertices by position, so counts that disagree
    with the dataset are refused even when the vocabulary hashes match."""

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("edit,cut_rows", [
        (lambda h: h["counts"].update(users=h["counts"]["users"] + 1,
                                      items=h["counts"]["items"] - 1), 0),
        (lambda h: h["counts"].update(aesthetics=h["counts"]["aesthetics"] - 1), 1),
    ], ids=["item-row-moved-to-users", "aesthetic-row-dropped"])
    def test_exit_3_without_traceback(self, pipeline_dir, tmp_path, command,
                                      edit, cut_rows):
        model = tmp_path / "crafted.agr"
        craft_header(pipeline_dir["model"], model, edit, cut_rows)
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

    def test_k_past_the_unseen_items_lists_each_once(self, pipeline_dir, capsys):
        assert main(served(["recommend", "--user", "u0003", "--k", "10000"],
                           pipeline_dir)) == 0
        doc = json.loads(capsys.readouterr().out)
        prepared = load_dataset(pipeline_dir["data"], pipeline_dir["attrs"])
        vocab_i = prepared.bundle.vocab_i
        user = prepared.bundle.vocab_u.index_of("u0003")
        seen = {int(i) for u, i in prepared.split.train if u == user}
        unseen = [item for j, item in enumerate(vocab_i.entries) if j not in seen]
        # a -1 pad read as an index would name the last item once more
        assert seen and sorted(r["item_id"] for r in doc["items"]) == sorted(unseen)

    def test_unknown_user_exit_4(self, pipeline_dir, capsys):
        code = main(["recommend", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"],
                     "--user", "nobody", "--k", "5"])
        assert code == 4
        assert "nobody" in capsys.readouterr().err

    def test_repeated_training_pair_changes_no_output(self, pipeline_dir,
                                                       tmp_path, capsys):
        from agrec.ingest import manifest_split, read_manifest, write_manifest

        data = str(tmp_path / "data")
        shutil.copytree(pipeline_dir["data"], data)
        manifest_path = os.path.join(data, "manifest.json")
        doc, _ = read_manifest(manifest_path)
        split = manifest_split(doc)
        pair = next(p for p in split.train if p[0] == "u0003")
        split.train.append(pair)
        write_manifest(manifest_path, seed=doc["seed"], ratios=doc["ratios"],
                       split=split, config=doc.get("config"))
        repeated = load_dataset(data, pipeline_dir["attrs"]).split.train
        assert (repeated == repeated[-1]).all(axis=1).sum() == 2

        for flags in ([], ["--explain"]):
            outputs = []
            for directory in (pipeline_dir["data"], data):
                assert main(["recommend", "--model", pipeline_dir["model"],
                             "--data", directory, "--attrs", pipeline_dir["attrs"],
                             "--user", "u0003", "--k", "8", *flags]) == 0
                doc = json.loads(capsys.readouterr().out)
                doc["config"].pop("data")
                outputs.append(doc)
            assert outputs[0] == outputs[1]

    def test_explain_lists_shared_keywords(self, pipeline_dir, capsys):
        assert main(["recommend", "--model", pipeline_dir["model"],
                     "--data", pipeline_dir["data"],
                     "--attrs", pipeline_dir["attrs"],
                     "--user", "u0003", "--k", "5", "--explain"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all("shared_keywords" in r for r in doc["items"])
        # the planted world guarantees keyword overlap for top recommendations
        assert any(r["shared_keywords"] for r in doc["items"])


@pytest.mark.parametrize("command", [
    ["evaluate", "--k", "3"], ["evaluate", "--k", "3", "--cold-start"],
    ["recommend", "--user", "u0003", "--k", "8", "--explain"]])
def test_output_does_not_depend_on_the_blas_thread_count(cold_dir, command):
    """Ranking scores make no BLAS call, so the bytes printed are the same
    at one and at two OpenBLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        proc = run_cli(*served(command, cold_dir),
                       env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


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


def run_cli(*args, env=None):
    """`agrec ARGS` in a fresh interpreter, with the `env` variables set."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), **(env or {})}
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
        assert f"{out} line 1: invalid JSON (nested too deeply)" in proc.stderr
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

    @pytest.mark.parametrize("ratios,message", [
        ("nan,0.1,0.1", "split ratios must be finite"),
        ("0.5,0.1", "split ratios must be three numbers that sum to 1"),
        ("1.2,-0.1,-0.1", "split ratios must be non-negative")])
    def test_split_refused_before_inputs_are_read(self, tmp_path, ratios, message):
        missing = str(tmp_path / "missing")
        proc = run_cli("prepare", "--interactions", missing + ".tsv",
                       "--items", missing + ".jsonl", "--split", ratios,
                       "--out", str(tmp_path / "data"))
        self.assert_clean_exit_2(proc, message)

    @pytest.mark.parametrize("flag,key", [("--patience", "patience")])
    def test_negative_flag(self, pipeline_dir, tmp_path, flag, key):
        proc = self.train(pipeline_dir, tmp_path, flag, "-2")
        self.assert_clean_exit_2(proc, f"{key} must be >= 0, got -2")

    @pytest.mark.parametrize("key", ["patience"])
    def test_negative_config_key(self, pipeline_dir, tmp_path, key):
        proc = self.train(pipeline_dir, tmp_path,
                          *self.config(tmp_path, f"{key} = -1"))
        self.assert_clean_exit_2(proc, f"{key} must be >= 0, got -1")

    @pytest.mark.parametrize("priced", [True, False], ids=["priced", "unpriced"])
    @pytest.mark.parametrize("n_p", ["0", "-5"])
    def test_price_buckets_below_one(self, tmp_path, priced, n_p):
        interactions, items = tmp_path / "interactions.tsv", tmp_path / "items.jsonl"
        interactions.write_text("".join(f"u{u}\ti{i}\n" for u in range(3)
                                        for i in range(2)))
        items.write_text("".join(json.dumps(
            {"item_id": f"i{i}", **({"price": 10.0 * (i + 1)} if priced else {})})
            + "\n" for i in range(2)))
        proc = run_cli("prepare", "--interactions", str(interactions),
                       "--items", str(items), "--min-users", "1",
                       "--out", str(tmp_path / "data"), "--price-buckets", n_p)
        self.assert_clean_exit_2(proc, f"price_buckets must be >= 1, got {n_p}")
        assert not (tmp_path / "data").exists()

    def extract(self, world_dir, tmp_path, monkeypatch, *flags):
        # the backend refuses the timeout before any request: no network
        monkeypatch.setenv("AGREC_VLM_TOKEN", "sesame")
        out = tmp_path / "attrs.jsonl"
        proc = run_cli("extract", "--items", world_dir["items"],
                       "--backend", "http", "--base-url", "http://127.0.0.1:9/",
                       "--out", str(out), *flags)
        assert not out.exists()
        return proc

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_extract_timeout_flag(self, world_dir, tmp_path, monkeypatch, timeout):
        proc = self.extract(world_dir, tmp_path, monkeypatch, "--timeout", timeout)
        self.assert_clean_exit_2(proc, "timeout must be finite and > 0")

    @pytest.mark.parametrize("timeout", ["-1", "nan"])
    def test_extract_timeout_config_key(self, world_dir, tmp_path, monkeypatch,
                                        timeout):
        proc = self.extract(world_dir, tmp_path, monkeypatch,
                            *self.config(tmp_path, f"timeout = {timeout}"))
        self.assert_clean_exit_2(proc, "timeout must be finite and > 0")

    @pytest.mark.parametrize("argv,message", [
        (["extract", "--items", "{missing}.jsonl", "--fixture", "{missing}.json",
          "--out", "{out}", "--threads", "0"], "threads must be >= 1, got 0"),
        (["extract", "--items", "{missing}.jsonl", "--fixture", "{missing}.json",
          "--out", "{out}", "--kinds", "bogus"], "unknown prompt kind 'bogus'"),
        (["evaluate", "--model", "{missing}.agr", "--data", "{missing}",
          "--out", "{out}", "--k", "0"], "k must be >= 1, got 0"),
        (["recommend", "--model", "{missing}.agr", "--data", "{missing}",
          "--user", "u0", "--k", "0"], "k must be >= 1, got 0"),
        (["train", "--data", "{missing}", "--out", "{out}", "--val-k", "0"],
         "val_k must be >= 1, got 0"),
        (["prepare", "--interactions", "{missing}.tsv", "--items", "{missing}.jsonl",
          "--out", "{out}", "--min-users", "-1"], "min_users must be >= 0, got -1"),
        (["prepare", "--interactions", "{missing}.tsv", "--items", "{missing}.jsonl",
          "--out", "{out}", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--data", "{missing}", "--out", "{out}", "--seed", "-3"],
         "seed must be >= 0, got -3"),
    ], ids=["extract-threads", "extract-kinds", "evaluate-k", "recommend-k",
            "train-val-k", "prepare-min-users", "prepare-seed", "train-seed"])
    def test_bad_setting_named_before_missing_input(self, tmp_path, argv, message):
        missing, out = tmp_path / "missing", tmp_path / "out"
        proc = run_cli(*(a.format(missing=missing, out=out) for a in argv))
        self.assert_clean_exit_2(proc, message)
        assert not out.exists()

    def test_zero_still_means_off(self, pipeline_dir, tmp_path):
        proc = run_cli("train", "--data", pipeline_dir["data"],
                       "--attrs", pipeline_dir["attrs"], "--dim", "4",
                       "--epochs", "2", "--patience", "0",
                       "--out", str(tmp_path / "off.agr"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["epochs_run"] == 2
