"""Tests of the benchmark's own parts: `python3 -m pytest perfbench`."""

import ast
import json
import os
import subprocess
import sys

import pytest

import layers
import run
from worldgen import WorldSpec, generate

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = WorldSpec(users=30, items=80, keywords=8, aesthetics=4, tastes=2,
                 per_user=6, zipf=0.5, noise=0.2, cold=0.1)


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_same_seed_gives_byte_identical_files(tmp_path):
    generate(SPEC, 7, tmp_path / "a")
    generate(SPEC, 7, tmp_path / "b")
    generate(SPEC, 8, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert set(a) == {"interactions.tsv", "items.jsonl", "fixture.json", "cold_pairs.tsv"}
    assert a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")


def test_world_is_well_formed(tmp_path):
    paths = generate(SPEC, 3, tmp_path)
    items = [json.loads(line) for line in open(paths["items.jsonl"])]
    assert len(items) == SPEC.items
    assert all(rec["description"] and rec["price"] > 0 for rec in items)
    fixture = json.load(open(paths["fixture.json"]))
    assert set(fixture) == {rec["item_id"] for rec in items}
    warm = [line.split("\t")[1].strip() for line in open(paths["interactions.tsv"])]
    cold = [line.split("\t")[1].strip() for line in open(paths["cold_pairs.tsv"])]
    assert warm and cold and not set(warm) & set(cold)


@pytest.mark.parametrize("name", ["worldgen.py", "checks.py"])
def test_independent_of_agrec(name):
    tree = ast.parse(open(os.path.join(HERE, name)).read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not any(m.split(".")[0] == "agrec" for m in imported)


def test_stage_cold_pairs_appends_to_test_split(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"seed": 1, "counts": {}, "splits": {
        "train": [["u1", "i1"]], "validation": [], "test": [["u1", "i2"]]}}))
    cold = tmp_path / "cold.tsv"
    cold.write_text("u1\ti9\nu2\ti8\n")
    run.stage_cold_pairs(str(manifest), str(cold))
    doc = json.loads(manifest.read_text())
    assert doc["splits"]["test"] == [["u1", "i2"], ["u1", "i9"], ["u2", "i8"]]
    assert doc["counts"] == {"users": 2, "items": 4, "interactions": 4, "test": 3}


def test_tail_has_ten_requests_beyond_it():
    value, pct = run._tail([float(v) for v in range(25, 0, -1)])
    assert value == 15.0 and pct == pytest.approx(0.6)


def test_per_layer_self_time_and_shares():
    # train: cli.main [0, 10] > training.train [1, 9] > gather [2, 5]
    dump = {"spans": [["cli.main", 0.0, 10.0, None, "train"],
                      ["training.train", 1.0, 9.0, 0, "train"],
                      ["kernels.gather_rows", 2.0, 5.0, 1, "train"]],
            "counts": {"kernels.gather_edges": 4}, "absent": []}
    out = layers.per_layer([("train", 12.0, dump)], untraced_wall=10.0)
    assert set(out) == set(layers.names())
    assert out["training.self_s"] == pytest.approx(5.0)
    assert out["cli.train.self_s"] == pytest.approx(2.0)
    assert out["kernels.gather_s"] == pytest.approx(3.0)
    assert out["share.kernels_in_train"] == pytest.approx(0.25)
    assert out["trace.overhead_ratio"] == pytest.approx(1.2)
    assert out["kernels.gather_edges"] == 4 and out["model.forward_calls"] == 0


def test_tracer_wraps_every_binding():
    code = ("import agrec.cli, agrec.model as m, agrec.training as t\n"
            "from tracing import Tracer\n"
            "tr = Tracer('x'); tr.install()\n"
            "assert m.gather_rows is t.gather_rows and hasattr(m.gather_rows, '__wrapped__')\n"
            "assert agrec.cli.forward is m.forward and not tr.absent, tr.absent\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, HERE]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_hook_that_no_longer_fits_is_reported_not_raised():
    from tracing import Tracer
    tr = Tracer("train")
    traced = tr.wrap("kernels.gather_rows", lambda a, b: a + b)
    assert traced(1, 2) == 3
    assert tr.hook_errors == {"kernels.gather_rows"}
    assert [s[0] for s in tr.spans] == ["kernels.gather_rows"]


def test_no_child_starts_after_the_deadline(tmp_path):
    r = run.Runner(str(tmp_path), deadline=0.0)
    assert r.run("train", ["-c", "pass"]) == (0.0, "")
    assert (r.attempted, r.failed, r.stages) == (1, 1, [])


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "converge", "--seed", "1", "--seconds", "1"]) == 2
