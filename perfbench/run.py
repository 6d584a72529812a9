#!/usr/bin/env python3
"""Pipeline benchmark: agrec's five CLI stages on seeded planted worlds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark writes a planted world for the
seed (worldgen.py), then runs `prepare -> extract -> train -> evaluate
[--cold-start] -> recommend` with `python3 -m agrec.cli`, each stage in its
own child process, as an operator would. It times every stage from outside,
reads peak RSS and CPU time of each child with os.wait4, and checks the
outputs (checks.py). `--seconds` is the length of the closed recommend loop:
one client sends sequential requests, each for a distinct user, for that
long and at least MIN_REQUESTS times.

--trace 0 prints the end-to-end metrics. --trace 1 runs the pipeline once
untraced and once with every agrec function wrapped (tracing.py) and prints
the per-layer metrics (layers.py). The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
per-stage accounting and the environment stamp. All files go to
.perfbench_work/<workload>/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from worldgen import WorldSpec, generate  # noqa: E402

K = 10
MIN_REQUESTS = 25      # the tail (p60) then has ten requests beyond it
TRACE_REQUESTS = 5
RUN_LIMIT_S = 170      # a run must exit within 180 s
TRAINS = 2             # trainings in an end-to-end run; the checkpoints must agree
# Extraction requests run in waves of this many; with waves of one, every
# record is a hand-off between two threads, and extract_s swung by up to 2x
# between runs when the machine was loaded.
EXTRACT_THREADS = 8
# a fifth of the warm interactions go to test, so recall rests on more pairs
PREPARE_ARGS = ("--min-users", "2", "--split", "0.7,0.1,0.2", "--price-buckets", "8")


@dataclass(frozen=True)
class Workload:
    world: WorldSpec
    train: tuple[str, ...]
    extract_prefix: float = 0.0   # share of items in a first, resumed-from pass
    rounds: int = 6               # repetitions of the other stages in a run
    oracle: bool = False          # recompute recall@10 independently


# Why each workload exists is documented in README.md.
WORKLOADS = {
    "converge": Workload(
        world=WorldSpec(users=200, items=500, keywords=30, aesthetics=15,
                        tastes=2, per_user=24, noise=0.05, cold=0.1),
        train=("--dim", "32", "--layers", "2", "--lr", "80", "--batch", "512",
               "--epochs", "12", "--patience", "0"),
        oracle=True),
    "train-mid": Workload(
        world=WorldSpec(users=500, items=1200, keywords=100, aesthetics=20,
                        tastes=2, per_user=30, zipf=0.5, noise=0.05, cold=0.05),
        train=("--dim", "64", "--layers", "3", "--lr", "10000", "--batch", "2048",
               "--epochs", "1", "--patience", "0"),
        rounds=5),
    "serve-wide": Workload(
        world=WorldSpec(users=1500, items=4000, keywords=400, aesthetics=30,
                        tastes=2, per_user=12, zipf=1.0, noise=0.05, cold=0.2),
        train=("--dim", "32", "--layers", "2", "--lr", "2000000",
               "--batch", "1000000", "--epochs", "1", "--patience", "0"),
        extract_prefix=0.5, rounds=4),
}


class Runner:
    """Starts child processes and keeps the check and resource accounting."""

    def __init__(self, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
                        TMPDIR=work)
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.stages: list[dict] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def run(self, stage: str, argv: list[str], spans: str | None = None
            ) -> tuple[float, str]:
        """Run one child to completion; return (wall seconds, stdout).

        Past the run's deadline no child starts; each one counts as failed."""
        if time.monotonic() >= self.deadline:
            self.check(False, f"{stage} not started: run deadline passed")
            return 0.0, ""
        log = os.path.join(self.work, "logs", f"{len(self.stages):03d}-{stage}")
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            timer = threading.Timer(self.deadline - time.monotonic(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.stages.append({"stage": stage, "wall_s": wall, "exit": code,
                            "cpu_s": usage.ru_utime + usage.ru_stime,
                            "peak_rss_mb": usage.ru_maxrss / 1024.0,
                            **({"spans": spans} if spans else {})})
        self.check(code == 0, f"{stage} exited with {code}")
        with open(log + ".out", encoding="utf-8", errors="replace") as fh:
            return wall, fh.read()

    def cli(self, stage: str, args: list[str], spans: str | None = None):
        if spans:
            return self.run(stage, [CHILD, "--trace", spans, "--stage", stage, "cli"] + args,
                            spans)
        return self.run(stage, ["-m", "agrec.cli"] + args)


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {}


def _sha256(path) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def stage_cold_pairs(manifest_path: str, cold_pairs_path: str) -> None:
    """Append held-out pairs to the manifest's test split (public format)."""
    with open(manifest_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(cold_pairs_path, encoding="utf-8") as fh:
        doc["splits"]["test"] += [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    pairs = [p for rows in doc["splits"].values() for p in rows]
    doc["counts"].update(users=len({u for u, _ in pairs}), items=len({i for _, i in pairs}),
                         interactions=len(pairs), test=len(doc["splits"]["test"]))
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Pipeline:
    """One workload's files and the stage sequence over them."""

    def __init__(self, wl: Workload, seed: int, r: Runner):
        self.wl, self.seed, self.r = wl, seed, r
        w = r.work
        self.world = generate(wl.world, seed, os.path.join(w, "world"))
        self.data = os.path.join(w, "data")
        self.attrs = os.path.join(w, "attrs.jsonl")
        self.model = os.path.join(w, "model.agr")
        self.items = self.world["items.jsonl"]
        with open(self.items, encoding="utf-8") as fh:
            lines = fh.readlines()
        self.n_items = len(lines)
        self.n_prefix = int(self.n_items * wl.extract_prefix)
        self.prefix_items = os.path.join(w, "world", "items.prefix.jsonl")
        with open(self.prefix_items, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines[:self.n_prefix])
        self.common = ["--data", self.data, "--attrs", self.attrs]
        # filled in by the stages; the defaults stand when a stage fails
        self.positives: dict[str, set[str]] = {}
        self.known: set[str] = set()
        self.users: list[str] = []
        self.shas: list[str | None] = []
        self.stamp: dict = {}
        self.report: dict = {}
        self.cold_report: dict = {}

    def prepare(self, spans=None) -> float:
        args = ["prepare", "--interactions", self.world["interactions.tsv"],
                "--items", self.items, "--out", self.data, "--seed", str(self.seed),
                "--force", *PREPARE_ARGS]
        wall, _ = self.r.cli("prepare", args, spans and spans("prepare"))
        manifest_path = os.path.join(self.data, "manifest.json")
        if not os.path.exists(manifest_path):
            return wall
        stage_cold_pairs(manifest_path, self.world["cold_pairs.tsv"])
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.positives = checks.train_positives(manifest)
        self.known = {i for _, i in manifest["splits"]["train"]}
        self.users = sorted(self.positives)
        return wall

    def extract(self, spans=None) -> float:
        """Fresh output; with a prefix, a first pass that the second resumes."""
        passes = [(self.prefix_items, self.n_prefix)] if self.n_prefix else []
        passes.append((self.items, self.n_items))
        if os.path.exists(self.attrs):
            os.remove(self.attrs)
        total, done = 0.0, 0
        for n, (items, count) in enumerate(passes):
            wall, out = self.r.cli(
                "extract", ["extract", "--items", items, "--backend", "fixture",
                            "--fixture", self.world["fixture.json"], "--out", self.attrs,
                            "--threads", str(EXTRACT_THREADS)],
                spans and spans("extract"))
            doc = _json(out)
            self.r.check(doc.get("ok") == 2 * (count - done)
                         and doc.get("cached") == 2 * done and doc.get("skipped") == 0,
                         f"extract pass {n} summary {doc.get('ok')}/{doc.get('cached')}")
            total += wall
            done = count
        return total

    def setup(self, spans=None) -> float:
        path = spans and spans("setup")
        argv = [CHILD] + (["--trace", path, "--stage", "setup"] if path else [])
        wall, out = self.r.run("setup", argv + ["setup", self.data, self.attrs], path)
        self.stamp = _json(out.strip().splitlines()[-1] if out.strip() else "")
        return wall

    def train(self, spans=None) -> float:
        args = ["train", *self.common, "--out", self.model, "--seed", str(self.seed + 1),
                "--val-k", str(K), "--force", *self.wl.train]
        wall, _ = self.r.cli("train", args, spans and spans("train"))
        self.shas.append(_sha256(self.model))
        return wall

    def evaluate(self, cold: bool, spans=None) -> tuple[float, dict]:
        stage = "evaluate_cold" if cold else "evaluate"
        args = ["evaluate", "--model", self.model, *self.common, "--k", str(K)]
        wall, out = self.r.cli(stage, args + (["--cold-start"] if cold else []),
                               spans and spans(stage))
        report = _json(out)
        self.r.check(checks.metrics_in_unit_range(report),
                     f"{stage} metrics missing or outside [0, 1]")
        return wall, report

    def recommend(self, seconds: float, min_requests: int, spans=None) -> list[float]:
        order = np.random.default_rng(self.seed).permutation(len(self.users))
        walls: list[float] = []
        start = time.perf_counter()
        for idx in order:
            if len(walls) >= min_requests and time.perf_counter() - start >= seconds:
                break
            user = self.users[idx]
            wall, out = self.r.cli(
                "recommend", ["recommend", "--model", self.model, *self.common,
                              "--user", user, "--k", str(K)],
                spans and spans("recommend"))
            self.r.check(checks.recommendation_ok(_json(out), user, K, self.known,
                                                  self.positives),
                         f"recommend for {user} failed its output check")
            walls.append(wall)
        return walls

    def run_all(self, rounds: int, trains: int, seconds: float, min_requests: int,
                spans=None) -> dict[str, list[float]]:
        """Stage walls per stage. Repetitions run in interleaved rounds, so a
        burst of load from elsewhere on the machine hits one sample of a
        stage rather than all of them; training, the costly stage, runs in
        the first `trains` rounds only."""
        self.shas = []
        t: dict[str, list[float]] = {}
        for n in range(rounds):
            t.setdefault("prepare", []).append(self.prepare(spans))
            t.setdefault("extract", []).append(self.extract(spans))
            t.setdefault("setup", []).append(self.setup(spans))
            if n < trains:
                t.setdefault("train", []).append(self.train(spans))
            wall, self.report = self.evaluate(False, spans)
            t.setdefault("evaluate", []).append(wall)
            wall, self.cold_report = self.evaluate(True, spans)
            t.setdefault("evaluate_cold", []).append(wall)
        t["recommend"] = self.recommend(seconds, min_requests, spans)
        return t


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten requests beyond it."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], (idx + 1) / len(ordered)


def _env_stamp(child: dict) -> dict:
    """The child's versions and backend, plus nproc, the git commit when the
    checkout is a repository and a digest of the agrec sources."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "agrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    stamp = {**child, "git_commit": commit, "source_sha256": h.hexdigest(),
             "nproc": len(os.sched_getaffinity(0))}
    if stamp.get("blas_threads"):
        stamp["blas_threads"] = min(stamp["blas_threads"], stamp["nproc"])
    return stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "agrec", "cli.py")):
        print(f"error: no agrec sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "logs"))
    wl = WORKLOADS[args.workload]
    r = Runner(work, deadline)
    pipe = Pipeline(wl, args.seed, r)

    if args.trace:
        untraced = pipe.run_all(1, 1, 0.0, TRACE_REQUESTS)
        untraced_wall = sum(sum(v) for v in untraced.values())
        first_sha = pipe.shas[0]
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
        mark = len(r.stages)
        pipe.run_all(1, 1, 0.0, TRACE_REQUESTS, spans=lambda stage_id: os.path.join(
            spans_dir, f"{len(r.stages):03d}-{stage_id}.json"))
        r.check(pipe.shas[0] == first_sha, "traced and untraced checkpoints differ")
        traced, absent, hook_errors = [], set(), set()
        for rec in r.stages[mark:]:
            if os.path.exists(rec.get("spans", "")):
                with open(rec["spans"], encoding="utf-8") as fh:
                    dump = json.load(fh)
                traced.append((dump["stage"], rec["wall_s"], dump))
                absent.update(dump["absent"])
                hook_errors.update(dump["hook_errors"])
        values = layers.per_layer(traced, untraced_wall)
        metrics = {name: (values[name], layers.unit(name)) for name in layers.names()}
        extra = {"absent": sorted(absent), "hook_errors": sorted(hook_errors)}
    else:
        t = pipe.run_all(wl.rounds, TRAINS, args.seconds, MIN_REQUESTS)
        r.check(len(set(pipe.shas)) == 1 and pipe.shas[0] is not None,
                "repeated training gave different checkpoints")
        latencies = [w * 1000.0 for w in t["recommend"]] or [0.0]
        tail, pct = _tail(latencies)
        extra = {"requests": len(latencies), "tail_percentile": pct}
        metrics = {
            "setup_s": (statistics.median(t["setup"]), "s"),
            "prepare_s": (statistics.median(t["prepare"]), "s"),
            "extract_s": (statistics.median(t["extract"]), "s"),
            "train_s": (statistics.median(t["train"]), "s"),
            "evaluate_s": (statistics.median(t["evaluate"]), "s"),
            "evaluate_cold_s": (statistics.median(t["evaluate_cold"]), "s"),
            "recommend_p50_ms": (statistics.median(latencies), "ms"),
            "recommend_tail_ms": (tail, "ms"),
            "peak_rss_mb": (max(s["peak_rss_mb"] for s in r.stages), "MB"),
            "recall_at_10": (pipe.report.get("recall", 0.0), "ratio"),
            "ndcg_at_10": (pipe.report.get("ndcg", 0.0), "ratio"),
            "cold_recall_at_10": (pipe.cold_report.get("recall", 0.0), "ratio"),
        }
    if wl.oracle:
        try:
            oracle = checks.oracle_recall(pipe.data, pipe.attrs, pipe.model, K)
            r.check(abs(oracle - pipe.report.get("recall", -1.0)) <= 1e-9,
                    f"oracle recall {oracle} != reported {pipe.report.get('recall')}")
        except (OSError, ValueError, KeyError) as exc:
            r.check(False, f"recall oracle failed: {exc}")
    if not args.trace:
        # counted last, so that it covers every check of the run
        metrics["ok_share"] = (1.0 - r.failed / r.attempted, "ratio")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": _env_stamp(pipe.stamp), "stages": r.stages,
               "notes": r.notes, **extra}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({k: v for k, v in details.items() if k != "stages"}, sort_keys=True))
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
