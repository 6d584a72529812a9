"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line with the measured value against its pinned tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import json
import math
import os
import time

import numpy as np

from agrec.evaluation import (evaluate, hit_matrix, mean_recall_at_k,
                              ndcg_at_k, precision_at_k, recall_at_k, top_k)
from agrec.extractor import PromptKind, render_prompt
from agrec.model import (ModelConfig, final_embeddings, forward,
                         load_checkpoint, save_checkpoint)
from agrec.ingest import read_interactions, split_dataset
from agrec.synth import assemble_world, hold_out_items, planted_world
from agrec.training import batch_loss, bpr_loss, train
from helpers import (backward_from_final, brute_force_metrics, dense_forward,
                     finite_difference_gradients, hits_of, random_bundle,
                     random_tables)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gradient_oracle():
    """Analytic gradients vs central finite differences, 100 random configs."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n_u, n_i, n_ia, n_iaa = (int(x) for x in rng.integers(2, 11, size=4))
        dim = int(rng.integers(1, 5))
        layers = int(rng.integers(0, 4))
        bundle = random_bundle(rng, n_u, n_i, n_ia, n_iaa,
                               p=float(rng.uniform(0.2, 0.6)))
        cfg = ModelConfig(dim=dim, layers=layers,
                          l2_weight=float(rng.choice([0.0, 1e-3, 1e-2])),
                          seed=trial)
        tables = random_tables(rng, bundle, dim)
        n_triples = int(rng.integers(1, 5))
        users = rng.integers(0, n_u, size=n_triples)
        pos = rng.integers(0, n_i, size=n_triples)
        negs = rng.integers(0, n_i, size=n_triples)

        final = final_embeddings(forward(tables, bundle, cfg))
        grads, _, _ = backward_from_final(users, pos, negs, final, tables, bundle, cfg)
        numeric = finite_difference_gradients(
            tables, lambda t: batch_loss(t, bundle, cfg, users, pos, negs)[0],
            h=1e-5)
        diff = np.abs(grads - numeric)
        denom = np.maximum(np.abs(grads), np.abs(numeric))
        # coordinates at the finite-difference noise floor (< 1e-8 in
        # absolute terms, analytic exactly 0 there) have no meaningful
        # relative error
        meaningful = diff > 1e-8
        if meaningful.any():
            worst = max(worst, float((diff[meaningful] / denom[meaningful]).max()))
    elapsed = time.perf_counter() - started
    _report("gradient-oracle",
            worst < 1e-5 and elapsed < 30.0,
            f"worst rel err {worst:.2e} (< 1e-5), {elapsed:.1f}s (< 30s)")


def test_propagation_oracle():
    """Sparse forward vs dense normalized-adjacency products, 1000 graphs."""
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n_u, n_i, n_ia, n_iaa = (int(x) for x in rng.integers(1, 21, size=4))
        layers = int(rng.integers(0, 6))
        bundle = random_bundle(rng, n_u, n_i, n_ia, n_iaa,
                               p=float(rng.uniform(0.1, 0.6)))
        cfg = ModelConfig(dim=4, layers=layers, seed=trial)
        tables = random_tables(rng, bundle, 4)
        stack = forward(tables, bundle, cfg)
        dense = dense_forward(tables, bundle, layers)
        for k in range(layers + 1):
            for got, want in zip(stack.split(k), dense[k]):
                if got.size:
                    worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - started
    _report("propagation-oracle",
            worst < 1e-10 and elapsed < 30.0,
            f"max abs err {worst:.2e} (< 1e-10) over 1000 graphs, "
            f"{elapsed:.1f}s (< 30s)")


def test_metric_oracle():
    """Recall/NDCG/Precision vs brute force on 100 instances, plus closed forms."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        ordering = rng.permutation(n)
        k = int(rng.integers(1, n + 6))  # past n too: top_k cuts at min(k, n)
        positives = set(int(x) for x in
                        rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        hits, n_positives = hits_of(ordering, positives, k)
        got = (recall_at_k(hits, n_positives)[0], ndcg_at_k(hits, n_positives)[0],
               precision_at_k(hits, k)[0])
        want = brute_force_metrics(ordering, positives, k)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))

    first = ndcg_at_k(*hits_of([5, 1, 2], {5}, 3))[0]
    second = ndcg_at_k(*hits_of([1, 5, 2], {5}, 3))[0]
    closed_ok = first == 1.0 and abs(second - 1 / math.log2(3)) <= 1e-12
    _report("metric-oracle",
            worst <= 1e-12 and closed_ok,
            f"max abs deviation {worst:.2e} (<= 1e-12), closed forms ok")


def test_loss_sanity():
    """Mean BPR at symmetric random init is ln2 +- 0.05; stable at +-50 gaps."""
    rng = np.random.default_rng(13)
    e_u = rng.normal(0.0, 0.1, size=(200, 64))
    e_i = rng.normal(0.0, 0.1, size=(500, 64))
    users = rng.integers(0, 200, size=10_000)
    pos = rng.integers(0, 500, size=10_000)
    negs = rng.integers(0, 500, size=10_000)
    s_pos = np.einsum("td,td->t", e_u[users], e_i[pos])
    s_neg = np.einsum("td,td->t", e_u[users], e_i[negs])
    mean = float(bpr_loss(s_pos, s_neg).mean())

    with np.errstate(over="raise"):  # the softplus form must never overflow
        tiny = float(bpr_loss(np.array([50.0]), np.array([0.0]))[0])
        huge = float(bpr_loss(np.array([0.0]), np.array([50.0]))[0])
    stable = 0.0 < tiny < 1e-20 and np.isfinite(huge) and abs(huge - 50.0) < 1e-6
    _report("loss-sanity",
            abs(mean - math.log(2)) <= 0.05 and stable,
            f"mean {mean:.4f} (ln2 +- 0.05), gap +50 -> {tiny:.1e}, "
            f"gap -50 -> {huge:.4f}")


def _planted_bundle(cold_fraction=0.0):
    world = planted_world(n_users=200, n_items=500, n_item_keywords=30,
                          n_aesthetic_keywords=15, tastes_per_user=3, seed=7)
    cold_ids = hold_out_items(world, cold_fraction) if cold_fraction else []
    bundle, split, cold = assemble_world(world, ratios=(0.8, 0.1, 0.1),
                                         seed=11, cold_items=cold_ids)
    return world, bundle, split, cold


# Training hyperparameters for the planted experiments. The conventional
# defaults keep lambda=1e-4 and one negative per positive, but plain SGD with
# batch-mean gradients moves coordinates by ~lr/batch per unit gradient, so
# the learning rate is set for that regime instead of the CLI default.
PLANTED_CONFIG = dict(dim=32, layers=2, learning_rate=12.0, l2_weight=1e-4,
                      n_negatives=1, seed=3)


def test_planted_preference_recovery():
    """Trained Recall@10 beats a random ranker 10x on the planted world."""
    started = time.perf_counter()
    world, bundle, split, _ = _planted_bundle()
    cfg = ModelConfig(**PLANTED_CONFIG)
    result = train(split, bundle, cfg, epochs=50, batch_size=256,
                   patience=0, val_k=10)
    stack = forward(result.tables, bundle, cfg)
    e_u, e_i = final_embeddings(stack)
    recall = mean_recall_at_k(e_u, e_i, split.test, bundle.g_ui, 10)
    elapsed = time.perf_counter() - started
    baseline = 10 / len(bundle.vocab_i)  # random ranker: k / n_items ~ 0.02
    _report("planted-preference-recovery",
            recall >= 10 * baseline and elapsed < 60.0,
            f"test recall@10 {recall:.3f} >= {10 * baseline:.3f} "
            f"(10x random {baseline:.3f}), {elapsed:.1f}s (< 60s)")


def test_cold_start_capability(tmp_path):
    """Attribute-graph scoring ranks never-seen items; an ID-only ablation
    of the same ranking code cannot beat random on them."""
    world, bundle, split, cold = _planted_bundle(cold_fraction=0.1)
    assert len(cold.ids) == 50
    cfg = ModelConfig(**PLANTED_CONFIG)
    result = train(split, bundle, cfg, epochs=50, batch_size=256,
                   patience=0, val_k=10)

    path = tmp_path / "cold.agr"
    save_checkpoint(path, result.tables, bundle, cfg)
    report = evaluate(load_checkpoint(path), bundle, split, k=10,
                      mode="cold_start", cold=cold)
    baseline = 10 / len(cold.ids)  # random ranker among the cold candidates

    # ID-only ablation: cold items have no attribute edges, so all an
    # ID-based model holds for them is an untrained initialization row
    stack = forward(result.tables, bundle, cfg)
    e_u, _ = final_embeddings(stack)
    rng = np.random.default_rng(555)
    id_rows = rng.normal(0.0, cfg.init_scale, size=(len(cold.ids), cfg.dim))
    keys = np.array(sorted({u * len(cold.ids) + row
                            for u, row in cold.test_pairs.tolist()}), dtype=np.int64)
    users = np.array(sorted({u for u, _ in cold.test_pairs.tolist()}), dtype=np.int64)
    hits = hit_matrix(top_k(e_u[users], id_rows, 10), users, keys, len(cold.ids))
    n_positives = np.bincount(keys // len(cold.ids))[users]
    ablation = float(np.mean(recall_at_k(hits, n_positives)))

    _report("cold-start-capability",
            report.recall >= 5 * baseline and ablation <= 1.5 * baseline,
            f"cold recall@10 {report.recall:.3f} >= {5 * baseline:.3f} "
            f"(5x random {baseline:.3f}) over {report.users} users; "
            f"ID-only ablation {ablation:.3f} ~ random")


def test_determinism(tmp_path):
    """Identical seeds give byte-identical checkpoints and metrics reports."""
    artifacts = []
    for run in range(2):
        world = planted_world(n_users=30, n_items=60, n_item_keywords=10,
                              n_aesthetic_keywords=5, seed=3)
        bundle, split, _ = assemble_world(world, seed=2)
        cfg = ModelConfig(dim=16, layers=2, learning_rate=8.0,
                          l2_weight=1e-4, seed=7)
        result = train(split, bundle, cfg, epochs=8, batch_size=128,
                       patience=0, val_k=10)
        path = tmp_path / f"run{run}.agr"
        save_checkpoint(path, result.tables, bundle, cfg)
        report = evaluate(load_checkpoint(path), bundle, split, k=10,
                          dataset_hash="d")
        artifacts.append((path.read_bytes(),
                          json.dumps(report.to_dict(), sort_keys=True)))
    same_ckpt = artifacts[0][0] == artifacts[1][0]
    same_report = artifacts[0][1] == artifacts[1][1]
    _report("determinism",
            same_ckpt and same_report,
            f"checkpoint bytes identical: {same_ckpt}, "
            f"metrics report identical: {same_report}")


def test_prompt_fidelity():
    """Rendered prompts byte-equal their transcribed golden files."""
    with open(f"{GOLDEN_DIR}/prompt_item.golden", "rb") as fh:
        golden_item = fh.read()
    with open(f"{GOLDEN_DIR}/prompt_aesthetic.golden", "rb") as fh:
        golden_aes = fh.read()
    ok_item = render_prompt(PromptKind.ITEM_ATTRIBUTES).encode("utf-8") == golden_item
    ok_aes = render_prompt(PromptKind.AESTHETIC_ATTRIBUTES).encode("utf-8") == golden_aes
    _report("prompt-fidelity", ok_item and ok_aes,
            f"item prompt byte-equal: {ok_item}, "
            f"aesthetic prompt byte-equal: {ok_aes}")


def test_split_arithmetic(tmp_path):
    """459,146 interactions split to exactly 367,317 / 45,914 / 45,915.

    Policy: train rounds half-up, validation floors, test takes the
    remainder (also documented in the README).
    """
    path = tmp_path / "interactions.tsv"
    n = 459_146
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in range(n):
            fh.write(f"u{row % 1000:04d}\ti{row % 7919:05d}\n")
    interactions = read_interactions(path)
    assert len(interactions) == n
    split = split_dataset(interactions, ratios=(0.8, 0.1, 0.1), seed=5)
    sizes = (len(split.train), len(split.validation), len(split.test))
    _report("split-arithmetic",
            sizes == (367_317, 45_914, 45_915),
            f"sizes {sizes} == (367317, 45914, 45915)")
