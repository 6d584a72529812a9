"""Per-layer metrics from the spans of one traced pipeline pass.

Layers are agrec's modules. `*_s` metrics are inclusive span time summed
over every traced stage, `*_calls` count spans, and the other counters come
from the tracer's argument and result hooks. `*.self_s` subtract the time
covered by child spans; `share.*` divide a layer's time inside one stage by
that stage's wall time, measured from outside the child process.
"""

from __future__ import annotations

from collections import defaultdict

TIMES = {
    "kernels.gather_s": ("kernels.gather_rows",),
    "kernels.scatter_s": ("kernels.scatter_rows",),
    "model.forward_s": ("model.forward",),
    "model.cold_embed_s": ("model.cold_item_embedding",),
    "model.ckpt_save_s": ("model.save_checkpoint",),
    "model.ckpt_load_s": ("model.load_checkpoint",),
    "training.sample_s": ("training._sample_negatives_block",),
    "training.backward_s": ("training.backward",),
    "training.sgd_step_s": ("training.sgd_step",),
    "training.validate_s": ("evaluation.mean_recall_at_k",),
    "evaluation.rank_s": ("evaluation.rank_items",),
    "evaluation.metrics_s": ("evaluation.recall_at_k", "evaluation.ndcg_at_k",
                             "evaluation.precision_at_k", "evaluation._aggregate"),
    "pipeline.load_dataset_s": ("pipeline.load_dataset",),
    "pipeline.attr_files_s": ("pipeline.load_attribute_files",),
    "graphs.build_s": ("graphs.build_item_attribute_graph", "graphs.build_user_graph"),
    "ingest.read_s": ("ingest.read_interactions", "ingest.read_items"),
    "ingest.split_s": ("ingest.split_dataset",),
    "ingest.tokenize_s": ("ingest.tokenize_text_attributes",),
    "ingest.manifest_s": ("ingest.write_manifest", "ingest.read_manifest"),
    "extractor.batch_s": ("extractor.run_extraction_batch",),
}
CALLS = {
    "kernels.gather_calls": "kernels.gather_rows",
    "kernels.scatter_calls": "kernels.scatter_rows",
    "model.forward_calls": "model.forward",
    "model.cold_embed_calls": "model.cold_item_embedding",
    "model.ckpt_save_calls": "model.save_checkpoint",
    "training.batches": "training.backward",
    "evaluation.rank_calls": "evaluation.rank_items",
    "pipeline.load_dataset_calls": "pipeline.load_dataset",
}
COUNTS = ("kernels.gather_edges", "kernels.gather_bytes", "kernels.scatter_rows",
          "model.ckpt_bytes", "evaluation.rank_candidates",
          "evaluation.users_scored", "evaluation.users_excluded", "graphs.edges",
          "ingest.interactions", "extractor.fresh", "extractor.cached")
SELF = {"training.self_s": "training.train"}
CLI_STAGES = ("prepare", "extract", "setup", "train", "evaluate", "evaluate_cold",
              "recommend")
KERNELS = ("kernels.gather_rows", "kernels.scatter_rows")
SHARES = {
    "share.kernels_in_train": (KERNELS, "train"),
    "share.kernels_in_evaluate": (KERNELS, "evaluate"),
    "share.rank_in_evaluate": (("evaluation.rank_items",), "evaluate"),
    "share.rank_in_train": (("evaluation.rank_items",), "train"),
}


def names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return (list(TIMES) + list(CALLS) + list(COUNTS) + ["extractor.cached_ratio"]
            + list(SELF) + [f"cli.{s}.self_s" for s in CLI_STAGES]
            + list(SHARES) + ["trace.overhead_ratio"])


def span_names() -> set[str]:
    """Every span name the metrics read."""
    return ({n for spans in TIMES.values() for n in spans} | set(CALLS.values())
            | set(SELF.values()) | {n for spans, _ in SHARES.values() for n in spans})


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(traced: list[tuple[str, float, dict]], untraced_wall: float) -> dict:
    """traced: (stage, outside wall seconds, tracer dump) per traced child.

    A stage that ran several times (extract passes, recommend requests) sums
    over its runs.
    """
    total = defaultdict(float)       # span name -> inclusive seconds
    calls = defaultdict(int)
    child = defaultdict(float)       # span index (per dump) -> child seconds
    by_stage = defaultdict(float)    # (stage, span name) -> seconds
    counts = defaultdict(int)
    self_of = defaultdict(float)
    cli_self = defaultdict(float)
    wall_of = defaultdict(float)
    for stage, wall, dump in traced:
        wall_of[stage] += wall
        spans = dump["spans"]
        child.clear()
        top = 0.0
        for name, start, end, parent, _ in spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            by_stage[stage, name] += dur
            if parent is None:
                top += dur
            else:
                child[parent] += dur
        for idx, (name, start, end, _, _) in enumerate(spans):
            if name in SELF.values():
                self_of[name] += end - start - child[idx]
        cli_self[stage] += wall - top
        for key, value in dump["counts"].items():
            counts[key] += value

    out = {m: sum(total[n] for n in spans) for m, spans in TIMES.items()}
    out.update({m: calls[n] for m, n in CALLS.items()})
    out.update({m: counts[m] for m in COUNTS})
    seen = counts["extractor.fresh"] + counts["extractor.cached"]
    out["extractor.cached_ratio"] = counts["extractor.cached"] / seen if seen else 0.0
    out.update({m: self_of[n] for m, n in SELF.items()})
    out.update({f"cli.{s}.self_s": cli_self[s] for s in CLI_STAGES})
    for m, (spans, stage) in SHARES.items():
        busy = sum(by_stage[stage, n] for n in spans)
        out[m] = busy / wall_of[stage] if wall_of[stage] else 0.0
    traced_wall = sum(wall for _, wall, _ in traced)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out
