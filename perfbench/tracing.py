"""In-process span recorder for one agrec child process.

`install()` wraps every public function of every loaded ``agrec`` module,
plus the few private ones named in EXTRA, and rebinds the wrapper in every
agrec namespace that holds the original (``gather_rows`` is bound in both
``agrec.model`` and ``agrec.training``, for example). Each call becomes a
span ``[name, start, end, parent, stage]`` kept in memory; a few wrappers
also add counters computed from their arguments and results. Only calls on
the main thread become spans, so spans nest and self time is well defined.

Span names the metrics or hooks read that no module defines are reported
as absent instead of failing, so the tracer keeps working after a refactor
deletes a function; a counter hook that no longer fits its function's
signature is reported under hook_errors and the call goes ahead untouched.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
from collections import Counter

import layers

EXTRA = ("training._sample_negatives_block", "evaluation._aggregate")


def _gather(a, counts):
    indices, src, n_out = a["indices"], a["src"], a["n_out"]
    edges, dim = int(indices.size), int(src.shape[1])
    counts["kernels.gather_edges"] += edges
    # index + coefficient per edge, one source row read per edge, one output
    # row written per destination vertex, and the row pointers
    counts["kernels.gather_bytes"] += (16 * edges + 8 * edges * dim
                                       + 8 * int(n_out) * dim + 8 * (int(n_out) + 1))


def _evaluate(a, counts, report):
    if a.get("mode", "standard") == "standard":
        eligible = {int(u) for u, _ in a["split"].test}
    else:
        eligible = {int(u) for u, _ in a["cold"].test_pairs}
    counts["evaluation.users_scored"] += report.users
    counts["evaluation.users_excluded"] += len(eligible) - report.users


def _batch(_a, counts, summary):
    counts["extractor.fresh"] += summary.ok
    counts["extractor.cached"] += summary.cached


# span name -> hook(bound_arguments, counters[, result])
BEFORE = {
    "kernels.gather_rows": _gather,
    "kernels.scatter_rows": lambda a, c: c.update({"kernels.scatter_rows": int(a["idx"].size)}),
    "evaluation.rank_items": lambda a, c: c.update(
        {"evaluation.rank_candidates": len(a["candidates"])}),
}
AFTER = {
    "evaluation.evaluate": _evaluate,
    "extractor.run_extraction_batch": _batch,
    "model.save_checkpoint": lambda a, c, r: c.update(
        {"model.ckpt_bytes": os.path.getsize(a["path"])}),
    "graphs.build_item_attribute_graph": lambda a, c, r: c.update(
        {"graphs.edges": r[0].edge_count}),
    "graphs.build_user_graph": lambda a, c, r: c.update(
        {"graphs.edges": r[0].edge_count + r[1].edge_count}),
    "ingest.read_interactions": lambda a, c, r: c.update(
        {"ingest.interactions": len(r)}),
}


class Tracer:
    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self.main = threading.main_thread()

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack, counts, stage = self.spans, self.stack, self.counts, self.stage
        clock = time.perf_counter

        def hook(fn_, *hook_args):
            # a signature change must not break the traced program
            try:
                fn_(*hook_args)
            except (KeyError, AttributeError, TypeError, IndexError, OSError):
                self.hook_errors.add(name)

        def traced(*args, **kwargs):
            if threading.current_thread() is not self.main:
                return fn(*args, **kwargs)
            bound = None
            if before or after:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                except TypeError:
                    self.hook_errors.add(name)
            if before and bound is not None:
                hook(before, bound, counts)
            span = [name, clock(), None, stack[-1] if stack else None, stage]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after and bound is not None:
                hook(after, bound, counts, result)
            return result

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "agrec" or name.startswith("agrec."))}
        targets = {}
        for modname, mod in modules.items():
            short = modname.split(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                public = not attr.startswith("_") or name in EXTRA
                if (public and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    targets[obj] = self.wrap(name, obj)
        found = {w.span_name for w in targets.values()}
        expected = layers.span_names() | set(BEFORE) | set(AFTER)
        self.absent = sorted(expected - found)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, attr, targets[obj])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stage": self.stage, "spans": self.spans,
                       "counts": dict(self.counts), "absent": self.absent,
                       "hook_errors": sorted(self.hook_errors)}, fh)
