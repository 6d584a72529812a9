"""Output checks that read only agrec's public file formats.

Nothing here imports agrec: the recall oracle rebuilds the graphs from the
prepared directory and the extraction output, propagates the checkpoint
tables with dense matrices and ranks every candidate itself, so a defect in
agrec.model or agrec.kernels cannot hide behind a shared code path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

TABLES = ("users", "items", "item_attrs", "aesthetics")


def metrics_in_unit_range(report: dict) -> bool:
    values = [report.get(key) for key in ("recall", "ndcg", "precision")]
    return all(isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0
               for v in values)


def train_positives(manifest: dict) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for user, item in manifest["splits"]["train"]:
        out.setdefault(user, set()).add(item)
    return out


def recommendation_ok(doc: dict, user: str, k: int, known: set[str],
                      positives: dict[str, set[str]]) -> bool:
    """k distinct known items, none a training positive, scores non-increasing."""
    items = [rec["item_id"] for rec in doc.get("items", ())]
    scores = [rec["score"] for rec in doc.get("items", ())]
    return (doc.get("user") == user and len(items) == k
            and len(set(items)) == k and set(items) <= known
            and not set(items) & positives.get(user, set())
            and all(math.isfinite(s) for s in scores)
            and all(a >= b for a, b in zip(scores, scores[1:])))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Magic, length-prefixed JSON header, then float32 LE tables."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"AGR1":
            raise ValueError("bad checkpoint magic")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen))
        dim = header["dim"]
        tables = {}
        for name in TABLES:
            rows = header["counts"][name]
            tables[name] = np.frombuffer(fh.read(rows * dim * 4), dtype="<f4") \
                .reshape(rows, dim).astype(np.float64)
    return header, tables


class _Vocab(dict):
    def add(self, key):
        return self.setdefault(key, len(self))

    def sha256(self) -> str:
        h = hashlib.sha256()
        for key in self:
            h.update(key.encode("utf-8") + b"\n")
        return h.hexdigest()


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _merge(target: dict, item_id: str, keywords) -> None:
    bucket = target.setdefault(item_id, [])
    bucket.extend(kw for kw in dict.fromkeys(keywords) if kw not in bucket)


def _normalized(n_left: int, n_right: int, edges) -> np.ndarray:
    adj = np.zeros((n_left, n_right))
    for left, right in edges:
        adj[left, right] = 1.0
    deg_l, deg_r = adj.sum(axis=1), adj.sum(axis=0)
    with np.errstate(divide="ignore"):
        scale_l = np.where(deg_l > 0, 1.0 / np.sqrt(deg_l), 0.0)
        scale_r = np.where(deg_r > 0, 1.0 / np.sqrt(deg_r), 0.0)
    return adj * scale_l[:, None] * scale_r[None, :]


def oracle_recall(data_dir, attrs_path, checkpoint_path, k: int) -> float:
    """Standard-mode Recall@k recomputed from the checkpoint tables.

    Vocabularies follow the documented first-appearance order; the rebuilt
    vocabularies must hash to the checkpoint's, or the oracle refuses.
    """
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        splits = json.load(fh)["splits"]
    header, tables = read_checkpoint(checkpoint_path)

    item_kw: dict[str, list[str]] = {}
    aes_kw: dict[str, list[str]] = {}
    for rec in _jsonl(os.path.join(data_dir, "text_attributes.jsonl")):
        _merge(item_kw, rec["item_id"], rec["keywords"])
    for rec in _jsonl(attrs_path):
        _merge(item_kw if rec["kind"] == "item" else aes_kw,
               rec["item_id"], rec["keywords"])

    train_items = {i for _, i in splits["train"]}
    v_i, v_ia, v_u, v_aes = _Vocab(), _Vocab(), _Vocab(), _Vocab()
    iia_edges = [(v_i.add(i), v_ia.add(kw)) for i in item_kw if i in train_items
                 for kw in item_kw[i]]
    item_aes: dict[int, list[int]] = {}
    for i, kws in aes_kw.items():
        if i in v_i:
            item_aes.setdefault(v_i[i], []).extend(v_aes.add(kw) for kw in kws)
    ui_edges, uaes_edges = [], []
    for u, i in splits["train"]:
        ui_edges.append((v_u.add(u), v_i[i]))
        uaes_edges.extend((v_u[u], a) for a in item_aes.get(v_i[i], ()))
    hashes = {"users": v_u.sha256(), "items": v_i.sha256(),
              "item_attrs": v_ia.sha256(), "aesthetics": v_aes.sha256()}
    if hashes != header["vocab_sha256"]:
        raise ValueError("rebuilt vocabularies do not match the checkpoint")

    a_iia = _normalized(len(v_i), len(v_ia), iia_edges)
    a_ui = _normalized(len(v_u), len(v_i), ui_edges)
    a_uaes = _normalized(len(v_u), len(v_aes), uaes_edges)
    alpha = np.asarray(header["alpha"], dtype=np.float64)
    u, i, ia, aes = (tables[name] for name in TABLES)
    e_u, e_i = alpha[0] * u, alpha[0] * i
    for a in alpha[1:]:
        u, i, ia, aes = a_uaes @ aes + a_ui @ i, a_iia @ ia, a_iia.T @ i, a_uaes.T @ u
        e_u, e_i = e_u + a * u, e_i + a * i

    seen: dict[int, set[int]] = {}
    for user, item in splits["train"]:
        seen.setdefault(v_u[user], set()).add(v_i[item])
    test: dict[int, set[int]] = {}
    for user, item in splits["test"]:
        if user in v_u and item in v_i:
            test.setdefault(v_u[user], set()).add(v_i[item])
    recalls = []
    for user in sorted(test):
        cand = np.array(sorted(set(range(len(v_i))) - seen.get(user, set())),
                        dtype=np.int64)
        if cand.size == 0:
            continue
        scores = e_i[cand] @ e_u[user]
        top = cand[np.lexsort((cand, -scores))[:k]]
        recalls.append(len(test[user] & set(top.tolist())) / len(test[user]))
    return float(np.sum(recalls) / len(recalls)) if recalls else 0.0
