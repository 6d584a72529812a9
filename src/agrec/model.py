"""Embedding tables, linear graph propagation and preference scoring.

Per layer, all four vertex classes advance simultaneously from the previous
layer's values (Jacobi-style): items gather from item attributes, item
attributes from items, aesthetic keywords from users, and users from both
aesthetic keywords and items. That is one sparse operator M applied to the
stacked tables (graphs.PropagationOperator). Final user/item embeddings are
the alpha-weighted sum over layers 0..K. Everything is linear; there are no
activations, attention weights, self-loops or dropout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ColdItemError, ConfigError, DataError, NumericError
from .graphs import BipartiteGraph, GraphBundle, Vocabulary
from .kernels import gather_rows

CHECKPOINT_MAGIC = b"AGR1"


@dataclass
class ModelConfig:
    """Hyperparameters; layer_weights default to uniform 1/(K+1)."""

    dim: int = 64
    layers: int = 3
    layer_weights: tuple[float, ...] | None = None
    learning_rate: float = 1e-3
    l2_weight: float = 1e-4
    n_negatives: int = 1
    init_scale: float = 0.1
    seed: int = 0

    def alpha(self) -> np.ndarray:
        if self.layer_weights is None:
            return np.full(self.layers + 1, 1.0 / (self.layers + 1))
        return np.asarray(self.layer_weights, dtype=np.float64)

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        for name in ("learning_rate", "l2_weight", "init_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        alpha = self.alpha()
        if not np.isfinite(alpha).all():
            raise ConfigError("layer weights must be finite")
        if alpha.shape[0] != self.layers + 1:
            raise ConfigError(
                f"need {self.layers + 1} layer weights, got {alpha.shape[0]}")
        if (alpha < 0).any() or abs(float(alpha.sum()) - 1.0) > 1e-9:
            raise ConfigError("layer weights must be non-negative and sum to 1")
        if self.l2_weight < 0:
            raise ConfigError("l2_weight must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.n_negatives < 1:
            raise ConfigError("n_negatives must be >= 1")
        if self.init_scale <= 0:
            raise ConfigError("init_scale must be > 0")


@dataclass
class EmbeddingTables:
    """The four trainable layer-0 tables (float64, rows x dim)."""

    users: np.ndarray
    items: np.ndarray
    item_attrs: np.ndarray
    aesthetics: np.ndarray

    def copy(self) -> "EmbeddingTables":
        return EmbeddingTables(self.users.copy(), self.items.copy(),
                               self.item_attrs.copy(), self.aesthetics.copy())

    def classes(self):
        return (("users", self.users), ("items", self.items),
                ("item_attrs", self.item_attrs), ("aesthetics", self.aesthetics))


@dataclass
class LayerStack:
    """Per-layer embeddings for every vertex class, k = 0..K."""

    users: list[np.ndarray] = field(default_factory=list)
    items: list[np.ndarray] = field(default_factory=list)
    item_attrs: list[np.ndarray] = field(default_factory=list)
    aesthetics: list[np.ndarray] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.users) - 1


def init_tables(bundle: GraphBundle, config: ModelConfig,
                rng: np.random.Generator | None = None) -> EmbeddingTables:
    """Draw all four tables from N(0, init_scale^2), in a fixed order."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    s, d = config.init_scale, config.dim
    return EmbeddingTables(
        users=rng.normal(0.0, s, (len(bundle.vocab_u), d)),
        items=rng.normal(0.0, s, (len(bundle.vocab_i), d)),
        item_attrs=rng.normal(0.0, s, (len(bundle.vocab_ia), d)),
        aesthetics=rng.normal(0.0, s, (len(bundle.vocab_iaa), d)),
    )


def _check_finite(name: str, layer: int, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name} embeddings at layer {layer}")


_CLASS_NAMES = ("user", "item", "item-attribute", "aesthetic")


def forward(tables: EmbeddingTables, bundle: GraphBundle,
            config: ModelConfig) -> LayerStack:
    """Run K propagation layers x_{k+1} = M x_k on the stacked tables;
    layer 0 is the tables themselves."""
    op = bundle.operator
    stack = LayerStack(users=[tables.users], items=[tables.items],
                       item_attrs=[tables.item_attrs], aesthetics=[tables.aesthetics])
    x = np.concatenate([arr for _, arr in tables.classes()])
    for k in range(config.layers):
        x = gather_rows(op.forward, x)
        for name, arr, layers in zip(_CLASS_NAMES, op.split(x), (
                stack.users, stack.items, stack.item_attrs, stack.aesthetics)):
            _check_finite(name, k + 1, arr)
            layers.append(arr)
    return stack


def final_embeddings(stack: LayerStack,
                     alpha: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Alpha-weighted layer combination for users and items."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape[0] != stack.depth + 1:
        raise ConfigError(
            f"alpha has {alpha.shape[0]} weights for {stack.depth + 1} layers")
    e_u = sum(a * layer for a, layer in zip(alpha, stack.users))
    e_i = sum(a * layer for a, layer in zip(alpha, stack.items))
    return e_u, e_i


def score(user_vec: np.ndarray, item_vec: np.ndarray) -> float:
    """Preference score: inner product of final user and item embeddings."""
    return float(np.dot(user_vec, item_vec))


def cold_item_embedding(keywords: Sequence[str], vocab_ia: Vocabulary,
                        g_iia: BipartiteGraph, stack: LayerStack,
                        alpha: Sequence[float]) -> np.ndarray:
    """Embed a never-trained item purely through its attribute keywords.

    The item is treated as a fresh vertex with a zero layer-0 embedding whose
    degree is its number of known keywords; attribute degrees stay frozen at
    their trained values so scoring is independent of query order. Keywords
    absent from the trained vocabulary are dropped.
    """
    known: list[int] = []
    seen = set()
    for kw in keywords:
        if kw in seen:
            continue
        seen.add(kw)
        if kw in vocab_ia:
            known.append(vocab_ia.index_of(kw))
    if not known:
        raise ColdItemError("unscorable cold item: no keywords in trained vocabulary")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape[0] != stack.depth + 1:
        raise ConfigError(
            f"alpha has {alpha.shape[0]} weights for {stack.depth + 1} layers")
    idx = np.asarray(known, dtype=np.int64)
    coef = 1.0 / np.sqrt(len(known) * g_iia.right_deg[idx].astype(np.float64))
    dim = stack.item_attrs[0].shape[1]
    out = np.zeros(dim, dtype=np.float64)
    for k in range(1, stack.depth + 1):
        if alpha[k] == 0.0:
            continue
        out += alpha[k] * (coef @ stack.item_attrs[k - 1][idx])
    return out


# --- checkpoint serialization -------------------------------------------------

@dataclass
class Checkpoint:
    header: dict
    tables: EmbeddingTables

    def config(self) -> ModelConfig:
        h = self.header
        return ModelConfig(dim=h["dim"], layers=h["layers"],
                           layer_weights=tuple(h["alpha"]), seed=h["seed"])


def vocab_hashes(bundle: GraphBundle) -> dict[str, str]:
    return {
        "users": bundle.vocab_u.sha256(),
        "items": bundle.vocab_i.sha256(),
        "item_attrs": bundle.vocab_ia.sha256(),
        "aesthetics": bundle.vocab_iaa.sha256(),
    }


def save_checkpoint(path, tables: EmbeddingTables, bundle: GraphBundle,
                    config: ModelConfig, extra: dict | None = None) -> None:
    """Write magic, length-prefixed JSON header, then the four tables as
    float32 little-endian row-major blocks in order users, items,
    item-attributes, aesthetics.

    Refuses, before touching `path`, tables that are not finite in float32.
    """
    with np.errstate(over="ignore"):  # overflow is caught just below
        blocks = [np.ascontiguousarray(arr, dtype="<f4")
                  for _, arr in tables.classes()]
    for (name, _), block in zip(tables.classes(), blocks):
        if not np.isfinite(block).all():
            raise NumericError(f"refusing to save checkpoint: {name} table "
                               "is not finite in float32")
    header = {
        "dim": config.dim,
        "layers": config.layers,
        "alpha": [float(a) for a in config.alpha()],
        "counts": {
            "users": tables.users.shape[0],
            "items": tables.items.shape[0],
            "item_attrs": tables.item_attrs.shape[0],
            "aesthetics": tables.aesthetics.shape[0],
        },
        "vocab_sha256": vocab_hashes(bundle),
        "seed": config.seed,
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for block in blocks:
            fh.write(block.tobytes())


_TABLE_NAMES = ("users", "items", "item_attrs", "aesthetics")
_HEADER_KEYS = ("dim", "counts", "alpha", "layers", "seed", "vocab_sha256")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header) -> None:
    if not isinstance(header, dict):
        raise DataError("corrupt checkpoint: header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"corrupt checkpoint: header lacks {missing}")
    counts = header["counts"]
    if not (isinstance(counts, dict)
            and all(_is_count(counts.get(cls)) for cls in _TABLE_NAMES)):
        raise DataError("corrupt checkpoint: counts must be non-negative "
                        f"integers for {list(_TABLE_NAMES)}")
    if not _is_count(header["dim"]) or header["dim"] < 1:
        raise DataError(f"corrupt checkpoint: bad dim {header['dim']!r}")
    if not _is_count(header["layers"]) or not isinstance(header["seed"], int):
        raise DataError("corrupt checkpoint: layers and seed must be integers")
    alpha = header["alpha"]
    if not (isinstance(alpha, list) and len(alpha) == header["layers"] + 1
            and all(isinstance(a, (int, float)) for a in alpha)):
        raise DataError("corrupt checkpoint: alpha must hold layers + 1 numbers")


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint file, which must be exactly magic, length
    prefix, header and the four tables the header sizes: a short file or
    any byte after the last table is a DataError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"not a checkpoint file (bad magic {magic!r})")
        prefix = fh.read(4)
        if len(prefix) != 4:
            raise DataError("truncated checkpoint: header length")
        (hlen,) = struct.unpack("<I", prefix)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise DataError("truncated checkpoint: header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise DataError(f"corrupt checkpoint header: {exc}") from None
        _check_header(header)
        dim = header["dim"]
        sizes = [header["counts"][cls] * dim * 4 for cls in _TABLE_NAMES]
        expected = 8 + hlen + sum(sizes)
        actual = os.fstat(fh.fileno()).st_size
        if actual < expected:
            raise DataError(f"truncated checkpoint: {actual} bytes, "
                            f"header sizes {expected}")
        if actual > expected:
            raise DataError(f"corrupt checkpoint: {actual - expected} bytes "
                            "after the last table")
        arrays = []
        for cls, size in zip(_TABLE_NAMES, sizes):
            raw = fh.read(size)
            if len(raw) != size:
                raise DataError(f"truncated checkpoint: {cls} block")
            arr = np.frombuffer(raw, dtype="<f4").reshape(-1, dim)
            arrays.append(arr.astype(np.float64))
    return Checkpoint(header=header, tables=EmbeddingTables(*arrays))


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
