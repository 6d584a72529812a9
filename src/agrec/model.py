"""Embedding table, linear graph propagation and preference scoring.

Per layer, all four vertex classes advance simultaneously from the previous
layer's values (Jacobi-style): items gather from item attributes, item
attributes from items, aesthetic keywords from users, and users from both
aesthetic keywords and items. That is one sparse operator M applied to the
one trainable table, a row per vertex in graphs.PropagationOperator's order.
Final user/item embeddings are the alpha-weighted sum over layers 0..K, so
nothing reads the attribute rows of x_K: forward applies M K−1 times and
then its user and item rows once (the operator's head plan).
Everything is linear: no activations, attention weights, self-loops or dropout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, IntegrityError, NumericError
from .graphs import BipartiteGraph, GraphBundle
from .ingest import atomic_write, parse_json
from .kernels import gather_rows, plan_gather

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
class LayerStack:
    """Stacked embeddings x_0..x_K; `bounds` are the operator's class bounds
    and `alpha` the K+1 weights that combine the layers.

    x_K holds the users and items only (bounds[2] rows): its attribute
    views from split(K) are empty."""

    layers: list[np.ndarray]
    bounds: tuple[int, ...]
    alpha: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def split(self, k: int) -> tuple[np.ndarray, ...]:
        """Per-class row views of x_k: users, items, item_attrs, aesthetics."""
        b = self.bounds
        return tuple(self.layers[k][b[j]:b[j + 1]] for j in range(4))


def init_tables(bundle: GraphBundle, config: ModelConfig,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """The stacked layer-0 table, one N(0, init_scale^2) draw in vertex order."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return rng.normal(0.0, config.init_scale, (bundle.operator.size, config.dim))


_CLASS_NAMES = ("user", "item", "item-attribute", "aesthetic")


def _check_rows(tables: np.ndarray, op) -> None:
    if tables.shape[0] != op.size:
        raise IntegrityError(f"table has {tables.shape[0]} rows for {op.size} vertices")


def forward(tables: np.ndarray, bundle: GraphBundle,
            config: ModelConfig) -> LayerStack:
    """Run K propagation layers x_{k+1} = M x_k on the stacked table;
    layer 0 is the table itself, and the last layer gathers only the
    scored user and item rows."""
    op = bundle.operator
    _check_rows(tables, op)
    stack = LayerStack(layers=[tables], bounds=op.bounds, alpha=config.alpha())
    for k in range(config.layers):
        plan = op.head if k == config.layers - 1 else op.forward
        x = gather_rows(plan, stack.layers[-1])
        stack.layers.append(x)
        if not np.isfinite(x).all():
            name = next(name for name, part in zip(_CLASS_NAMES, op.split(x))
                        if not np.isfinite(part).all())
            raise NumericError(f"non-finite values in {name} embeddings at layer {k + 1}")
    return stack


def final_embeddings(stack: LayerStack) -> tuple[np.ndarray, np.ndarray]:
    """The stack's alpha-weighted layer combination for users and items."""
    n_u, n_ui = stack.bounds[1:3]
    e = np.zeros((n_ui, stack.layers[0].shape[1]))
    for a, x in zip(stack.alpha, stack.layers):  # each cell adds from +0.0
        e += a * x[:n_ui]
    return e[:n_u], e[n_u:]


def cold_item_embedding(edges: np.ndarray, n_items: int, g_iia: BipartiteGraph,
                        stack: LayerStack) -> tuple[np.ndarray, np.ndarray]:
    """Embed never-trained items purely through their attribute keywords.

    Each cold item is a fresh vertex with a zero layer-0 embedding, linked by
    `edges` (item position, vocab_ia index) to its known keywords, so its
    degree is its number of edges; attribute degrees stay frozen at their
    trained values, so scoring is independent of query order. All items are
    the rows of one gather plan with coefficients 1/sqrt(n_known * deg_kw),
    and the embeddings are sum_k alpha_k * gather_rows(plan, x_{k-1}) over
    the keyword rows. Returns the (n_items, dim) embeddings and which items
    are scorable: an item with no edge is not, and its row is zero.
    """
    item, keyword = edges[:, 0], edges[:, 1]
    n_known = np.bincount(item, minlength=n_items)
    coef = 1.0 / np.sqrt(n_known[item] * g_iia.right_deg[keyword].astype(np.float64))
    plan = plan_gather(item, keyword, coef, n_items)
    out = np.zeros((n_items, stack.layers[0].shape[1]), dtype=np.float64)
    for k in range(1, stack.depth + 1):
        if stack.alpha[k] != 0.0:
            out += stack.alpha[k] * gather_rows(plan, stack.split(k - 1)[2])
    return out, n_known > 0


# --- checkpoint serialization -------------------------------------------------

_TABLE_NAMES = ("users", "items", "item_attrs", "aesthetics")


@dataclass
class Checkpoint:
    """A loaded checkpoint; `sha256` is the digest of the file's bytes."""

    header: dict
    tables: np.ndarray
    sha256: str = ""

    def config(self) -> ModelConfig:
        h = self.header
        return ModelConfig(dim=h["dim"], layers=h["layers"],
                           layer_weights=tuple(h["alpha"]), seed=h["seed"])

    def check_matches(self, bundle: GraphBundle) -> None:
        """Refuse a checkpoint trained on other vocabularies or other
        per-class counts than `bundle`'s: its rows would be other vertices."""
        if self.header.get("vocab_sha256") != vocab_hashes(bundle):
            raise IntegrityError("checkpoint vocabularies do not match dataset")
        counts = dict(zip(_TABLE_NAMES, np.diff(bundle.operator.bounds).tolist()))
        if self.header["counts"] != counts:
            raise IntegrityError(f"checkpoint counts {self.header['counts']} "
                                 f"do not match dataset counts {counts}")


def vocab_hashes(bundle: GraphBundle) -> dict[str, str]:
    return {
        "users": bundle.vocab_u.sha256(),
        "items": bundle.vocab_i.sha256(),
        "item_attrs": bundle.vocab_ia.sha256(),
        "aesthetics": bundle.vocab_iaa.sha256(),
    }


def save_checkpoint(path, tables: np.ndarray, bundle: GraphBundle,
                    config: ModelConfig, extra: dict | None = None) -> None:
    """Write magic, length-prefixed JSON header, then the stacked table as
    one float32 little-endian row-major block: users, items, item-attributes,
    aesthetics, each class's rows as the header counts, and the block's
    sha256 as `table_sha256`. The file is replaced whole
    (ingest.atomic_write): a failed save leaves the old one. Refuses, before
    touching `path`, tables that are not finite in float32."""
    op = bundle.operator
    _check_rows(tables, op)
    with np.errstate(over="ignore"):  # overflow is caught just below
        block = np.ascontiguousarray(tables, dtype="<f4")
    if not np.isfinite(block).all():
        name = next(name for name, part in zip(_TABLE_NAMES, op.split(block))
                    if not np.isfinite(part).all())
        raise NumericError(f"refusing to save checkpoint: {name} table "
                           "is not finite in float32")
    header = {
        "dim": config.dim,
        "layers": config.layers,
        "alpha": [float(a) for a in config.alpha()],
        "counts": dict(zip(_TABLE_NAMES, np.diff(op.bounds).tolist())),
        "vocab_sha256": vocab_hashes(bundle),
        "seed": config.seed,
        "table_sha256": hashlib.sha256(block).hexdigest(),
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.write(block)  # the contiguous buffer itself, not a tobytes() copy


_HEADER_KEYS = ("dim", "counts", "alpha", "layers", "seed", "vocab_sha256",
                "table_sha256")


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
    if not (_is_count(header["dim"]) and _is_count(header["layers"])
            and isinstance(header["seed"], int)):
        raise DataError("corrupt checkpoint: dim, layers and seed must be integers")
    alpha = header["alpha"]
    if not (isinstance(alpha, list) and all(isinstance(a, (int, float)) for a in alpha)):
        raise DataError("corrupt checkpoint: alpha must be a list of numbers")
    try:
        Checkpoint(header, None).config().validate()
    except (ConfigError, OverflowError) as exc:  # an int alpha past float range
        raise DataError(f"corrupt checkpoint: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint file, which must be exactly magic, length
    prefix, header and the table block the header sizes and digests: a
    short file, any byte after the table or a table whose sha256 is not
    the header's is a DataError. The file is read once: the result's
    `sha256` is the digest of the bytes read, which are the whole file."""
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
            header = parse_json(blob.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise DataError(f"corrupt checkpoint header: {exc}") from None
        _check_header(header)
        dim = header["dim"]
        size = sum(header["counts"][cls] for cls in _TABLE_NAMES) * dim * 4
        expected = 8 + hlen + size
        actual = os.fstat(fh.fileno()).st_size
        if actual < expected:
            raise DataError(f"truncated checkpoint: {actual} bytes, "
                            f"header sizes {expected}")
        if actual > expected:
            raise DataError(f"corrupt checkpoint: {actual - expected} bytes "
                            "after the last table")
        raw = fh.read(size)
        if len(raw) != size:
            raise DataError("truncated checkpoint: table block")
    if hashlib.sha256(raw).hexdigest() != header["table_sha256"]:
        raise DataError("corrupt checkpoint: table digest mismatch")
    file_hash = hashlib.sha256(magic + prefix + blob)
    file_hash.update(raw)
    tables = np.frombuffer(raw, dtype="<f4").reshape(-1, dim).astype(np.float64)
    return Checkpoint(header=header, tables=tables, sha256=file_hash.hexdigest())

