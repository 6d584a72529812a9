"""Raw data ingestion: interaction parsing, popularity filtering,
train/validation/test splitting, price bucketing and text-attribute tokens.

File formats:
  * interactions: UTF-8 TSV ``user_id<TAB>item_id``, LF endings, no header
  * items: one JSON object per line, keys item_id (required), brand, price,
    category, color, description, image_ref
  * split manifest: JSON with seed, counts and per-split interaction arrays,
    in the fixed byte layout write_manifest documents
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError, DataError

if TYPE_CHECKING:
    import numpy as np

# The two files `prepare` writes into a prepared data directory.
MANIFEST_NAME = "manifest.json"
TEXT_ATTRS_NAME = "text_attributes.jsonl"

Interaction = tuple[str, str]

# Deliberately small; a stop-word file can replace it wholesale.
DEFAULT_STOP_WORDS = frozenset(
    "a an and are as at be but by for from has have in is it its of on or "
    "that the this to was were will with".split()
)


@dataclass
class ItemMetadata:
    """Structured item record from the items file; all but item_id optional."""

    item_id: str
    brand: str | None = None
    price: float | None = None
    category: str | None = None
    color: str | None = None
    description: str | None = None
    image_ref: str | None = None

    def __post_init__(self):
        if not self.item_id:
            raise DataError("item_id must be non-empty")
        if self.price is not None:
            try:
                price = float(self.price)
            except (TypeError, ValueError, OverflowError):
                raise DataError(f"item {self.item_id!r}: price must be a number") from None
            if not math.isfinite(price) or price < 0:
                raise DataError(f"item {self.item_id!r}: price must be finite and >= 0")
            self.price = price


@dataclass
class PriceBuckets:
    """Price discretization: ``boundaries`` are the ascending lower edges
    of buckets 1, 2, ..., so a price's label is the number of boundaries
    at or below it, monotone in price.
    """

    boundaries: list[float]

    def assign(self, price: float) -> int:
        return bisect_right(self.boundaries, price)


@dataclass
class SplitDataset:
    """Train/validation/test (user, item) pairs. Every user in validation or
    test also appears in train.

    At ID level, from ingestion and the manifest, each split is a list of
    (user_id, item_id) string tuples. At index level, from
    pipeline.build_bundle and the dataset cache, each is an (n, 2) int64
    array of (vocab_u index, vocab_i index); the distinct train pairs are
    the edges of the bundle's g_ui, from which training positives are read.
    """

    train: list | np.ndarray = field(default_factory=list)
    validation: list | np.ndarray = field(default_factory=list)
    test: list | np.ndarray = field(default_factory=list)


def parse_interactions(lines: Iterable[str]) -> list[Interaction]:
    """Parse `user<TAB>item` lines preserving file order; blanks are skipped."""
    out: list[Interaction] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"line {lineno}: expected `user_id<TAB>item_id`, got {line!r}")
        out.append((parts[0], parts[1]))
    if not out:
        raise DataError("empty interactions input")
    return out


@contextmanager
def open_text(path, error: type[Exception] = DataError):
    """Open an input file as UTF-8 text; bytes that do not decode raise
    `error` naming the file instead of UnicodeDecodeError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write `path` whole or not at all: into `<path>.<pid>.tmp` (text as UTF-8,
    LF endings), renamed over `path` on a clean exit and removed on any error."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # KeyboardInterrupt too: never leave a torn file
        with suppress(OSError):  # absent if open failed
            os.remove(tmp)
        raise


def parse_json(text):
    """json.loads, with nesting past the interpreter's recursion limit
    raised as json.JSONDecodeError (a ValueError), like any other JSON the
    readers cannot use, instead of as RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None


def _utf8_problem(text: str, value) -> str | None:
    """A message if some string in `value`, parsed from the JSON `text`, does
    not encode as UTF-8, else None. JSON can spell a lone surrogate
    ("\\ud800"), which no later stage can encode; strict UTF-8 decoding
    never yields one, so ASCII text without a \\u escape needs no look."""
    if text.isascii() and "\\u" not in text:
        return None
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return "a string is not UTF-8 text (lone surrogate escape)"
    return None


def read_interactions(path) -> list[Interaction]:
    with open_text(path) as fh:
        return parse_interactions(fh)


_ITEM_TEXT_FIELDS = ("brand", "category", "color", "description", "image_ref")
_ITEM_FIELDS = tuple(f.name for f in fields(ItemMetadata))


def _item_problem(obj) -> str | None:
    """What makes an items record unusable, or None: it needs a string
    item_id, and its text fields strings or null."""
    if "item_id" not in obj:
        return "missing item_id"
    if not isinstance(obj["item_id"], str):
        return "item_id must be a string"
    for name in _ITEM_TEXT_FIELDS:
        value = obj.get(name)
        if value is not None and not isinstance(value, str):
            return f"{name} must be a string or null"
    return None


def jsonl_records(lines: Iterable[str], source, problem):
    """(lineno, record) per non-blank JSON line. A line that does not parse,
    that is not a JSON object, whose record `problem(record)` names a fault
    of, or that holds a string UTF-8 cannot encode raises DataError naming
    `source` and the line."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = parse_json(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{source} line {lineno}: invalid JSON ({exc.msg})") from None
        fault = ("expected a JSON object" if not isinstance(obj, dict)
                 else problem(obj) or _utf8_problem(line, obj))
        if fault:
            raise DataError(f"{source} line {lineno}: {fault}")
        yield lineno, obj


def parse_items(lines: Iterable[str], source: str = "items") -> list[ItemMetadata]:
    """Parse the one-JSON-object-per-line items file; errors name `source`
    and the line."""
    out = []
    for lineno, obj in jsonl_records(lines, source, _item_problem):
        try:
            out.append(ItemMetadata(*map(obj.get, _ITEM_FIELDS)))
        except DataError as exc:
            raise DataError(f"{source} line {lineno}: {exc}") from None
    return out


def read_items(path) -> list[ItemMetadata]:
    with open_text(path) as fh:
        return parse_items(fh, str(path))


def filter_min_popularity(interactions: Sequence[Interaction],
                          threshold: int) -> list[Interaction]:
    """Keep interactions whose item has strictly more than `threshold`
    distinct users. Single pass, not iterated to fixpoint."""
    if threshold < 0:
        raise ConfigError("popularity threshold must be >= 0")
    users_per_item = Counter(i for _, i in set(interactions))
    return [(u, i) for u, i in interactions if users_per_item[i] > threshold]


def _split_sizes(n: int, ratios: Sequence[float]) -> tuple[int, int]:
    # Train count rounds half-up, validation floors, test takes the
    # remainder: the one policy of floor/round/ceil combinations that
    # reproduces 459,146 -> 367,317 / 45,914 / 45,915.
    n_train = int(math.floor(ratios[0] * n + 0.5))
    n_val = int(math.floor(ratios[1] * n + 1e-9))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return n_train, n_val


def split_ratios(ratios: Sequence[float]) -> tuple[float, ...]:
    """The (train, validation, test) `ratios` as a tuple, refused with
    ConfigError unless they are three finite, non-negative numbers that
    sum to 1."""
    ratios = tuple(ratios)
    if not all(math.isfinite(r) for r in ratios):  # NaN passes the sum test
        raise ConfigError(f"ratios must be finite, got {ratios}")
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must be three numbers that sum to 1, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"ratios must be non-negative, got {ratios}")
    return ratios


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> tuple[int, int, int, int]:
    """The four uint64 words of numpy's SeedSequence(seed).generate_state(4,
    np.uint64), which seed its PCG64: the seed's little-endian uint32 words
    hashed into a 4-word pool, and the pool hashed out into 8 words."""
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        words.append(v ^ v >> 16)
    return tuple(words[i] | words[i + 1] << 32 for i in range(0, 8, 2))


def _permutation(n: int, seed: int) -> list[int]:
    """numpy's ``np.random.default_rng(seed).permutation(n).tolist()`` for a
    seed >= 0, computed here so that a split depends on neither numpy's
    import time nor its release: NEP 19 lets Generator streams change.

    PCG64 (XSL-RR 128/64) seeded through SeedSequence, and the Fisher-Yates
    shuffle of Generator.shuffle: for i from n-1 down to 1, draw 32-bit
    words (the low then the high half of each 64-bit output) masked to the
    smallest all-ones value >= i until one is <= i, and swap a[i] with it.
    Only this 32-bit draw is ported, so n must be at most 2**32.
    """
    s0, s1, s2, s3 = _seed_state(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128
    order = list(range(n))
    high = None  # the unused high half of the last 64-bit output
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if high is None:
                state = (state * _PCG64_MULT + inc) & _M128
                rot, x = state >> 122, ((state >> 64) ^ state) & _M64
                out = (x >> rot | x << (64 - rot)) & _M64
                j, high = out & mask, out >> 32
            else:
                j, high = high & mask, None
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return order


def split_dataset(interactions: Sequence, ratios: Sequence[float] = (0.8, 0.1, 0.1),
                  seed: int = 0) -> SplitDataset:
    """Seeded shuffle-split into train/validation/test. The shuffle is
    numpy's ``default_rng(seed).permutation``, ported in _permutation; the
    seed is an integer >= 0.

    Users that would appear only in validation/test are pulled into train
    (they have no propagation edges otherwise), and the displaced counts are
    rebalanced by moving safely removable rows back out of train.
    """
    ratios = split_ratios(ratios)
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n = len(interactions)
    if n < 3:
        raise ConfigError("need at least 3 interactions to split")

    shuffled = [interactions[j] for j in _permutation(n, seed)]

    n_train, n_val = _split_sizes(n, ratios)
    train = shuffled[:n_train]
    val = shuffled[n_train:n_train + n_val]
    test = shuffled[n_train + n_val:]

    train_user_rows = Counter(u for u, _ in train)

    def _pull_cold_users(split_rows):
        kept, moved = [], []
        for row in split_rows:
            if train_user_rows[row[0]] == 0:
                moved.append(row)
                train_user_rows[row[0]] += 1
            else:
                kept.append(row)
        return kept, moved

    val, moved_v = _pull_cold_users(val)
    test, moved_t = _pull_cold_users(test)
    train = train + moved_v + moved_t

    # Rebalance from train (the largest split): a row may leave train only if
    # its user keeps at least one other train row.
    need_val, need_test = len(moved_v), len(moved_t)
    if need_val or need_test:
        back_val, back_test, kept_train = [], [], []
        for row in reversed(train):
            if need_val and train_user_rows[row[0]] >= 2:
                back_val.append(row)
                train_user_rows[row[0]] -= 1
                need_val -= 1
            elif need_test and train_user_rows[row[0]] >= 2:
                back_test.append(row)
                train_user_rows[row[0]] -= 1
                need_test -= 1
            else:
                kept_train.append(row)
        train = list(reversed(kept_train))
        val = val + list(reversed(back_val))
        test = test + list(reversed(back_test))

    return SplitDataset(train=train, validation=val, test=test)


def fit_price_buckets(prices: Sequence[float], n_p: int) -> PriceBuckets:
    """Equal-frequency boundaries for n_p buckets; equal prices always share
    a bucket, so ties can collapse boundaries and leave fewer than n_p
    labels. Without prices there are no boundaries."""
    if n_p < 1:
        raise ConfigError(f"price_buckets must be >= 1, got {n_p}")
    ranked = sorted(map(float, prices))
    n = len(ranked)
    values: list[float] = []  # each distinct price, ascending,
    starts: list[int] = []  # and n_p times the rank of its first occurrence
    for rank, v in enumerate(ranked):
        if not values or v != values[-1]:
            values.append(v)
            starts.append(rank * n_p)
    boundaries: list[float] = []
    for j in range(1, n_p):
        # smallest distinct value whose rank reaches j*n/n_p, compared in
        # integer arithmetic to dodge float quantile fuzz
        k = bisect_left(starts, j * n)
        if k >= len(values):
            continue
        v = values[k]
        if not boundaries or v > boundaries[-1]:
            boundaries.append(v)
    return PriceBuckets(boundaries)


def _normalize_field(value: str) -> str:
    return " ".join(value.lower().split())


def tokenize_text_attributes(meta: ItemMetadata, buckets: PriceBuckets,
                             stop_words: frozenset[str] | None = None,
                             include_description: bool = True) -> list[str]:
    """Derive namespaced keywords from structured fields and the description.

    Namespacing (`color:navy` vs `desc:navy`) keeps attributes from different
    fields distinct. Description handling: Unicode lowercase, whitespace
    split, strip non-alphanumerics, drop tokens shorter than 2 chars and
    stop words; disable wholesale with include_description=False.
    """
    stop = DEFAULT_STOP_WORDS if stop_words is None else stop_words
    keywords: list[str] = []
    if meta.brand:
        normalized = _normalize_field(meta.brand)
        if normalized:
            keywords.append(f"brand:{normalized}")
    if meta.price is not None:
        keywords.append(f"price:{buckets.assign(meta.price)}")
    for namespace, value in (("category", meta.category), ("color", meta.color)):
        if value:
            normalized = _normalize_field(value)
            if normalized:
                keywords.append(f"{namespace}:{normalized}")
    if include_description and meta.description:
        for raw in meta.description.lower().split():
            token = raw if raw.isalnum() else "".join(filter(str.isalnum, raw))
            if len(token) < 2 or token in stop:
                continue
            keywords.append(f"desc:{token}")
    return keywords


# The C string encoder json.dumps itself uses with ensure_ascii: quotes and
# escapes one str, without the encoder object json.dumps builds per call.
_quote = json.encoder.encode_basestring_ascii


def text_attributes_line(item_id: str, keywords: Sequence[str]) -> str:
    """One text_attributes.jsonl line: the bytes of json.dumps({"item_id":
    item_id, "keywords": keywords}, sort_keys=True) and a newline."""
    return f'{{"item_id": {_quote(item_id)}, "keywords": [{", ".join(map(_quote, keywords))}]}}\n'


def _pairs_json(pairs) -> str:
    """A list of string pairs as json.dumps(..., indent=2) lays it out at
    the depth of a split list in the manifest."""
    if not pairs:
        return "[]"
    rows = "\n      ],\n      [\n        ".join(
        f"{_quote(u)},\n        {_quote(i)}" for u, i in pairs)
    return f"[\n      [\n        {rows}\n      ]\n    ]"


def write_manifest(path, *, seed: int, ratios: Sequence[float],
                   split: SplitDataset, config: dict | None = None,
                   extra: dict | None = None) -> dict:
    """Write the split manifest (string-ID pairs) with count echo; `extra`
    adds top-level keys beside them. Returns the counts.

    The bytes are exactly those of ``json.dump(doc, fh, indent=2,
    sort_keys=True)`` and a newline: 2-space indent, keys sorted, strings
    escaped as with ensure_ascii (so the file is ASCII), each ID of a split
    pair on a line of its own, LF line endings and a trailing newline.
    ``dataset_hash`` and the dataset cache key are sha256 over these bytes.
    json.dumps lays out the small part of the document; the split lists,
    nearly all of the bytes, are written pair by pair with the C string
    encoder, which json.dumps drops for a pure-Python one under indent=2.
    """
    pairs = split.train + split.validation + split.test
    doc = {
        "seed": seed,
        "ratios": list(ratios),
        "counts": {
            "users": len({u for u, _ in pairs}),
            "items": len({i for _, i in pairs}),
            "interactions": len(pairs),
            "train": len(split.train),
            "validation": len(split.validation),
            "test": len(split.test),
        },
    }
    if config is not None:
        doc["config"] = config
    if extra:
        doc.update(extra)
    doc["splits"] = {}
    # At 2-space indent only top-level keys start a line with `  "`, and
    # strings hold no raw newline, so this text occurs once.
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition(
        '\n  "splits": {}')
    with atomic_write(path) as fh:
        fh.write(head)
        fh.write(f'\n  "splits": {{\n    "test": {_pairs_json(split.test)},'
                 f'\n    "train": {_pairs_json(split.train)},'
                 f'\n    "validation": {_pairs_json(split.validation)}\n  }}')
        fh.write(tail + "\n")
    return doc["counts"]


def read_manifest(path) -> tuple[dict, str]:
    """The manifest document at `path` and the sha256 of the bytes it was
    parsed from, which is the dataset hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        doc = parse_json(text)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise DataError(f"{path}: invalid manifest ({exc})") from None
    problem = _utf8_problem(text, doc)
    if problem:
        raise DataError(f"{path}: invalid manifest ({problem})")
    if not isinstance(doc, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    for key in ("seed", "counts", "splits"):
        if key not in doc:
            raise DataError(f"manifest missing key {key!r}")
    return doc, hashlib.sha256(data).hexdigest()


def _is_id_pair(p) -> bool:
    return (type(p) is list and len(p) == 2
            and type(p[0]) is str and type(p[1]) is str)


def manifest_split(doc: dict) -> SplitDataset:
    """Rebuild a SplitDataset (string-ID pairs) from a manifest document."""
    splits = doc["splits"]
    if not isinstance(splits, dict):
        raise DataError("manifest splits must be an object")
    parts = []
    for name in ("train", "validation", "test"):
        rows = splits.get(name)
        if not isinstance(rows, list):
            raise DataError(f"manifest splits.{name} must be a list")
        if not all(map(_is_id_pair, rows)):
            bad = next(k for k, p in enumerate(rows) if not _is_id_pair(p))
            raise DataError(f"manifest splits.{name}[{bad}] must be a pair of "
                            f"string IDs, got {json.dumps(rows[bad])[:60]}")
        parts.append(list(map(tuple, rows)))
    return SplitDataset(*parts)
