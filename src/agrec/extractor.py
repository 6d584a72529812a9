"""Vision-language keyword extraction for item images.

Two fixed prompts produce two keyword sets per item: attributes of the item
itself, and aesthetic qualities of the photograph independent of the item.
Backends are pluggable; `fixture` replays canned responses for deterministic
runs, `http` is a generic prompt+image-in/text-out JSON adapter. Results are
written as resumable JSONL: a rerun queries only the (item_id, kind) pairs
its output does not hold yet.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, Sequence

from .errors import BackendError, ConfigError, DataError, NoKeywordsError
from .ingest import jsonl_records, open_text, parse_json

PROMPT_ITEM_ATTRIBUTES = (
    "Describe the item in the image using keywords. Describe the color, "
    "material, pattern, style, and feeling of the item using simple, common, "
    "and many English keywords. Output as keyword1, keyword2, keyword3, "
    "... keywordn."
)

# Note: unlike the item prompt, this one carries no trailing period; it is
# reproduced exactly as used, not "fixed".
PROMPT_AESTHETIC_ATTRIBUTES = (
    "Describe the image aesthetics independent of the item using keywords. "
    "Describe qualities including image composition, color scheme, lighting, "
    "balance, symmetry, contrast, texture, and overall visual harmony, "
    "feeling of the image using simple and common English keywords. Output "
    "as keyword1, keyword2, keyword3, ... keywordn"
)


class PromptKind(Enum):
    ITEM_ATTRIBUTES = "item"
    AESTHETIC_ATTRIBUTES = "aesthetic"


_KIND_VALUES = tuple(kind.value for kind in PromptKind)

_PROMPTS = {
    PromptKind.ITEM_ATTRIBUTES: PROMPT_ITEM_ATTRIBUTES,
    PromptKind.AESTHETIC_ATTRIBUTES: PROMPT_AESTHETIC_ATTRIBUTES,
}


def render_prompt(kind: PromptKind) -> str:
    """Return the immutable prompt string for a kind, byte-exact."""
    return _PROMPTS[kind]


def parse_keyword_response(raw: str) -> list[str]:
    """Normalize a raw model response into keywords.

    Splits on commas and newlines, trims whitespace and trailing periods,
    lowercases, drops chunks without any alphanumeric character, and
    deduplicates preserving first occurrence.
    """
    seen: set[str] = set()
    keywords: list[str] = []
    for chunk in raw.replace("\n", ",").split(","):
        kw = chunk if chunk.isprintable() else "".join(
            ch if ch.isprintable() else " " for ch in chunk)
        kw = kw.strip().rstrip(".").strip().lower()
        kw = " ".join(kw.split())
        if not kw or not any(ch.isalnum() for ch in kw):
            continue
        if kw not in seen:
            seen.add(kw)
            keywords.append(kw)
    if not keywords:
        raise NoKeywordsError(f"no keywords extracted from response {raw!r}")
    return keywords


@dataclass
class ExtractionRecord:
    item_id: str
    kind: PromptKind
    keywords: list[str]
    backend_name: str
    retrieved_at: str

    def to_json(self) -> str:
        return json.dumps({
            "item_id": self.item_id, "kind": self.kind.value,
            "keywords": self.keywords, "backend": self.backend_name,
            "retrieved_at": self.retrieved_at,
        }, sort_keys=True)


class FixtureBackend:
    """Replays canned responses keyed by item ID and prompt kind.

    Fixture file shape: {"<item_id>": {"item": "<raw text>",
    "aesthetic": "<raw text>"}}.
    """

    name = "fixture"

    def __init__(self, responses: dict[str, dict[str, str]]):
        self.responses = responses

    @classmethod
    def from_file(cls, path) -> "FixtureBackend":
        with open_text(path) as fh:
            try:
                doc = parse_json(fh.read())
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid fixture JSON ({exc.msg})") from None
        if not (isinstance(doc, dict)
                and all(isinstance(r, dict) for r in doc.values())
                and all(isinstance(t, str) for r in doc.values() for t in r.values())):
            raise DataError(f"{path}: a fixture maps item IDs to objects of strings")
        return cls(doc)

    def complete(self, item_id: str, image_ref: str | None, kind: PromptKind) -> str:
        try:
            return self.responses[item_id][kind.value]
        except KeyError:
            raise BackendError(
                f"fixture has no {kind.value} response for item {item_id!r}") from None


class HttpBackend:
    """Generic JSON-over-HTTP adapter: POST {prompt, image}, read {text}.

    The auth token is read from the environment variable named by
    `auth_env` at construction time; a missing token is a startup error,
    and so is a timeout that is not a finite number of seconds above 0.
    """

    name = "http"

    def __init__(self, base_url: str, auth_env: str = "AGREC_VLM_TOKEN",
                 timeout: float = 30.0):
        if not base_url:
            raise ConfigError("http backend requires a base URL")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigError(f"timeout must be finite and > 0, got {timeout}")
        token = os.environ.get(auth_env)
        if not token:
            raise ConfigError(f"auth token env var {auth_env} is not set")
        self.base_url = base_url
        self.token = token
        self.timeout = timeout

    def complete(self, item_id: str, image_ref: str | None, kind: PromptKind) -> str:
        # imported here: urllib.request pulls in http.client and ssl, which
        # no CLI stage but extract --backend http needs
        import urllib.error
        import urllib.request

        payload = json.dumps({"prompt": render_prompt(kind),
                              "image": image_ref}).encode("utf-8")
        req = urllib.request.Request(
            self.base_url, data=payload, method="POST",
            headers={"Content-Type": "application/json",
                     "Authorization": f"Bearer {self.token}"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = parse_json(resp.read())
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise BackendError(f"backend request failed: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise BackendError(f"backend returned invalid JSON: {exc.msg}") from exc
        if not isinstance(body, dict) or "text" not in body:
            raise BackendError("backend response missing 'text' field")
        return body["text"]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class KeywordExtractor:
    """Front end over a backend, with bounded retries.

    Transport failures retry up to `retries` times with exponential backoff
    starting at `backoff` seconds; parse failures (no keywords) never retry.
    """

    def __init__(self, backend, retries: int = 3, backoff: float = 1.0,
                 sleep=time.sleep, now=_utc_now):
        self.backend = backend
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        self._now = now
        self.backend_calls = 0

    def extract(self, item_id: str, image_ref: str | None,
                kind: PromptKind) -> ExtractionRecord:
        raw = self._call_with_retries(item_id, image_ref, kind)
        return ExtractionRecord(item_id=item_id, kind=kind,
                                keywords=parse_keyword_response(raw),
                                backend_name=self.backend.name,
                                retrieved_at=self._now())

    def _call_with_retries(self, item_id, image_ref, kind) -> str:
        delay = self.backoff
        for attempt in range(1, self.retries + 1):
            try:
                self.backend_calls += 1
                return self.backend.complete(item_id, image_ref, kind)
            except BackendError:
                if attempt == self.retries:
                    raise
                self._sleep(delay)
                delay *= 2.0
        raise AssertionError("unreachable")


@dataclass
class BatchSummary:
    ok: int = 0
    cached: int = 0
    skipped: int = 0
    skipped_pairs: list[tuple[str, str]] = field(default_factory=list)
    torn_line: str | None = None  # unterminated last line cut off on resume

    def to_dict(self) -> dict:
        return {"ok": self.ok, "cached": self.cached, "skipped": self.skipped,
                "skipped_pairs": [list(p) for p in self.skipped_pairs],
                "torn_line": self.torn_line}


def attribute_problem(obj: dict, kinded: bool = True) -> str | None:
    """What makes an attribute record unusable, or None: it needs a string
    item_id, a list of string keywords and, when `kinded` (an extraction
    record, not a text attribute), a kind among PromptKind's values."""
    fields = ("item_id", "kind", "keywords") if kinded else ("item_id", "keywords")
    if not obj.keys() >= set(fields):
        return "missing " + ", ".join(f for f in fields if f not in obj)
    if not isinstance(obj["item_id"], str):
        return "item_id must be a string"
    keywords = obj["keywords"]
    if not (isinstance(keywords, list)
            and all(isinstance(kw, str) for kw in keywords)):
        return "keywords must be a list of strings"
    if kinded and obj["kind"] not in _KIND_VALUES:  # a tuple: a kind may be a list
        return f"unknown kind {obj['kind']!r}"
    return None


def _existing_pairs(out_path) -> tuple[set[tuple[str, str]], str | None]:
    """Pairs already recorded in out_path, and the torn last line, if any.

    A record is complete only with its newline. A last line without one is
    what a crash mid-write leaves: it is truncated off the file, so the next
    record starts on a line of its own, and its pair is queried again. A
    complete line that fails the record check of --attrs is a DataError,
    and the file is left as it was.
    """
    if not os.path.exists(out_path):
        return set(), None
    with open(out_path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    try:
        text = data[:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{out_path}: not UTF-8 text ({exc.reason})") from None
    # universal newlines, as open_text reads the same file as --attrs
    records = jsonl_records(io.StringIO(text, newline=None), out_path, attribute_problem)
    done = {(obj["item_id"], obj["kind"]) for _, obj in records}
    if end == len(data):
        return done, None
    with open(out_path, "r+b") as fh:
        fh.truncate(end)
    return done, data[end:].decode("utf-8", errors="replace")


# Pairs per pool task. Each task is one hand-off between threads, so a
# chunk amortises it over several records; chunks shrink for small batches
# so that every worker still gets about four.
CHUNK_PAIRS = 16


def run_extraction_batch(items: Sequence[tuple[str, str | None]],
                         kinds: Iterable[PromptKind], backend,
                         concurrency_limit: int, out_path,
                         extractor: KeywordExtractor | None = None) -> BatchSummary:
    """Extract every (item, kind) pair, appending JSONL records to out_path.

    Resumable: pairs already present in the output are counted as cached and
    not re-queried; a torn last line is cut off, reported and re-queried. A
    pair listed more than once is queried once, at its first occurrence, and
    each repeat is counted as cached. Items whose response yields no keywords
    are skipped and reported.

    Each pool task runs a contiguous chunk of at most CHUNK_PAIRS pending
    pairs, so at most `concurrency_limit` backend requests are in flight.
    Records are written in input order, flushed after each chunk. Workers
    run ahead of the oldest unwritten chunk by at most 2 * concurrency_limit
    chunks, so after a crash up to 2 * concurrency_limit * CHUNK_PAIRS pairs
    that were finished but not yet written are queried again on resume. When
    a request fails, the records finished before it are written, the other
    workers stop after their current pair, and the error is raised.
    """
    from concurrent.futures import ThreadPoolExecutor

    if concurrency_limit < 1:
        raise ConfigError("concurrency_limit must be >= 1")
    extractor = extractor or KeywordExtractor(backend)
    kinds = list(kinds)
    done, torn = _existing_pairs(out_path)
    summary = BatchSummary(torn_line=torn)

    pending: list[tuple[str, str | None, PromptKind]] = []
    for item_id, image_ref in items:
        for kind in kinds:
            pair = (item_id, kind.value)
            if pair in done:
                summary.cached += 1
            else:
                done.add(pair)
                pending.append((item_id, image_ref, kind))

    size = max(1, min(CHUNK_PAIRS, len(pending) // (4 * concurrency_limit)))
    stop = threading.Event()

    def _run(chunk):
        """(JSONL lines, skipped pairs, error) for the pairs of one chunk."""
        lines: list[str] = []
        skipped: list[tuple[str, str]] = []
        for item_id, image_ref, kind in chunk:
            if stop.is_set():
                break
            try:
                lines.append(extractor.extract(item_id, image_ref, kind).to_json() + "\n")
            except NoKeywordsError:
                skipped.append((item_id, kind.value))
            except Exception as exc:
                stop.set()
                return lines, skipped, exc
        return lines, skipped, None

    def _write(future):
        lines, skipped, error = future.result()
        out.writelines(lines)
        out.flush()
        summary.ok += len(lines)
        summary.skipped += len(skipped)
        summary.skipped_pairs.extend(skipped)
        if error is not None:
            raise error

    # a window of 2 * concurrency_limit chunks: workers need not wait while
    # the oldest chunk runs, and what a crash loses stays bounded
    window: deque = deque()
    with open(out_path, "a", encoding="utf-8") as out, \
            ThreadPoolExecutor(max_workers=concurrency_limit) as pool:
        try:
            for start in range(0, len(pending), size):
                window.append(pool.submit(_run, pending[start:start + size]))
                if len(window) == 2 * concurrency_limit:
                    _write(window.popleft())
            while window:
                _write(window.popleft())
        finally:
            stop.set()
    return summary
