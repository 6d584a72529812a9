import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agrec.errors import (BackendError, ConfigError, DataError,
                          NoKeywordsError)
from agrec.extractor import (CHUNK_PAIRS, FixtureBackend, HttpBackend,
                             KeywordExtractor,
                             PROMPT_AESTHETIC_ATTRIBUTES,
                             PROMPT_ITEM_ATTRIBUTES, PromptKind,
                             parse_keyword_response, render_prompt,
                             run_extraction_batch)


class TestPrompts:
    def test_item_prompt_opening(self):
        assert render_prompt(PromptKind.ITEM_ATTRIBUTES).startswith(
            "Describe the item in the image using keywords.")

    def test_aesthetic_prompt_opening(self):
        assert render_prompt(PromptKind.AESTHETIC_ATTRIBUTES).startswith(
            "Describe the image aesthetics independent of the item using keywords.")

    def test_idempotent_bytes(self):
        for kind in PromptKind:
            assert render_prompt(kind).encode() == render_prompt(kind).encode()

    def test_aesthetic_prompt_has_no_trailing_period(self):
        assert PROMPT_AESTHETIC_ATTRIBUTES.endswith("keywordn")
        assert PROMPT_ITEM_ATTRIBUTES.endswith("keywordn.")


class TestParseKeywordResponse:
    def test_stated_normalization(self):
        assert parse_keyword_response("Denim, Blue, casual.") == ["denim", "blue", "casual"]

    def test_dedup_and_trim(self):
        assert parse_keyword_response("soft,\nwarm ,soft") == ["soft", "warm"]

    def test_empty_errors(self):
        with pytest.raises(NoKeywordsError, match="no keywords extracted"):
            parse_keyword_response("")

    def test_degenerate_response(self):
        with pytest.raises(NoKeywordsError):
            parse_keyword_response("…")

    def test_control_characters_removed(self):
        assert parse_keyword_response("re\x07d, blue") == ["re d", "blue"]

    @given(st.lists(st.from_regex(r"[a-z][a-z ]{0,6}[a-z]", fullmatch=True),
                    min_size=1, max_size=8, unique=True))
    def test_round_trip_on_normalized_lists(self, keywords):
        keywords = list(dict.fromkeys(" ".join(k.split()) for k in keywords))
        assert parse_keyword_response(", ".join(keywords)) == keywords

    @given(st.text(st.characters() | st.sampled_from(",.\n\t\x07   "),
                   max_size=40))
    def test_same_keywords_as_per_character_rebuild(self, raw):
        """Printable chunks are used as they are; every chunk rebuilt with
        each non-printable character as a space gives the same keywords."""
        seen, want = set(), []
        for chunk in raw.replace("\n", ",").split(","):
            kw = "".join(ch if ch.isprintable() else " " for ch in chunk)
            kw = " ".join(kw.strip().rstrip(".").strip().lower().split())
            if kw and any(ch.isalnum() for ch in kw) and kw not in seen:
                seen.add(kw)
                want.append(kw)
        if not want:
            with pytest.raises(NoKeywordsError):
                parse_keyword_response(raw)
        else:
            assert parse_keyword_response(raw) == want


def make_fixture(n=3):
    return FixtureBackend({
        f"i{j}": {"item": f"red{j}, cotton", "aesthetic": f"bright{j}, airy"}
        for j in range(n)})


class TestExtract:
    def test_fixture_echo(self):
        ex = KeywordExtractor(make_fixture())
        record = ex.extract("i1", None, PromptKind.ITEM_ATTRIBUTES)
        assert record.keywords == ["red1", "cotton"]
        assert record.backend_name == "fixture"

    def test_backend_receives_the_prompt_kind(self):
        kinds = []

        class Recording(FixtureBackend):
            def complete(self, item_id, image_ref, kind):
                kinds.append(kind)
                return super().complete(item_id, image_ref, kind)

        ex = KeywordExtractor(Recording(make_fixture().responses))
        for kind in PromptKind:
            ex.extract("i1", None, kind)
        assert kinds == list(PromptKind)
        backend = make_fixture()
        assert backend.complete("i2", None, PromptKind.AESTHETIC_ATTRIBUTES) == "bright2, airy"
        with pytest.raises(BackendError, match="no aesthetic response for item 'i9'"):
            backend.complete("i9", None, PromptKind.AESTHETIC_ATTRIBUTES)

    def test_retries_then_succeeds(self):
        calls = []

        class Flaky:
            name = "flaky"

            def complete(self, item_id, image_ref, kind):
                calls.append(item_id)
                if len(calls) < 3:
                    raise BackendError("transient")
                return "red, blue"

        sleeps = []
        ex = KeywordExtractor(Flaky(), retries=3, backoff=1.0, sleep=sleeps.append)
        record = ex.extract("i1", None, PromptKind.ITEM_ATTRIBUTES)
        assert record.keywords == ["red", "blue"]
        assert sleeps == [1.0, 2.0]

    def test_exhausted_retries_surface(self):
        class Dead:
            name = "dead"

            def complete(self, item_id, image_ref, kind):
                raise BackendError("down")

        ex = KeywordExtractor(Dead(), retries=3, sleep=lambda _: None)
        with pytest.raises(BackendError, match="down"):
            ex.extract("i1", None, PromptKind.ITEM_ATTRIBUTES)
        assert ex.backend_calls == 3

    def test_parse_error_not_retried(self):
        calls = []

        class Empty:
            name = "empty"

            def complete(self, item_id, image_ref, kind):
                calls.append(1)
                return "..."

        ex = KeywordExtractor(Empty(), sleep=lambda _: None)
        with pytest.raises(NoKeywordsError):
            ex.extract("i1", None, PromptKind.ITEM_ATTRIBUTES)
        assert len(calls) == 1


class TestBatch:
    KINDS = [PromptKind.ITEM_ATTRIBUTES, PromptKind.AESTHETIC_ATTRIBUTES]

    def test_fresh_run(self, tmp_path):
        out = tmp_path / "attrs.jsonl"
        summary = run_extraction_batch([(f"i{j}", None) for j in range(3)],
                                       self.KINDS, make_fixture(), 2, out)
        assert (summary.ok, summary.cached, summary.skipped) == (6, 0, 0)
        lines = [json.loads(x) for x in out.read_text().splitlines()]
        assert len(lines) == 6
        assert {(l["item_id"], l["kind"]) for l in lines} == {
            (f"i{j}", kind) for j in range(3) for kind in ("item", "aesthetic")}

    def test_rerun_is_idempotent(self, tmp_path):
        out = tmp_path / "attrs.jsonl"
        run_extraction_batch([(f"i{j}", None) for j in range(3)],
                             self.KINDS, make_fixture(), 2, out)
        before = out.read_text()
        summary = run_extraction_batch([(f"i{j}", None) for j in range(3)],
                                       self.KINDS, make_fixture(), 2, out)
        assert (summary.ok, summary.cached, summary.skipped) == (0, 6, 0)
        assert out.read_text() == before

    def test_one_failing_pair(self, tmp_path):
        backend = make_fixture()
        backend.responses["i1"]["aesthetic"] = "…"  # parses to nothing
        out = tmp_path / "attrs.jsonl"
        summary = run_extraction_batch([(f"i{j}", None) for j in range(3)],
                                       self.KINDS, backend, 1, out)
        assert (summary.ok, summary.skipped) == (5, 1)
        assert summary.skipped_pairs == [("i1", "aesthetic")]

    def test_deterministic_output(self, tmp_path):
        items = [(f"i{j}", None) for j in range(3)]
        texts = []
        for run in range(2):
            out = tmp_path / f"attrs{run}.jsonl"
            ex = KeywordExtractor(make_fixture(), now=lambda: "2026-01-01T00:00:00+00:00")
            run_extraction_batch(items, self.KINDS, ex.backend, 3, out, extractor=ex)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_resume_cuts_torn_last_line(self, tmp_path):
        out = tmp_path / "attrs.jsonl"
        items = [(f"i{j}", None) for j in range(3)]
        run_extraction_batch(items[:2], self.KINDS, make_fixture(), 1, out)
        whole = out.read_bytes()
        lines = whole.splitlines(keepends=True)
        # a crash mid-write: the fourth record lost its tail and newline
        out.write_bytes(b"".join(lines[:3]) + lines[3][:20])
        summary = run_extraction_batch(items, self.KINDS, make_fixture(), 1, out)
        assert (summary.ok, summary.cached, summary.skipped) == (3, 3, 0)
        assert summary.torn_line == lines[3][:20].decode()
        assert summary.to_dict()["torn_line"] == summary.torn_line
        records = [json.loads(x) for x in out.read_text().splitlines()]
        assert {(r["item_id"], r["kind"]) for r in records} == {
            (item, kind) for item, _ in items for kind in ("item", "aesthetic")}
        assert len(records) == 6

    def test_torn_line_cut_inside_a_character_is_still_cut(self, tmp_path):
        out = tmp_path / "attrs.jsonl"
        items = [(f"i{j}", None) for j in range(2)]
        run_extraction_batch(items[:1], self.KINDS, make_fixture(), 1, out)
        whole = out.read_bytes()
        # the next record, not ASCII-escaped, torn between the two bytes of ü
        record = '{"item_id": "i1", "kind": "item", "keywords": ["grün"]}'
        torn = record.encode()[:record.encode().index("ü".encode()) + 1]
        out.write_bytes(whole + torn)
        summary = run_extraction_batch(items, self.KINDS, make_fixture(), 1, out)
        assert (summary.ok, summary.cached) == (2, 2)
        assert summary.torn_line == record[:record.index("ü")] + "\ufffd"
        assert out.read_bytes().startswith(whole)
        assert written_pairs(out) == [(item, kind.value) for item, _ in items
                                      for kind in self.KINDS]

    def test_corrupt_line_before_the_last_is_refused(self, tmp_path):
        out = tmp_path / "attrs.jsonl"
        items = [(f"i{j}", None) for j in range(2)]
        run_extraction_batch(items, self.KINDS, make_fixture(), 1, out)
        lines = out.read_bytes().splitlines(keepends=True)
        # and a torn tail, which a refused file keeps too
        out.write_bytes(lines[0] + b'{"item_id": "i0"\n' + b"".join(lines[1:]) + lines[0][:20])
        before = out.read_bytes()
        with pytest.raises(DataError) as excinfo:
            run_extraction_batch(items, self.KINDS, make_fixture(), 1, out)
        assert str(excinfo.value) == f"{out} line 2: invalid JSON (Expecting ',' delimiter)"
        assert out.read_bytes() == before

    def test_missing_fixture_entry_aborts(self, tmp_path):
        out = tmp_path / "attrs.jsonl"
        with pytest.raises(BackendError, match="no .* response"):
            run_extraction_batch([("stranger", None)], self.KINDS,
                                 make_fixture(), 1, out,
                                 extractor=KeywordExtractor(make_fixture(),
                                                            sleep=lambda _: None))


    @pytest.mark.parametrize("threads", [1, 3])
    def test_repeated_item_queried_once(self, tmp_path, threads):
        backend = CountingBackend()
        items = [("a", None), ("b", None), ("a", "other.jpg")]
        out = tmp_path / "attrs.jsonl"
        summary = run_extraction_batch(items, self.KINDS, backend, threads, out)
        assert (summary.ok, summary.cached, summary.skipped) == (4, 2, 0)
        assert backend.calls == 4
        assert written_pairs(out) == [("a", "item"), ("a", "aesthetic"),
                                      ("b", "item"), ("b", "aesthetic")]


class CountingBackend:
    """Counts calls and the peak of concurrent `complete` calls; each call
    sleeps `delay(item_id)` seconds."""

    name = "counting"

    def __init__(self, delay=lambda item_id: 0.0, fail=()):
        self.delay = delay
        self.fail = set(fail)
        self.lock = threading.Lock()
        self.calls = self.in_flight = self.peak = 0

    def complete(self, item_id, image_ref, kind):
        with self.lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay(item_id))
            if item_id in self.fail:
                raise BackendError(f"{item_id} failed")
            return f"{item_id}, wool"
        finally:
            with self.lock:
                self.in_flight -= 1


def written_pairs(out):
    return [(r["item_id"], r["kind"])
            for r in map(json.loads, out.read_text().splitlines())]


class TestDispatch:
    """Chunked dispatch: bounded concurrency, input order, stop on error."""

    KINDS = [PromptKind.ITEM_ATTRIBUTES, PromptKind.AESTHETIC_ATTRIBUTES]

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_in_flight_peak_at_most_limit(self, tmp_path, threads):
        backend = CountingBackend(delay=lambda _: 0.002)
        items = [(f"i{j}", None) for j in range(48)]
        summary = run_extraction_batch(items, self.KINDS, backend, threads,
                                       tmp_path / "attrs.jsonl")
        assert summary.ok == backend.calls == 96
        assert min(threads, 2) <= backend.peak <= threads

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("count", [5, CHUNK_PAIRS, 4 * CHUNK_PAIRS,
                                       5 * CHUNK_PAIRS + 3])
    def test_input_order_under_random_delays(self, tmp_path, threads, count):
        delays = random.Random(count * 10 + threads)
        table = {f"i{j}": delays.uniform(0, 0.003) for j in range(count)}
        backend = CountingBackend(delay=table.__getitem__)
        items = [(f"i{j}", None) for j in range(count)]
        out = tmp_path / "attrs.jsonl"
        summary = run_extraction_batch(items, self.KINDS[:1], backend, threads, out)
        assert (summary.ok, summary.cached, summary.skipped) == (count, 0, 0)
        assert written_pairs(out) == [(item, "item") for item, _ in items]

    def test_stress_with_more_workers_than_cores(self, tmp_path):
        backend = CountingBackend()
        items = [(f"i{j}", None) for j in range(200)]
        out = tmp_path / "attrs.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            summary = run_extraction_batch(items, self.KINDS, backend, 4, out)
        finally:
            sys.setswitchinterval(interval)
        assert summary.ok == backend.calls == 400
        assert written_pairs(out) == [(item, kind.value) for item, _ in items
                                      for kind in self.KINDS]

    def test_finished_unwritten_pairs_are_bounded(self, tmp_path):
        # while the first pair is slow, the other worker runs ahead of the
        # writer by at most 2 * threads chunks
        class SlowFirst(CountingBackend):
            def complete(self, item_id, image_ref, kind):
                text = super().complete(item_id, image_ref, kind)
                if item_id == "i0":
                    self.calls_when_first_done = self.calls
                return text

        backend = SlowFirst(delay=lambda item: 0.2 if item == "i0" else 0.0)
        items = [(f"i{j}", None) for j in range(16 * CHUNK_PAIRS)]
        summary = run_extraction_batch(items, self.KINDS[:1], backend, 2,
                                       tmp_path / "attrs.jsonl")
        assert summary.ok == len(items)
        assert backend.calls_when_first_done <= 2 * 2 * CHUNK_PAIRS

    def test_resumed_batch_keeps_input_order(self, tmp_path):
        items = [(f"i{j}", None) for j in range(2 * CHUNK_PAIRS + 5)]
        out = tmp_path / "attrs.jsonl"
        run_extraction_batch(items[:7], self.KINDS, CountingBackend(), 3, out)
        summary = run_extraction_batch(items, self.KINDS, CountingBackend(), 3, out)
        assert (summary.ok, summary.cached) == (2 * len(items) - 14, 14)
        assert written_pairs(out) == [(item, kind.value) for item, _ in items
                                      for kind in self.KINDS]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_failure_writes_finished_prefix_and_stops(self, tmp_path, threads):
        items = [(f"i{j}", None) for j in range(6 * CHUNK_PAIRS)]
        failing = 2 * CHUNK_PAIRS + 1
        backend = CountingBackend(delay=lambda _: 0.001, fail=[f"i{failing}"])
        out = tmp_path / "attrs.jsonl"
        with pytest.raises(BackendError, match=f"i{failing} failed"):
            run_extraction_batch(items, self.KINDS[:1], backend, threads, out,
                                 extractor=KeywordExtractor(backend, retries=1))
        written = written_pairs(out)
        expected = [(item, "item") for item, _ in items[:failing]]
        if threads == 1:
            assert written == expected
        else:
            # finished pairs before the failure, in input order; the other
            # workers stop after their current pair
            assert written == [p for p in expected if p in set(written)]
        resumed = run_extraction_batch(items, self.KINDS[:1], CountingBackend(),
                                       threads, out)
        assert resumed.ok + resumed.cached == len(items)
        assert sorted(written_pairs(out)) == sorted((i, "item") for i, _ in items)

    def test_failure_stops_the_other_workers(self, tmp_path):
        # the first chunk fails at once; the second worker, a full chunk
        # of slow pairs ahead, stops after its current pair
        items = [(f"i{j}", None) for j in range(8 * CHUNK_PAIRS)]
        backend = CountingBackend(delay=lambda item: 0 if item == "i0" else 0.005,
                                  fail=["i0"])
        with pytest.raises(BackendError, match="i0 failed"):
            run_extraction_batch(items, self.KINDS[:1], backend, 2,
                                 tmp_path / "attrs.jsonl",
                                 extractor=KeywordExtractor(backend, retries=1))
        assert backend.calls <= 4


class _Handler(BaseHTTPRequestHandler):
    prompts: list[str] = []  # every prompt received, in order

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.prompts.append(body["prompt"])
        token = self.headers.get("Authorization")
        if token not in ("Bearer sesame", "Bearer deep", "Bearer number"):
            self.send_response(403)
            self.end_headers()
            return
        if token == "Bearer deep":
            payload = b"[" * 100_000
        elif token == "Bearer number":
            payload = b"5"
        else:
            text = "bright, airy" if "aesthetics" in body["prompt"] else "Red, Cotton."
            payload = json.dumps({"text": text}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def vlm_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/describe"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_missing_auth_env(self, monkeypatch):
        monkeypatch.delenv("AGREC_VLM_TOKEN", raising=False)
        with pytest.raises(ConfigError, match="AGREC_VLM_TOKEN"):
            HttpBackend("http://example.invalid")

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_unusable_timeout_refused(self, monkeypatch, timeout):
        # socket.settimeout would raise a raw ValueError at the first request
        monkeypatch.setenv("AGREC_VLM_TOKEN", "sesame")
        with pytest.raises(ConfigError, match="timeout must be finite and > 0"):
            HttpBackend("http://127.0.0.1:9/", timeout=timeout)

    def test_end_to_end(self, vlm_server, monkeypatch):
        monkeypatch.setenv("AGREC_VLM_TOKEN", "sesame")
        backend = HttpBackend(vlm_server, timeout=5.0)
        ex = KeywordExtractor(backend, sleep=lambda _: None)
        _Handler.prompts.clear()
        record = ex.extract("i1", "images/i1.jpg", PromptKind.ITEM_ATTRIBUTES)
        assert record.keywords == ["red", "cotton"]
        record = ex.extract("i1", "images/i1.jpg", PromptKind.AESTHETIC_ATTRIBUTES)
        assert record.keywords == ["bright", "airy"]
        # the prompt text on the wire, byte for byte
        assert _Handler.prompts == [PROMPT_ITEM_ATTRIBUTES, PROMPT_AESTHETIC_ATTRIBUTES]

    def test_bad_token_is_backend_error(self, vlm_server, monkeypatch):
        monkeypatch.setenv("AGREC_VLM_TOKEN", "wrong")
        backend = HttpBackend(vlm_server, timeout=5.0)
        ex = KeywordExtractor(backend, retries=2, sleep=lambda _: None)
        with pytest.raises(BackendError):
            ex.extract("i1", None, PromptKind.ITEM_ATTRIBUTES)

    @pytest.mark.parametrize("token,message", [
        ("deep", "invalid JSON: nested too deeply"),
        ("number", "missing 'text'"),
    ])
    def test_unusable_response_is_backend_error(self, vlm_server, monkeypatch,
                                                token, message):
        monkeypatch.setenv("AGREC_VLM_TOKEN", token)
        with pytest.raises(BackendError, match=message):
            HttpBackend(vlm_server, timeout=5.0).complete(
                "i1", None, PromptKind.ITEM_ATTRIBUTES)
