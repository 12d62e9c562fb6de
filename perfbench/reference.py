"""The correctness gate: served answers against a cache-free reference.

For the HTTP workloads every distinct ``(view, keywords)`` the server
answered is replayed through an in-process ``SearchAPI`` over an
``enable_cache=False`` engine built from the same seeded corpus (for
sharded-corpus: one single engine over the same documents), and the
deterministic ``results`` and ``page`` sections of every served page
must equal the reference's.  edit-mix compares outcomes directly
(:func:`outcome_digest`), against a cache-free engine on the same
database generation.
"""

from __future__ import annotations

import asyncio
import json

from repro.serving import SearchAPI, SearchServer, ServerConfig
from repro.xmlmodel.serializer import serialize

from loadgen import search_body
from program import Program


async def _asgi_post(app, path: str, body: bytes) -> tuple[int, bytes]:
    scope = {
        "type": "http",
        "asgi": {"version": "3.0", "spec_version": "2.3"},
        "http_version": "1.1",
        "method": "POST",
        "path": path,
        "raw_path": path.encode(),
        "query_string": b"",
        "headers": [(b"content-type", b"application/json")],
        "scheme": "http",
    }
    messages = [
        {"type": "http.request", "body": body, "more_body": False},
        {"type": "http.disconnect"},
    ]
    status: list[int] = []
    chunks: list[bytes] = []

    async def receive():
        return messages.pop(0) if len(messages) > 1 else messages[0]

    async def send(message):
        if message["type"] == "http.response.start":
            status.append(message["status"])
        elif message["type"] == "http.response.body":
            chunks.append(message.get("body", b""))

    await app(scope, receive, send)
    return status[0], b"".join(chunks)


def deterministic_sections(payload: bytes):
    page = json.loads(payload)
    return page.get("results"), page.get("page")


def reference_pages(reference: Program, keys) -> dict:
    """``(view, keywords)`` -> the reference's ``(results, page)``, or
    the HTTP status when it did not answer 200."""

    async def run() -> dict:
        server = SearchServer(reference.engine, ServerConfig(workers=1))
        await server.start()
        try:
            app = SearchAPI(server)
            expected = {}
            for key in keys:
                status, payload = await _asgi_post(app, "/search", search_body(*key))
                expected[key] = (
                    deterministic_sections(payload) if status == 200 else status
                )
            return expected
        finally:
            await server.stop()

    return asyncio.run(run())


def check_samples(reference: Program, samples) -> tuple[int, int]:
    """``(failed, wrong)`` over ``samples``: failed = not answered 200;
    wrong = answered, but not what the reference answers."""
    answered = [sample for sample in samples if sample.ok]
    expected = reference_pages(reference, sorted({s.key for s in answered}))
    wrong = sum(
        1
        for sample in answered
        if deterministic_sections(sample.body) != expected[sample.key]
    )
    return len(samples) - len(answered), wrong


def outcome_digest(outcome) -> tuple:
    """The deterministic part of a ``SearchOutcome``: what edit-mix
    compares between the cached engine and the reference."""
    return (
        outcome.view_size,
        outcome.matching_count,
        tuple(
            (result.rank, result.score, result.scored.index, serialize(result.pruned))
            for result in outcome.results
        ),
    )
