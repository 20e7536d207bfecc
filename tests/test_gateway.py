"""The HTTP gateway against clients that send what it cannot serve.

Each test hosts an in-process :class:`~repro.serve.gateway.Gateway` on a
loopback port and talks raw HTTP/1.1 to it, so framing is exactly what
the test writes.  A bad request must get a 400 and leave the server up:
a later completion still streams, ``/metrics`` keeps its accounting, and
:meth:`Gateway.stop` returns cleanly.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import ServingSession, UnservableRequestError
from repro.config import ClusterConfig, InstanceConfig
from repro.memory.blocks import OutOfMemoryError
from repro.serve import Gateway, HeaderOracle, WallClockPacer
from repro.workload.request import Request

HOST = "127.0.0.1"
#: Generous wall bound on any one exchange: a dead pacing loop shows up
#: as a timeout instead of a hung suite.
EXCHANGE_TIMEOUT_S = 20.0


def _session(kv_capacity_tokens: int = 60_000) -> ServingSession:
    return ServingSession(
        policy="pascal",
        config=ClusterConfig(
            n_instances=2,
            instance=InstanceConfig(kv_capacity_tokens=kv_capacity_tokens),
        ),
    )


async def _exchange(port: int, raw: bytes) -> tuple[str, bytes]:
    """Send ``raw``; return the status line and everything after the
    head (empty when the server closed without answering)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(raw)
    await writer.drain()
    try:
        data = await reader.read()
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode("latin-1"), body


def _completion(headers: dict[str, str], *, stream: bool = True) -> bytes:
    body = json.dumps(
        {
            "model": "pascal-sim",
            "stream": stream,
            "messages": [{"role": "user", "content": "hi"}],
        }
    ).encode()
    lines = ["POST /v1/chat/completions HTTP/1.1", f"Host: {HOST}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    lines += [f"Content-Length: {len(body)}", "Connection: close", "", ""]
    return "\r\n".join(lines).encode() + body


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()


def _serve(session: ServingSession, client) -> None:
    """Run ``client(gateway, port)`` against a live gateway, then stop
    it; the stop must return cleanly."""

    async def main():
        pacer = WallClockPacer(session, time_scale=1000.0, max_poll_s=0.02)
        gateway = Gateway(pacer, HeaderOracle(), host=HOST, port=0)
        await gateway.start()
        try:
            await asyncio.wait_for(
                client(gateway, gateway.bound_port), EXCHANGE_TIMEOUT_S
            )
        finally:
            await asyncio.wait_for(gateway.stop(), EXCHANGE_TIMEOUT_S)

    asyncio.run(main())


async def _stream_to_done(port: int, answer: int) -> None:
    status, body = await _exchange(
        port,
        _completion(
            {
                "x-pascal-reasoning-tokens": "24",
                "x-pascal-answer-tokens": str(answer),
            }
        ),
    )
    assert status == "HTTP/1.1 200 OK", status
    assert body.count(b'"content"') == answer
    assert body.rstrip().endswith(b"data: [DONE]")


async def _metrics(port: int) -> dict:
    status, body = await _exchange(port, _get("/metrics"))
    assert status == "HTTP/1.1 200 OK", status
    return json.loads(body)


class TestFraming:
    @pytest.mark.parametrize("length", ["-5", "-1", "five"])
    def test_bad_content_length_gets_400(self, length):
        session = _session()

        async def client(gateway, port):
            raw = (
                "POST /v1/chat/completions HTTP/1.1\r\n"
                f"Host: {HOST}\r\nContent-Length: {length}\r\n\r\n"
            ).encode()
            status, body = await _exchange(port, raw)
            assert status == "HTTP/1.1 400 Bad Request", status
            assert b"bad content-length" in body
            await _stream_to_done(port, answer=4)

        _serve(session, client)
        assert session.n_submitted == 1


class TestUnservableRequests:
    @pytest.mark.parametrize(
        "headers, limit",
        [
            ({"x-pascal-prompt-tokens": "9000"}, "max_prefill_tokens"),
            ({"x-pascal-answer-tokens": "2000000"}, "GPU KV capacity"),
        ],
    )
    def test_gets_400_and_the_server_keeps_serving(self, headers, limit):
        session = _session()

        async def client(gateway, port):
            status, body = await _exchange(port, _completion(headers))
            assert status == "HTTP/1.1 400 Bad Request", status
            assert limit in json.loads(body)["error"]["message"]
            # The pacing loop survived: a later completion streams.
            await _stream_to_done(port, answer=6)
            metrics = await _metrics(port)
            assert metrics["submitted"] == 1, metrics
            assert metrics["completed"] == 1, metrics

        _serve(session, client)
        assert session.n_submitted == session.n_completed == 1


def _request(rid: int, prompt: int, reasoning: int, answer: int) -> Request:
    return Request(
        rid=rid, prompt_len=prompt, reasoning_len=reasoning, answer_len=answer
    )


class TestSubmitServability:
    """Both sides of each limit.  A refused request is not submitted;
    the boundary request on the servable side runs to completion."""

    def test_prompt_at_the_prefill_budget(self):
        session = _session(kv_capacity_tokens=16_384)
        budget = session.config.instance.scheduler.max_prefill_tokens
        with pytest.raises(UnservableRequestError, match="max_prefill_tokens"):
            session.submit(_request(0, budget + 1, 2, 2))
        session.submit(_request(1, budget, 2, 2))
        session.drain()
        assert session.n_submitted == session.n_completed == 1

    def test_lifetime_footprint_at_the_gpu_pool(self):
        # 1000 tokens hold 62 whole 16-token blocks: 992 tokens.
        session = _session(kv_capacity_tokens=1000)
        with pytest.raises(UnservableRequestError, match="GPU KV capacity"):
            session.submit(_request(0, 100, 500, 393))  # 993 tokens
        session.submit(_request(1, 100, 500, 392))  # 992 tokens
        session.drain()
        assert session.n_submitted == session.n_completed == 1

    def test_is_a_value_error_naming_the_request(self):
        session = _session(kv_capacity_tokens=1000)
        with pytest.raises(ValueError, match="request 7: .* 993 tokens"):
            session.submit(_request(7, 100, 500, 393))

    def test_attached_arrivals_keep_failing_loudly(self):
        session = _session(kv_capacity_tokens=1000)
        session.attach([_request(0, 100, 500, 393)])
        with pytest.raises(OutOfMemoryError, match="single-request"):
            session.drain()
