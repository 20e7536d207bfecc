"""The HTTP gateway against clients that send what it cannot serve.

Each test hosts an in-process :class:`~repro.serve.gateway.Gateway` on a
loopback port and talks raw HTTP/1.1 to it, so framing is exactly what
the test writes.  A bad request must get a 400 (a stalled one a 408, a
body framed other than by Content-Length a 501, one connection too many
a 503) and leave the server up: a later completion
still streams, ``/metrics`` keeps its accounting, and
:meth:`Gateway.stop` returns cleanly.  The SSE bytes a stream carries are
checked against a per-chunk ``json.dumps`` reference.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.gateway as gateway_module
from repro.api import RequestHandle, ServingSession, UnservableRequestError
from repro.config import ClusterConfig, InstanceConfig
from repro.memory.blocks import OutOfMemoryError
from repro.serve import Gateway, HeaderOracle, WallClockPacer
from repro.workload.request import Request

HOST = "127.0.0.1"
#: Generous wall bound on any one exchange: a dead pacing loop shows up
#: as a timeout instead of a hung suite.
EXCHANGE_TIMEOUT_S = 20.0
#: Wall bound on the 408/503 answers, far above the patched deadline.
REFUSAL_TIMEOUT_S = 5.0
MAX_POLL_S = 0.02

SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n\r\n"
)


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


def _serve(
    session: ServingSession, client, *, time_scale: float = 1000.0
) -> None:
    """Run ``client(gateway, port)`` against a live gateway, then stop
    it; the stop must return cleanly."""

    async def main():
        pacer = WallClockPacer(
            session, time_scale=time_scale, max_poll_s=MAX_POLL_S
        )
        gateway = Gateway(pacer, HeaderOracle(), host=HOST, port=0)
        await gateway.start()
        try:
            await asyncio.wait_for(
                client(gateway, gateway.bound_port), EXCHANGE_TIMEOUT_S
            )
        finally:
            await asyncio.wait_for(gateway.stop(), EXCHANGE_TIMEOUT_S)

    asyncio.run(main())


def _sse(chunk: dict) -> bytes:
    """The per-chunk reference encoding of one SSE event."""
    return b"data: " + json.dumps(chunk).encode() + b"\n\n"


def _chunk(
    rid: int,
    arrival_t: float,
    model: str,
    delta: dict,
    finish_reason: str | None = None,
) -> dict:
    return {
        "id": f"chatcmpl-sim{rid}",
        "object": "chat.completion.chunk",
        "created": int(arrival_t),
        "model": model,
        "choices": [
            {"index": 0, "delta": delta, "finish_reason": finish_reason}
        ],
    }


def _events(body: bytes) -> list:
    """An SSE body as ``(delta, finish_reason)`` pairs, then ``"[DONE]"``."""
    events: list = []
    for event in body.split(b"\n\n"):
        if not event:
            continue
        assert event.startswith(b"data: "), event
        data = event[len(b"data: "):]
        if data == b"[DONE]":
            events.append("[DONE]")
        else:
            choice = json.loads(data)["choices"][0]
            events.append((choice["delta"], choice["finish_reason"]))
    return events


def _expected_events(answer: int) -> list:
    return (
        [({"role": "assistant"}, None)]
        + [({"content": f"tok{i} "}, None) for i in range(answer)]
        + [({}, "stop"), "[DONE]"]
    )


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
    assert _events(body) == _expected_events(answer)


async def _metrics(port: int) -> dict:
    status, body = await _exchange(port, _get("/metrics"))
    assert status == "HTTP/1.1 200 OK", status
    return json.loads(body)


#: 10 bytes of JSON the gateway would serve as a completion request: a
#: parser that read a bad length as 10 would answer it instead of
#: refusing it.
_TEN_BYTE_BODY = b'{"n": 10} '


def _post(head_lines: list[str], body: bytes) -> bytes:
    """A POST whose head is sent as latin-1, the charset the gateway
    decodes heads with, so each header character is one byte."""
    lines = ["POST /v1/chat/completions HTTP/1.1", f"Host: {HOST}"]
    head = "\r\n".join(lines + head_lines + ["", ""])
    return head.encode("latin-1") + body


def _chunked(body: bytes) -> bytes:
    """``body`` as one chunk plus the last chunk."""
    return f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"


class TestFraming:
    @pytest.mark.parametrize(
        "lengths, message",
        [
            (["-5"], b"bad content-length"),
            (["-1"], b"bad content-length"),
            (["five"], b"bad content-length"),
            # A lenient integer parse reads these as 10.
            (["1_0"], b"bad content-length"),
            (["+10"], b"bad content-length"),
            (["10, 10"], b"bad content-length"),
            (["\u00b9\u00b2"], b"bad content-length"),
            (["2", "10"], b"conflicting content-length"),
            (["10", "010"], b"conflicting content-length"),
        ],
        ids=["-5", "-1", "five", "1_0", "+10", "list", "superscript",
             "2-then-10", "10-then-010"],
    )
    def test_bad_content_length_gets_400(self, lengths, message):
        session = _session()
        raw = _post([f"Content-Length: {n}" for n in lengths], _TEN_BYTE_BODY)

        async def client(gateway, port):
            status, body = await _exchange(port, raw)
            assert status == "HTTP/1.1 400 Bad Request", status
            assert message in body
            await _stream_to_done(port, answer=4)

        _serve(session, client)
        assert session.n_submitted == 1

    def test_repeated_equal_content_length_is_served(self):
        session = _session()
        payload = json.dumps({"stream": True, "messages": []}).encode()
        length = f"Content-Length: {len(payload)}"
        raw = _post(
            [
                "x-pascal-reasoning-tokens: 24",
                "x-pascal-answer-tokens: 3",
                length,
                length,
            ],
            payload,
        )

        async def client(gateway, port):
            status, body = await _exchange(port, raw)
            assert status == "HTTP/1.1 200 OK", status
            assert _events(body) == _expected_events(3)

        _serve(session, client)
        assert session.n_submitted == session.n_completed == 1

    @pytest.mark.parametrize(
        "head_lines",
        [
            ["Transfer-Encoding: chunked"],
            ["Transfer-Encoding: gzip, chunked"],
            ["Transfer-Encoding: chunked", "Content-Length: 45"],
        ],
        ids=["chunked", "gzip-chunked", "with-content-length"],
    )
    def test_transfer_encoding_gets_501(self, head_lines):
        session = _session()
        raw = _post(head_lines, _chunked(b'{"stream": true, "max_tokens": 5}'))

        async def client(gateway, port):
            status, body = await _exchange(port, raw)
            assert status == "HTTP/1.1 501 Not Implemented", status
            assert b"transfer-encoding is not supported" in body
            await _stream_to_done(port, answer=4)

        _serve(session, client)
        assert session.n_submitted == 1

    @pytest.mark.parametrize(
        "raw",
        [
            # The head never ends.
            f"POST /v1/chat/completions HTTP/1.1\r\nHost: {HOST}\r\n",
            # The body stops 7 bytes short.
            "POST /v1/chat/completions HTTP/1.1\r\n"
            f"Host: {HOST}\r\nContent-Length: 10\r\n\r\n{{}} ",
        ],
        ids=["partial-head", "short-body"],
    )
    def test_stalled_request_gets_408(self, monkeypatch, raw):
        monkeypatch.setattr(gateway_module, "_READ_DEADLINE_S", 0.2)
        session = _session()

        async def client(gateway, port):
            # The client keeps its side open: only the deadline ends it.
            status, body = await asyncio.wait_for(
                _exchange(port, raw.encode()), REFUSAL_TIMEOUT_S
            )
            assert status == "HTTP/1.1 408 Request Timeout", status
            assert b"not received within 0.2 s" in body
            await _stream_to_done(port, answer=4)

        _serve(session, client)
        assert session.n_submitted == 1


#: Refusals per case: the unfixed server lost every one it was tried on.
REFUSAL_TRIES = 5
_MiB = 1 << 20


class TestRefusalsWithUnreadBytes:
    """A refusal sent before the request is fully read still reaches the
    client: closing a socket over unread bytes sends a reset, so the
    server half-closes after each refusal."""

    @pytest.mark.parametrize(
        "raw, status, message",
        [
            # 1 MiB of a declared 5 MiB body: past the 4 MiB cap and
            # past the stream reader's pause threshold.
            (
                _post([f"Content-Length: {5 * _MiB}"], b"x" * _MiB),
                "413 Payload Too Large",
                b"body too large",
            ),
            (
                _post(["Content-Length: five"], b"x" * _MiB),
                "400 Bad Request",
                b"bad content-length",
            ),
            (
                _post(["Transfer-Encoding: chunked"], _chunked(b"x" * _MiB)),
                "501 Not Implemented",
                b"transfer-encoding is not supported",
            ),
        ]
        + [
            # Heads over the reader's 64 KiB limit.
            (
                f"GET /v1/models HTTP/1.1\r\nx-filler: {'a' * size}"
                "\r\n\r\n".encode(),
                "431 Request Header Fields Too Large",
                b"headers too large",
            )
            for size in (66_000, 70_000, 200_000)
        ],
        ids=["413", "400", "501", "431-66KB", "431-70KB", "431-200KB"],
    )
    def test_refusal_arrives(self, raw, status, message):
        session = _session()

        async def client(gateway, port):
            for _ in range(REFUSAL_TRIES):
                got, body = await asyncio.wait_for(
                    _exchange(port, raw), REFUSAL_TIMEOUT_S
                )
                assert got == f"HTTP/1.1 {status}", got
                assert message in body
            await _stream_to_done(port, answer=4)

        _serve(session, client)
        assert session.n_submitted == 1


class TestShutdownWithAStreamOpen:
    """Since Python 3.12.1 ``Server.wait_closed`` waits for every open
    connection, so the gateway must abort its streams before it waits:
    an open stream never ends by itself once pacing has stopped."""

    async def _open_stream(self, port: int):
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(
            _completion(
                {
                    "x-pascal-reasoning-tokens": "4",
                    "x-pascal-answer-tokens": "5000",
                }
            )
        )
        head = await reader.readuntil(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK"), head
        return reader, writer

    def _run(self, body) -> ServingSession:
        session = _session()

        async def main():
            # Real time: the 5000-token answer outlasts the test.
            pacer = WallClockPacer(
                session, time_scale=1.0, max_poll_s=MAX_POLL_S
            )
            gateway = Gateway(pacer, HeaderOracle(), host=HOST, port=0)
            await gateway.start()
            reader, writer = await self._open_stream(gateway.bound_port)
            try:
                await body(gateway, pacer)
                # The aborted stream ends for the client too.
                await asyncio.wait_for(reader.read(), REFUSAL_TIMEOUT_S)
            finally:
                writer.close()

        asyncio.run(main())
        return session

    def test_stop_returns(self):
        async def body(gateway, pacer):
            await asyncio.wait_for(gateway.stop(), REFUSAL_TIMEOUT_S)

        session = self._run(body)
        assert session.n_submitted == 1 and session.n_completed == 0

    def test_aborted_stream_logs_no_callback_error(self):
        # On Python 3.11.7 and 3.12.1 the callback ``start_server`` adds
        # to each handler task calls ``task.exception()``, which raises
        # on a cancelled task: stop() must let the handler finish.
        errors = []

        async def body(gateway, pacer):
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            await asyncio.wait_for(gateway.stop(), REFUSAL_TIMEOUT_S)
            for _ in range(3):
                await asyncio.sleep(0)  # let the done-callbacks run

        self._run(body)
        assert errors == []

    def test_pacing_failure_ends_the_server(self):
        async def body(gateway, pacer):
            port = gateway.bound_port

            def broken_poll():
                raise RuntimeError("pacing failed")

            pacer.poll = broken_poll  # the loop polls within MAX_POLL_S
            with pytest.raises(RuntimeError, match="pacing failed"):
                await asyncio.wait_for(
                    gateway.serve_until(asyncio.Event()), REFUSAL_TIMEOUT_S
                )
            with pytest.raises(OSError):
                await asyncio.open_connection(HOST, port)

        self._run(body)


class TestConnectionCap:
    def test_connection_over_the_cap_gets_503_unread(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "_MAX_CONNECTIONS", 1)
        session = _session()

        async def client(gateway, port):
            held_reader, held_writer = await asyncio.open_connection(
                HOST, port
            )
            # Sent in full before the refusal: the 503 must still arrive.
            status, body = await asyncio.wait_for(
                _exchange(port, _completion({})), REFUSAL_TIMEOUT_S
            )
            assert status == "HTTP/1.1 503 Service Unavailable", status
            assert b"too many open connections" in body
            # Hang up the held connection; the server's close reaching us
            # means it has released its slot, so a completion streams.
            held_writer.write_eof()
            assert await held_reader.read() == b""
            held_writer.close()
            await _stream_to_done(port, answer=4)

        _serve(session, client)
        assert session.n_submitted == session.n_completed == 1


class _RecordingWriter:
    """Stands in for a stream's ``StreamWriter``; keeps every write."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        pass


#: Model-name pieces the frame must survive: JSON escapes, non-ASCII
#: text and the slot text itself.
_MODEL_PARTS = st.one_of(
    st.sampled_from(
        ['"', "\\", "\u00e9", "\u96ea", "\u2028", "\x00"]
        + [gateway_module._TOKEN_SLOT]
    ),
    st.text(max_size=6),
)


class TestStreamFrames:
    """Each stream encodes its content chunk once and splices token text
    into it; the bytes must stay those of one ``json.dumps`` per chunk."""

    @settings(max_examples=200, deadline=None)
    @given(
        rid=st.integers(0, 2**63),
        arrival_t=st.floats(0.0, 1e12),
        index=st.integers(0, 10**6),
        model=st.lists(_MODEL_PARTS, max_size=6).map("".join),
    )
    def test_spliced_chunk_equals_per_chunk_encode(
        self, rid, arrival_t, index, model
    ):
        gateway = Gateway(
            WallClockPacer(_session()), HeaderOracle(), model_name=model
        )
        request = _request(rid, 1, 0, 1)
        request.arrival_t = arrival_t
        before, after = gateway._content_frame(f"chatcmpl-sim{rid}", request)
        text = gateway_module._token_text(index)
        assert before + text.encode() + after == _sse(
            _chunk(rid, arrival_t, model, {"content": text})
        )

    def test_completed_stream_is_two_writes(self):
        answer = 9
        session = _session()
        handle = session.submit(_request(5, 16, 24, answer))
        session.drain()
        assert handle.status == RequestHandle.COMPLETED
        gateway = Gateway(WallClockPacer(session), HeaderOracle())
        writer = _RecordingWriter()

        async def stream():
            never = asyncio.get_running_loop().create_future()
            await gateway._stream_completion(writer, handle, never)

        asyncio.run(stream())
        arrival_t = handle.request.arrival_t

        def chunk(delta, finish_reason=None):
            return _sse(
                _chunk(5, arrival_t, "pascal-sim", delta, finish_reason)
            )

        role = chunk({"role": "assistant"})
        tokens = [chunk({"content": f"tok{i} "}) for i in range(answer)]
        tail = chunk({}, "stop") + b"data: [DONE]\n\n"
        assert writer.writes == [SSE_HEAD + role, b"".join(tokens) + tail]

    def test_one_chunk_per_answering_token_across_runs(self):
        """Both bodies count answering tokens, not stored timestamps: an
        answer without reasoning keeps its prefill token's time in a run
        of its own, apart from its decode steps' run."""
        answer = 7
        session = _session()
        handle = session.submit(_request(6, 16, 0, answer))
        session.drain()
        assert len(handle.request.answer_runs()) == 2
        gateway = Gateway(WallClockPacer(session), HeaderOracle())
        streamed, whole = _RecordingWriter(), _RecordingWriter()

        async def respond():
            never = asyncio.get_running_loop().create_future()
            await gateway._stream_completion(streamed, handle, never)
            await gateway._await_completion(whole, handle, never)

        asyncio.run(respond())
        body = b"".join(streamed.writes)
        assert body.startswith(SSE_HEAD)
        assert _events(body[len(SSE_HEAD):]) == _expected_events(answer)
        _, _, payload = b"".join(whole.writes).partition(b"\r\n\r\n")
        (choice,) = json.loads(payload)["choices"]
        assert choice["message"]["content"] == "".join(
            f"tok{i} " for i in range(answer)
        )

    def test_stream_over_many_ticks_arrives_in_order(self):
        answer = 40
        time_scale = 10.0
        session = _session()

        async def client(gateway, port):
            await _stream_to_done(port, answer=answer)

        _serve(session, client, time_scale=time_scale)
        (request,) = session.cluster.completed
        times = request.answer_token_times
        # The premise: the answer spans many pacing polls of wall time.
        assert (times[-1] - times[0]) / time_scale > 4 * MAX_POLL_S


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
