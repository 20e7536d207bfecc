"""OpenAI-compatible HTTP gateway over a wall-clock-paced session.

A small asyncio server (stdlib only — ``asyncio.start_server`` plus
hand-rolled HTTP/1.1 parsing) that turns the simulator into something a
real OpenAI client can talk to:

* ``POST /v1/chat/completions`` — submits a simulated request (shaped by
  the configured :mod:`~repro.serve.oracle`) and, with ``"stream": true``,
  streams SSE chunks whose timing is the *simulated* token timing, paced
  to wall time by the :class:`~repro.serve.pacer.WallClockPacer`;
* ``GET /v1/models`` — the single simulated model;
* ``GET /metrics`` — a JSON snapshot of the session's counters.

Cancellation is first-class: a client that drops its connection
mid-stream cancels the simulated request — KV freed, plans reformed —
and the abort shows up in ``/metrics`` (and any recorded trace) as
``cancelled``, never as a completion.

One event loop, no locks: the pacing task and every connection handler
interleave cooperatively.  Handlers never advance the simulation
directly; they inject work and wake the pacing task, which is the only
place :meth:`~repro.serve.pacer.WallClockPacer.poll` runs once
:meth:`Gateway.start` has anchored the clock.  After each poll the
pacing task *rotates the tick*: every open stream holds the current tick
event, and setting it wakes them all to emit whatever tokens the poll
released, in one write per stream.

Token *content* is deterministic filler (``tok0 tok1 ...``): the
simulator models timing, not language.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Mapping

from repro.api.session import RequestHandle, UnservableRequestError
from repro.serve.oracle import LengthOracle, OracleError
from repro.serve.pacer import WallClockPacer

#: Live HTTP requests get rids from here up, far above any trace rid, so
#: recorded mixed (trace + live) runs never collide.
HTTP_RID_BASE = 10**6

#: Largest accepted request head + body (bytes); pure DoS hygiene.
_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024
#: Wall seconds a connection gets to deliver its whole request head and
#: body; a client that stalls mid-request gets a 408 instead of holding
#: its handler task forever.
_READ_DEADLINE_S = 10.0
#: Open connections served at once.  Each holds a file descriptor and a
#: handler task, so the cap sits well below the usual 1024-descriptor
#: soft limit; connections above it get a 503 unread.
_MAX_CONNECTIONS = 512

#: Stands in for the token text while a stream's content frame is
#: encoded.  It needs no JSON escaping, so it appears verbatim in the
#: encoded chunk and the frame splits around it.
_TOKEN_SLOT = "@@token@@"


def _token_text(index: int) -> str:
    """Deterministic filler for the ``index``-th answer token."""
    return f"tok{index} "


class _RequestError(Exception):
    """A request refused on its framing alone, before any route runs."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Gateway:
    """The HTTP front door of a paced serving session."""

    def __init__(
        self,
        pacer: WallClockPacer,
        oracle: LengthOracle,
        *,
        host: str = "127.0.0.1",
        port: int = 8077,
        model_name: str = "pascal-sim",
    ):
        self.pacer = pacer
        self.oracle = oracle
        self.host = host
        self.port = port
        self.model_name = model_name
        self._rids = itertools.count(HTTP_RID_BASE)
        self._server: asyncio.AbstractServer | None = None
        self._pacing_task: asyncio.Task | None = None
        #: Each open connection's handler task and its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._stopping = False
        #: Rotated by the pacing loop after every poll; streams wait on
        #: the *current* tick to learn "new simulated time was released".
        self._tick = asyncio.Event()
        #: Set by handlers after injecting work, waking the pacing loop
        #: early so a fresh arrival doesn't wait out a long idle sleep.
        self._kick = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Anchor the pacer, bind the socket, start the pacing loop."""
        self.pacer.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=_MAX_HEAD_BYTES
        )
        self._pacing_task = asyncio.create_task(self._pacing_loop())

    @property
    def bound_port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("gateway not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def stop(self) -> None:
        """Stop accepting, stop the pacing loop, abort open connections.

        Each open connection is aborted at its transport: its handler
        sees the hang-up, requests its simulated request's cancel as for
        any client that disconnects, and returns.  The cancel lands when
        the caller next advances the session (the CLI's drain).  The
        handler tasks are not cancelled: on Python 3.11.7 and 3.12.1 the
        done-callback ``asyncio.start_server`` adds to each one logs a
        ``CancelledError`` traceback for a cancelled task.  If the pacing
        loop died, its exception is re-raised once everything is stopped.
        """
        self._stopping = True
        self._kick.set()
        if self._server is not None:
            self._server.close()
        try:
            if self._pacing_task is not None:
                await self._pacing_task
        finally:
            for writer in list(self._connections.values()):
                writer.transport.abort()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )
            # Only now: since Python 3.12.1 this waits for every open
            # connection, and an open stream never ends by itself.
            if self._server is not None:
                await self._server.wait_closed()

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set or the pacing loop dies, then
        :meth:`stop`.  With no pacing loop no request can be answered,
        so its failure (say, a malformed trace record) ends the server
        and propagates from here."""
        assert self._pacing_task is not None, "gateway not started"
        stopped = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            {stopped, self._pacing_task}, return_when=asyncio.FIRST_COMPLETED
        )
        stopped.cancel()
        await self.stop()

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    async def _pacing_loop(self) -> None:
        while not self._stopping:
            delay = self.pacer.poll()
            # Wake every open stream: the poll may have released tokens
            # or resolved requests.
            tick, self._tick = self._tick, asyncio.Event()
            tick.set()
            if delay is None:
                delay = self.pacer.max_poll_s
            kick = self._kick
            try:
                await asyncio.wait_for(
                    kick.wait(), timeout=min(delay, self.pacer.max_poll_s)
                )
            except asyncio.TimeoutError:
                pass
            if kick.is_set():
                self._kick = asyncio.Event()

    def _wake_pacer(self) -> None:
        self._kick.set()

    async def _next_tick(self, eof: asyncio.Task) -> bool:
        """Wait for the next pacing tick; True if the client vanished."""
        tick_wait = asyncio.ensure_future(self._tick.wait())
        try:
            await asyncio.wait(
                {tick_wait, eof}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            tick_wait.cancel()
        return eof.done()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        full = len(self._connections) >= _MAX_CONNECTIONS
        self._connections[task] = writer
        try:
            if full:
                await self._refuse(writer, 503, "too many open connections")
            else:
                await self._serve_connection(reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client hung up mid-request / mid-response
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, headers, body = await asyncio.wait_for(
                self._read_request(reader), _READ_DEADLINE_S
            )
        except asyncio.TimeoutError:
            await self._refuse(
                writer,
                408,
                f"request not received within {_READ_DEADLINE_S:g} s",
            )
            return
        except _RequestError as exc:
            await self._refuse(writer, exc.status, str(exc))
            return

        if method == "GET" and path == "/v1/models":
            await self._respond_json(writer, 200, self._models_payload())
        elif method == "GET" and path == "/metrics":
            self.pacer.poll()  # counters as of this wall instant
            await self._respond_json(writer, 200, self._metrics_payload())
        elif method == "POST" and path == "/v1/chat/completions":
            await self._handle_completion(reader, writer, headers, body)
        else:
            await self._respond_error(
                writer, 404, f"no route for {method} {path}"
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        """Read one request: ``(method, path, headers, body)``."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            # The head outgrew the stream reader's buffer limit.
            raise _RequestError(431, "headers too large") from None
        if len(head) > _MAX_HEAD_BYTES:
            raise _RequestError(431, "headers too large")
        request_line, headers = self._parse_head(head)
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _RequestError(400, "malformed request line")
        method, path, _ = parts
        if "transfer-encoding" in headers:
            # Only Content-Length framing is read; a chunked body left
            # unread would be taken for no body at all.
            raise _RequestError(501, "transfer-encoding is not supported")
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _RequestError(400, "bad content-length")
        length = int(length_text)
        if length > _MAX_BODY_BYTES:
            raise _RequestError(413, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path.split("?", 1)[0], headers, body

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _RequestError(400, "conflicting content-length")
            headers[name] = value
        return lines[0], headers

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _models_payload(self) -> dict:
        return {
            "object": "list",
            "data": [
                {
                    "id": self.model_name,
                    "object": "model",
                    "created": 0,
                    "owned_by": "pascal-sim",
                }
            ],
        }

    def _metrics_payload(self) -> dict:
        session = self.pacer.session
        return {
            "policy": session.cluster.policy_name,
            "time_scale": self.pacer.time_scale,
            "sim_now": session.now,
            "submitted": session.n_submitted,
            "completed": session.n_completed,
            "cancelled": session.n_cancelled,
            "rejected": session.n_rejected,
            "in_flight": session.n_in_flight,
        }

    async def _handle_completion(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: Mapping[str, str],
        body: bytes,
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            await self._respond_error(writer, 400, "body is not valid JSON")
            return
        if not isinstance(payload, dict):
            await self._respond_error(writer, 400, "body must be an object")
            return
        max_tokens = payload.get("max_tokens")
        if max_tokens is not None and (
            isinstance(max_tokens, bool)
            or not isinstance(max_tokens, int)
            or max_tokens < 1
        ):
            await self._respond_error(
                writer, 400, "max_tokens must be a positive integer"
            )
            return

        rid = next(self._rids)
        arrival_t = self.pacer.sim_now
        try:
            request = self.oracle.resolve(rid, arrival_t, headers, payload)
        except OracleError as exc:
            await self._respond_error(writer, 400, str(exc))
            return
        if request is None:
            await self._respond_error(
                writer, 400, "no oracle claimed the request"
            )
            return
        if max_tokens is not None:
            request.answer_len = min(request.answer_len, max_tokens)
        try:
            handle = self.pacer.submit(request)
        except UnservableRequestError as exc:
            # Refused before it reaches the engine: one impossible request
            # must not take the pacing loop, and every stream, down.
            await self._respond_error(writer, 400, str(exc))
            return
        self._wake_pacer()

        eof = asyncio.ensure_future(self._watch_eof(reader))
        try:
            if payload.get("stream"):
                await self._stream_completion(writer, handle, eof)
            else:
                await self._await_completion(writer, handle, eof)
        finally:
            eof.cancel()
            # A handler exiting abnormally (client reset mid-write,
            # connection aborted at shutdown) must not leak a live
            # simulated request; cancel() is a no-op on terminal ones.
            if not handle.done:
                self.pacer.cancel(handle)
                self._wake_pacer()

    @staticmethod
    async def _watch_eof(reader: asyncio.StreamReader) -> None:
        """Resolve when the client closes (or resets) its connection."""
        try:
            while await reader.read(4096):
                pass  # ignore pipelined bytes; one request per connection
        except ConnectionError:
            pass

    async def _stream_completion(
        self,
        writer: asyncio.StreamWriter,
        handle: RequestHandle,
        eof: asyncio.Task,
    ) -> None:
        request = handle.request
        chat_id = f"chatcmpl-sim{request.rid}"
        out = bytearray(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        self._write_chunk(out, chat_id, request, {"role": "assistant"})
        writer.write(out)
        await writer.drain()
        before, after = self._content_frame(chat_id, request)
        sent = 0
        while True:
            # One write per tick: every token the last poll released and,
            # once the request completed, the stop chunk and [DONE].  The
            # snapshot takes no await, so no poll can slip in between.
            done = handle.done
            answered = request.answered_tokens
            out = bytearray()
            for index in range(sent, answered):
                out += before + _token_text(index).encode() + after
            sent = answered
            if handle.status == RequestHandle.COMPLETED:
                self._write_chunk(
                    out, chat_id, request, {}, finish_reason="stop"
                )
                out += b"data: [DONE]\n\n"
            if out:
                writer.write(out)
                await writer.drain()
            if done:
                # Rejected or externally cancelled: the stream just ends —
                # the outcome is visible in /metrics, not invented as a
                # completion.
                return
            if await self._next_tick(eof):
                # Client disconnected mid-stream: a first-class cancel.
                self.pacer.cancel(handle)
                self._wake_pacer()
                return

    async def _await_completion(
        self,
        writer: asyncio.StreamWriter,
        handle: RequestHandle,
        eof: asyncio.Task,
    ) -> None:
        while not handle.done:
            if await self._next_tick(eof):
                self.pacer.cancel(handle)
                self._wake_pacer()
                return
        request = handle.request
        if handle.status != RequestHandle.COMPLETED:
            await self._respond_error(
                writer,
                503,
                f"request {handle.status} by the serving policy",
            )
            return
        content = "".join(
            _token_text(i) for i in range(request.answered_tokens)
        )
        await self._respond_json(
            writer,
            200,
            {
                "id": f"chatcmpl-sim{request.rid}",
                "object": "chat.completion",
                "created": int(request.arrival_t),
                "model": self.model_name,
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": content},
                        "finish_reason": "stop",
                    }
                ],
                "usage": {
                    "prompt_tokens": request.prompt_len,
                    "completion_tokens": request.answer_len,
                    "reasoning_tokens": request.reasoning_len,
                    "total_tokens": request.prompt_len
                    + request.total_decode_tokens,
                },
            },
        )

    def _write_chunk(
        self,
        out: bytearray,
        chat_id: str,
        request,
        delta: dict,
        finish_reason: str | None = None,
    ) -> None:
        """Append one SSE ``chat.completion.chunk`` event to ``out``."""
        chunk = {
            "id": chat_id,
            "object": "chat.completion.chunk",
            "created": int(request.arrival_t),
            "model": self.model_name,
            "choices": [
                {"index": 0, "delta": delta, "finish_reason": finish_reason}
            ],
        }
        out += b"data: " + json.dumps(chunk).encode("utf-8") + b"\n\n"

    def _content_frame(self, chat_id: str, request) -> tuple[bytes, bytes]:
        """A stream's content chunk, split around its token text.

        ``before + text + after`` is what :meth:`_write_chunk` appends for
        ``{"content": text}`` whenever ``text`` needs no JSON escaping, as
        :func:`_token_text` never does.  The slot is the last one in the
        chunk: the model name before it may contain the slot text too.
        """
        frame = bytearray()
        self._write_chunk(frame, chat_id, request, {"content": _TOKEN_SLOT})
        before, _, after = bytes(frame).rpartition(_TOKEN_SLOT.encode())
        return before, after

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    _STATUS_TEXT = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        408: "Request Timeout",
        413: "Payload Too Large",
        431: "Request Header Fields Too Large",
        501: "Not Implemented",
        503: "Service Unavailable",
    }

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        text = self._STATUS_TEXT.get(status, "")
        writer.write(
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
            + body
        )
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        await self._respond_json(
            writer,
            status,
            {"error": {"message": message, "type": "invalid_request_error"}},
        )

    async def _refuse(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        """Answer a request refused before it was read in full, then
        half-close: closing over unread request bytes sends a reset,
        which can overtake the answer."""
        await self._respond_error(writer, status, message)
        writer.write_eof()
