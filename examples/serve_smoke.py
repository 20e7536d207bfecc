"""End-to-end smoke of the real-time serving gateway (CI: serve-smoke).

Spawns ``python -m repro.harness serve --realtime --port 0`` as a
subprocess, then — with a plain asyncio client, no HTTP library —

0. sends a request no instance can serve (a 9000-token prompt, over
   ``max_prefill_tokens``) and one with ``Content-Length: -5``, and
   expects a 400 for each, then a streaming request with a chunked body
   (``Transfer-Encoding: chunked``) and expects a 501, with nothing
   submitted,
1. streams one chat completion to the end on a new connection, so the
   server survived all three, and checks its events in order: exactly
   one role chunk, the content
   chunks ``tok0`` to ``tok{n-1}``, the stop chunk, then ``data: [DONE]``,
2. opens a second, much longer stream and drops the connection
   mid-stream, which the gateway must surface as a *cancellation*,
3. polls ``/metrics`` until exactly one cancel and one completion show,
   out of two submitted,
4. sends SIGTERM and expects a clean exit (code 0) with the final
   accounting line,
5. replays the recorded live trace offline and checks the cancellation
   reproduces,
6. spawns a second server, opens one long stream on it and sends SIGTERM
   while the stream is still open: the server must end the stream, exit
   0 with the final accounting line, and print no ``Exception in
   callback`` or ``Traceback`` line.

Exit code 0 = all good; anything else prints the failing step.

Run directly::

    python examples/serve_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

HOST = "127.0.0.1"
TIME_SCALE = 10.0


def _request_head(path: str, method: str, headers: dict, body: bytes) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", f"Host: {HOST}"]
    lines += [f"{k}: {v}" for k, v in headers.items()]
    lines += [f"Content-Length: {len(body)}", "Connection: close", "", ""]
    return "\r\n".join(lines).encode() + body


async def _read_headers(reader: asyncio.StreamReader) -> str:
    head = await reader.readuntil(b"\r\n\r\n")
    return head.decode("latin-1")


def expected_events(answer: int) -> list:
    """A completed stream's ``(delta, finish_reason)`` events, in order."""
    return (
        [({"role": "assistant"}, None)]
        + [({"content": f"tok{i} "}, None) for i in range(answer)]
        + [({}, "stop")]
    )


async def open_stream(port: int, reasoning: int, answer: int):
    """Request one streamed completion; returns ``(reader, writer)``
    once the event-stream head arrived."""
    body = json.dumps(
        {
            "model": "pascal-sim",
            "stream": True,
            "messages": [{"role": "user", "content": "smoke test"}],
        }
    ).encode()
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(
        _request_head(
            "/v1/chat/completions",
            "POST",
            {
                "Content-Type": "application/json",
                "x-pascal-reasoning-tokens": str(reasoning),
                "x-pascal-answer-tokens": str(answer),
            },
            body,
        )
    )
    await writer.drain()
    head = await _read_headers(reader)
    assert "200 OK" in head.splitlines()[0], head
    assert "text/event-stream" in head, head
    return reader, writer


async def stream_completion(port: int, reasoning: int, answer: int,
                            abort_after: int | None = None) -> int:
    """Stream one completion; returns content chunks seen.

    A stream read to the end must carry exactly :func:`expected_events`
    before ``data: [DONE]``.  With ``abort_after`` set, hard-closes the
    connection after that many content chunks (the mid-stream disconnect
    the gateway must turn into a cancellation).
    """
    reader, writer = await open_stream(port, reasoning, answer)
    chunks = 0
    done = False
    events = []
    while True:
        line = await reader.readline()
        if not line:
            break
        line = line.strip()
        if not line.startswith(b"data: "):
            continue
        data = line[len(b"data: "):]
        if data == b"[DONE]":
            done = True
            break
        choice = json.loads(data)["choices"][0]
        delta = choice["delta"]
        events.append((delta, choice["finish_reason"]))
        if "content" in delta:
            chunks += 1
            if abort_after is not None and chunks >= abort_after:
                # Hard close mid-stream: abort the transport without a
                # FIN-then-drain dance, like a killed client process.
                writer.transport.abort()
                return chunks
    writer.close()
    if abort_after is None:
        assert done, "stream ended without [DONE]"
        assert chunks == answer, f"expected {answer} chunks, got {chunks}"
        assert events == expected_events(answer), events
    return chunks


async def expect_status(port: int, raw: bytes, status: int) -> None:
    """Send ``raw`` as the whole request; require ``status`` back."""
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(raw)
    await writer.drain()
    head = await asyncio.wait_for(_read_headers(reader), timeout=30.0)
    assert head.split(" ", 2)[1] == str(status), head
    writer.close()


async def get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(HOST, port)
    writer.write(_request_head(path, "GET", {}, b""))
    await writer.drain()
    head = await _read_headers(reader)
    assert "200 OK" in head.splitlines()[0], (path, head)
    match = re.search(r"content-length: (\d+)", head.lower())
    assert match, head
    payload = json.loads(await reader.readexactly(int(match.group(1))))
    writer.close()
    return payload


async def drive(port: int) -> None:
    models = await get_json(port, "/v1/models")
    assert models["data"][0]["id"] == "pascal-sim", models

    # 0. Bad requests get a 400 and leave the server up: a prompt over
    # max_prefill_tokens, and a negative Content-Length.  A chunked body
    # gets a 501: only Content-Length framing is read.
    unservable = json.dumps({"stream": True, "messages": []}).encode()
    await expect_status(
        port,
        _request_head(
            "/v1/chat/completions",
            "POST",
            {"x-pascal-prompt-tokens": "9000"},
            unservable,
        ),
        400,
    )
    await expect_status(
        port,
        (
            f"POST /v1/chat/completions HTTP/1.1\r\nHost: {HOST}\r\n"
            "Content-Length: -5\r\nConnection: close\r\n\r\n"
        ).encode(),
        400,
    )
    chunk = b'{"stream": true, "max_tokens": 5}'
    await expect_status(
        port,
        (
            f"POST /v1/chat/completions HTTP/1.1\r\nHost: {HOST}\r\n"
            "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            f"{len(chunk):x}\r\n"
        ).encode()
        + chunk
        + b"\r\n0\r\n\r\n",
        501,
    )

    # 1. One short completion, streamed to the end, its events in order.
    await stream_completion(port, reasoning=24, answer=8)

    # 2. One long completion, aborted after two content chunks.
    await stream_completion(
        port, reasoning=4000, answer=1000, abort_after=2
    )

    # 3. The abort must surface as a cancellation (poll: the disconnect
    # is noticed by the pacing loop, not synchronously).
    deadline = time.monotonic() + 30.0
    while True:
        metrics = await get_json(port, "/metrics")
        if metrics["cancelled"] == 1 and metrics["completed"] >= 1:
            break
        if time.monotonic() > deadline:
            raise AssertionError(f"cancel never surfaced: {metrics}")
        await asyncio.sleep(0.05)
    assert metrics["submitted"] == 2, metrics
    assert metrics["rejected"] == 0, metrics


async def hold_stream_through_sigterm(
    proc: subprocess.Popen, port: int
) -> None:
    """Open one long stream, send SIGTERM once its first content chunk
    arrived, then read until the server ends the stream."""
    reader, writer = await open_stream(port, reasoning=4, answer=5000)
    while b'"content"' not in await reader.readline():
        pass
    proc.send_signal(signal.SIGTERM)
    await asyncio.wait_for(reader.read(), timeout=30.0)
    writer.close()


def spawn_server(*extra: str) -> tuple[subprocess.Popen, int]:
    """``serve --realtime`` on an ephemeral port, its stderr merged into
    its stdout; returns the process and its port."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.harness",
            "serve",
            "--realtime",
            "--port",
            "0",
            "--host",
            HOST,
            "--time-scale",
            str(TIME_SCALE),
            "--quiet",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.stdout is not None
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        proc.kill()
        proc.communicate()
        raise AssertionError(f"no port banner: {banner!r}")
    return proc, int(match.group(1))


def sigterm_with_a_stream_open() -> None:
    proc, port = spawn_server()
    try:
        asyncio.run(hold_stream_through_sigterm(proc, port))
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (proc.returncode, out)
        final = [
            line for line in out.splitlines()
            if line.startswith("serve: final")
        ]
        assert final, out
        assert "submitted=1" in final[0], final[0]
        for marker in ("Exception in callback", "Traceback"):
            assert marker not in out, out
        print(f"shutdown with a stream open ok: {final[0]}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    trace_path = os.path.join(tmp, "live.jsonl")
    proc, port = spawn_server("--record-trace", trace_path)
    try:
        asyncio.run(drive(port))

        # 4. Graceful shutdown: SIGTERM -> drain -> accounting -> exit 0.
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (proc.returncode, out)
        final = [
            line for line in out.splitlines()
            if line.startswith("serve: final")
        ]
        assert final, out
        assert "cancelled=1" in final[0], final[0]
        assert "submitted=2" in final[0], final[0]
        print(f"gateway smoke ok: {final[0]}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    # 5. The recorded live trace replays the cancellation offline.
    replay = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.harness",
            "serve",
            "--trace",
            trace_path,
            "--quiet",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert replay.returncode == 0, replay.stderr
    assert "cancelled=1" in replay.stdout, replay.stdout
    print("offline replay reproduces the cancellation")

    # 6. SIGTERM reaching a server that still holds an open stream.
    sigterm_with_a_stream_open()
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
