"""Closed-loop SSE load client for the HTTP gateway (stdlib asyncio).

Each connection loop sends one streaming chat completion at a time, with
its token lengths drawn from a per-connection seeded RNG and pinned by
``x-pascal-*`` headers, reads the stream to the end and checks it: status
200, a final ``[DONE]`` and exactly the requested number of answer
chunks.  Wall TTFT is send -> first content chunk.

Run as a child process it prints one JSON summary line::

    python3 perfbench/client.py --port P --seconds S --seed N \\
        --connections C --shapes '{"prompt_tokens": [16, 256], ...}'
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import time

HOST = "127.0.0.1"


class Outcome:
    __slots__ = ("rid", "ok", "ttft_s", "nbytes", "error")

    def __init__(self):
        self.rid: int | None = None
        self.ok = False
        self.ttft_s: float | None = None
        self.nbytes = 0
        self.error = ""

    def as_list(self) -> list:
        """``[rid, ok, ttft_s, bytes, error]``, the JSON-ready form."""
        return [self.rid, self.ok, self.ttft_s, self.nbytes, self.error]


def _request_bytes(prompt: int, reasoning: int, answer: int) -> bytes:
    body = json.dumps(
        {
            "model": "pascal-sim",
            "stream": True,
            "messages": [{"role": "user", "content": "benchmark"}],
        }
    ).encode()
    head = (
        "POST /v1/chat/completions HTTP/1.1\r\n"
        f"Host: {HOST}\r\n"
        "Content-Type: application/json\r\n"
        f"x-pascal-prompt-tokens: {prompt}\r\n"
        f"x-pascal-reasoning-tokens: {reasoning}\r\n"
        f"x-pascal-answer-tokens: {answer}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def stream_one(port: int, prompt: int, reasoning: int, answer: int) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(_request_bytes(prompt, reasoning, answer))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        out.nbytes += len(head)
        if not head.startswith(b"HTTP/1.1 200"):
            out.error = head.split(b"\r\n", 1)[0].decode("latin-1")
            return out
        chunks = 0
        done = False
        while True:
            line = await reader.readline()
            if not line:
                break
            out.nbytes += len(line)
            if not line.startswith(b"data: "):
                continue
            data = line[6:].strip()
            if data == b"[DONE]":
                done = True
                break
            chunk = json.loads(data)
            if out.rid is None:
                out.rid = int(chunk["id"].rsplit("sim", 1)[1])
            if "content" in chunk["choices"][0]["delta"]:
                if chunks == 0:
                    out.ttft_s = time.perf_counter() - start
                chunks += 1
        out.ok = done and chunks == answer
        if not out.ok:
            out.error = f"done={done} chunks={chunks} expected={answer}"
        return out
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def drive(
    port: int,
    seed: int,
    connections: int,
    shapes: dict,
    *,
    seconds: float | None = None,
    requests: int | None = None,
    window: int = 0,
) -> list[Outcome]:
    """Run ``connections`` closed loops until ``seconds`` pass or
    ``requests`` have been sent; returns every outcome.

    Shapes come from one RNG per (seed, window, connection).
    """
    outcomes: list[Outcome] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    sent = 0

    async def loop(conn: int) -> None:
        nonlocal sent
        rng = random.Random(f"{seed}:{window}:{conn}")
        while (deadline is None or time.perf_counter() < deadline) and (
            requests is None or sent < requests
        ):
            sent += 1
            prompt = rng.randint(*shapes["prompt_tokens"])
            reasoning = rng.randint(*shapes["reasoning_tokens"])
            answer = rng.randint(*shapes["answer_tokens"])
            try:
                outcomes.append(await stream_one(port, prompt, reasoning, answer))
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                failed = Outcome()
                failed.error = repr(exc)
                outcomes.append(failed)

    await asyncio.gather(*(loop(c) for c in range(connections)))
    return outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--shapes", required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    outcomes = asyncio.run(
        drive(
            args.port,
            args.seed,
            args.connections,
            json.loads(args.shapes),
            seconds=args.seconds,
        )
    )
    summary = {
        "elapsed_s": time.perf_counter() - start,
        "outcomes": [o.as_list() for o in outcomes],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
