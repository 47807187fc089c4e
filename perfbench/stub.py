"""Localhost chat-completions stub that answers through the packaged MockBackend.

Run as its own process (``python3 perfbench/stub.py --root <checkout>``);
it prints ``PORT <n>`` once listening on 127.0.0.1 and serves until its
stdin closes. Every request waits ``LATENCY_S``. Every
``REJECT_EVERY``-th arrival is answered 429 with ``Retry-After``, and the
next arrival of the same body is served, so the share of 429s is fixed
whatever the prompts are.

``GET /stats`` returns the counters since the previous ``/stats`` call
and resets them: arrival times, attempts, 429s and the gaps between each
429 and the retry of its body.

Each response goes out in a single socket write. Writing the headers and
the body separately lets Nagle's algorithm and delayed ACK hold the body
back, and the benchmark would then measure the stub instead of the client.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

LATENCY_S = 0.010
REJECT_EVERY = 100
# 0 s: a client that honours the header retries at once; the measured
# retry gap then shows how long the client really waited
RETRY_AFTER_S = 0


class StubState:
    def __init__(self, backend, completion_request):
        self.backend = backend
        self.request_cls = completion_request
        self.lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.arrivals: list[float] = []
        self.rejected: dict[str, float] = {}
        self.rejected_429 = 0
        self.retry_gaps: list[float] = []

    def admit(self, body: bytes) -> bool:
        """Record one arrival; False means answer 429."""
        now = time.monotonic()
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            self.arrivals.append(now)
            if digest in self.rejected:
                self.retry_gaps.append(now - self.rejected.pop(digest))
                return True
            if len(self.arrivals) % REJECT_EVERY == 0:
                self.rejected[digest] = now
                self.rejected_429 += 1
                return False
            return True

    def snapshot_and_reset(self) -> dict:
        with self.lock:
            out = {
                "arrivals": self.arrivals,
                "attempts": len(self.arrivals),
                "rejected_429": self.rejected_429,
                "retry_gaps": self.retry_gaps,
            }
            self._reset()
        return out


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: StubState

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: str, body: bytes, extra: str = "") -> None:
        head = (
            f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        )
        self.wfile.write(head.encode("ascii") + body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send("404 Not Found", b"{}")
            return
        self._send("200 OK", json.dumps(self.state.snapshot_and_reset()).encode("utf-8"))

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        state = self.state
        admitted = state.admit(body)
        time.sleep(LATENCY_S)
        if not admitted:
            self._send(
                "429 Too Many Requests",
                b'{"error": "rate limited"}',
                f"Retry-After: {RETRY_AFTER_S}\r\n",
            )
            return
        payload = json.loads(body)
        result = state.backend.complete(
            state.request_cls(model=payload["model"], messages=payload["messages"])
        )
        answer = {
            "choices": [{"message": {"role": "assistant", "content": result.text}}],
            "usage": {
                "prompt_tokens": result.prompt_tokens,
                "completion_tokens": result.completion_tokens,
            },
        }
        self._send("200 OK", json.dumps(answer).encode("utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="checkout with src/mindpipe")
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    from mindpipe.config import packaged_path
    from mindpipe.llm.completion import CompletionRequest
    from mindpipe.llm.mock_backend import MockBackend

    Handler.state = StubState(
        MockBackend(packaged_path("data/mock_rules.json")),
        CompletionRequest,
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
