"""External-system boundaries: the foundation-model client, replay and HTTP.

The wire protocol is plain JSON over HTTP — request fields ``mode``, ``image``,
``task``, ``plan``, ``specs_text``, ``preamble_id``; response fields ``plan``
or ``yes_confidence`` — the minimal shape any chat-completions-style gateway
can adapt to with a thin shim.  The serving side owns prompt assembly (the
client only sends a preamble id) and must itself compute ``yes_confidence``.

The replay client answers from a line-JSON fixture file keyed by
``(image, task, mode)`` and is pure: identical queries give identical replies,
across processes.  A stub HTTP server wrapping the same fixtures backs the
transport-equivalence tests.
"""
from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import count
from pathlib import Path
from typing import Any, Iterable
from urllib.parse import urlsplit

import requests

from .inputs import _STR, _field, numbered_lines

PLAN_MODE = "plan"
SATISFACTION_MODE = "satisfaction"
DEFAULT_PREAMBLE = "driving-v1"
DEFAULT_TIMEOUT = 30.0
DEFAULT_RETRIES = 2


class ClientError(Exception):
    """Base class for model-client failures."""


class TransportError(ClientError):
    """HTTP failure that a retry cannot fix, or that outlasted the retries."""


class MalformedReplyError(ClientError):
    """Reply is missing or mistypes the expected field."""


class FixtureMissError(ClientError):
    """Replay client has no fixture for the query key."""


class ConfidenceOutOfRangeError(ClientError):
    """Endpoint returned a confidence outside [0, 1]."""


@dataclass(frozen=True)
class ModelQuery:
    image: str
    task: str
    mode: str
    plan: str | None = None
    specs_text: str | None = None

    def payload(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "mode": self.mode,
            "image": self.image,
            "task": self.task,
            "preamble_id": DEFAULT_PREAMBLE,
        }
        if self.plan is not None:
            body["plan"] = self.plan
        if self.specs_text is not None:
            body["specs_text"] = self.specs_text
        return body


class _AuditLog:
    """Line-JSON audit trail; appends are serialized."""

    def __init__(self, path: str | Path | None):
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()

    def record(self, query: ModelQuery, outcome: str, latency_s: float, attempt: int) -> None:
        if self._path is None:
            return
        entry = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "image": query.image,
            "task": query.task,
            "mode": query.mode,
            "outcome": outcome,
            "latency_ms": round(latency_s * 1000.0, 3),
            "attempt": attempt,
        }
        with self._lock:
            with self._path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry) + "\n")


def load_replay_fixtures(path: str | Path) -> list[dict[str, Any]]:
    """Read the line-JSON fixture file; only the key fields are checked here,
    the reply fields are checked per query like any model reply."""
    with numbered_lines(path) as lines:
        return [_fixture(json.loads(line)) for line in lines]


def _fixture(obj) -> dict[str, Any]:
    for key in ("image", "task", "mode"):
        _field(obj, key, _STR)
    return obj


class ReplayModelClient:
    """Deterministic client answering from a fixture table."""

    max_in_flight = 1  # answers locally: nothing to overlap

    def __init__(self, fixtures: str | Path | Iterable[dict[str, Any]], audit_path: str | Path | None = None):
        if isinstance(fixtures, (str, Path)):
            fixtures = load_replay_fixtures(fixtures)
        self._table = {(f["image"], f["task"], f["mode"]): f for f in fixtures}
        self._audit = _AuditLog(audit_path)

    def request(self, query: ModelQuery) -> dict[str, Any]:
        start = time.monotonic()
        key = (query.image, query.task, query.mode)
        record = self._table.get(key)
        if record is None:
            self._audit.record(query, "fixture-miss", time.monotonic() - start, attempt=1)
            raise FixtureMissError(f"no fixture for key {key!r}")
        reply = {k: v for k, v in record.items() if k in ("plan", "yes_confidence")}
        self._audit.record(query, "ok", time.monotonic() - start, attempt=1)
        return reply


def check_endpoint(url: str) -> None:
    """Raise ValueError unless ``url`` is an http(s) URL with a host."""
    try:
        parts = urlsplit(url) if isinstance(url, str) else None
    except ValueError:  # a bad IPv6 host
        parts = None
    if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint must be an http(s) URL, got {url!r}")


def check_timeout_and_retries(timeout: float, retries: int) -> None:
    """Raise ValueError unless a socket can take ``timeout`` and ``retries`` is a count."""
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not timeout > 0:
        raise ValueError(f"timeout must be a positive number, got {timeout!r}")
    if timeout > threading.TIMEOUT_MAX:  # the most a socket timeout can hold
        raise ValueError(f"timeout must be at most {threading.TIMEOUT_MAX:.0f} s, got {timeout!r}")
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise ValueError(f"retries must be an integer >= 0, got {retries!r}")


class HttpModelClient:
    """JSON-over-HTTP client with retries and jittered backoff.

    ``max_in_flight`` is the number of pairs whose queries
    ``generate_refinement_dataset`` keeps running at once.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = 0.5,
        max_in_flight: int = 4,
        audit_path: str | Path | None = None,
        session: requests.Session | None = None,
    ):
        check_endpoint(base_url)
        check_timeout_and_retries(timeout, retries)
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.base_url = base_url
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_in_flight = max_in_flight
        self._jitter = random.Random()  # private: never the caller's seeded stream
        self._audit = _AuditLog(audit_path)
        self._session = session or requests.Session()

    def request(self, query: ModelQuery) -> dict[str, Any]:
        """POST the query; retry server errors, dropped connections and timeouts.

        Any other failure (a 4xx status, a body that is not JSON) would fail
        the same way again, so it is audited once and raised at once.  The
        wait before retry n is drawn from (0, backoff * 2**(n-1)], so
        concurrent requests that failed together do not retry together.
        """
        for attempt in count(1):
            start = time.monotonic()
            try:
                response = self._session.post(
                    self.base_url, json=query.payload(), timeout=self.timeout
                )
                response.raise_for_status()
                reply = response.json()
                self._audit.record(query, "ok", time.monotonic() - start, attempt)
                return reply
            except (requests.RequestException, ValueError) as exc:
                self._audit.record(query, f"error: {exc}", time.monotonic() - start, attempt)
                if attempt > self.retries or not _retryable(exc):
                    raise TransportError(
                        f"request failed on attempt {attempt} of {self.retries + 1}: {exc}"
                    ) from exc
            time.sleep(self.backoff * (2 ** (attempt - 1)) * (1.0 - self._jitter.random()))


def _retryable(exc: Exception) -> bool:
    """Server errors, dropped connections and timeouts may pass on a retry."""
    if isinstance(exc, requests.HTTPError):
        return exc.response is not None and exc.response.status_code >= 500
    return isinstance(exc, (requests.ConnectionError, requests.Timeout))


def query_plan(client, image: str, task: str) -> str:
    """Ask the model for an instruction; returns the text verbatim."""
    if not task.strip():
        raise ValueError("task description must be nonempty")
    raw = client.request(ModelQuery(image=image, task=task, mode=PLAN_MODE))
    plan = raw.get("plan") if isinstance(raw, dict) else None
    if not isinstance(plan, str) or not plan.strip():
        raise MalformedReplyError(f"reply is missing the plan field: {raw!r}")
    return plan


def query_satisfaction(client, plan: str, specs_text: str, image: str = "", task: str = "") -> float:
    """Ask whether the plan satisfies the rules; returns the yes-confidence."""
    if not plan.strip():
        raise ValueError("plan must be nonempty")
    raw = client.request(
        ModelQuery(image=image, task=task, mode=SATISFACTION_MODE, plan=plan, specs_text=specs_text)
    )
    confidence = raw.get("yes_confidence") if isinstance(raw, dict) else None
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise MalformedReplyError(f"reply is missing the yes_confidence field: {raw!r}")
    if not 0.0 <= float(confidence) <= 1.0:
        raise ConfidenceOutOfRangeError(f"yes_confidence {confidence} outside [0, 1]")
    return float(confidence)


class _StubHTTPServer(ThreadingHTTPServer):
    # Every request opens its own HTTP/1.0 connection; the default listen
    # backlog of 5 drops concurrent ones into the 1 s TCP retry.
    request_queue_size = 64


class StubModelServer:
    """Tiny HTTP server answering from replay fixtures; for tests and demos.

    Use as a context manager; ``url`` is the endpoint to point an
    HttpModelClient at.  ``fail_first`` makes the server return that many
    500s per distinct key before succeeding, to exercise retry paths.
    ``posts`` counts the requests received.
    """

    def __init__(self, fixtures: str | Path | Iterable[dict[str, Any]], fail_first: int = 0):
        client = ReplayModelClient(fixtures)
        failures: dict[ModelQuery, int] = {}
        lock = threading.Lock()
        self.posts = 0
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
                query = ModelQuery(
                    payload.get("image", ""), payload.get("task", ""), payload.get("mode", "")
                )
                with lock:
                    server.posts += 1
                    fail = failures.get(query, 0) < fail_first
                    if fail:
                        failures[query] = failures.get(query, 0) + 1
                if fail:
                    self.send_response(500)
                    self.end_headers()
                    return
                try:
                    body = json.dumps(client.request(query)).encode()
                    self.send_response(200)
                except FixtureMissError as exc:
                    body = json.dumps({"error": str(exc)}).encode()
                    self.send_response(404)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # keep test output quiet
                pass

        self._server = _StubHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    def __enter__(self) -> "StubModelServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
