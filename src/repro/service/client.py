"""`TwinClient`: a thin synchronous client for the twin service.

Stdlib only: plain :mod:`http.client` for the request/response verbs,
a chunk-aware line reader for the NDJSON stream, and a raw socket with
the shared :mod:`repro.service.ws` codec for the websocket transport.
Both transports yield the identical decoded documents, so callers pick
framing, not semantics::

    client = TwinClient("http://127.0.0.1:8787")
    job = client.submit(SyntheticScenario(duration_s=1800.0))
    for doc in client.watch(job["id"]):        # or watch_ws(...)
        ...  # step records, then one terminal event

    steps = client.steps(job["id"])            # just the step records

Resilience:

- **Split timeouts** — a hung *connect* fails after ``connect_timeout_s``
  (seconds), while a long-running watch may sit quietly for up to
  ``read_timeout_s`` between lines.
- **Retries** — every idempotent verb (submit/poll/result/cancel; safe
  because jobs are content-addressed by
  :func:`~repro.service.protocol.job_key`) retries on connection
  failures and on 429/503 admission rejections, paced by a
  :class:`~repro.service.resilience.RetryPolicy` (exponential backoff,
  decorrelated jitter, hard sleep budget) and honoring ``Retry-After``.
  Each retry counts on ``repro_retries_total``.
- **Resumable watches** — :meth:`watch` / :meth:`watch_ws` survive a
  dropped connection: they reconnect with ``?from_seq=<n>`` (the count
  of step records already held for the current attempt) and the server
  replays only the missing suffix — or sends a ``restart`` event when
  the held prefix belongs to an abandoned attempt.  The resumed stream
  is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
import time
import uuid
from typing import Any, Callable, Iterator
from urllib.parse import urlencode, urlsplit

from repro.exceptions import ExaDigiTError
from repro.obs.registry import get_registry
from repro.scenarios.base import Scenario
from repro.service import ws as wsproto
from repro.service.protocol import TERMINAL_EVENTS, is_step_record
from repro.service.resilience import RetryPolicy
from repro.viz.export import decode_step_line

#: Default seconds to establish a TCP connection before giving up.
DEFAULT_CONNECT_TIMEOUT_S = 10.0
#: Default seconds a response (or the next stream line) may take.
DEFAULT_READ_TIMEOUT_S = 300.0


class _Retryable(Exception):
    """A failure the retry loop may pace and repeat.

    ``wait_s`` carries a server-provided ``Retry-After`` floor.
    """

    def __init__(self, message: str, wait_s: float | None = None) -> None:
        super().__init__(message)
        self.wait_s = wait_s


class TwinClient:
    """Talk to one :class:`~repro.service.server.TwinServer`.

    ``retry`` defaults to a standard
    :class:`~repro.service.resilience.RetryPolicy`; pass
    ``RetryPolicy.none()`` for strict fail-fast behavior.  ``client_id``
    is sent as the ``X-Repro-Client`` header (the server's per-client
    in-flight cap keys on it); by default each client instance gets a
    stable random id.
    """

    def __init__(
        self,
        url: str,
        *,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
        retry: RetryPolicy | None = None,
        client_id: str | None = None,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("http", ""):
            raise ExaDigiTError(f"unsupported scheme {parts.scheme!r}")
        if parts.hostname is None or parts.port is None:
            raise ExaDigiTError(f"service URL needs host:port, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port
        self.connect_timeout_s = float(connect_timeout_s)
        self.read_timeout_s = float(read_timeout_s)
        self.retry = retry if retry is not None else RetryPolicy()
        self.client_id = client_id or f"c{uuid.uuid4().hex[:12]}"

    # -- retry plumbing --------------------------------------------------------

    def _count_retry(self, op: str) -> None:
        get_registry().counter("repro_retries_total").labels(op=op).inc()

    def _with_retry(
        self, op: str, attempt_fn: Callable[[], Any], *, idempotent: bool = True
    ) -> Any:
        """Run one idempotent operation under the retry policy."""
        policy = self.retry if idempotent else RetryPolicy.none()
        backoffs = policy.backoffs()
        slept = 0.0
        attempts = 0
        while True:
            attempts += 1
            try:
                return attempt_fn()
            except _Retryable as exc:
                if attempts >= policy.max_attempts:
                    raise ExaDigiTError(
                        f"{op} failed after {attempts} attempt(s): {exc}"
                    ) from exc
                wait = next(backoffs)
                if exc.wait_s is not None:
                    wait = max(wait, float(exc.wait_s))
                if slept + wait > policy.budget_s:
                    raise ExaDigiTError(
                        f"{op}: retry budget exhausted after "
                        f"{attempts} attempt(s): {exc}"
                    ) from exc
                self._count_retry(op)
                time.sleep(wait)
                slept += wait

    def _connect(self) -> http.client.HTTPConnection:
        """An HTTP connection with split connect/read timeouts."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout_s
        )
        conn.connect()
        if conn.sock is not None:
            conn.sock.settimeout(self.read_timeout_s)
        return conn

    def _headers(self, body: dict | None) -> dict[str, str]:
        headers = {"X-Repro-Client": self.client_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        return headers

    def _request_once(
        self, method: str, path: str, body: dict | None = None
    ) -> dict[str, Any]:
        """One request/response cycle; raises ``_Retryable`` on
        connection failures and on 429/503 admission rejections."""
        try:
            conn = self._connect()
        except OSError as exc:
            raise _Retryable(
                f"cannot reach twin service at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        try:
            payload = None if body is None else json.dumps(body)
            try:
                conn.request(
                    method, path, body=payload, headers=self._headers(body)
                )
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise _Retryable(
                    f"connection to twin service at {self.host}:{self.port} "
                    f"failed mid-request: {exc}"
                ) from exc
            doc = json.loads(raw.decode("utf-8") or "{}")
            if response.status in (429, 503):
                retry_after = response.getheader("Retry-After")
                raise _Retryable(
                    f"{method} {path} -> {response.status}: "
                    f"{doc.get('error', doc)}",
                    wait_s=float(retry_after) if retry_after else None,
                )
            if response.status >= 400:
                raise ExaDigiTError(
                    f"{method} {path} -> {response.status}: "
                    f"{doc.get('error', doc)}"
                )
            return doc
        finally:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        op: str = "request",
        idempotent: bool = True,
    ) -> dict[str, Any]:
        return self._with_retry(
            op,
            lambda: self._request_once(method, path, body),
            idempotent=idempotent,
        )

    def _request_text(
        self, method: str, path: str, *, op: str = "request"
    ) -> str:
        """A verb whose response body is plain text, not JSON."""

        def attempt() -> str:
            try:
                conn = self._connect()
            except OSError as exc:
                raise _Retryable(
                    f"cannot reach twin service at "
                    f"{self.host}:{self.port}: {exc}"
                ) from exc
            try:
                try:
                    conn.request(method, path, headers=self._headers(None))
                    response = conn.getresponse()
                    text = response.read().decode("utf-8")
                except (OSError, http.client.HTTPException) as exc:
                    raise _Retryable(
                        f"connection to twin service at "
                        f"{self.host}:{self.port} failed mid-request: {exc}"
                    ) from exc
                if response.status >= 400:
                    raise ExaDigiTError(
                        f"{method} {path} -> {response.status}: {text[:200]}"
                    )
                return text
            finally:
                conn.close()

        return self._with_retry(op, attempt)

    # -- plain verbs -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz", op="health")

    def statusz(self) -> dict[str, Any]:
        """The server's full ops snapshot (``GET /statusz``)."""
        return self._request("GET", "/statusz", op="statusz")

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        return self._request_text("GET", "/metrics", op="metrics")

    def console_html(self) -> str:
        """The ops console page (``GET /console``)."""
        return self._request_text("GET", "/console", op="console")

    def alertz(self) -> dict[str, Any]:
        """Alert rules, states, and recent transitions (``GET /alertz``)."""
        return self._request("GET", "/alertz", op="alertz")

    def query(
        self,
        metric: str,
        *,
        start: float | None = None,
        end: float | None = None,
        step: float | None = None,
        agg: str = "last",
    ) -> dict[str, Any]:
        """Range-query recorded telemetry (``GET /api/query``).

        Non-positive ``start``/``end`` are relative to now, so
        ``query(m, start=-300, step=10, agg="rate")`` is "the last five
        minutes at 10 s resolution".  Returns the server's document:
        ``{"metric", "agg", "start", "end", "step", "tier", "points"}``
        where ``points`` is ``[[t, value-or-null], ...]``.
        """
        params = [("metric", metric), ("agg", agg)]
        for key, value in (("start", start), ("end", end), ("step", step)):
            if value is not None:
                params.append((key, repr(float(value))))
        return self._request(
            "GET", f"/api/query?{urlencode(params)}", op="query"
        )

    def submit(
        self,
        scenario: Scenario | dict[str, Any],
        *,
        use_cache: bool = True,
        deadline_s: float | None = None,
    ) -> dict[str, Any]:
        """Submit one scenario; returns the (first) job summary.

        Sweep scenarios expand server-side into one job per cell; use
        :meth:`submit_all` when you need every summary.  ``deadline_s``
        bounds each job's total queue+run time; past it the server
        cancels the job and marks it ``timeout``.
        """
        return self.submit_all(
            scenario, use_cache=use_cache, deadline_s=deadline_s
        )[0]

    def submit_all(
        self,
        scenario: Scenario | dict[str, Any],
        *,
        use_cache: bool = True,
        deadline_s: float | None = None,
    ) -> list[dict[str, Any]]:
        doc = (
            scenario.to_dict()
            if isinstance(scenario, Scenario)
            else scenario
        )
        body: dict[str, Any] = {"scenario": doc, "use_cache": use_cache}
        if deadline_s is not None:
            body["deadline_s"] = float(deadline_s)
        # Safe to retry: jobs are content-addressed, so a duplicate
        # submission of the same scenario is a cache/registry hit,
        # never a second simulation.
        out = self._request("POST", "/jobs", body, op="submit")
        return out["jobs"]

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs", op="jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}", op="job")["job"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request(
            "POST", f"/jobs/{job_id}/cancel", op="cancel"
        )["job"]

    def result(self, job_id: str) -> dict[str, Any]:
        """The persisted cell document of a done job (metrics, series)."""
        return self._request(
            "GET", f"/jobs/{job_id}/result", op="result"
        )

    def drain(self) -> dict[str, Any]:
        """Ask the server to drain gracefully (``POST /drainz``)."""
        return self._request("POST", "/drainz", op="drain")

    # -- streaming: shared resume loop -----------------------------------------

    def _watch_resume(
        self,
        job_id: str,
        once: Callable[[str, int], Iterator[dict[str, Any]]],
        from_seq: int | None,
        op: str,
    ) -> Iterator[dict[str, Any]]:
        """Reconnect-and-resume wrapper around one transport attempt.

        ``next_seq`` is one past the ``seq`` of the last step record
        yielded.  A requeue moves the server's numbering past the
        abandoned attempt, so resuming there either continues the
        attempt the watcher holds or draws a ``restart`` event and a
        full (bit-identical) replay of the new one.  Progress resets
        the failure budget, so a long stream may survive many
        well-spaced drops while a dead server still exhausts the policy
        quickly.
        """
        next_seq = int(from_seq or 0)
        policy = self.retry
        backoffs = policy.backoffs()
        failures = 0
        slept = 0.0
        while True:
            progressed = False
            try:
                for doc in once(job_id, next_seq):
                    if is_step_record(doc):
                        next_seq = doc.pop("seq", next_seq) + 1
                    elif doc.get("event") == "restart":
                        next_seq = 0
                    progressed = True
                    yield doc
                    if doc.get("event") in TERMINAL_EVENTS:
                        return
                raise _Retryable(
                    f"stream for {job_id} ended without a terminal event"
                )
            except (
                _Retryable,
                OSError,
                http.client.HTTPException,
            ) as exc:
                if progressed:
                    failures = 0
                    slept = 0.0
                    backoffs = policy.backoffs()
                failures += 1
                if failures >= policy.max_attempts:
                    raise ExaDigiTError(
                        f"{op} {job_id} failed after {failures} "
                        f"attempt(s): {exc}"
                    ) from exc
                wait = next(backoffs)
                if slept + wait > policy.budget_s:
                    raise ExaDigiTError(
                        f"{op} {job_id}: retry budget exhausted: {exc}"
                    ) from exc
                self._count_retry(op)
                time.sleep(wait)
                slept += wait

    # -- streaming: NDJSON over chunked HTTP -----------------------------------

    def watch(
        self, job_id: str, *, from_seq: int | None = None
    ) -> Iterator[dict[str, Any]]:
        """Stream a job's documents over NDJSON until the terminal event.

        Yields every line the server sends: step records interleaved
        with control events (``restart`` on a worker-crash requeue,
        then exactly one of ``done`` / ``failed`` / ``cancelled`` /
        ``timeout``).  A dropped connection reconnects automatically
        and resumes from the last step already yielded (``?from_seq=``)
        under the retry policy — the overall stream stays bit-identical
        to an uninterrupted watch.
        """
        return self._watch_resume(
            job_id, self._watch_ndjson_once, from_seq, "watch"
        )

    def _watch_ndjson_once(
        self, job_id: str, from_seq: int
    ) -> Iterator[dict[str, Any]]:
        try:
            conn = self._connect()
        except OSError as exc:
            raise _Retryable(
                f"cannot reach twin service at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        try:
            path = f"/jobs/{job_id}/stream"
            if from_seq:
                path += f"?from_seq={from_seq}"
            conn.request("GET", path, headers=self._headers(None))
            response = conn.getresponse()
            if response.status != 200:
                doc = json.loads(response.read().decode("utf-8") or "{}")
                raise ExaDigiTError(
                    f"stream {job_id} -> {response.status}: "
                    f"{doc.get('error', doc)}"
                )
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    raw, _, buffer = buffer.partition(b"\n")
                    doc = decode_step_line(raw.decode("utf-8"))
                    if doc is None:
                        continue
                    yield doc
                    if doc.get("event") in TERMINAL_EVENTS:
                        return
        finally:
            conn.close()

    # -- streaming: websocket --------------------------------------------------

    def watch_ws(
        self, job_id: str, *, from_seq: int | None = None
    ) -> Iterator[dict[str, Any]]:
        """The same stream as :meth:`watch`, over RFC 6455 frames
        (including the same reconnect-and-resume behavior)."""
        return self._watch_resume(
            job_id, self._watch_ws_once, from_seq, "watch_ws"
        )

    def _watch_ws_once(
        self, job_id: str, from_seq: int
    ) -> Iterator[dict[str, Any]]:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise _Retryable(
                f"cannot reach twin service at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        sock.settimeout(self.read_timeout_s)
        try:
            path = f"/jobs/{job_id}/ws"
            if from_seq:
                path += f"?from_seq={from_seq}"
            key = base64.b64encode(os.urandom(16)).decode("ascii")
            sock.sendall(
                (
                    f"GET {path} HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Upgrade: websocket\r\n"
                    "Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode("ascii")
            )
            # Read the handshake response up to the blank line.
            head = b""
            while b"\r\n\r\n" not in head:
                data = sock.recv(4096)
                if not data:
                    raise _Retryable("connection closed during handshake")
                head += data
            header_blob, _, leftover = head.partition(b"\r\n\r\n")
            status_line = header_blob.split(b"\r\n", 1)[0].decode("latin-1")
            if " 101 " not in f"{status_line} ":
                raise ExaDigiTError(
                    f"websocket handshake refused: {status_line}"
                )
            expected = wsproto.accept_key(key)
            if expected.encode("ascii") not in header_blob:
                raise ExaDigiTError("bad Sec-WebSocket-Accept from server")
            frames = wsproto.FrameReader()
            pending = frames.feed(leftover) if leftover else []
            while True:
                for frame in pending:
                    if frame.opcode == wsproto.OP_CLOSE:
                        _send_close_frame(sock)
                        return
                    if frame.opcode == wsproto.OP_PING:
                        sock.sendall(
                            wsproto.encode_frame(
                                frame.payload,
                                opcode=wsproto.OP_PONG,
                                masked=True,
                            )
                        )
                        continue
                    if frame.opcode != wsproto.OP_TEXT:
                        continue
                    doc = decode_step_line(frame.text)
                    if doc is None:
                        continue
                    yield doc
                    if doc.get("event") in TERMINAL_EVENTS:
                        _send_close_frame(sock)
                        return
                data = sock.recv(65536)
                if not data:
                    return
                pending = frames.feed(data)
        finally:
            sock.close()

    # -- conveniences ----------------------------------------------------------

    def steps(
        self, job_id: str, *, transport: str = "ndjson"
    ) -> list[dict[str, Any]]:
        """Drain a watch stream into just its step records.

        Handles ``restart`` events (worker crash) by resetting the
        collected list, so the return value is always the step stream
        of the attempt that finished.  Raises on a ``failed`` /
        ``cancelled`` / ``timeout`` terminal event.
        """
        stream = (
            self.watch_ws(job_id)
            if transport == "ws"
            else self.watch(job_id)
        )
        steps: list[dict[str, Any]] = []
        for doc in stream:
            if is_step_record(doc):
                steps.append(doc)
            elif doc.get("event") == "restart":
                steps = []
            elif doc.get("event") == "done":
                return steps
            elif doc.get("event") in ("failed", "cancelled", "timeout"):
                raise ExaDigiTError(
                    f"job {job_id} ended {doc['event']}: "
                    f"{doc.get('error') or ''}"
                )
        raise ExaDigiTError(f"stream for {job_id} ended without a terminal event")

    def wait(self, job_id: str) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns its summary."""
        for doc in self.watch(job_id):
            if doc.get("event") in TERMINAL_EVENTS:
                return doc["job"]
        raise ExaDigiTError(f"stream for {job_id} ended without a terminal event")


def _send_close_frame(sock: socket.socket) -> None:
    """Best-effort websocket goodbye.

    This is the *only* place a socket error is deliberately swallowed:
    the stream is already complete, the close frame is a courtesy, and
    a peer that vanished first must not turn a finished watch into an
    exception.  Every other path surfaces its errors.
    """
    try:
        sock.sendall(
            wsproto.encode_frame(b"", opcode=wsproto.OP_CLOSE, masked=True)
        )
    except OSError:
        pass


__all__ = ["TwinClient"]
