"""The HTTP front end: an asyncio JSON API over the scheduler.

Endpoints (all JSON)::

    POST   /v1/jobs        submit an app spec -> 202 + the job record
                           (503 while the server is draining)
    GET    /v1/jobs/<id>   one job's status (and result once done)
    DELETE /v1/jobs/<id>   cancel: queued jobs cancel immediately,
                           running cold jobs' worker processes are
                           terminated, running warm jobs are marked
                           ``cancelling``
    GET    /v1/jobs        every retained job, submission order
    GET    /v1/stats       lanes, job counts, warm-hit rate, store
                           counters, the metrics registry snapshot,
                           plus the front end's own health
                           (event-loop lag, draining flag)
    GET    /metrics        the same instruments as Prometheus text
                           (404 when the scheduler was built with
                           metrics disabled)
    GET    /healthz        liveness

``GET /v1/jobs/<id>?trace=1`` additionally returns the job's collected
span tree under ``"trace"`` (see :mod:`repro.telemetry.tracing`).

A ``POST /v1/jobs`` body may carry per-job analysis overrides alongside
the app spec — ``rules`` (list of rule ids), ``backend``, ``max_frames``
and ``hierarchy`` — which become an
:class:`~repro.api.request.AnalysisRequest` for that job only.
Differently-targeted submissions of one app never share a result, but
they do share the scheduler's warm per-app session underneath.

Two layers, so the protocol work is written once:

* :class:`ServiceAPI` — the transport-agnostic router.  Every endpoint
  is a pure ``(method, path, body) -> (status, payload, close)``
  function over the scheduler; it also owns the *draining* flag that
  turns submissions away with 503 during graceful shutdown.
* :class:`AnalysisServer` — the one HTTP transport: a stdlib
  ``asyncio.start_server`` event loop on a daemon thread.  Connection
  handling (parsing, keep-alive, slow-client timeouts) is non-blocking
  coroutine work; each parsed request is bridged to the router via
  ``loop.run_in_executor`` so queue locks and store probes never stall
  the loop.  With the scheduler's process cold lane, the service
  interpreter only ever runs event-loop bookkeeping and warm
  mmap-backed restores — cold CPU work lives in worker processes — so
  warm tail latency no longer inflates under cold load.  A lag monitor
  samples the event loop's scheduling delay and reports percentiles
  under ``stats()["server"]``.  The cluster front end
  (:class:`~repro.service.cluster.ClusterRouter`) rides the same
  transport: any object with ``handle(method, path, body)`` and a
  ``draining`` flag can be served.

:class:`ServiceClient` is the matching ``urllib`` client used by tests,
CI smoke checks and scripts; it retries connection-refused/reset errors
with bounded exponential backoff (the async server restarts workers and
may be mid-listen during deploys), while HTTP errors and timeouts
surface immediately.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from collections import deque
from http.client import responses as _http_reasons
from typing import Callable, Optional
from urllib import request as urlrequest
from urllib.error import HTTPError, URLError

from repro.api.registry import builtin_rules
from repro.api.request import AnalysisRequest, analysis_request_from_payload
from repro.service.jobs import (
    CANCEL_CONFLICT,
    CANCEL_TERMINAL,
    CANCEL_UNKNOWN,
    TERMINAL_STATES,
)
from repro.service.scheduler import StoreAwareScheduler
from repro.telemetry.quantiles import quantile
from repro.workload.corpus import app_spec_from_request

#: Content type of the ``GET /metrics`` exposition body.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Event-loop lag histogram buckets (seconds): lag is healthy in the
#: sub-millisecond range and pathological past tens of milliseconds.
LAG_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

#: Largest request body a submission may carry (a spec is tiny; anything
#: bigger is a client error, not a payload to buffer).
MAX_BODY_BYTES = 64 * 1024

#: Per-read timeouts on the async path: a client that stalls mid-request
#: (or goes quiet between keep-alive requests) must not pin a connection
#: handler forever.
IO_TIMEOUT_SECONDS = 30.0

#: How often the lag monitor samples the event loop's scheduling delay.
LAG_SAMPLE_INTERVAL = 0.05


class ServiceAPI:
    """The transport-agnostic request router over one scheduler.

    ``handle`` maps ``(method, path, body)`` to
    ``(status, json_payload, close_connection)`` — the HTTP transport
    delegates here, so validation, error shapes and the draining
    lifecycle are defined exactly once.  ``extra_stats`` (when given)
    contributes the front end's own health under ``/v1/stats``'s
    ``server`` key.
    """

    def __init__(
        self,
        scheduler: StoreAwareScheduler,
        extra_stats: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.extra_stats = extra_stats
        #: While True (graceful shutdown in progress) submissions are
        #: rejected with 503; reads and cancels keep working so clients
        #: can collect results from the drain.
        self.draining = False
        self._m_requests = (
            scheduler.metrics.counter(
                "backdroid_http_requests_total",
                "HTTP requests served, by method and status.",
                ("method", "status"),
            )
            if scheduler.metrics is not None
            else None
        )

    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> tuple[int, object, bool]:
        """Route one request; returns ``(status, payload, close)``.

        ``payload`` is a JSON-able dict for every endpoint except
        ``GET /metrics``, whose payload is the Prometheus text body (a
        ``str`` — transports type the response accordingly).  ``close``
        asks the transport to drop the connection after responding —
        set on every error so a keep-alive client never parses leftover
        bytes as its next response.
        """
        path, _, query_text = path.partition("?")
        normalized = path.rstrip("/") or "/"
        query = {}
        for pair in query_text.split("&"):
            name, sep, value = pair.partition("=")
            if name:
                query[name] = value if sep else "1"
        if method == "GET":
            result = self._get(normalized, query)
        elif method == "POST":
            result = self._post(normalized, body)
        elif method == "DELETE":
            result = self._delete(normalized)
        else:
            result = 501, {"error": f"unsupported method {method!r}"}, True
        if self._m_requests is not None:
            self._m_requests.inc(method=method, status=str(result[0]))
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _flag(query: dict, name: str) -> bool:
        return query.get(name, "").lower() in ("1", "true", "yes")

    def _get(self, path: str, query: dict) -> tuple[int, object, bool]:
        scheduler = self.scheduler
        if path == "/healthz":
            return 200, {"ok": True}, False
        if path == "/metrics":
            if scheduler.metrics is None:
                return (
                    404,
                    {"error": "metrics are disabled on this service"},
                    True,
                )
            return 200, scheduler.metrics.render_prometheus(), False
        if path == "/v1/stats":
            payload = scheduler.stats()
            payload["server"] = (
                self.extra_stats() if self.extra_stats is not None else None
            )
            return 200, payload, False
        if path == "/v1/jobs":
            return 200, {"jobs": scheduler.queue.snapshots()}, False
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            snapshot = scheduler.queue.snapshot(
                job_id, include_trace=self._flag(query, "trace")
            )
            if snapshot is None:
                return 404, {"error": f"unknown or evicted job {job_id!r}"}, True
            return 200, snapshot, False
        return 404, {"error": f"no such endpoint {path!r}"}, True

    def _post(
        self, path: str, body: Optional[bytes]
    ) -> tuple[int, dict, bool]:
        if path != "/v1/jobs":
            return 404, {"error": f"no such endpoint {path!r}"}, True
        if self.draining:
            return (
                503,
                {"error": "service is draining; not accepting submissions"},
                True,
            )
        if not body or len(body) > MAX_BODY_BYTES:
            return (
                400,
                {"error": "submission body required (a small JSON object)"},
                True,
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, {"error": "submission body is not valid JSON"}, True
        scheduler = self.scheduler
        try:
            spec = app_spec_from_request(payload)
            request = analysis_request_from_payload(
                payload,
                known_rules=self._known_rules(),
                # Overrides layer onto the *service's* configuration, so
                # a body naming only e.g. max_frames keeps the
                # operator's rule selection.
                defaults=AnalysisRequest.from_config(scheduler.config),
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}, True
        parent_trace = payload.get("trace")
        if parent_trace is not None and not (
            isinstance(parent_trace, dict)
            and isinstance(parent_trace.get("trace_id"), str)
            and isinstance(parent_trace.get("span_id"), str)
        ):
            return (
                400,
                {
                    "error": (
                        "trace must be a serialized span context: "
                        '{"trace_id": ..., "span_id": ...}'
                    )
                },
                True,
            )
        try:
            job = scheduler.submit(
                spec, request=request, parent_trace=parent_trace
            )
        except RuntimeError as exc:  # shut down mid-flight
            return 503, {"error": str(exc)}, True
        # A fast-lane job can finish — and, under a tiny retention
        # bound, even be evicted — before this snapshot; the job record
        # itself is always a valid response body.
        snapshot = scheduler.queue.snapshot(job.id)
        return 202, snapshot if snapshot is not None else job.as_dict(), False

    def _delete(self, path: str) -> tuple[int, dict, bool]:
        if not path.startswith("/v1/jobs/"):
            return 404, {"error": f"no such endpoint {path!r}"}, True
        job_id = path[len("/v1/jobs/"):]
        job, disposition = self.scheduler.cancel(job_id)
        if disposition == CANCEL_UNKNOWN:
            return 404, {"error": f"unknown or evicted job {job_id!r}"}, True
        if disposition == CANCEL_TERMINAL:
            return 409, {"error": f"job {job_id} already {job.state}"}, True
        if disposition == CANCEL_CONFLICT:
            return (
                409,
                {
                    "error": (
                        f"job {job_id} is shared by coalesced submissions; "
                        f"cancel those followers instead"
                    )
                },
                True,
            )
        # cancelled now, or cancelling while the worker is reaped
        snapshot = self.scheduler.queue.snapshot(job_id)
        return 200, snapshot if snapshot is not None else job.as_dict(), False

    def _known_rules(self) -> tuple[str, ...]:
        """The rule ids submissions may target on this service."""
        if self.scheduler.registry is not None:
            return self.scheduler.registry.rules
        return builtin_rules()


class AnalysisServer:
    """A running analysis service: scheduler + asyncio HTTP front end.

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`address` — the listening socket is bound eagerly in the
    constructor, so the address is authoritative before :meth:`start`.
    The event loop runs on a daemon thread, so ``serve_forever``
    semantics stay with the caller (the CLI blocks on :meth:`join`,
    tests just use the context manager).

    Request handling is non-blocking: coroutines own the sockets
    (parsing, keep-alive, slow-client timeouts) and every parsed
    request is dispatched to the router on the default executor, so a
    slow store probe never stalls other connections.

    Pass a ``scheduler`` to serve it through a :class:`ServiceAPI`, or
    a ready ``router`` (anything with ``handle(method, path, body)``
    and a ``draining`` flag, e.g. the cluster front end's
    :class:`~repro.service.cluster.ClusterRouter`) to serve that
    instead; :meth:`drain` and :meth:`shutdown` then leave job
    bookkeeping to the router's owner.
    """

    def __init__(
        self,
        scheduler: Optional[StoreAwareScheduler] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        router=None,
    ) -> None:
        """Bind the listener (not yet serving) over ``scheduler``
        (or ``router``)."""
        if (scheduler is None) == (router is None):
            raise ValueError("pass exactly one of scheduler or router")
        self.scheduler = scheduler
        self.api = (
            router
            if router is not None
            else ServiceAPI(scheduler, extra_stats=self._server_stats)
        )
        self._sock = socket.create_server((host, port), backlog=128)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: Recent event-loop scheduling delays (seconds over the
        #: monitor's intended sleep), for ``stats()["server"]``.
        self._lag_samples: deque = deque(maxlen=512)
        self._m_lag = (
            scheduler.metrics.histogram(
                "backdroid_event_loop_lag_seconds",
                "Event-loop scheduling delay per lag-monitor sample.",
                buckets=LAG_BUCKETS,
            )
            if scheduler is not None and scheduler.metrics is not None
            else None
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative even for ``port=0``."""
        name = self._sock.getsockname()
        return name[0], name[1]

    # ------------------------------------------------------------------
    def start(self) -> "AnalysisServer":
        """Start serving on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._started.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="backdroid-asyncio", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    async def _serve(self) -> None:
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, sock=self._sock
            )
        except Exception as exc:  # bind/registration failure
            self._startup_error = exc
            self._started.set()
            return
        lag_task = asyncio.ensure_future(self._monitor_loop_lag())
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            lag_task.cancel()
            server.close()
            await server.wait_closed()
            current = asyncio.current_task()
            pending = [t for t in asyncio.all_tasks() if t is not current]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: parse, dispatch, respond, keep alive."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), timeout=IO_TIMEOUT_SECONDS
                    )
                except (asyncio.TimeoutError, ConnectionError):
                    return
                if not request_line:
                    return  # client closed the connection
                if not request_line.strip():
                    continue  # stray CRLF between pipelined requests
                parts = request_line.decode("latin-1", "replace").split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"},
                        close=True,
                    )
                    return
                method, target, version = parts
                headers = await self._read_headers(reader)
                if headers is None:
                    return
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "bad Content-Length"},
                        close=True,
                    )
                    return
                if length < 0 or length > MAX_BODY_BYTES:
                    # Refuse without buffering: the unread body makes
                    # the connection unusable, so it is dropped.
                    await self._respond(
                        writer,
                        400,
                        {
                            "error": (
                                "submission body required "
                                "(a small JSON object)"
                            )
                        },
                        close=True,
                    )
                    return
                body = b""
                if length:
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length),
                            timeout=IO_TIMEOUT_SECONDS,
                        )
                    except (
                        asyncio.TimeoutError,
                        asyncio.IncompleteReadError,
                        ConnectionError,
                    ):
                        return
                # Route off-loop: handlers take queue locks and probe
                # the store; neither may stall other connections.
                status, payload, close = await loop.run_in_executor(
                    None, self.api.handle, method, target, body
                )
                close = (
                    close
                    or version == "HTTP/1.0"
                    or headers.get("connection", "").lower() == "close"
                )
                ok = await self._respond(writer, status, payload, close=close)
                if close or not ok:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_headers(reader) -> Optional[dict]:
        """Header block -> lowercase dict, or None on timeout/EOF."""
        headers: dict[str, str] = {}
        while True:
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=IO_TIMEOUT_SECONDS
                )
            except (asyncio.TimeoutError, ConnectionError):
                return None
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                return headers
            name, sep, value = line.decode("latin-1", "replace").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()

    @staticmethod
    async def _respond(writer, status: int, payload, close: bool) -> bool:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_http_reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if close:
            head += "Connection: close\r\n"
        head += "\r\n"
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    # ------------------------------------------------------------------
    async def _monitor_loop_lag(self) -> None:
        """Sample how late the loop wakes a timed sleep (GIL pressure).

        With in-process cold analyses (``cold_executor="thread"``) this
        is the number that blows up under cold load; with the process
        cold lane it stays flat — the metric that makes the contention
        fix observable in production, not just in benchmarks.
        """
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_SAMPLE_INTERVAL)
            lag = max(0.0, loop.time() - before - LAG_SAMPLE_INTERVAL)
            self._lag_samples.append(lag)
            if self._m_lag is not None:
                self._m_lag.observe(lag)

    def _server_stats(self) -> dict:
        # Shared quantile helper: sub-two-sample windows report null
        # (a fresh server has no lag distribution yet, not a zero one).
        samples = sorted(self._lag_samples)
        return {
            "loop": "asyncio",
            "draining": self.api.draining,
            "event_loop_lag_seconds": {
                "p50": quantile(samples, 0.50),
                "p99": quantile(samples, 0.99),
                "max": quantile(samples, 1.0),
            },
        }

    # ------------------------------------------------------------------
    def join(self) -> None:
        """Block the caller until the event-loop thread exits."""
        if self._thread is not None:
            self._thread.join()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting submissions and wait for in-flight jobs.

        Sets the 503-on-submit draining flag (reads and cancels keep
        working), then blocks until every queued/running job reaches a
        terminal state or *timeout* elapses.  Returns True when the
        queue went idle — the caller then shuts down with
        ``drain=True``; on False, ``drain=False`` abandons the stragglers.
        A router-only server has no queue here and returns True at once.
        """
        self.api.draining = True
        if self.scheduler is None:
            return True
        return self.scheduler.queue.wait_idle(timeout)

    def shutdown(self, drain: bool = True) -> None:
        """Stop the listener, then (with ``drain``) finish queued jobs.

        Ordering matters: closing the listener first guarantees no new
        submissions race the drain, so every job accepted before
        shutdown reaches a terminal state.  Safe on a never-started
        server (only the bound socket is released).
        """
        if self._thread is not None:
            loop, stop = self._loop, self._stop
            if loop is not None and stop is not None:
                try:
                    loop.call_soon_threadsafe(stop.set)
                except RuntimeError:
                    pass  # loop already closed
            self._thread.join()
            self._thread = None
        else:
            self._sock.close()
        if self.scheduler is not None:
            self.scheduler.shutdown(wait=drain)

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)


class ServiceClient:
    """Minimal ``urllib`` client for the service API (tests, CI, scripts).

    Every request carries ``timeout``; connection-establishment
    failures (refused/reset — a restarting or still-binding server) are
    retried up to ``retries`` times with exponential backoff starting
    at ``backoff_seconds``.  HTTP error statuses and read timeouts are
    *not* retried — they mean the server answered (or accepted) the
    request, and submissions are not idempotent.

    With multiple ``endpoints`` (a cluster of nodes, or a front end
    plus direct node fallbacks), a connection failure **rotates** to
    the next endpoint immediately — a reset against a draining node is
    the next host's problem, not a reason to burn backoff budget —
    and only once every endpoint has failed in a row does the client
    sleep and consume a retry.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff_seconds: float = 0.1,
        endpoints: Optional[list] = None,
    ) -> None:
        """Point the client at ``host:port`` — or a list of
        ``(host, port)`` ``endpoints`` tried in rotation."""
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if endpoints:
            self.endpoints = [(h, int(p)) for h, p in endpoints]
        elif host is not None and port is not None:
            self.endpoints = [(host, int(port))]
        else:
            raise ValueError("pass host/port or a non-empty endpoints list")
        self._endpoint_index = 0
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        #: Connection-error retries performed over this client's
        #: lifetime (observability for tests and scripts).
        self.retries_used = 0
        #: Endpoint rotations after connection failures (failovers).
        self.rotations = 0

    @property
    def base_url(self) -> str:
        host, port = self.endpoints[self._endpoint_index]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    @staticmethod
    def _is_connection_error(exc: Exception) -> bool:
        """True for errors where the request never reached the server."""
        if isinstance(exc, ConnectionError):
            return True
        if isinstance(exc, URLError):
            # Timeouts (socket.timeout is TimeoutError) mean the server
            # may have the request — never resubmit those.
            return isinstance(
                exc.reason, ConnectionError
            ) and not isinstance(exc.reason, TimeoutError)
        return False

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        retries: Optional[int] = None,
        raw: bool = False,
    ) -> tuple[int, object]:
        """One request; ``retries`` overrides the client default (0 for
        the retry-free read paths) and ``raw`` returns the body text
        instead of parsed JSON (the ``/metrics`` exposition)."""
        max_retries = self.retries if retries is None else retries
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempt = 0
        failed_in_row = 0
        while True:
            # Rebuilt per attempt: a rotation changes the base url.
            req = urlrequest.Request(
                self.base_url + path, data=data, headers=headers,
                method=method,
            )
            try:
                with urlrequest.urlopen(req, timeout=self.timeout) as response:
                    body = response.read()
                    if raw:
                        return response.status, body.decode("utf-8", "replace")
                    return response.status, json.loads(body or b"{}")
            except HTTPError as exc:
                body = exc.read()
                if raw:
                    return exc.code, body.decode("utf-8", "replace")
                try:
                    return exc.code, json.loads(body or b"{}")
                except json.JSONDecodeError:
                    return exc.code, {"error": body.decode("utf-8", "replace")}
            except (URLError, ConnectionError) as exc:
                if not self._is_connection_error(exc):
                    raise
                failed_in_row += 1
                if len(self.endpoints) > 1:
                    self._endpoint_index = (
                        self._endpoint_index + 1
                    ) % len(self.endpoints)
                    self.rotations += 1
                    if failed_in_row < len(self.endpoints):
                        continue  # next endpoint, no backoff consumed
                if attempt >= max_retries:
                    raise
                time.sleep(self.backoff_seconds * (2 ** attempt))
                attempt += 1
                self.retries_used += 1
                failed_in_row = 0

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` liveness payload (``{\"ok\": true}``)."""
        return self._request("GET", "/healthz")[1]

    def submit(self, request_payload: dict) -> dict:
        """Submit a spec; raises ``ValueError`` on a client error."""
        status, payload = self._request("POST", "/v1/jobs", request_payload)
        if status >= 400:
            raise ValueError(payload.get("error", f"HTTP {status}"))
        return payload

    def job(self, job_id: str, trace: bool = False) -> Optional[dict]:
        """One job's snapshot, or None for unknown/evicted ids.  Pass
        ``trace=True`` to include the recorded span tree (``?trace=1``)."""
        path = f"/v1/jobs/{job_id}" + ("?trace=1" if trace else "")
        status, payload = self._request("GET", path)
        return None if status == 404 else payload

    def cancel(self, job_id: str) -> dict:
        """Cancel a job; raises ``KeyError`` on unknown ids and
        ``ValueError`` when the job cannot be cancelled (already
        terminal, or shared by coalesced submissions)."""
        status, payload = self._request("DELETE", f"/v1/jobs/{job_id}")
        if status == 404:
            raise KeyError(f"unknown or evicted job {job_id!r}")
        if status >= 400:
            raise ValueError(payload.get("error", f"HTTP {status}"))
        return payload

    def jobs(self) -> list[dict]:
        """Every retained job snapshot, in submission order."""
        return self._request("GET", "/v1/jobs")[1]["jobs"]

    def stats(self) -> dict:
        """The ``/v1/stats`` payload: lanes, jobs, warm rate, store,
        and (when enabled) the embedded metrics snapshot.  Read-only
        observability path: never retried, so a probe during shutdown
        fails fast instead of backing off."""
        return self._request("GET", "/v1/stats", retries=0)[1]

    def metrics(self) -> str:
        """The raw Prometheus exposition text from ``/metrics``.
        Retry-free like :meth:`stats`; raises ``ValueError`` when the
        server runs with metrics disabled (HTTP 404)."""
        status, body = self._request("GET", "/metrics", retries=0, raw=True)
        if status >= 400:
            raise ValueError(f"HTTP {status}: {body.strip()}")
        return body

    def wait(
        self, job_id: str, timeout: float = 30.0, poll_seconds: float = 0.05
    ) -> dict:
        """Poll a job to a terminal state over HTTP."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.job(job_id)
            if snapshot is None:
                raise KeyError(f"unknown or evicted job {job_id!r}")
            if snapshot["state"] in TERMINAL_STATES:
                return snapshot
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            time.sleep(poll_seconds)
