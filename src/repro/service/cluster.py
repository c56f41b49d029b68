"""Multi-node ``backdroid serve``: store-coordinated job sharding.

The shared :class:`~repro.store.ArtifactStore` already makes analysis
*artifacts* safe to share between hosts (content-addressed shards,
atomic publishes); this module adds the small coordination layer that
makes whole *services* shareable:

* :class:`NodeDirectory` — node registration heartbeats plus
  shard-availability gossip, written as small JSON manifests under
  ``<store>/cluster/nodes/``.  A node that stops heartbeating simply
  ages out: liveness is a property of the file's freshness, no
  membership protocol required.
* :class:`SpecmapLease` — an advisory file lease (TTL + monotonic
  fencing token) under ``<store>/cluster/leases/`` so exactly one node
  owns spec → key mapping writes; expired leases are reclaimable by
  any peer, and the fencing token makes each ownership generation
  distinguishable after the fact.
* :class:`ClusterNode` — the per-``serve``-process agent: heartbeats
  the directory, renews (or reclaims) the specmap lease, and installs
  the store's specmap write guard so non-holders skip the write.
* :class:`ClusterRouter` / :class:`ClusterFrontEnd` — the front end:
  routes ``POST /v1/jobs`` to the node already holding the app's
  shards (content-key affinity via gossip + rendezvous hashing,
  falling back to least-loaded), forwards over plain HTTP, and
  monitors in-flight jobs so work on a dead node is reclaimed and
  retried on a peer **under the same trace** (per-attempt ``dispatch``
  spans, exactly like the cold lane's died-worker retries).
* :class:`ClusterHarness` — N real ``backdroid serve`` subprocesses
  over one shared store, with guaranteed teardown: the substrate for
  the fault-injection tests, the CI smoke job and the scaling
  benchmark.

Failure model: nodes fail by *silence* (crash, SIGKILL, partition).
A silent node's manifest goes stale after one TTL, the front end
reclaims its in-flight jobs onto live peers, and the specmap lease —
if the node held it — expires and is reclaimed with a bumped fencing
token.  Everything is advisory and idempotent: the worst outcome of a
race is a duplicate analysis or a skipped specmap write, both of
which the store's content addressing absorbs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.error import URLError

from repro.core.batch import probe_spec
from repro.service.jobs import TERMINAL_STATES
from repro.service.server import AnalysisServer, ServiceClient
from repro.store.artifacts import ArtifactStore, set_specmap_guard
from repro.telemetry import tracing
from repro.telemetry.logs import get_logger
from repro.workload.corpus import app_spec_from_request

_log = get_logger("repro.service.cluster")

#: Default lease/heartbeat TTL (seconds): a node silent this long is
#: treated as dead.
DEFAULT_LEASE_TTL = 10.0

#: The lease name guarding spec → content-key mapping writes.
SPECMAP_LEASE = "specmap"


# ----------------------------------------------------------------------
# Lease + directory (thin OO faces over the store primitives)
# ----------------------------------------------------------------------
class SpecmapLease:
    """One node's handle on an advisory store lease.

    ``try_acquire`` both acquires and renews; the store serializes
    reclaim races with an ``O_EXCL`` claim file per fencing-token
    generation (see :meth:`ArtifactStore.acquire_lease`).
    """

    def __init__(
        self,
        store: ArtifactStore,
        owner: str,
        ttl_seconds: float = DEFAULT_LEASE_TTL,
        name: str = SPECMAP_LEASE,
    ) -> None:
        self.store = store
        self.owner = owner
        self.ttl_seconds = ttl_seconds
        self.name = name
        #: Fencing token of the last successful acquire/renew.
        self.token: Optional[int] = None
        #: Successful acquisitions/renewals (observability).
        self.acquisitions = 0

    def try_acquire(self) -> bool:
        """Acquire or renew; False when another owner holds the lease
        (or a reclaim race was lost — just retry next heartbeat)."""
        payload = self.store.acquire_lease(
            self.name, self.owner, self.ttl_seconds
        )
        if payload is None:
            return False
        self.token = payload.get("token")
        self.acquisitions += 1
        return True

    def holds(self) -> bool:
        """Disk-checked ownership: unexpired and ours, right now."""
        lease = self.store.read_lease(self.name)
        if lease is None or lease.get("owner") != self.owner:
            return False
        expires = lease.get("expires_at")
        return isinstance(expires, (int, float)) and expires > time.time()

    def release(self) -> bool:
        return self.store.release_lease(self.name, self.owner)

    def info(self) -> Optional[dict]:
        """The on-disk lease payload (any owner's), or None."""
        return self.store.read_lease(self.name)


class NodeDirectory:
    """The gossip view: every node manifest, aged against one TTL."""

    def __init__(
        self, store: ArtifactStore, ttl_seconds: float = DEFAULT_LEASE_TTL
    ) -> None:
        self.store = store
        self.ttl_seconds = ttl_seconds

    def announce(self, node_id: str, payload: dict) -> None:
        """Publish one heartbeat manifest (stamps ``updated_at``)."""
        self.store.save_node_manifest(node_id, payload)

    def nodes(self, include_stale: bool = False) -> list[dict]:
        """Manifests with computed ``age_seconds``/``stale`` flags;
        stale ones (silent past the TTL) are dropped unless asked for."""
        now = time.time()
        out = []
        for manifest in self.store.load_node_manifests():
            updated = manifest.get("updated_at")
            if not isinstance(updated, (int, float)):
                continue
            age = max(0.0, now - updated)
            manifest = dict(manifest)
            manifest["age_seconds"] = age
            manifest["stale"] = age > self.ttl_seconds
            if manifest["stale"] and not include_stale:
                continue
            out.append(manifest)
        return out

    def live(self) -> dict:
        """``node_id -> manifest`` for every fresh node."""
        return {m["node_id"]: m for m in self.nodes()}

    def remove(self, node_id: str) -> None:
        self.store.remove_node_manifest(node_id)


def install_specmap_guard(
    store_root, node_id: str, lease_name: str = SPECMAP_LEASE
):
    """Gate specmap writes on holding the lease **on disk**.

    Installed before the scheduler is built so the cold lane's forked
    worker processes inherit it; the predicate deliberately reads the
    lease from disk on every call (no captured token or in-memory
    state), so a worker forked long ago still evaluates current
    ownership.  Returns the guard (tests call it directly).
    """
    store = ArtifactStore(store_root)

    def guard() -> bool:
        lease = store.read_lease(lease_name)
        if lease is None or lease.get("owner") != node_id:
            return False
        expires = lease.get("expires_at")
        return isinstance(expires, (int, float)) and expires > time.time()

    set_specmap_guard(store_root, guard)
    return guard


# ----------------------------------------------------------------------
# The per-process cluster agent
# ----------------------------------------------------------------------
class ClusterNode:
    """Heartbeat agent attached to one running ``serve`` process.

    Each beat renews (or tries to reclaim) the specmap lease and
    publishes the node manifest: address, queue depth, busy workers
    and the node's recently served content keys — the gossip a front
    end routes on.  The first beat runs synchronously in
    :meth:`start`, so by the time the serve banner prints the node is
    routable and (if uncontended) the lease has an owner.
    """

    def __init__(
        self,
        scheduler,
        store_root,
        node_id: str,
        address: tuple,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
        gossip_keys: int = 64,
    ) -> None:
        self.scheduler = scheduler
        self.node_id = node_id
        self.address = address
        self.store = ArtifactStore(store_root)
        self.lease = SpecmapLease(self.store, node_id, lease_ttl)
        self.directory = NodeDirectory(self.store, lease_ttl)
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_ttl / 3.0)
        )
        self.gossip_keys = gossip_keys
        self.beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self) -> None:
        """One heartbeat: lease renew/reclaim attempt + manifest."""
        held = self.lease.try_acquire()
        counts = self.scheduler.queue.counts()["by_state"]
        host, port = self.address
        self.directory.announce(
            self.node_id,
            {
                "host": host,
                "port": int(port),
                "pid": os.getpid(),
                "depth": counts.get("queued", 0) + counts.get("running", 0),
                "busy": sum(
                    lane.busy for lane in self.scheduler.lanes.values()
                ),
                "warm_keys": self.scheduler.warm_keys(self.gossip_keys),
                "lease_held": held,
                "lease_token": self.lease.token,
            },
        )
        self.beats += 1

    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.beat()
            except OSError:
                # A torn store (disk full, unmounted share) must not
                # kill the agent; the node just looks silent until the
                # store recovers.
                _log.warning(
                    "node %s heartbeat failed", self.node_id, exc_info=True
                )

    def start(self) -> "ClusterNode":
        if self._thread is not None:
            raise RuntimeError("cluster node already started")
        self.beat()  # synchronous: routable before the banner prints
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run,
            name=f"backdroid-node-{self.node_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Withdraw cleanly: stop beating, release the lease, remove
        the manifest, clear the specmap guard."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.lease.release()
            self.directory.remove(self.node_id)
        except OSError:
            pass
        set_specmap_guard(self.store.root, None)

    def __enter__(self) -> "ClusterNode":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Front-end routing
# ----------------------------------------------------------------------
@dataclass
class ClusterJob:
    """The front end's record of one routed submission."""

    id: str
    payload: dict
    package: Optional[str] = None
    #: Routing key (content key, or a spec-fingerprint surrogate).
    key: Optional[str] = None
    node_id: Optional[str] = None
    node_job_id: Optional[str] = None
    #: Dispatches accepted by some node (1 on the happy path).
    attempts: int = 0
    #: ``routed`` → (``reclaimed`` →)* ``done`` | ``failed``
    state: str = "routed"
    error: Optional[str] = None
    trace_id: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    #: Cached terminal snapshot from the executing node.
    snapshot: Optional[dict] = None
    #: Router-side spans, collected when the root span closes.
    trace: Optional[list] = None
    #: Node ids that accepted (then lost) this job — excluded from
    #: reclaim candidates.
    failed_nodes: list = field(default_factory=list)
    _root_span: object = None
    _dispatch_span: object = None


def _rendezvous_score(key: str, node_id: str) -> int:
    digest = hashlib.sha256(f"{key}|{node_id}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


class ClusterRouter:
    """Route, forward and babysit jobs across the live nodes.

    Transport-compatible with :class:`ServiceAPI` (``handle(method,
    path, body) -> (status, payload, close)`` plus a ``draining``
    flag), so the stock asyncio :class:`AnalysisServer` serves it
    unchanged.

    Routing policy, in order:

    1. an explicit ``"node"`` pin in the submission body (tests,
       draining);
    2. the router's own sticky map — the node this key was last
       dispatched to, if still live (affinity without waiting a
       gossip round);
    3. gossip affinity — live nodes advertising the key in their
       ``warm_keys``, highest rendezvous hash wins (``affinity_hits``);
    4. least-loaded (router in-flight + gossiped depth), rendezvous
       hash as the deterministic tiebreak.

    A monitor thread polls in-flight jobs: terminal results are
    cached; a job whose node went silent past the TTL is **reclaimed**
    — re-dispatched to a live peer under the same root span with a
    fresh per-attempt ``dispatch`` span — up to ``max_attempts``
    accepted dispatches.
    """

    def __init__(
        self,
        store_root,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        monitor_interval: Optional[float] = None,
        max_attempts: int = 3,
        retain_jobs: int = 1024,
        client_timeout: float = 10.0,
        tracing_enabled: bool = True,
    ) -> None:
        self.store = ArtifactStore(store_root)
        self.directory = NodeDirectory(self.store, lease_ttl)
        self.lease_ttl = lease_ttl
        self.monitor_interval = (
            monitor_interval
            if monitor_interval is not None
            else max(0.05, lease_ttl / 4.0)
        )
        self.max_attempts = max_attempts
        self.retain_jobs = retain_jobs
        self.client_timeout = client_timeout
        self.tracer = tracing.Tracer(enabled=tracing_enabled)
        self.draining = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._records: "dict[str, ClusterJob]" = {}
        self._order: list = []
        #: key -> node_id of the last dispatch (affinity memory).
        self._sticky: dict = {}
        self._clients: dict = {}
        # Routing counters (served under /v1/stats).
        self.routed = 0
        self.affinity_hits = 0
        self.reclaims = 0
        self.forward_failovers = 0
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "ClusterRouter":
        if self._monitor is None:
            self._stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="backdroid-cluster-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None

    # ------------------------------------------------------------------
    def _client(self, manifest: dict) -> ServiceClient:
        address = (manifest["host"], int(manifest["port"]))
        client = self._clients.get(address)
        if client is None:
            client = self._clients[address] = ServiceClient(
                address[0],
                address[1],
                timeout=self.client_timeout,
                retries=0,
            )
        return client

    def _inflight_by_node(self) -> dict:
        counts: dict = {}
        for record in self._records.values():
            if record.state == "routed" and record.node_id:
                counts[record.node_id] = counts.get(record.node_id, 0) + 1
        return counts

    def _candidates(
        self,
        key: Optional[str],
        live: dict,
        pin: Optional[str] = None,
        exclude: tuple = (),
    ) -> list:
        """Node ids to try, preferred first (see class docstring)."""
        usable = [n for n in live if n not in exclude]
        if not usable:
            return []
        if pin is not None and pin in usable:
            return [pin] + [n for n in usable if n != pin]
        ordered: list = []
        with self._lock:
            sticky = self._sticky.get(key)
            inflight = self._inflight_by_node()
        if sticky in usable:
            ordered.append(sticky)
        if key is not None:
            holders = [
                n
                for n in usable
                if key in (live[n].get("warm_keys") or ())
                and n not in ordered
            ]
            holders.sort(key=lambda n: -_rendezvous_score(key, n))
            if holders and not ordered:
                self.affinity_hits += 1
            ordered.extend(holders)
        rest = [n for n in usable if n not in ordered]
        rest.sort(
            key=lambda n: (
                inflight.get(n, 0) + int(live[n].get("depth") or 0),
                -_rendezvous_score(key or "", n),
            )
        )
        ordered.extend(rest)
        return ordered

    # ------------------------------------------------------------------
    def _dispatch(
        self, record: ClusterJob, live: dict, exclude: tuple = (),
        pin: Optional[str] = None,
    ) -> Optional[dict]:
        """Forward the submission to the first accepting candidate.

        Returns the accepting node's job snapshot, or None when every
        candidate refused/was unreachable (the record is untouched and
        may be retried by the monitor once gossip changes).
        """
        candidates = self._candidates(
            record.key, live, pin=pin, exclude=exclude
        )
        for node_id in candidates:
            manifest = live[node_id]
            dispatch_span = self.tracer.start_span(
                "dispatch",
                parent=record._root_span,
                attrs={"node": node_id, "attempt": record.attempts + 1},
            )
            body = dict(record.payload)
            ctx = dispatch_span.context()
            if ctx is not None:
                body["trace"] = ctx
            try:
                snapshot = self._client(manifest).submit(body)
            except (ValueError, OSError, URLError) as exc:
                # 4xx/5xx (draining, bad body vs this node's rules) or
                # a dead socket: next candidate.
                dispatch_span.set_attrs(forward_error=str(exc))
                dispatch_span.end()
                self.forward_failovers += 1
                continue
            with self._lock:
                record.attempts += 1
                record.node_id = node_id
                record.node_job_id = snapshot.get("id")
                record.state = "routed"
                if record._dispatch_span is not None:
                    record._dispatch_span.end()
                record._dispatch_span = dispatch_span
                dispatch_span.set_attrs(node_job_id=record.node_job_id)
                if record.key is not None:
                    self._sticky[record.key] = node_id
            return snapshot
        return None

    def _finalize(self, record: ClusterJob, snapshot: dict) -> None:
        """Cache a terminal node snapshot and close the trace."""
        with self._lock:
            if record.state in ("done", "failed"):
                return
            record.snapshot = snapshot
            record.state = (
                "done" if snapshot.get("state") == "done" else "failed"
            )
            record.error = snapshot.get("error")
            span, dispatch = record._root_span, record._dispatch_span
            record._root_span = record._dispatch_span = None
        if dispatch is not None:
            dispatch.set_attrs(state=snapshot.get("state"))
            dispatch.end()
        if span is not None and span:
            span.set_attrs(
                state=record.state,
                node=record.node_id,
                attempts=record.attempts,
            )
            span.end()
            record.trace = self.tracer.collect(span.trace_id)

    def _fail(self, record: ClusterJob, error: str) -> None:
        with self._lock:
            if record.state in ("done", "failed"):
                return
            record.state = "failed"
            record.error = error
            span, dispatch = record._root_span, record._dispatch_span
            record._root_span = record._dispatch_span = None
        if dispatch is not None:
            dispatch.end()
        if span is not None and span:
            span.set_attrs(state="failed", error=error)
            span.end()
            record.trace = self.tracer.collect(span.trace_id)

    # ------------------------------------------------------------------
    def _poll_node(
        self, record: ClusterJob, manifest: dict, trace: bool = False
    ) -> Optional[dict]:
        try:
            return self._client(manifest).job(
                record.node_job_id, trace=trace
            )
        except (OSError, URLError, ValueError):
            return None

    def _sweep(self) -> None:
        """One monitor pass over the in-flight records."""
        live = self.directory.live()
        with self._lock:
            pending = [
                r
                for r in self._records.values()
                if r.state in ("routed", "reclaimed")
            ]
        for record in pending:
            if record.state == "routed" and record.node_id in live:
                snapshot = self._poll_node(record, live[record.node_id])
                if snapshot is not None and snapshot.get(
                    "state"
                ) in TERMINAL_STATES:
                    self._finalize(record, snapshot)
                continue
            # The owner is silent (or the record is awaiting a peer):
            # reclaim.
            if record.state == "routed":
                with self._lock:
                    if record.node_id not in record.failed_nodes:
                        record.failed_nodes.append(record.node_id)
                    record.state = "reclaimed"
                    self.reclaims += 1
                    if record._dispatch_span is not None:
                        record._dispatch_span.set_attrs(died=True)
                        record._dispatch_span.end()
                        record._dispatch_span = None
                _log.warning(
                    "node %s went silent; reclaiming job %s "
                    "(attempt %d/%d)",
                    record.node_id,
                    record.id,
                    record.attempts + 1,
                    self.max_attempts,
                    extra={"trace_id": record.trace_id},
                )
            if record.attempts >= self.max_attempts:
                self._fail(
                    record,
                    f"job lost on {record.failed_nodes} after "
                    f"{record.attempts} attempt(s)",
                )
                continue
            snapshot = self._dispatch(
                record, live, exclude=tuple(record.failed_nodes)
            )
            if snapshot is None and not live:
                # No live peers at all; keep waiting for gossip.
                continue

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.monitor_interval):
            try:
                self._sweep()
            except Exception:
                _log.warning("cluster monitor sweep failed", exc_info=True)

    # ------------------------------------------------------------------
    # Transport-facing API (ServiceAPI-compatible)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body=None):
        try:
            if method == "GET":
                return self._get(path)
            if method == "POST":
                return self._post(path, body)
            if method == "DELETE":
                return self._delete(path)
        except Exception as exc:  # defensive: a router bug is a 500
            _log.warning("router error on %s %s", method, path,
                         exc_info=True)
            return 500, {"error": f"router error: {exc}"}, True
        return 405, {"error": f"unsupported method {method}"}, True

    def _post(self, path: str, body) -> tuple:
        import json as _json

        if path != "/v1/jobs":
            return 404, {"error": f"no such endpoint {path!r}"}, True
        if self.draining:
            return (
                503,
                {"error": "front end is draining; not accepting "
                          "submissions"},
                True,
            )
        if not body:
            return (
                400,
                {"error": "submission body required (a small JSON "
                          "object)"},
                True,
            )
        try:
            payload = _json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "submission body is not valid JSON"}, True
        if not isinstance(payload, dict):
            return 400, {"error": "submission body must be an object"}, True
        pin = payload.pop("node", None)
        try:
            spec = app_spec_from_request(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}, True
        key, _level = probe_spec(spec, self.store)
        live = self.directory.live()
        if not live:
            return 503, {"error": "no live nodes"}, True
        if pin is not None and pin not in live:
            return 400, {"error": f"unknown or dead node {pin!r}"}, True
        record = ClusterJob(
            id=f"cjob-{next(self._ids):06d}",
            payload=payload,
            package=spec.package,
            key=key,
        )
        record._root_span = self.tracer.start_span(
            "cluster.job",
            attrs={"package": spec.package, "job_id": record.id},
        )
        if record._root_span:
            record.trace_id = record._root_span.trace_id
        with self._lock:
            self._records[record.id] = record
            self._order.append(record.id)
            self.routed += 1
            while len(self._order) > self.retain_jobs:
                evicted = self._order.pop(0)
                old = self._records.get(evicted)
                if old is not None and old.state in ("done", "failed"):
                    del self._records[evicted]
                else:
                    self._order.insert(0, evicted)
                    break
        snapshot = self._dispatch(record, live, pin=pin)
        if snapshot is None:
            self._fail(record, "no node accepted the submission")
            return 503, self._view(record), True
        return 202, self._view(record, node_snapshot=snapshot), False

    def _get(self, path: str) -> tuple:
        if path == "/healthz":
            return 200, {"ok": True, "role": "front-end"}, False
        if path == "/v1/stats":
            return 200, self.stats(), False
        if path == "/v1/jobs":
            with self._lock:
                ids = list(self._order)
                records = [self._records[i] for i in ids]
            return 200, {"jobs": [self._view(r) for r in records]}, False
        if path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            want_trace = False
            if "?" in tail:
                tail, _, query = tail.partition("?")
                want_trace = "trace=1" in query
            with self._lock:
                record = self._records.get(tail)
            if record is None:
                return 404, {"error": f"unknown job {tail!r}"}, True
            return 200, self._view(record, trace=want_trace), False
        return 404, {"error": f"no such endpoint {path!r}"}, True

    def _delete(self, path: str) -> tuple:
        if not path.startswith("/v1/jobs/"):
            return 404, {"error": f"no such endpoint {path!r}"}, True
        job_id = path[len("/v1/jobs/"):]
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, True
        if record.state in ("done", "failed"):
            return 409, {"error": f"job {job_id} already {record.state}"}, True
        live = self.directory.live()
        manifest = live.get(record.node_id)
        if manifest is None:
            self._fail(record, "cancelled while its node was silent")
            return 200, self._view(record), False
        try:
            self._client(manifest).cancel(record.node_job_id)
        except KeyError:
            pass
        except (ValueError, OSError, URLError) as exc:
            return 409, {"error": str(exc)}, True
        snapshot = self._poll_node(record, manifest)
        if snapshot is not None and snapshot.get("state") in TERMINAL_STATES:
            self._finalize(record, snapshot)
        return 200, self._view(record), False

    # ------------------------------------------------------------------
    def _view(
        self,
        record: ClusterJob,
        node_snapshot: Optional[dict] = None,
        trace: bool = False,
    ) -> dict:
        """The served job payload: node snapshot + cluster fields."""
        snapshot = record.snapshot or node_snapshot
        if snapshot is None and record.state in ("routed",):
            live = self.directory.live()
            manifest = live.get(record.node_id)
            if manifest is not None:
                snapshot = self._poll_node(record, manifest, trace=trace)
                if snapshot is not None and snapshot.get(
                    "state"
                ) in TERMINAL_STATES:
                    self._finalize(record, snapshot)
                    snapshot = record.snapshot
        if snapshot is not None:
            view = dict(snapshot)
        else:
            view = {
                "package": record.package,
                "state": (
                    "queued" if record.state == "reclaimed"
                    else record.state
                ),
                "result": None,
                "error": record.error,
            }
        view["id"] = record.id
        view["node_id"] = record.node_id
        view["node_job_id"] = record.node_job_id
        view["attempts"] = record.attempts
        view["key"] = record.key
        view["trace_id"] = record.trace_id
        if record.state == "failed":
            view["state"] = "failed"
            view["error"] = record.error
        if trace:
            spans = list(record.trace or [])
            node_trace = (
                snapshot.get("trace") if snapshot is not None else None
            )
            if node_trace:
                spans.extend(node_trace)
            view["trace"] = spans or None
        return view

    def stats(self) -> dict:
        with self._lock:
            states: dict = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            counters = {
                "routed": self.routed,
                "affinity_hits": self.affinity_hits,
                "reclaims": self.reclaims,
                "forward_failovers": self.forward_failovers,
            }
        lease = self.store.read_lease(SPECMAP_LEASE)
        return {
            "role": "front-end",
            "nodes": self.directory.nodes(include_stale=True),
            "lease": lease,
            "jobs": states,
            "routing": counters,
            "draining": self.draining,
        }


class ClusterFrontEnd(AnalysisServer):
    """The router behind the stock asyncio HTTP transport.

    Adds only the router's own lifecycle: its failover monitor starts
    with the listener and stops after it.  :meth:`drain` turns new
    submissions away (503) and returns at once; the nodes finish
    their own in-flight work.
    """

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host=host, port=port, router=router)
        self.router = router

    def start(self) -> "ClusterFrontEnd":
        self.router.start()
        return super().start()

    def shutdown(self, drain: bool = True) -> None:
        super().shutdown(drain)
        self.router.stop()


# ----------------------------------------------------------------------
# The real-process harness (tests, CI, benchmark)
# ----------------------------------------------------------------------
_BANNER_RE = re.compile(r"http://([\d.]+):(\d+)")


class _NodeProcess:
    """One spawned ``backdroid serve`` node and its log pump."""

    def __init__(self, node_id: str, process: subprocess.Popen) -> None:
        self.node_id = node_id
        self.process = process
        self.address: Optional[tuple] = None
        self.log: list = []
        self._banner = threading.Event()
        self._pump = threading.Thread(
            target=self._drain, name=f"log-{node_id}", daemon=True
        )
        self._pump.start()

    def _drain(self) -> None:
        # Keeps the child's stdout pipe from filling (a full pipe
        # deadlocks the service's print statements) while retaining
        # the log for debugging.
        for line in self.process.stdout:
            self.log.append(line.rstrip("\n"))
            if self.address is None:
                match = _BANNER_RE.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._banner.set()
        self._banner.set()  # EOF: unblock waiters even without a banner

    def wait_banner(self, timeout: float) -> tuple:
        if not self._banner.wait(timeout) or self.address is None:
            raise RuntimeError(
                f"node {self.node_id} printed no listen banner; log:\n"
                + "\n".join(self.log[-20:])
            )
        return self.address


class ClusterHarness:
    """N real ``backdroid serve`` subprocesses over one shared store.

    Nodes are spawned sequentially (``n1`` first, so the first node
    deterministically grabs the specmap lease), each on an ephemeral
    port, and health-checked before the next starts.  Teardown is
    guaranteed: ``stop()`` terminates then kills every child, and the
    context manager/fixture finalizer always runs it.
    """

    def __init__(
        self,
        store_dir,
        nodes: int = 2,
        backend: str = "indexed",
        store_mode: str = "index",
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: Optional[float] = None,
        workers: int = 1,
        cold_workers: int = 1,
        fast_lane_workers: int = 1,
        session_cache: int = 4,
        rules: str = "",
        env_overrides: Optional[dict] = None,
        extra_args: Optional[list] = None,
        startup_timeout: float = 30.0,
    ) -> None:
        self.store_dir = Path(store_dir)
        self.node_count = nodes
        self.backend = backend
        self.store_mode = store_mode
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.workers = workers
        self.cold_workers = cold_workers
        self.fast_lane_workers = fast_lane_workers
        self.session_cache = session_cache
        self.rules = rules
        self.env_overrides = env_overrides or {}
        self.extra_args = list(extra_args or [])
        self.startup_timeout = startup_timeout
        self.nodes: "dict[str, _NodeProcess]" = {}
        self._front_ends: list = []

    # ------------------------------------------------------------------
    def _spawn(self, node_id: str) -> _NodeProcess:
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        env.update(self.env_overrides.get(node_id, {}))
        cmd = [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--store",
            str(self.store_dir),
            "--store-mode",
            self.store_mode,
            "--backend",
            self.backend,
            "--node-id",
            node_id,
            "--lease-ttl",
            str(self.lease_ttl),
            "--workers",
            str(self.workers),
            "--cold-workers",
            str(self.cold_workers),
            "--fast-lane-workers",
            str(self.fast_lane_workers),
            "--session-cache",
            str(self.session_cache),
        ]
        if self.heartbeat_interval is not None:
            cmd += ["--heartbeat-interval", str(self.heartbeat_interval)]
        if self.rules:
            cmd += ["--rules", self.rules]
        cmd += self.extra_args
        process = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        return _NodeProcess(node_id, process)

    def start(self) -> "ClusterHarness":
        try:
            for index in range(1, self.node_count + 1):
                node_id = f"n{index}"
                node = self._spawn(node_id)
                self.nodes[node_id] = node
                host, port = node.wait_banner(self.startup_timeout)
                self._wait_health(host, port)
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_health(self, host: str, port: int) -> None:
        client = ServiceClient(host, port, timeout=2.0, retries=0)
        deadline = time.time() + self.startup_timeout
        while True:
            try:
                if client.health().get("ok"):
                    return
            except (OSError, URLError, ValueError):
                pass
            if time.time() > deadline:
                raise RuntimeError(f"node at {host}:{port} never healthy")
            time.sleep(0.05)

    # ------------------------------------------------------------------
    def endpoints(self) -> list:
        """Live ``(host, port)`` pairs, spawn order."""
        return [
            node.address
            for node in self.nodes.values()
            if node.address is not None
        ]

    def client(self, node_id: str, **kwargs) -> ServiceClient:
        node = self.nodes[node_id]
        host, port = node.wait_banner(self.startup_timeout)
        kwargs.setdefault("timeout", 10.0)
        return ServiceClient(host, port, **kwargs)

    def front_end(self, **kwargs) -> ClusterFrontEnd:
        """A started front end routing over this harness's store."""
        kwargs.setdefault("lease_ttl", self.lease_ttl)
        front = ClusterFrontEnd(
            ClusterRouter(self.store_dir, **kwargs)
        ).start()
        self._front_ends.append(front)
        return front

    # ------------------------------------------------------------------
    def kill_node(self, node_id: str, sig: int = signal.SIGKILL) -> None:
        """Fault injection: deliver ``sig`` (default SIGKILL) now."""
        node = self.nodes[node_id]
        try:
            node.process.send_signal(sig)
        except ProcessLookupError:
            pass
        node.process.wait(timeout=10.0)

    def stop(self) -> None:
        """Terminate every child; escalate to SIGKILL after a grace."""
        for front in self._front_ends:
            try:
                front.shutdown()
            except Exception:
                pass
        self._front_ends = []
        for node in self.nodes.values():
            if node.process.poll() is None:
                try:
                    node.process.terminate()
                except ProcessLookupError:
                    pass
        deadline = time.time() + 5.0
        for node in self.nodes.values():
            while node.process.poll() is None and time.time() < deadline:
                time.sleep(0.05)
            if node.process.poll() is None:
                try:
                    node.process.kill()
                except ProcessLookupError:
                    pass
                node.process.wait(timeout=10.0)

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
