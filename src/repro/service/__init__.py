"""The persistent analysis service: resident BackDroid, served over HTTP.

The batch driver amortizes work across one invocation; this package
amortizes it across *queries*, the way a market-scale vetting service
would run:

* :mod:`repro.service.jobs` — :class:`Job` records and the thread-safe
  :class:`JobQueue`: lifecycle (``queued → running →
  done|failed|cancelled``), in-flight dedup (same disassembly sha *and*
  same analysis request coalesce onto one analysis), cancellation and
  bounded retention of finished jobs;
* :mod:`repro.service.scheduler` — the :class:`StoreAwareScheduler`:
  probes the :class:`~repro.store.ArtifactStore` at submit time and
  dispatches warm submissions (stored outcome or restorable index) to a
  small in-process fast lane while cold submissions get the main pool —
  in-process threads, or (``cold_executor="process"``) worker processes
  so cold CPU work never shares the GIL with warm restores — with
  per-lane depth/wait/utilization statistics;
* :mod:`repro.service.workers` — the process-isolation substrate:
  the module-level worker entry point shared with
  ``run_batch --executor process`` and the :class:`ProcessLane` of
  long-lived worker processes (kill a running analysis, survive worker
  crashes, respawn to constant capacity);
* :mod:`repro.service.server` — the stdlib-only JSON HTTP API
  (``POST /v1/jobs`` with per-job rule/backend/budget overrides,
  ``GET /v1/jobs/<id>``, ``DELETE /v1/jobs/<id>``, ``GET /v1/stats``,
  ``GET /healthz``): the transport-agnostic :class:`ServiceAPI` router,
  the asyncio :class:`AnalysisServer` transport (which also serves the
  cluster front end), and the matching (retrying)
  :class:`ServiceClient`;
* :mod:`repro.service.cluster` — multi-node sharding over one shared
  store: :class:`NodeDirectory` heartbeat gossip, the fenced
  :class:`SpecmapLease`, the content-key-routing :class:`ClusterRouter`
  / :class:`ClusterFrontEnd` (failover re-dispatch under the same
  trace), and the subprocess :class:`ClusterHarness` used by tests,
  CI and the scaling benchmark.

The CLI front end is ``backdroid serve`` (``--node-id`` joins a
cluster; ``--peers store`` runs the front end).
"""

from repro.service.cluster import (
    DEFAULT_LEASE_TTL,
    SPECMAP_LEASE,
    ClusterFrontEnd,
    ClusterHarness,
    ClusterNode,
    ClusterRouter,
    NodeDirectory,
    SpecmapLease,
    install_specmap_guard,
)
from repro.service.jobs import (
    CANCELLED,
    CANCELLING,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobQueue,
)
from repro.service.scheduler import LaneStats, StoreAwareScheduler
from repro.service.server import (
    AnalysisServer,
    ServiceAPI,
    ServiceClient,
)
from repro.service.workers import ColdResult, ProcessLane

__all__ = [
    "CANCELLED",
    "CANCELLING",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "AnalysisServer",
    "ClusterFrontEnd",
    "ClusterHarness",
    "ClusterNode",
    "ClusterRouter",
    "ColdResult",
    "DEFAULT_LEASE_TTL",
    "Job",
    "JobQueue",
    "LaneStats",
    "NodeDirectory",
    "ProcessLane",
    "SPECMAP_LEASE",
    "ServiceAPI",
    "ServiceClient",
    "SpecmapLease",
    "StoreAwareScheduler",
    "install_specmap_guard",
]
