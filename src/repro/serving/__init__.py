"""Zero-copy serving of snapshotted Bayes forests, for one tenant or many.

:class:`ModelRegistry` is the one serving backend.  It serves
:mod:`repro.persist` snapshots with exactly the predictions of the
in-process classifier: each resident model's flat forest columns
(:mod:`repro.core.flat`) live in one POSIX shared-memory segment
(:mod:`repro.serving.shared_mem`) that every pool worker attaches to
zero-copy, rounds are query-sharded across one shared worker pool
(``workers=0`` serves in-process through the same code path), and snapshot
swaps and evictions drain in-flight rounds before the old segment is
unlinked.  A single-model deployment is a one-tenant registry::

    registry = ModelRegistry(workers=2)
    registry.load("default", "forest.npz")
    labels = registry.predict_batch("default", queries, node_budget=16)

For many models the registry keeps an LRU cache of per-tenant segments
(bounded count and bytes, drain-before-unlink eviction), applies per-tenant
:class:`TenantPolicy` budget clamps and falls back to a shared global prior
for unknown tenants.

On top of it, :mod:`repro.serving.frontend` adds the asyncio request layer:
:class:`AsyncServingClient` coalesces concurrent ``await classify(...)``
calls into registry rounds with bounded-queue backpressure, per-request
deadlines and load-adaptive node budgets (:data:`ADAPTIVE`), and
:class:`HttpFrontend` exposes the stack over a minimal stdlib HTTP endpoint —
the versioned ``/v1/tenants/{tenant}/...`` routes, ``/v1/registry``,
``/healthz`` and ``/stats``.  Admission across tenants is *fair*
(:mod:`repro.serving.admission`): a deficit-round-robin scheduler over
per-tenant queues, weighted by :class:`TenantPolicy.weight`, plus per-tenant
``max_queue_depth`` bounds and ``requests_per_sec`` token-bucket quotas (the
enveloped HTTP 429).  Every request failure across the stack derives from
:class:`ServingError` (:mod:`repro.serving.errors`), which carries the
stable wire code the HTTP error envelope exposes.
"""

from .admission import DeficitRoundRobin, TenantQueueStats, TokenBucket
from .errors import (
    ERROR_CODES,
    DeadlineExceededError,
    FrontendClosedError,
    FrontendError,
    QueueFullError,
    QuotaExceededError,
    RegistryCapacityError,
    RegistryClosedError,
    RequestTimeoutError,
    ServingError,
    TenantNotFoundError,
    error_envelope,
)
from .frontend import (
    ADAPTIVE,
    AdaptiveBudgetPolicy,
    ArrivalRateEstimator,
    AsyncServingClient,
    ClassifyResult,
    FrontendStats,
    HttpFrontend,
    drive_open_loop,
)
from .registry import ModelRegistry, RegistryStats, TenantPolicy
from .shared_mem import SharedColumnStore, attach_columns, memory_profile, segment_exists

__all__ = [
    "SharedColumnStore",
    "attach_columns",
    "memory_profile",
    "segment_exists",
    "ModelRegistry",
    "RegistryStats",
    "TenantPolicy",
    "ADAPTIVE",
    "AdaptiveBudgetPolicy",
    "ArrivalRateEstimator",
    "AsyncServingClient",
    "ClassifyResult",
    "DeficitRoundRobin",
    "TenantQueueStats",
    "TokenBucket",
    "ERROR_CODES",
    "DeadlineExceededError",
    "FrontendClosedError",
    "FrontendError",
    "QueueFullError",
    "QuotaExceededError",
    "RegistryCapacityError",
    "RegistryClosedError",
    "RequestTimeoutError",
    "ServingError",
    "TenantNotFoundError",
    "error_envelope",
    "FrontendStats",
    "HttpFrontend",
    "drive_open_loop",
]
