"""One serving error taxonomy: stable codes shared by Python and HTTP callers.

Before the v1 API redesign the serving stack grew three parallel error
vocabularies: the async front-end raised :class:`QueueFullError` /
:class:`DeadlineExceededError` / :class:`FrontendClosedError`, the snapshot
layer raised :class:`~repro.persist.SnapshotError`, and the HTTP shim mapped
each ad hoc onto ``{"error": "<message>"}`` bodies whose shape a client could
not rely on.  This module is the single point of truth that replaces that:

* :class:`ServingError` — the base of every serving-side request failure.
  Each subclass carries a **stable string code** (``error.code``), the HTTP
  status it maps to (``error.http_status``) and, for retryable conditions, a
  ``retry_after_ms`` hint.  The codes are API: clients switch on them, so
  they never change meaning across releases (new codes may be added).
* :func:`error_envelope` — maps *any* exception (``ServingError`` subclasses,
  :class:`~repro.persist.SnapshotError`, bad-request ``ValueError`` families,
  unexpected bugs) onto ``(http_status, envelope_dict)`` where the envelope
  is the one wire shape used by every endpoint of
  :class:`~repro.serving.HttpFrontend`::

      {"error": {"code": "queue_full", "message": "...", "retry_after_ms": 50}}

  ``retry_after_ms`` is present exactly when the condition is retryable
  (every 429 and 503 carries it); other errors omit the key rather than
  null it.

The legacy exception names (:class:`QueueFullError` and friends) keep their
historical inheritance via :class:`FrontendError`, so existing ``except``
clauses keep working — the redesign adds the code/status vocabulary on top
instead of breaking callers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..persist import SnapshotError

__all__ = [
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
]


class ServingError(RuntimeError):
    """Base class of serving-side request failures with a stable wire code.

    Attributes
    ----------
    code:
        Stable machine-readable error code (API: never repurposed).
    http_status:
        The HTTP status the error maps to in the v1 envelope.
    retry_after_ms:
        Suggested client backoff in milliseconds for retryable conditions
        (``None`` when retrying cannot help).  Overridable per instance.
    """

    code: str = "internal"
    http_status: int = 500
    retry_after_ms: Optional[int] = None

    def __init__(self, message: str, retry_after_ms: Optional[int] = None) -> None:
        super().__init__(message)
        if retry_after_ms is not None:
            self.retry_after_ms = int(retry_after_ms)


class FrontendError(ServingError):
    """Base class of the async front-end's request failures (legacy name)."""


class QueueFullError(FrontendError):
    """Raised when the bounded request queue is full (backpressure, HTTP 503)."""

    code = "queue_full"
    http_status = 503
    retry_after_ms = 50


class QuotaExceededError(FrontendError):
    """Raised when a tenant's ``requests_per_sec`` quota rejects a request (HTTP 429).

    Distinct from :class:`QueueFullError`: a 503 means the *system* is out
    of capacity right now (any tenant may retry shortly), a 429 means *this
    tenant* exceeded its configured offered-rate budget — retrying before
    the quota refills cannot help, which is why the instance-level
    ``retry_after_ms`` is computed from the tenant's token-bucket refill
    rate at raise time.
    """

    code = "quota_exceeded"
    http_status = 429
    retry_after_ms = 1000


class DeadlineExceededError(FrontendError):
    """Raised when a request's deadline passed before its result (HTTP 504)."""

    code = "deadline_exceeded"
    http_status = 504


class FrontendClosedError(FrontendError):
    """Raised for requests submitted to (or abandoned by) a closed client."""

    code = "shutting_down"
    http_status = 503
    retry_after_ms = 1000


class RegistryClosedError(FrontendClosedError):
    """Raised for requests reaching a closed :class:`~repro.serving.ModelRegistry`."""


class TenantNotFoundError(ServingError):
    """Raised for a tenant the registry neither holds nor can cold-start."""

    code = "tenant_not_found"
    http_status = 404


class RegistryCapacityError(ServingError):
    """Raised when a tenant cannot be made resident within the cache bounds."""

    code = "registry_full"
    http_status = 503
    retry_after_ms = 250


class RequestTimeoutError(ServingError):
    """Raised when a client stalls mid-request past the read deadline (HTTP 408).

    The HTTP shim answers it and then closes the connection: the request's
    framing is incomplete, so nothing later on the socket can be trusted.
    """

    code = "request_timeout"
    http_status = 408


#: Every stable error code with the HTTP status it maps to — the documented
#: v1 wire vocabulary (``docs/http_api.md``).  ``bad_snapshot``,
#: ``bad_request``, ``not_found`` and ``internal`` have no dedicated
#: exception class; :func:`error_envelope` assigns them by exception family.
ERROR_CODES: Dict[str, int] = {
    "queue_full": 503,
    "quota_exceeded": 429,
    "deadline_exceeded": 504,
    "shutting_down": 503,
    "tenant_not_found": 404,
    "registry_full": 503,
    "request_timeout": 408,
    "bad_snapshot": 400,
    "bad_request": 400,
    "not_found": 404,
    "internal": 500,
}


def error_envelope(
    error: BaseException,
    code: Optional[str] = None,
    status: Optional[int] = None,
) -> Tuple[int, dict]:
    """Map an exception onto ``(http_status, {"error": {...}})``.

    ``ServingError`` subclasses carry their own code/status/retry hint;
    :class:`~repro.persist.SnapshotError` maps to ``bad_snapshot`` (the
    request named an unusable container), the bad-request exception family
    (``ValueError``/``KeyError``/``TypeError``) to ``bad_request``, and
    anything else to a 500 ``internal`` (message prefixed with the exception
    type so server bugs stay diagnosable from the wire).  ``code``/``status``
    override the inferred pair — the HTTP router uses this for pure routing
    errors (``not_found``) that have no exception class of their own.
    """
    message = str(error) or type(error).__name__
    retry_after_ms: Optional[int] = None
    if code is None:
        if isinstance(error, ServingError):
            code, status = error.code, error.http_status
            retry_after_ms = error.retry_after_ms
        elif isinstance(error, SnapshotError):
            code, status = "bad_snapshot", 400
        elif isinstance(error, (ValueError, KeyError, TypeError)):
            code, status = "bad_request", 400
        else:
            code, status = "internal", 500
            message = f"{type(error).__name__}: {message}"
    resolved_status = status if status is not None else ERROR_CODES.get(code, 500)
    body: dict = {"code": code, "message": message}
    if retry_after_ms is None and resolved_status in (429, 503):
        # 429 and 503 are by definition retryable; never ship one without a hint.
        retry_after_ms = 100
    if retry_after_ms is not None:
        body["retry_after_ms"] = retry_after_ms
    return resolved_status, {"error": body}
