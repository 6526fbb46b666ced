"""In-memory span recorder for the traced benchmark run, plus span arithmetic.

A span is one call across a layer boundary: name, start, end, the span that
caused it (same process, same thread or task) and the request ids of the
query rows it carried.  Request ids join spans across processes: a query row
is unique within a run, so the digest of its float64 bytes names the request
in the load generator, in the HTTP server and in the pool worker alike.

The recorder wraps public methods of the library *from the benchmark's own
files* (:meth:`SpanRecorder.patch`); nothing inside ``src/`` is edited.  Spans
stay in memory and are written as JSON lines when the process ends.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import inspect
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The span a call running in this thread or task was caused by.
_CURRENT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


def row_id(row: np.ndarray) -> str:
    """Stable request id of one query row (identical in every process)."""
    data = np.ascontiguousarray(row, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def row_ids(rows: np.ndarray) -> List[str]:
    """Request ids of every row of a query block."""
    block = np.asarray(rows, dtype=np.float64)
    return [row_id(row) for row in block.reshape(block.shape[0], -1)]


class SpanRecorder:
    """Collects spans of one process; a forked child starts a fresh buffer."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._next = 0
        self._patches: List[Tuple[type, str, object]] = []

    # -- recording ---------------------------------------------------------------------------
    def _check_fork(self) -> None:
        if os.getpid() != self.pid:
            # A fork copied the parent's buffer: those spans belong to the
            # parent, which writes them itself.
            self.pid = os.getpid()
            self.spans = []
            self._next = 0

    def open(self, name: str) -> Tuple[str, Optional[str], contextvars.Token, float]:
        """Start a span; returns the handle :meth:`close` needs."""
        self._check_fork()
        self._next += 1
        span_id = f"{self.pid}:{self._next}"
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        return span_id, parent, token, time.perf_counter()

    def close(self, handle: Tuple[str, Optional[str], contextvars.Token, float], name: str,
              rids: Optional[Sequence[str]] = None, error: Optional[str] = None,
              **attrs: object) -> None:
        """Finish a span opened by :meth:`open` and keep it."""
        end = time.perf_counter()
        span_id, parent, token, start = handle
        _CURRENT.reset(token)
        span = {"name": name, "id": span_id, "parent": parent, "start": start, "end": end}
        if rids is not None:
            span["rids"] = list(rids)
        if error is not None:
            span["error"] = error
        span.update(attrs)
        self.spans.append(span)

    # -- wrapping ----------------------------------------------------------------------------
    def wrap(self, func: Callable, name: str,
             describe: Optional[Callable[..., dict]] = None,
             summarize: Optional[Callable[[object], dict]] = None) -> Callable:
        """A traced twin of ``func`` (sync or coroutine function).

        ``describe(*args, **kwargs)`` returns span attributes taken from the
        call's arguments (``rids`` among them); ``summarize(result)`` those
        taken from its result.  An exception is recorded by class name and
        re-raised.
        """
        recorder = self

        def attributes(args: tuple, kwargs: dict) -> dict:
            return describe(*args, **kwargs) if describe is not None else {}

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def traced_async(*args: object, **kwargs: object) -> object:
                attrs = attributes(args, kwargs)
                handle = recorder.open(name)
                try:
                    result = await func(*args, **kwargs)
                except BaseException as error:
                    recorder.close(handle, name, error=type(error).__name__, **attrs)
                    raise
                if summarize is not None:
                    attrs.update(summarize(result))
                recorder.close(handle, name, **attrs)
                return result

            return traced_async

        @functools.wraps(func)
        def traced(*args: object, **kwargs: object) -> object:
            attrs = attributes(args, kwargs)
            handle = recorder.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                recorder.close(handle, name, error=type(error).__name__, **attrs)
                raise
            if summarize is not None:
                attrs.update(summarize(result))
            recorder.close(handle, name, **attrs)
            return result

        return traced

    def patch(self, owner: type, attribute: str, name: str,
              describe: Optional[Callable[..., dict]] = None,
              summarize: Optional[Callable[[object], dict]] = None) -> None:
        """Replace the method ``owner.attribute`` by its traced twin until :meth:`unpatch`."""
        original = owner.__dict__[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, describe, summarize))

    def unpatch(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path: str) -> None:
        """Append this process's spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(paths: Iterable[str]) -> List[dict]:
    """Read spans written by :meth:`SpanRecorder.dump` (missing files are skipped)."""
    spans: List[dict] = []
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# -- span arithmetic ---------------------------------------------------------------------------
def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(span: dict, children: Iterable[dict]) -> float:
    """A span's duration minus the part of it its child spans cover (seconds)."""
    return (span["end"] - span["start"]) - covered(
        span["start"], span["end"], ((child["start"], child["end"]) for child in children)
    )


def children_of(spans: Sequence[dict]) -> Dict[str, List[dict]]:
    """Index spans by parent id."""
    index: Dict[str, List[dict]] = {}
    for span in spans:
        if span.get("parent") is not None:
            index.setdefault(span["parent"], []).append(span)
    return index


def rows_reads_split(rows: Sequence[float], reads: Sequence[float],
                     seconds: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``seconds ~ a * rows + b * reads``; returns ``(a, b)``.

    ``a`` is the per-query round set-up cost and ``b`` the cost of one node
    read.  Needs at least two spans whose (rows, reads) are not proportional.
    """
    design = np.column_stack([np.asarray(rows, dtype=float), np.asarray(reads, dtype=float)])
    target = np.asarray(seconds, dtype=float)
    if design.shape[0] < 2 or np.linalg.matrix_rank(design) < 2:
        raise ValueError("need spans with independent row and read counts")
    (a, b), *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(a), float(b)


def by_name(spans: Iterable[dict], name: str) -> List[dict]:
    """Spans called ``name``, in start order."""
    return sorted((span for span in spans if span["name"] == name), key=lambda s: s["start"])


def durations_ms(spans: Iterable[dict]) -> List[float]:
    """Span durations in milliseconds."""
    return [(span["end"] - span["start"]) * 1e3 for span in spans]
