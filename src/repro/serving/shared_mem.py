"""Shared-memory column store: one physical forest copy for N workers.

The flat forest (:mod:`repro.core.flat`) is a set of read-only numpy columns,
which makes cross-process sharing trivial in principle: place the bytes in a
POSIX shared-memory segment once, and let every pool worker wrap zero-copy
array views around the same physical pages.  This module owns the mechanics:

* :class:`SharedColumnStore` — registry side.  Packs a ``name → array`` mapping
  into one segment (64-byte-aligned members) and records a layout table
  ``name → (offset, shape, dtype)`` that travels to workers as plain picklable
  data.  The creating process is responsible for the single ``unlink``; a
  ``weakref.finalize`` guarantees it even on unclean interpreter exit.
* :func:`attach_columns` — worker side.  Attaches to the segment by name,
  validates the advertised layout against the actual segment size (a
  truncated segment raises ``ValueError`` instead of serving garbage), and
  returns read-only views.
* :func:`memory_profile` — RSS introspection from ``/proc`` that
  demonstrates the O(1)-in-workers memory behaviour (shared pages are
  counted once, private pages per process).

CPython 3.12-and-earlier quirk: ``SharedMemory`` registers every *attach*
with the ``resource_tracker`` on POSIX, so a worker exiting would unlink a
segment it merely mapped.  :func:`attach_columns` suppresses that
registration while attaching (the tracker process is shared across forked
workers, so registering-then-unregistering would strip the *creator's*
entry and make its eventual ``unlink`` double-unregister) — the registry-side
finalizer is the only unlinker.
"""

from __future__ import annotations

import gc
import secrets
import threading
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "SharedColumnStore",
    "attach_columns",
    "release_attachment",
    "memory_profile",
    "segment_exists",
]

#: Byte alignment of member arrays inside the segment; cache-line friendly
#: and satisfies every numpy dtype alignment requirement.
_ALIGN = 64

#: Layout table entry: (byte offset, shape tuple, dtype string).
ColumnLayout = Dict[str, Tuple[int, Tuple[int, ...], str]]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_layout(columns: Mapping[str, np.ndarray]) -> Tuple[ColumnLayout, int]:
    """Assign aligned offsets to every column; returns (layout, total bytes)."""
    layout: ColumnLayout = {}
    offset = 0
    for name in sorted(columns):
        array = np.ascontiguousarray(columns[name])
        offset = _aligned(offset)
        layout[name] = (offset, tuple(array.shape), array.dtype.str)
        offset += array.nbytes
    return layout, max(offset, 1)


#: Serialises attach-time tracker patching within a process.
_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it as owned.

    On POSIX, stdlib 3.12-and-earlier registers every mapping with the
    ``resource_tracker`` as if the mapper owned it, so an attaching process
    exiting would tear the segment down for everyone else.  Unregistering
    *after* the attach is no better: forked workers share the creator's
    tracker process, so the unregister strips the creator's entry and its
    eventual ``unlink`` trips a tracker ``KeyError``.  Instead, suppress the
    registration for the duration of the attach — ownership stays exactly
    where :class:`SharedColumnStore` put it.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


class SharedColumnStore:
    """A named shared-memory segment holding a set of read-only numpy columns.

    Created by the model registry from the flat forest's columns; pool
    workers attach with :func:`attach_columns` using the store's ``name`` and
    ``layout``.  The store owns the segment: :meth:`dispose` (or garbage
    collection of the store, via ``weakref.finalize``) closes and unlinks it
    exactly once.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], name: Optional[str] = None) -> None:
        layout, total = _plan_layout(columns)
        if name is None:
            # Short random suffix: segment names are a global OS namespace.
            name = f"repro-forest-{secrets.token_hex(6)}"
        self._shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        self.name = self._shm.name
        self.layout = layout
        self.size = total
        buffer = self._shm.buf
        for column_name, (offset, shape, dtype_str) in layout.items():
            source = np.ascontiguousarray(columns[column_name])
            view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=buffer, offset=offset)
            view[...] = source
        self._finalizer = weakref.finalize(self, _dispose_segment, self._shm)

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent)."""
        self._finalizer()

    @property
    def disposed(self) -> bool:
        """True once the segment has been closed and unlinked."""
        return not self._finalizer.alive


def _dispose_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        # Live views in this process keep the mapping alive; the unlink
        # below still removes the name, and the mapping goes when they do.
        pass
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


def attach_columns(
    name: str, layout: ColumnLayout
) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Attach to a :class:`SharedColumnStore` segment and map its columns.

    Returns the open ``SharedMemory`` handle (the caller keeps it alive for
    as long as the views are used, and closes it on release) and a dict of
    read-only zero-copy array views.  Raises ``ValueError`` when the segment
    is smaller than the advertised layout — attaching to a truncated segment
    must fail loudly, not serve partial columns.
    """
    shm = _attach_untracked(name)
    required = 0
    for offset, shape, dtype_str in layout.values():
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype_str).itemsize
        required = max(required, offset + nbytes)
    if shm.size < required:
        shm.close()
        raise ValueError(
            f"shared memory segment {name!r} holds {shm.size} bytes but the "
            f"column layout requires {required} (truncated segment)"
        )
    columns: Dict[str, np.ndarray] = {}
    for column_name, (offset, shape, dtype_str) in layout.items():
        view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        columns[column_name] = view
    return shm, columns


def release_attachment(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Close a worker-side attachment, tolerating live numpy views.

    Numpy views pin the exported buffer; dropping the caller's references and
    collecting cycles first usually releases it.  If something still holds a
    view, the close is skipped (the mapping dies with the process) rather
    than crashing the worker mid-swap.
    """
    if shm is None:
        return
    gc.collect()
    try:
        shm.close()
    except BufferError:
        pass
    except Exception:
        pass


def segment_exists(name: str) -> bool:
    """Whether a shared-memory segment with this name is still linked.

    Probe for leak assertions: after an eviction or swap has disposed a
    :class:`SharedColumnStore`, its name must no longer resolve.  The probe
    attaches tracker-suppressed and closes immediately, so it neither adopts
    nor extends the segment's lifetime.
    """
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def memory_profile() -> Dict[str, float]:
    """Current process RSS split into shared and private pages (kilobytes).

    Reads ``/proc/self/smaps_rollup`` (Linux).  ``shared_kb`` counts pages
    also mapped elsewhere — e.g. the one physical copy of the forest columns
    — while ``private_kb`` is this process's own incremental footprint, the
    quantity that must stay flat as workers are added.  Returns zeros on
    platforms without ``/proc``.
    """
    profile = {"rss_kb": 0.0, "shared_kb": 0.0, "private_kb": 0.0}
    try:
        with open("/proc/self/smaps_rollup", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Rss:"):
                    profile["rss_kb"] = float(line.split()[1])
                elif line.startswith(("Shared_Clean:", "Shared_Dirty:")):
                    profile["shared_kb"] += float(line.split()[1])
                elif line.startswith(("Private_Clean:", "Private_Dirty:")):
                    profile["private_kb"] += float(line.split()[1])
    except OSError:
        pass
    return profile
