"""Typed failure taxonomy for the simulated I/O stack.

Every injected fault raises (or fails an event with) a subclass of
:class:`FaultError`, so recovery code can distinguish *injected,
potentially-transient* faults — which the async VOL retries and
eventually survives via sync fallback — from programming errors, which
must propagate unchanged.  The hierarchy mirrors where in the stack the
fault bites:

``FaultError``
    ├── ``TransientIOError`` — retryable storage-side faults
    │     ├── ``PFSUnavailableError``   (outage window: whole PFS down)
    │     ├── ``FlakyWriteError``       (per-op probabilistic write error)
    │     ├── ``FlakyReadError``        (per-op probabilistic read error)
    │     ├── ``SSDFaultError``         (node-local drive failed)
    │     └── ``TierDegradedError``     (staging-cache tier inside a
    │           degradation window: the cache bypasses the tier or
    │           serves from the PFS — no data loss, deadlines may slip)
    ├── ``NodeFailureError`` — a whole compute node crashed (not
    │     retryable in place: the resident job is dead; the scheduler
    │     requeues it on surviving nodes)
    ├── ``WorkerCrashError``  — a rank's background I/O thread died
    ├── ``WorkerStallError``  — informational: worker paused (GC, OS jitter)
    ├── ``StagingTimeoutError`` — bounded staging reservation expired
    ├── ``CacheAdmissionError`` — a cache tier rejected a block (full and
    │     nothing evictable); the request is served from the source tier
    └── ``RetryExhaustedError`` — the retry budget ran out (carries the
          last underlying fault as ``__cause__``)

:func:`portable_traceback` formats any failure for a recorded artifact
(a crashed sweep point, a failed fleet job) independent of where the
checkout lives.
"""

from __future__ import annotations

import os
import traceback

__all__ = [
    "CacheAdmissionError",
    "FaultError",
    "FlakyReadError",
    "FlakyWriteError",
    "NodeFailureError",
    "PFSUnavailableError",
    "RetryExhaustedError",
    "SSDFaultError",
    "StagingTimeoutError",
    "TierDegradedError",
    "TransientIOError",
    "WorkerCrashError",
    "WorkerStallError",
    "portable_traceback",
]

#: Directory holding the ``repro`` package; stripped from traceback paths.
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def portable_traceback(exc: BaseException) -> str:
    """``exc``'s formatted traceback (chained causes included), with
    ``File "<...>/repro/x.py"`` written as ``File "repro/x.py"``."""
    text = "".join(traceback.format_exception(exc))
    return text.replace(f'File "{_PACKAGE_PARENT}{os.sep}', 'File "')


class FaultError(IOError):
    """Base class of every injected fault."""


class TransientIOError(FaultError):
    """A storage-side fault that may succeed when retried."""


class PFSUnavailableError(TransientIOError):
    """The shared parallel file system is inside an outage window."""

    def __init__(self, message: str, until: float = float("nan")):
        super().__init__(message)
        #: Simulated time at which the outage window ends (recovery code
        #: can sleep until then instead of blind-retrying).
        self.until = until


class FlakyWriteError(TransientIOError):
    """One write request was dropped (e.g. an OST bounced the RPC)."""


class FlakyReadError(TransientIOError):
    """One read request was dropped."""


class SSDFaultError(TransientIOError):
    """A node-local staging drive failed."""


class TierDegradedError(TransientIOError):
    """A staging-cache tier is inside an injected degradation window.

    Raised at copy issue (before any bytes move) so a rejected
    tier-to-tier copy is always retry- or bypass-safe: the block still
    exists on its source tier and the planner serves it from there.

    ``until`` carries the window's end when known, mirroring
    :class:`PFSUnavailableError` so backoff code can wait it out.
    """

    def __init__(self, message: str, until: float = float("nan")):
        super().__init__(message)
        #: Simulated time at which the degradation window ends.
        self.until = until


class NodeFailureError(FaultError):
    """A whole compute node went down (hardware fault, cabinet power).

    Delivered as the *cause* of the scheduler's kill interrupt, never
    raised into storage-request paths: a node crash is not an I/O error
    to retry in place — the job dies and is requeued elsewhere.
    """

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        #: Index of the failed node within the cluster allocation.
        self.node = node


class WorkerCrashError(FaultError):
    """The rank's background I/O worker (Argobots thread) crashed."""


class WorkerStallError(FaultError):
    """The background worker stalled (never raised into user code; used
    to label stall entries in the fault trace)."""


class StagingTimeoutError(FaultError):
    """A bounded staging-buffer reservation expired before space freed."""


class CacheAdmissionError(FaultError):
    """A cache tier rejected a block: the tier is full and eviction
    could not free enough space (everything resident is pinned or
    in flight).  The block stays on its source tier — admission control
    degrades service, never correctness."""


class RetryExhaustedError(FaultError):
    """Bounded retry gave up; ``__cause__`` holds the final fault."""
