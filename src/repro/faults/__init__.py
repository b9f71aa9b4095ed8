"""Fault injection and failure semantics for the simulated I/O stack.

See :mod:`repro.faults.injector` for the chaos layer and
:mod:`repro.faults.errors` for the typed failure taxonomy.  The async
VOL's recovery machinery (bounded retry with backoff, sync fallback) is
in :mod:`repro.hdf5.async_vol`; the checkpoint-restart-under-failure
experiment lives in :mod:`repro.harness.recovery`.
"""

from repro.faults.errors import (
    CacheAdmissionError,
    FaultError,
    FlakyReadError,
    FlakyWriteError,
    NodeFailureError,
    PFSUnavailableError,
    RetryExhaustedError,
    SSDFaultError,
    StagingTimeoutError,
    TierDegradedError,
    TransientIOError,
    WorkerCrashError,
    WorkerStallError,
    portable_traceback,
)
from repro.faults.injector import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    OutageWindow,
    SlowdownWindow,
)
from repro.faults.scenarios import chaos_config

__all__ = [
    "CacheAdmissionError",
    "FaultConfig",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FlakyReadError",
    "FlakyWriteError",
    "NodeFailureError",
    "OutageWindow",
    "PFSUnavailableError",
    "RetryExhaustedError",
    "SSDFaultError",
    "SlowdownWindow",
    "StagingTimeoutError",
    "TierDegradedError",
    "TransientIOError",
    "WorkerCrashError",
    "WorkerStallError",
    "chaos_config",
    "portable_traceback",
]
