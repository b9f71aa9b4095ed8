"""Job descriptions and runtime records for the cluster service layer.

A :class:`JobSpec` is what a tenant submits: which workload to run, at
what scale, with which I/O mode preference ('sync', 'async', or 'auto'
— let the scheduler's advisor decide), plus the admission-control
metadata batch schedulers require (requested walltime) and the I/O
shape the advisor consumes (aggregate bytes per I/O phase, nominal
computation-phase length).  A :class:`JobRecord` is the scheduler's
mutable per-job ledger entry: queue/run timestamps, placement, final
state and the per-tenant observability hooks (its own
:class:`~repro.trace.IOLog`, its :class:`~repro.sim.engine.EngineStats`
delta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.engine import Interrupted

__all__ = ["JobKilled", "JobKilledByNodeFailure", "JobRecord", "JobSpec",
           "JobState"]


class JobKilled(Interrupted):
    """Thrown into a job's rank processes when the scheduler kills it
    (walltime exceeded).  Deriving from the engine's
    :class:`~repro.sim.engine.Interrupted` keeps it inside the typed
    taxonomy: it *is* the scancel interrupt, delivered via
    ``Process.interrupt``.  ``job_id`` identifies the casualty."""

    def __init__(self, job_id: int, reason: str = "walltime exceeded"):
        super().__init__(f"job {job_id} killed: {reason}")
        self.job_id = job_id
        self.reason = reason


class JobKilledByNodeFailure(JobKilled):
    """The kill interrupt delivered when a job's node hard-crashes.

    Distinct from the walltime :class:`JobKilled` so the runner's
    recovery path can requeue the victim instead of recording a
    timeout; ``__cause__`` carries the underlying
    :class:`~repro.faults.errors.NodeFailureError`.
    """

    def __init__(self, job_id: int, node: int):
        super().__init__(job_id, reason=f"node {node} failed")
        self.node = node


class JobState(enum.Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"      # submitted, waiting in the queue
    RUNNING = "running"      # placed on nodes, ranks executing
    COMPLETED = "completed"  # every rank finished inside the walltime
    TIMEOUT = "timeout"      # killed at the walltime deadline
    FAILED = "failed"        # a rank died with an unhandled exception
    REJECTED = "rejected"    # admission control refused the job


@dataclass(frozen=True)
class JobSpec:
    """One tenant's job submission.

    ``program_factory(lib, vol, config)`` is any of the existing
    workload factories (:func:`~repro.workloads.vpic_program`, ...);
    the scheduler supplies the shared library and a per-job VOL.
    ``mode='auto'`` delegates the sync-vs-async choice to the policy:
    FIFO and backfill fall back to the paper's synchronous default,
    the I/O-aware policy asks its advisor service.

    ``phase_bytes`` (aggregate bytes of one I/O phase across all
    ranks), ``compute_phase_seconds`` and ``n_phases`` describe the
    job's I/O shape to admission control — the same quantities the
    paper's Fig. 2 feedback loop works on, declared up front the way
    batch jobs declare walltime.

    **Checkpoint/restart model.**  The job's I/O phases double as its
    checkpoints: ``compute_phase_seconds`` is the checkpoint interval
    and ``phase_bytes`` the checkpoint size, charged through the same
    sync/async write model as every other byte — which is why *async*
    checkpointing measurably shrinks the work lost to a node failure
    (more phases reach durable storage by the kill instant, Eq. 2b's
    overlap).  ``resume_factory(config, n_durable)`` rebuilds the
    workload config so a requeued job restarts after its first
    ``n_durable`` completed phases; jobs without one (e.g. read
    workloads) restart from scratch.  ``max_restarts`` is the
    scheduler's per-job requeue budget after node failures.
    """

    name: str
    tenant: str
    workload: str
    nranks: int
    mode: str
    program_factory: Callable
    config: Any
    op: str = "write"
    prepopulate: Optional[Callable] = None
    compute_phase_seconds: float = 0.0
    phase_bytes: float = 0.0
    n_phases: int = 1
    walltime: float = math.inf
    ranks_per_node: Optional[int] = None
    vol_kwargs: dict = field(default_factory=dict)
    #: ``(config, n_durable) -> config`` building the resumed workload
    #: config after ``n_durable`` phases are durable; None = no
    #: application-level checkpointing, requeues restart from scratch.
    resume_factory: Optional[Callable] = None
    #: Requeue budget after node failures (0 = fail on first crash).
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.mode not in ("sync", "async", "auto"):
            raise ValueError(
                f"mode must be 'sync', 'async' or 'auto', got {self.mode!r}"
            )
        if self.op not in ("write", "read"):
            raise ValueError(f"op must be 'write' or 'read', got {self.op!r}")
        if self.compute_phase_seconds < 0 or self.phase_bytes < 0:
            raise ValueError(f"negative I/O shape in {self.name!r}")
        if self.n_phases < 1:
            raise ValueError(f"n_phases must be >= 1, got {self.n_phases}")
        if self.walltime <= 0:
            raise ValueError(f"walltime must be positive, got {self.walltime}")
        if self.ranks_per_node is not None and self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )

    def nnodes(self, default_rpn: int) -> int:
        """Nodes this job occupies at its (or the machine's) density."""
        rpn = self.ranks_per_node or default_rpn
        return (self.nranks + rpn - 1) // rpn


class JobRecord:
    """Mutable scheduler-side ledger entry for one submitted job."""

    __slots__ = (
        "spec", "job_id", "submit_time", "state", "mode", "nodes",
        "start_time", "finish_time", "log", "decision", "stats_delta",
        "reject_reason", "queued_since", "attempts", "kill_reason",
        "fault", "attempt_history", "durable_phases", "lost_work_seconds",
    )

    def __init__(self, spec: JobSpec, job_id: int, submit_time: float):
        self.spec = spec
        self.job_id = job_id
        self.submit_time = submit_time
        self.state = JobState.PENDING
        #: Resolved I/O mode ('sync' | 'async'); None until placement.
        self.mode: Optional[str] = None
        self.nodes: tuple[int, ...] = ()
        self.start_time: float = math.nan
        self.finish_time: float = math.nan
        #: The job's private IOLog (per-tenant attribution).
        self.log = None
        #: The advisor's Decision for 'auto' jobs under the I/O-aware
        #: policy; None when the mode was fixed by the tenant/policy.
        self.decision = None
        #: EngineStats counter deltas over the job's residency
        #: (events executed and rebalances run while this job was on
        #: the cluster — co-resident tenants overlap by construction).
        self.stats_delta: dict[str, int] = {}
        self.reject_reason: Optional[str] = None
        #: When the job last (re-)entered the pending queue: submission
        #: for attempt 1, end of the requeue backoff for later attempts.
        self.queued_since = submit_time
        #: Times the scheduler started this job (1 = never requeued).
        self.attempts = 0
        #: Why the scheduler killed the job (None for clean lifecycles).
        self.kill_reason: Optional[str] = None
        #: Fault signature of the kill, e.g. ``{"kind":
        #: "NodeFailureError", "node": 3}`` — the per-job slice of the
        #: injector's timeline, for drill-down and quarantine audits.
        self.fault: Optional[dict] = None
        #: One row per *failed* attempt (start/finish/nodes/durable
        #: phases/lost work/reason); the final attempt lives in the
        #: record's own fields.
        self.attempt_history: list[dict] = []
        #: Checkpoints (completed I/O phases) durable across attempts —
        #: a requeued job resumes after this many phases.
        self.durable_phases = 0
        #: Compute seconds re-done because of kills (across attempts).
        self.lost_work_seconds = 0.0

    # -- derived metrics ------------------------------------------------
    @property
    def wait_time(self) -> float:
        """Submit-to-start queue wait (nan until started)."""
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> float:
        """Start-to-finish execution time (nan until finished)."""
        return self.finish_time - self.start_time

    @property
    def completion_time(self) -> float:
        """Submit-to-finish latency — the fleet's headline metric."""
        return self.finish_time - self.submit_time

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (JobState.COMPLETED, JobState.TIMEOUT,
                              JobState.FAILED, JobState.REJECTED)

    def bytes_moved(self) -> float:
        """Bytes this job's operations moved (0 before it ran)."""
        if self.log is None:
            return 0.0
        return sum(r.nbytes for r in self.log.records)

    def summary(self) -> dict:
        """Plain-dict row for benchmark JSON and tables."""
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "tenant": self.spec.tenant,
            "workload": self.spec.workload,
            "nranks": self.spec.nranks,
            "requested_mode": self.spec.mode,
            "mode": self.mode,
            "state": self.state.value,
            "nodes": list(self.nodes),
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "wait_time": self.wait_time,
            "completion_time": self.completion_time,
            "bytes_moved": self.bytes_moved(),
            "stats_delta": dict(self.stats_delta),
            "attempts": self.attempts,
            "kill_reason": self.kill_reason,
            "fault": dict(self.fault) if self.fault else None,
            "attempt_history": [dict(a) for a in self.attempt_history],
            "durable_phases": self.durable_phases,
            "lost_work_seconds": self.lost_work_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<JobRecord {self.job_id} {self.spec.name!r} "
                f"{self.state.value}>")
