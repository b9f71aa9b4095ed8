"""The scheduler: admission, placement, launch, deadline, teardown.

One :class:`Scheduler` owns one shared :class:`~repro.platform.cluster.
Cluster` and co-runs every admitted job inside one simulation: all
tenants' flows share the cluster's fluid :class:`~repro.sim.network.
Network`, so the shared-PFS interference between co-located jobs is
*mechanistic* — the same max-min water-filling that produces every
figure — rather than a statistical availability factor.

The scheduler is an event-driven loop: submissions and job completions
kick it, each kick asks the policy for placements against the live
free-node ledger, and each placement spawns a *runner* process that
holds the job's nodes for its lifetime:

1. sleep out the policy's stagger delay (nodes already held),
2. build the job's private VOL (own :class:`~repro.trace.IOLog` — the
   per-tenant attribution surface), prepopulate its input files,
3. launch one rank coroutine per rank via :class:`~repro.mpi.job.MPIJob`
   on the exact node indices the ledger granted,
4. guard the join with :meth:`~repro.sim.engine.Engine.timeout_guard`
   at the declared walltime and :meth:`~repro.sim.engine.Process.
   interrupt` every surviving rank on expiry (the batch-system
   ``scancel``),
5. tear down: release nodes, close out the contention timeline, record
   ``queued``/``run`` spans (with the job's EngineStats delta in the
   span meta), feed the advisor service, kick the loop.

**Fleet-level fault tolerance.**  The scheduler registers on the
cluster ledger's ``on_node_down`` / ``on_node_up`` callbacks.  A node
crash kills the resident job via :meth:`~repro.sim.engine.Process.
interrupt` (a :class:`~repro.sched.job.JobKilledByNodeFailure` whose
``__cause__`` is the :class:`~repro.faults.errors.NodeFailureError`);
the victim's nodes are released at the kill instant (the dead node
stays out of the free set until repaired), and the job is requeued
under its :attr:`~repro.sched.job.JobSpec.max_restarts` budget with a
seeded, linearly-growing backoff.  A requeued job restarts from its
last durable checkpoint — the same contiguous-from-zero durability
scan :func:`repro.harness.recovery.durable_progress` applies to
single-job kills — so asynchronous checkpointing, which lands phases
on the PFS while the next compute phase runs, measurably shrinks the
work a crash destroys.  During a sustained PFS outage the scheduler
enters *degraded admission*: no new placements until the window ends
(launching into a dead file system only burns walltime).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.sim import AllOf, DeadlineExceeded, Engine, SimEvent
from repro.mpi import MPIJob
from repro.platform import Cluster, ContentionTimeline
from repro.hdf5 import H5Library
from repro.trace import IOLog, SpanLog
from repro.faults import (FaultInjector, NodeFailureError,
                          portable_traceback)
from repro.sched.job import (
    JobKilled,
    JobKilledByNodeFailure,
    JobRecord,
    JobSpec,
    JobState,
)
from repro.sched.policies import Placement, SchedulingPolicy
from repro.sched.service import AdvisorService

__all__ = ["Scheduler"]


class Scheduler:
    """Multi-tenant job scheduler over one shared cluster."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        policy: SchedulingPolicy,
        service: Optional[AdvisorService] = None,
        timeline: Optional[ContentionTimeline] = None,
        lib: Optional[H5Library] = None,
        injector: Optional[FaultInjector] = None,
        checkpoint_restart: bool = True,
        retry_backoff: float = 5.0,
    ):
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.engine = engine
        self.cluster = cluster
        self.policy = policy
        #: Advisor service fed by completed jobs (also used by the
        #: I/O-aware policy at admission; harmless but live for others).
        self.service = service
        self.timeline = timeline or ContentionTimeline(engine, cluster.pfs)
        self.lib = lib or H5Library(cluster)
        #: The chaos layer, when one is attached to this cluster: used
        #: for degraded-mode admission (PFS outage edges) and seeded
        #: requeue-backoff jitter.  None = no fault awareness, no cost.
        self.injector = injector
        #: Whether requeued jobs restart from their last durable
        #: checkpoint (False = restart from scratch; the benchmark's
        #: checkpointing-vs-not comparison flips this).
        self.checkpoint_restart = checkpoint_restart
        #: Base seconds of requeue backoff (scaled by attempt count and
        #: the injector's seeded jitter).
        self.retry_backoff = retry_backoff
        self.spans = SpanLog()
        #: Every submission ever seen, in submit order.
        self.records: list[JobRecord] = []
        #: Node crash events observed via the cluster ledger.
        self.node_failures = 0
        #: Jobs killed by a node crash (a job can be a victim twice).
        self.node_kills = 0
        #: Requeues performed after node-failure kills.
        self.requeues = 0
        #: Simulated seconds admission spent paused in degraded mode.
        self.degraded_seconds = 0.0
        self._pending: list[JobRecord] = []
        self._running: list[JobRecord] = []
        #: job_id -> live rank Process list (the kill path's target).
        self._procs: dict[int, list] = {}
        self._degraded_until = 0.0
        self._next_id = 0
        self._wake: Optional[SimEvent] = None
        cluster.on_node_down.append(self._on_node_down)
        cluster.on_node_up.append(self._on_node_up)
        engine.process(self._loop(), name="sched.loop")

    # -- submission -------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job (or reject it if it can never fit)."""
        record = JobRecord(spec, self._next_id, self.engine.now)
        self._next_id += 1
        self.records.append(record)
        need = spec.nnodes(self.policy.rpn)
        if need > len(self.cluster.nodes):
            record.state = JobState.REJECTED
            record.reject_reason = (
                f"needs {need} nodes, machine has {len(self.cluster.nodes)}"
            )
            return record
        self._pending.append(record)
        self._kick()
        return record

    def run_stream(self, arrivals: Iterable[tuple[float, JobSpec]]
                   ) -> list[JobRecord]:
        """Feed timed submissions and drive the simulation to drain.

        ``arrivals`` is an iterable of ``(arrival_time, spec)`` in
        non-decreasing time order (e.g. from
        :meth:`repro.sched.stream.JobStream.arrivals`).  Returns every
        :class:`JobRecord` in submission order once the fleet finishes.
        """
        arrivals = list(arrivals)

        def feeder():
            for when, spec in arrivals:
                gap = when - self.engine.now
                if gap > 0:
                    yield self.engine.timeout(gap)
                self.submit(spec)

        self.engine.process(feeder(), name="sched.feeder")
        self.engine.run()
        still_open = [r for r in self.records if not r.finished]
        if still_open:
            raise RuntimeError(
                f"simulation drained with {len(still_open)} unfinished "
                f"jobs: {[r.job_id for r in still_open]}"
            )
        return self.records

    # -- event loop -------------------------------------------------------
    def _kick(self) -> None:
        """Wake the scheduling loop (idempotent within a timestamp)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _loop(self):
        while True:
            self._try_start()
            self._wake = SimEvent(self.engine, name="sched.wake")
            yield self._wake

    def _try_start(self) -> None:
        """Ask the policy for placements and start each one *now*.

        Node allocation happens here, synchronously with the plan, so a
        staggered job holds its nodes through the delay (batch systems
        start the allocation when the job script starts) and the next
        plan sees a truthful free count.
        """
        if not self._pending:
            return
        if self.injector is not None and self.injector.engine is not None:
            outage_end = self.injector.outage_end(self.engine.now)
            if outage_end is not None:
                # Degraded admission: the shared PFS is inside a hard
                # outage window, so every new placement would stall on
                # its first I/O phase and burn walltime.  Hold the
                # queue and resume exactly at the window's edge.
                counted_from = max(self.engine.now, self._degraded_until)
                if outage_end > counted_from:
                    self.degraded_seconds += outage_end - counted_from
                    self._degraded_until = outage_end
                self.engine.schedule(outage_end - self.engine.now, self._kick)
                return
        plan = self.policy.plan(
            self.engine.now, list(self._pending),
            self.cluster.free_node_count, list(self._running),
        )
        for placement in plan:
            record = placement.record
            self._pending.remove(record)
            indices = self.cluster.allocate_nodes(
                placement.nnodes, owner=record.job_id,
                preferred=placement.preferred_nodes,
            )
            record.nodes = indices
            record.mode = placement.mode
            record.state = JobState.RUNNING
            self._running.append(record)
            self.engine.process(
                self._job_runner(record, placement, indices),
                name=f"sched.job{record.job_id}",
            )

    # -- node fault reactions ---------------------------------------------
    def _on_node_down(self, index: int, kind: str) -> None:
        """Cluster ledger callback: ``index`` crashed or began draining.

        A drain needs no reaction — the resident job finishes unharmed
        and placement already skips the node (it left the free set).  A
        crash kills the resident job *now*: every surviving rank gets
        the kill interrupt, with the node failure as its cause, and the
        runner's recovery path decides the requeue.
        """
        if kind != "crash":
            return
        self.node_failures += 1
        for record in list(self._running):
            if index not in record.nodes:
                continue
            if record.kill_reason is not None:
                break  # already being killed (correlated cabinet crash)
            self.node_kills += 1
            record.kill_reason = f"node {index} failed"
            record.fault = {"kind": "NodeFailureError", "node": index}
            kill = JobKilledByNodeFailure(record.job_id, index)
            kill.__cause__ = NodeFailureError(
                f"node {index} went down under job {record.job_id}",
                node=index,
            )
            for proc in self._procs.get(record.job_id, ()):
                if proc.alive:
                    proc.interrupt(kill)
            break  # a node belongs to at most one job

    def _on_node_up(self, index: int) -> None:
        """Cluster ledger callback: a repaired node returned — capacity
        changed, so re-plan."""
        self._kick()

    def _account_node_kill(self, record: JobRecord,
                           resumed: int) -> Optional[float]:
        """Close out one node-failure kill on ``record``'s ledger.

        Scans the attempt's private IOLog for checkpoints that reached
        durable storage before the kill (only when checkpoint-restart
        is on and the job is restartable), charges the re-doable work
        to ``lost_work_seconds``, and appends the attempt-history row.
        Returns the requeue backoff in seconds, or None when the
        retry budget is spent and the job must fail.
        """
        # Lazy import: repro.harness imports repro.sched (fleet
        # runner), so the reverse edge must not be at module level.
        from repro.harness.recovery import durable_progress

        engine = self.engine
        spec = record.spec
        gained = 0
        if (self.checkpoint_restart and spec.resume_factory is not None
                and record.log is not None):
            remaining = max(0, spec.n_phases - resumed)
            gained, _at, _lost = durable_progress(
                record.log, spec.nranks, engine.now, remaining,
            )
        started = record.start_time
        elapsed = 0.0 if math.isnan(started) else engine.now - started
        lost = max(0.0, elapsed - gained * spec.compute_phase_seconds)
        record.lost_work_seconds += lost
        record.durable_phases = resumed + gained
        record.attempt_history.append({
            "attempt": record.attempts,
            "start": started,
            "finish": engine.now,
            "nodes": list(record.nodes),
            "durable_phases": record.durable_phases,
            "lost_work_seconds": lost,
            "reason": record.kill_reason,
        })
        if record.attempts > spec.max_restarts:
            return None
        backoff = self.retry_backoff * record.attempts
        if self.injector is not None:
            backoff *= self.injector.retry_jitter()
        return backoff

    # -- per-job runner ---------------------------------------------------
    def _job_runner(self, record: JobRecord, placement: Placement,
                    indices: tuple[int, ...]):
        # Imported here, not at module level: repro.harness imports
        # repro.sched (fleet runner), so the reverse edge must be lazy.
        from repro.harness.experiment import build_vol

        engine = self.engine
        spec = record.spec
        record.attempts += 1
        record.kill_reason = None
        record.fault = None
        #: Durable checkpoints carried in from killed earlier attempts.
        resumed = record.durable_phases if self.checkpoint_restart else 0
        requeue_backoff: Optional[float] = None
        if placement.start_delay > 0.0:
            yield engine.timeout(placement.start_delay)
        record.start_time = engine.now
        self.spans.record(record.job_id, "queued",
                          record.queued_since, engine.now)
        if record.kill_reason is not None:
            # The node died during the stagger, before any rank
            # launched: no ranks to reap, straight to the requeue
            # decision (nodes were held through the delay, so the
            # allocation must still be torn down).
            requeue_backoff = self._account_node_kill(record, resumed)
            record.state = (JobState.PENDING if requeue_backoff is not None
                            else JobState.FAILED)
            record.finish_time = engine.now
            self.cluster.release_owner(record.job_id)
            self._running.remove(record)
            self._kick()
        else:
            self.timeline.job_started(record.job_id, len(indices))
            stats_before = engine.stats.snapshot()

            log = IOLog()
            record.log = log
            vol = build_vol(placement.mode, log=log, **spec.vol_kwargs)
            if spec.prepopulate is not None:
                spec.prepopulate(self.lib, spec.nranks)
            config = spec.config
            if resumed > 0 and spec.resume_factory is not None:
                config = spec.resume_factory(spec.config, resumed)
            job = MPIJob(
                self.cluster, spec.nranks,
                ranks_per_node=spec.ranks_per_node or self.policy.rpn,
                name=f"job{record.job_id}", node_indices=indices,
            )
            procs = job.launch(spec.program_factory(self.lib, vol, config))
            self._procs[record.job_id] = procs
            try:
                yield engine.timeout_guard(
                    AllOf([p.done for p in procs]), spec.walltime
                )
                record.state = JobState.COMPLETED
            except DeadlineExceeded:
                # The batch system's scancel: kill every surviving rank.
                kill = JobKilled(record.job_id)
                record.kill_reason = kill.reason
                for proc in procs:
                    if proc.alive:
                        proc.interrupt(kill)
                record.state = JobState.TIMEOUT
            except JobKilledByNodeFailure as kill:
                # A node under this job crashed (_on_node_down already
                # interrupted every live rank; sweep stragglers whose
                # interrupt was deferred).  Staged-but-undrained bytes
                # died with the node, so the VOL's background workers
                # are killed too.  Then decide recovery: requeue from
                # the last durable checkpoint while the per-job retry
                # budget lasts, fail afterwards.
                for proc in procs:
                    if proc.alive:
                        proc.interrupt(kill)
                if hasattr(vol, "interrupt_workers"):
                    vol.interrupt_workers(kill)
                requeue_backoff = self._account_node_kill(record, resumed)
                record.state = (JobState.PENDING
                                if requeue_backoff is not None
                                else JobState.FAILED)
            except Exception as exc:
                # One rank died on its own: reap the siblings blocked on
                # collectives with it, as mpiexec would, and free the
                # dead job's nodes immediately (the teardown below runs
                # at this same instant — no zombie allocation).
                kill = JobKilled(record.job_id, reason="sibling rank failed")
                record.kill_reason = kill.reason
                record.fault = {"kind": type(exc).__name__,
                                "message": str(exc),
                                "traceback": portable_traceback(exc)}
                for proc in procs:
                    if proc.alive:
                        proc.interrupt(kill)
                record.state = JobState.FAILED
            finally:
                self._procs.pop(record.job_id, None)
                record.finish_time = engine.now
                self.timeline.job_finished(record.job_id)
                self.cluster.release_owner(record.job_id)
                self._running.remove(record)
                stats_after = engine.stats.snapshot()
                record.stats_delta = {
                    key: stats_after[key] - stats_before[key]
                    for key in stats_after
                }
                self.spans.record(
                    record.job_id, "run", record.start_time, engine.now,
                    mode=record.mode, state=record.state.value,
                    **record.stats_delta,
                )
                if (self.service is not None
                        and record.state is JobState.COMPLETED):
                    self.service.observe(record)
                self._kick()
        if requeue_backoff is not None:
            # Seeded backoff, then back into the queue: the record keeps
            # its identity (job_id, submit_time, accumulated ledger) and
            # competes for placement again — on the surviving nodes.
            self.requeues += 1
            yield engine.timeout(requeue_backoff)
            record.queued_since = engine.now
            self._pending.append(record)
            self._kick()
