"""The asynchronous VOL connector (Tang et al. [5], §II-A).

Control flow per ``H5Dwrite_async``:

1. **Transactional copy** (blocking): the caller reserves space in the
   node's staging buffer and copies its data there — a host memcpy
   (DRAM staging), a device→host transfer (GPU sources) or a local-SSD
   write.  This is the paper's ``t_transact_overhead``: "a non-zero-copy
   ... used ... to eliminate data races between the main application
   thread and background I/O threads" (§III-A).
2. **Background execution**: the operation is queued to the rank's
   background worker (the Argobots thread of the real connector), which
   drains staged operations to the parallel file system *in order*.
3. **Completion**: the operation's event fires; event sets
   (:class:`~repro.hdf5.eventset.EventSet`) collect these for
   ``H5ESwait``; ``H5Fclose`` waits for the rank's outstanding work.

Reads support prefetching: "prefetching is triggered after reading data
for the first time step.  The first read is a blocking operation"
(§V-A.2).  After a blocking read, the configured prefetcher plans
background reads of upcoming datasets into the staging buffer; later
reads that hit the cache block only for a local copy.

Failure semantics (see ``docs/architecture.md``, "Failure semantics"):
when a :class:`~repro.faults.FaultInjector` is wired in, background
drains that hit a :class:`~repro.faults.TransientIOError` are retried
with exponential backoff and seeded jitter; once the retry budget is
exhausted — or the worker crashes, or a bounded staging reservation
times out — the operation *falls back to the reliable blocking path*
(``fallback-*`` tags, exempt from injection, waiting out hard outages)
instead of deadlocking or losing staged data.  The transactional
snapshot taken at submission is precisely what makes the fallback safe:
the payload survives even when the staging medium is what failed.  With
no injector and no timeouts configured, none of this machinery touches
the event schedule (zero-cost-off).

Simulator note: the staging copies issued here (``memcpy``,
``gpu_transfer``) use per-node precomputed cap/latency constants, and
PFS drains go through the memoized ``client_cap`` — so the many
same-shaped flows of a drain phase collapse into a few flow classes of
the fast-path allocator (see ``docs/architecture.md``, "Simulator fast
path").  Flow ``tag``s are observational only and never affect classing.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, Generator, Optional

import numpy as np

from repro.check import hooks as _check_hooks
from repro.sim.engine import AllOf, Engine, Interrupted, SimEvent
from repro.sim.primitives import Queue
from repro.faults.errors import (
    CacheAdmissionError,
    FaultError,
    RetryExhaustedError,
    StagingTimeoutError,
    TierDegradedError,
    TransientIOError,
    WorkerCrashError,
)
from repro.hdf5.dataspace import Hyperslab
from repro.hdf5.eventset import SWEEP_MIN
from repro.hdf5.vol import VOLConnector
from repro.trace import IOLog, IOOpRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import CacheSubsystem
    from repro.faults.injector import FaultInjector
    from repro.hdf5.eventset import EventSet
    from repro.hdf5.objects import StoredDataset, StoredFile
    from repro.mpi.comm import RankContext

__all__ = ["AsyncVOL", "Reservation", "SequentialPrefetcher", "StagingBuffer"]


class Reservation:
    """A held (or pending) slice of staging space.

    Returned by :meth:`StagingBuffer.reserve`; must be released exactly
    once via :meth:`release`.  Accounting is strict — double release and
    over-release raise instead of silently clamping — so a leak in
    recovery code cannot masquerade as free space and wedge every
    backpressured writer behind phantom usage.
    """

    __slots__ = ("buffer", "nbytes", "state")

    def __init__(self, buffer: "StagingBuffer", nbytes: float):
        self.buffer = buffer
        self.nbytes = float(nbytes)
        #: ``"waiting" -> "held" -> "released"``; a timed-out or
        #: cancelled waiter ends in ``"cancelled"`` and can never be
        #: granted space afterwards.
        self.state = "waiting"
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_reservation(self)

    @property
    def held(self) -> bool:
        """Whether this reservation currently holds staging space."""
        return self.state == "held"

    def release(self) -> None:
        """Return the held space (exactly once)."""
        if self.state != "held":
            raise RuntimeError(
                f"release of {self.state!r} reservation "
                f"({self.nbytes:.3g}B of {self.buffer.name})"
            )
        self.state = "released"
        self.buffer._return_bytes(self.nbytes)


class StagingBuffer:
    """Byte-granular reservation of a node's staging space (FIFO).

    :meth:`reserve` hands out :class:`Reservation` handles.  A waiter
    that times out (or is cancelled) is withdrawn from the FIFO, so it
    can never be admitted later and leak space nobody will release.
    The raw :meth:`release` API (bytes, not handles) remains for
    external bookkeeping but is equally strict about over-release.
    """

    def __init__(self, engine: Engine, capacity: float, name: str = "staging"):
        if capacity <= 0:
            raise ValueError(f"staging capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = float(capacity)
        self.name = name
        self.used = 0.0
        self._waiters: Deque[tuple[Reservation, SimEvent]] = deque()

    def reserve(self, nbytes: float,
                timeout: Optional[float] = None) -> Generator:
        """Block until ``nbytes`` of staging space is held.

        Returns a :class:`Reservation` (via ``yield from``).  With
        ``timeout``, gives up after waiting that long and raises
        :class:`~repro.faults.StagingTimeoutError`; the waiter is
        withdrawn first, so a timed-out reservation holds nothing.
        """
        if nbytes > self.capacity:
            raise ValueError(
                f"single reservation of {nbytes:.3g}B exceeds staging "
                f"capacity {self.capacity:.3g}B"
            )
        res = Reservation(self, nbytes)
        ck = _check_hooks.checker
        if not self._waiters and self.used + nbytes <= self.capacity:
            if ck is not None:
                # Direct grant: order after the release that freed the
                # space this reservation is taking.
                ck.on_acquire(self)
            self.used += nbytes
            res.state = "held"
            return res
        if ck is not None:
            # Publish the waiter's clock so the releaser that later
            # admits it (in _admit) is ordered after this enqueue.
            ck.on_release(self)
        ev = self.engine.event(name=f"{self.name}.reserve")
        self._waiters.append((res, ev))
        if timeout is None:
            yield ev
            return res
        guard = self.engine.timeout_guard(
            ev, timeout,
            exc=StagingTimeoutError(
                f"{self.name}: {nbytes:.3g}B reservation not granted "
                f"within {timeout:.6g}s (used {self.used:.3g}B of "
                f"{self.capacity:.3g}B)"
            ),
        )
        try:
            yield guard
        except StagingTimeoutError:
            self._withdraw(res, ev)
            raise
        return res

    def release(self, nbytes: float) -> None:
        """Return ``nbytes`` of space, admitting FIFO waiters that now fit."""
        self._return_bytes(nbytes)

    def _return_bytes(self, nbytes: float) -> None:
        if nbytes > self.used + 1e-6:
            raise RuntimeError(
                f"{self.name}: over-release of {nbytes:.3g}B "
                f"(only {self.used:.3g}B reserved)"
            )
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_release(self)
        self.used = max(0.0, self.used - nbytes)
        self._admit()

    def _withdraw(self, res: Reservation, ev: SimEvent) -> None:
        """Remove a timed-out waiter; hand back space granted in the
        same instant the deadline fired (the unavoidable race between
        an admission and the guard's deadline callback)."""
        if res.held:
            res.release()
            return
        res.state = "cancelled"
        try:
            self._waiters.remove((res, ev))
        except ValueError:  # pragma: no cover - defensive
            pass

    def _admit(self) -> None:
        if self._waiters:
            ck = _check_hooks.checker
            if ck is not None:
                # The admitting context inherits every enqueued waiter's
                # published clock before granting.
                ck.on_acquire(self)
        while self._waiters:
            res, ev = self._waiters[0]
            if self.used + res.nbytes > self.capacity:
                break
            self._waiters.popleft()
            self.used += res.nbytes
            res.state = "held"
            ev.succeed()


class SequentialPrefetcher:
    """Prefetch upcoming datasets in creation order.

    After a rank's first blocking read, plans background reads of the
    next ``depth`` datasets (all remaining by default) following the one
    just read — matching time-step-ordered files like VPIC's
    ``/Step#k/<property>`` layout.
    """

    def __init__(self, depth: Optional[int] = None):
        if depth is not None and depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self.depth = depth

    def plan(self, stored_file: "StoredFile", dataset_path: str,
             selection: Hyperslab) -> list[tuple[str, Hyperslab]]:
        """Dataset paths (with the caller's selection) to prefetch."""
        order = stored_file.dataset_order
        try:
            idx = order.index(dataset_path)
        except ValueError:
            return []
        upcoming = order[idx + 1:]
        if self.depth is not None:
            upcoming = upcoming[: self.depth]
        plans = []
        for path in upcoming:
            dset = stored_file.datasets[path]
            if selection.ndim == len(dset.shape) and selection.fits_in(dset.shape):
                plans.append((path, selection))
        return plans


class _RankState:
    """Per-rank connector state: worker queue and outstanding ops."""

    __slots__ = ("queue", "worker", "outstanding", "sweep_at",
                 "initialized", "workers_alive", "crashed")

    def __init__(self) -> None:
        self.queue: Optional[Queue] = None
        self.worker = None
        #: Completion events of ops a drain has not yet seen finish;
        #: once it reaches ``sweep_at`` events, :meth:`sweep` runs.
        self.outstanding: list[SimEvent] = []
        self.sweep_at = SWEEP_MIN
        self.initialized = False
        #: Live background streams; 0 after every worker has crashed.
        self.workers_alive = 0
        #: Once True, new writes take the reliable blocking path inline
        #: and no further prefetches are planned (degraded mode).
        self.crashed = False

    def sweep(self) -> None:
        """Drop the outstanding events that already triggered (a drain
        skips them anyway), so a rank that never closes its file does
        not hold every completion event it produced; the next sweep
        comes when the list has doubled."""
        outstanding = self.outstanding
        outstanding[:] = [ev for ev in outstanding if not ev.triggered]
        self.sweep_at = max(SWEEP_MIN, 2 * len(outstanding))


class _WriteDesc:
    """Descriptor for one queued background write (merge-capable)."""

    __slots__ = ("ctx", "stored", "selection", "payload", "nbytes",
                 "record", "reservation", "done", "staged_tier")

    def __init__(self, ctx, stored, selection, payload, nbytes, record,
                 reservation, done):
        self.ctx = ctx
        self.stored = stored
        self.selection = selection
        self.payload = payload
        self.nbytes = nbytes
        self.record = record
        self.reservation = reservation
        self.done = done
        #: Set to ``"nvme"`` once the write-through drain hopped this
        #: op's bytes onto the middle cache tier (retry safety: the hop
        #: is not re-run and the fallback knows what to release).
        self.staged_tier = None

    @property
    def mergeable(self) -> bool:
        """Contiguous-layout writes can coalesce into one request."""
        return self.stored.chunks is None


class _CacheEntry:
    """One prefetched (or in-flight) dataset selection on a node."""

    __slots__ = ("nbytes", "ready", "state", "reservation", "error")

    def __init__(self, engine: Engine, nbytes: float):
        self.nbytes = nbytes
        self.ready = engine.event(name="prefetch.ready")
        self.state = "inflight"  # -> "ready" | "failed"
        #: Staging space held by the fetched bytes (set once reserved).
        self.reservation: Optional[Reservation] = None
        #: The fault that killed the prefetch, if any (informational:
        #: ``ready`` still *succeeds* so drains don't trip on it; the
        #: reader checks ``state`` and falls back to a blocking read).
        self.error: Optional[BaseException] = None


class AsyncVOL(VOLConnector):
    """Background-thread asynchronous connector.

    Parameters
    ----------
    staging:
        ``"dram"`` (default) stages via host memcpy; ``"ssd"`` stages to
        the node-local drive (Summit's NVMe) — slower transactional copy
        but no DRAM footprint; ``"bb"`` stages to the machine's shared
        burst buffer (Cori, 1.7 TB/s) and drains server-side — the
        DataElevator pattern of §II-C.
    staging_fraction:
        Fraction of node DRAM usable as staging space (DRAM mode).
    init_time / term_time:
        Per-rank connector setup/teardown: buffer allocation, Argobots
        pool spawn, file descriptors (the paper's ``t_init``/``t_term``,
        "typically small and ... relatively constant", §III-A).
    prefetcher:
        Read-prefetch policy; ``None`` disables prefetching.
    nworkers:
        Background streams per rank (the Argobots pool size).  One
        (default, matching the published connector) drains operations
        strictly in submission order; more streams overlap independent
        operations' storage requests at the cost of ordering guarantees
        between them.
    merge_writes:
        Coalesce adjacent queued writes to the same file into one larger
        storage request (up to ``merge_threshold`` bytes).  Rescues
        workloads whose per-op sizes are too small to use the file
        system efficiently (the Fig. 4b regime) at zero application
        cost — the drain happens off the critical path anyway.
    faults:
        Optional :class:`~repro.faults.FaultInjector` supplying worker
        dispositions (stall/crash schedules) and seeded retry jitter.
        Storage-side faults arrive through the injector's PFS/SSD hooks
        regardless; wiring the injector here additionally lets the
        connector replay its recovery behaviour deterministically.
    max_retries:
        Background-drain retry budget per batch for transient storage
        faults before the sync fallback takes over.
    retry_backoff:
        Base delay of the exponential backoff (seconds); attempt ``k``
        waits ``retry_backoff * 2**(k-1)``, scaled by seeded jitter in
        ``[0.5, 1.5)`` when an injector is wired.
    staging_timeout:
        Bound on how long ``H5Dwrite_async`` may block waiting for
        staging space.  On expiry the op takes the reliable blocking
        path (``fallback_sync=True``) or raises a typed
        :class:`~repro.faults.StagingTimeoutError` (never a deadlock).
    fallback_sync:
        Whether exhausted retries / staging timeouts / worker crashes
        degrade to the reliable blocking path (default) instead of
        failing the operation's event.
    cache:
        Optional :class:`~repro.cache.CacheSubsystem`.  With
        ``write_through`` on and DRAM staging, background drains hop
        through the node's NVMe tier (DRAM → NVMe → PFS), releasing
        DRAM staging space as soon as the bytes are safe on the drive;
        reads consult the subsystem's residency maps first, so planner
        prefetches (declared future reads) are served from the warm
        tier instead of the PFS.  ``None`` (default) changes nothing —
        the event schedule is byte-identical to a cache-less build.
    """

    mode = "async"

    _DEFAULT_PREFETCHER = object()

    def __init__(
        self,
        log: Optional[IOLog] = None,
        staging: str = "dram",
        staging_fraction: float = 0.5,
        init_time: float = 0.05,
        term_time: float = 0.02,
        prefetcher=_DEFAULT_PREFETCHER,
        nworkers: int = 1,
        merge_writes: bool = False,
        merge_threshold: float = 256 * 1024 * 1024,
        faults: Optional["FaultInjector"] = None,
        max_retries: int = 3,
        retry_backoff: float = 0.5,
        staging_timeout: Optional[float] = None,
        fallback_sync: bool = True,
        cache: Optional["CacheSubsystem"] = None,
    ):
        super().__init__(log)
        if staging not in ("dram", "ssd", "bb"):
            raise ValueError(
                f"staging must be 'dram', 'ssd' or 'bb', got {staging!r}"
            )
        if not 0.0 < staging_fraction <= 1.0:
            raise ValueError("staging_fraction must be in (0,1]")
        if init_time < 0 or term_time < 0:
            raise ValueError("init/term times must be non-negative")
        if nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {nworkers}")
        if merge_threshold <= 0:
            raise ValueError("merge_threshold must be positive")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff <= 0:
            raise ValueError(f"retry_backoff must be positive, got {retry_backoff}")
        if staging_timeout is not None and staging_timeout < 0:
            raise ValueError(
                f"staging_timeout must be non-negative, got {staging_timeout}"
            )
        self.nworkers = nworkers
        self.merge_writes = merge_writes
        self.merge_threshold = float(merge_threshold)
        self.staging = staging
        self.staging_fraction = staging_fraction
        self.init_time = init_time
        self.term_time = term_time
        if prefetcher is AsyncVOL._DEFAULT_PREFETCHER:
            prefetcher = SequentialPrefetcher()
        self.prefetcher = prefetcher  # None disables read prefetching
        self.faults = faults
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.staging_timeout = staging_timeout
        self.fallback_sync = fallback_sync
        self.cache = cache
        #: Operations completed via the reliable blocking path.
        self.fallbacks = 0
        #: Total transient-fault retries across all ranks.
        self.retries = 0
        self._ranks: dict[int, _RankState] = {}
        self._staging: dict[int, StagingBuffer] = {}
        self._cache: dict[tuple, _CacheEntry] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _rank_state(self, ctx: "RankContext") -> _RankState:
        state = self._ranks.get(ctx.rank)
        if state is None:
            state = _RankState()
            self._ranks[ctx.rank] = state
        return state

    def _node_staging(self, ctx: "RankContext") -> StagingBuffer:
        node = ctx.node
        key = -1 if self.staging == "bb" else node.index
        buf = self._staging.get(key)
        if buf is None:
            if self.staging == "dram":
                capacity = node.spec.dram_bytes * self.staging_fraction
            elif self.staging == "bb":
                if ctx.cluster.burst_buffer is None:
                    raise ValueError(
                        f"staging='bb' but {ctx.cluster.machine.name} has "
                        f"no burst buffer"
                    )
                # shared SSD tier: capacity far above any staging need
                capacity = 100e15
            else:
                if node.spec.local_ssd is None:
                    raise ValueError(
                        f"staging='ssd' but node {node.index} has no local SSD"
                    )
                capacity = node.spec.local_ssd.capacity_bytes
            buf = StagingBuffer(ctx.engine, capacity,
                                name=f"staging[{key}]")
            self._staging[key] = buf
        return buf

    def _ensure_rank(self, ctx: "RankContext") -> Generator:
        """Charge t_init and spawn the background worker, once per rank."""
        state = self._rank_state(ctx)
        if state.initialized:
            return
        state.initialized = True
        if self.faults is not None and self.faults.engine is None:
            # Convenience for unattached injectors (unit tests that only
            # exercise dispositions/jitter): bind the timeline lazily.
            self.faults.engine = ctx.engine
        yield ctx.engine.timeout(self.init_time)
        state.queue = Queue(ctx.engine, name=f"asyncvol.q{ctx.rank}")
        state.worker = [
            ctx.engine.process(
                self._worker_loop(ctx, state),
                name=f"asyncvol.worker{ctx.rank}.{i}",
            )
            for i in range(self.nworkers)
        ]
        state.workers_alive = self.nworkers

    def _worker_loop(self, ctx: "RankContext", state: _RankState) -> Generator:
        """The rank's background I/O thread: drain tasks in order.

        Transient storage faults are retried with backoff and, once the
        budget is spent, degrade to the sync fallback (no data loss).  A
        non-transient failure fails the op's completion event instead of
        killing the worker, so the error surfaces at ``H5ESwait`` /
        ``H5Fclose`` (HDF5's event-set error semantics) and later
        operations still execute.  Injected dispositions may stall the
        worker (it sleeps, then proceeds) or crash it (the popped task
        and — once the last worker is gone — the whole queue hand over
        to a one-shot recovery process).
        """
        while True:
            task = yield state.queue.get()
            if task is Queue.CLOSED:
                return
            if self.faults is not None:
                disposition = self.faults.worker_disposition(ctx.rank)
                if disposition is not None:
                    kind, seconds = disposition
                    if kind == "stall":
                        yield ctx.engine.timeout(seconds)
                    else:  # "crash": this worker dies now
                        self._on_worker_crash(ctx, state, task)
                        return
            if isinstance(task, _WriteDesc):
                batch = [task]
                if self.merge_writes and task.mergeable:
                    total = task.nbytes
                    while total < self.merge_threshold:
                        nxt = state.queue.pop_if(
                            lambda item: isinstance(item, _WriteDesc)
                            and item.mergeable
                            and item.stored.file is task.stored.file
                        )
                        if nxt is None:
                            break
                        batch.append(nxt)
                        total += nxt.nbytes
                try:
                    yield from self._drain_with_recovery(ctx, batch)
                except Interrupted:
                    # External kill (the node died): release staging so
                    # nothing wedges, then let the worker die — staged
                    # data that never drained is lost with the node.
                    for desc in batch:
                        if not desc.done.triggered and desc.reservation.held:
                            desc.reservation.release()
                    raise
                except Exception as err:  # noqa: BLE001
                    # fail every op and free its staging reservation so
                    # backpressured writers are not wedged forever
                    for desc in batch:
                        if not desc.done.triggered:
                            if desc.reservation.held:
                                desc.reservation.release()
                            desc.done.fail(err)
                continue
            gen, done = task
            try:
                yield from gen
            except Interrupted:
                raise  # external kill: the worker dies with its node
            except Exception as err:  # noqa: BLE001 - surface via the event
                if not done.triggered:
                    done.fail(err)

    def interrupt_workers(self, cause=None) -> int:
        """Kill every live background worker *now* (the scheduler's
        node-failure scancel).

        The real connector's Argobots threads live in the compute
        node's memory — when the node dies, staged-but-undrained data
        dies with it, so the workers must not keep landing bytes on the
        PFS after the job is dead.  No recovery process is spawned (the
        fallback ladder is for *worker* faults, not node loss); staging
        reservations are released by the interrupted drain's cleanup.
        Returns the number of workers interrupted.
        """
        killed = 0
        for state in self._ranks.values():
            for proc in (state.worker or ()):
                if proc.alive:
                    # Workers have no joiners; subscribe a sink so the
                    # kill terminates the process instead of escaping
                    # to Engine.run as an unhandled failure.
                    proc.done._wait(lambda ev: None)
                    proc.interrupt(cause)
                    killed += 1
            state.workers_alive = 0
            state.crashed = True
        return killed

    def _on_worker_crash(self, ctx: "RankContext", state: _RankState,
                         task) -> None:
        """Bookkeeping for one worker's death; spawns the recovery
        process that completes its popped task (and drains the queue
        once no worker is left)."""
        state.workers_alive -= 1
        if state.workers_alive <= 0:
            state.crashed = True
        ctx.engine.process(
            self._crash_recovery(ctx, state, task, drain=state.crashed),
            name=f"asyncvol.recovery{ctx.rank}",
        )

    def _crash_recovery(self, ctx: "RankContext", state: _RankState,
                        task, drain: bool) -> Generator:
        """Complete orphaned work after a worker crash.

        Queued writes re-execute through the reliable blocking path —
        their transactional snapshots make this safe.  Queued prefetches
        are abandoned (their ``ready`` events *succeed* with the entry
        still ``"inflight"``; the reader notices and issues a blocking
        read), because prefetch is best-effort by construction.
        """
        tasks = [task]
        if drain and state.queue is not None:
            while True:
                nxt = state.queue.pop_if(lambda item: True)
                if nxt is None:
                    break
                tasks.append(nxt)
        cause = WorkerCrashError(
            f"rank {ctx.rank} background worker crashed"
        )
        for t in tasks:
            if isinstance(t, _WriteDesc):
                yield from self._sync_fallback(ctx, [t], cause)
            else:
                gen, done = t
                gen.close()
                if not done.triggered:
                    done.succeed()

    def finalize(self, ctx: "RankContext") -> Generator:
        """Tear down this rank's worker (the paper's ``t_term``)."""
        state = self._rank_state(ctx)
        if not state.initialized:
            return
        yield from self._drain(state)
        if state.queue is not None and not state.queue.closed:
            state.queue.close()
        yield ctx.engine.timeout(self.term_time)
        state.initialized = False
        state.queue = None
        state.worker = None

    def _drain(self, state: _RankState) -> Generator:
        """Wait for every outstanding op of one rank.

        Each pass takes the list and waits on the ops not yet
        triggered; ops added meanwhile are left for the next pass.
        """
        while state.outstanding:
            batch = [ev for ev in state.outstanding if not ev.triggered]
            state.outstanding = []
            if batch:
                yield AllOf(batch)

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------
    def file_create(self, ctx: "RankContext", stored: "StoredFile") -> Generator:
        yield from self._ensure_rank(ctx)
        yield ctx.engine.timeout(stored.target.fs.spec.metadata_latency)

    def file_open(self, ctx: "RankContext", stored: "StoredFile") -> Generator:
        yield from self._ensure_rank(ctx)
        yield ctx.engine.timeout(stored.target.fs.spec.metadata_latency)

    def file_flush(self, ctx: "RankContext", stored: "StoredFile") -> Generator:
        yield from self._drain(self._rank_state(ctx))

    def file_close(self, ctx: "RankContext", stored: "StoredFile") -> Generator:
        """H5Fclose blocks until this rank's async ops are durable."""
        yield from self._drain(self._rank_state(ctx))
        yield ctx.engine.timeout(stored.target.fs.spec.metadata_latency)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def dataset_write(
        self,
        ctx: "RankContext",
        stored: "StoredDataset",
        selection: Hyperslab,
        data: Optional[np.ndarray],
        phase: Optional[int],
        es: Optional["EventSet"],
        from_gpu: bool = False,
        pinned: bool = True,
    ) -> Generator:
        yield from self._ensure_rank(ctx)
        state = self._rank_state(ctx)
        staging = self._node_staging(ctx)
        nbytes = self._nbytes(stored, selection)
        t_submit = ctx.engine.now

        if state.crashed:
            # Degraded mode: no background stream left to drain staging,
            # so the op takes the reliable blocking path inline.
            yield from self._inline_sync_write(
                ctx, stored, selection, data, nbytes, phase, es, t_submit)
            return

        # 1. Transactional copy (blocking): reserve space + local copy.
        try:
            reservation = yield from staging.reserve(
                nbytes, timeout=self.staging_timeout)
        except StagingTimeoutError:
            if not self.fallback_sync:
                raise
            yield from self._inline_sync_write(
                ctx, stored, selection, data, nbytes, phase, es, t_submit)
            return
        if from_gpu:
            yield ctx.cluster.gpu_transfer(ctx.node, nbytes, pinned=pinned,
                                           tag=("stage-d2h", ctx.rank))
        elif self.staging == "ssd":
            yield ctx.node.ssd.write(nbytes, tag=("stage-ssd", ctx.rank))
        elif self.staging == "bb":
            yield ctx.cluster.burst_buffer.write(ctx.node, nbytes,
                                                 tag=("stage-bb", ctx.rank))
        else:
            yield ctx.cluster.memcpy(ctx.node, nbytes,
                                     tag=("stage-cpy", ctx.rank))
        t_unblocked = ctx.engine.now
        record = self.log.append(IOOpRecord(
            op="write", mode=self.mode, rank=ctx.rank, nbytes=nbytes,
            dataset=stored.path, phase=phase, t_submit=t_submit,
            t_unblocked=t_unblocked,
        ))

        # 2. Queue the PFS transfer for the background worker.
        done = ctx.engine.event(name=f"async-write({stored.path})")
        outstanding = state.outstanding
        outstanding.append(done)
        if len(outstanding) >= state.sweep_at:
            state.sweep()
        if es is not None:
            es.add(done)
        # Snapshot payload now (the staging copy's purpose is exactly to
        # decouple the app buffer from the in-flight data).
        payload = None if data is None else np.array(data)
        desc = _WriteDesc(ctx, stored, selection, payload, nbytes,
                          record, reservation, done)
        if state.crashed:
            # The last worker died *during* our staging copy: the crash
            # recovery already drained the queue, so an op pushed now
            # would sit there forever.  Complete it reliably instead.
            yield from self._sync_fallback(ctx, [desc], WorkerCrashError(
                f"rank {ctx.rank} background worker crashed"))
            return
        state.queue.put(desc)

    def _bg_write_batch(self, ctx, batch: list) -> Generator:
        """Drain one (possibly merged) batch of staged writes to the PFS.

        Merged batches issue a single storage request covering every
        operation's bytes; each operation still completes individually
        (records, payload application, staging release, events).  No
        state is consumed before the storage requests land, so a failed
        attempt can be re-run verbatim.
        """
        head = batch[0]
        target = head.stored.file.target
        total = 0.0
        staged = 0.0
        if self.staging == "bb":
            # Server-side drain: burst buffer -> PFS, no node involved.
            for req in self._batch_requests(batch):
                yield ctx.cluster.burst_buffer.drain_to_pfs(
                    ctx.cluster.pfs, target, req, tag=("drain-bb", ctx.rank),
                )
        else:
            if self.staging == "ssd":
                # Drain path reads the staged data back off the drive first.
                total = sum(d.nbytes for d in batch)
                yield ctx.node.ssd.read(total, tag=("drain-ssd", ctx.rank))
            staged = sum(d.nbytes for d in batch
                         if d.staged_tier == "nvme")
            cache = self.cache
            if (staged == 0.0 and self.staging == "dram"
                    and cache is not None and cache.write_through
                    and cache.has_nvme(ctx.node)):
                # Write-through hop: land the batch on the NVMe tier and
                # release DRAM staging immediately — the drive copy is
                # the durable one the PFS drain reads back.  A full or
                # degraded tier bypasses to the direct DRAM -> PFS path.
                hop = sum(d.nbytes for d in batch)
                try:
                    yield from cache.stage_write(
                        ctx.node, hop, tag=("drain-t1", ctx.rank))
                except (CacheAdmissionError, TierDegradedError):
                    pass
                else:
                    staged = hop
                    for desc in batch:
                        desc.staged_tier = "nvme"
                        if desc.reservation.held:
                            desc.reservation.release()
            if staged > 0.0:
                yield from self.cache.stage_read(
                    ctx.node, staged, tag=("drain-t2", ctx.rank))
            for req in self._batch_requests(batch):
                yield ctx.cluster.pfs_write(
                    ctx.node, target, req, tag=("aw", ctx.rank, head.stored.path),
                )
        if self.staging == "ssd":
            # Evict only after the PFS writes landed (retry safety).
            ctx.node.ssd.evict(total)
        if staged > 0.0:
            # Same retry discipline: the tier copy outlives failed PFS
            # attempts and is only dropped once the writes landed.
            self.cache.stage_release(ctx.node, staged)
            for desc in batch:
                desc.staged_tier = None
        now = ctx.engine.now
        for desc in batch:
            desc.record.t_complete = now
            desc.stored.apply_write(desc.selection, desc.payload)
            if desc.reservation.held:
                desc.reservation.release()
            desc.done.succeed()

    def _drain_with_recovery(self, ctx, batch: list) -> Generator:
        """Drain a batch, retrying transient faults with exponential
        backoff (seeded jitter); after ``max_retries`` failures the
        batch degrades to the sync fallback — or, with
        ``fallback_sync=False``, raises :class:`RetryExhaustedError`.
        """
        attempt = 0
        while True:
            try:
                yield from self._bg_write_batch(ctx, batch)
                return
            except TransientIOError as err:
                attempt += 1
                self.retries += 1
                for desc in batch:
                    desc.record.retries += 1
                    desc.record.faulted = True
                if attempt > self.max_retries:
                    exhausted = RetryExhaustedError(
                        f"background drain failed after {self.max_retries} "
                        f"retries ({type(err).__name__}: {err})"
                    )
                    exhausted.__cause__ = err
                    if not self.fallback_sync:
                        raise exhausted
                    yield from self._sync_fallback(ctx, batch, exhausted)
                    return
                yield ctx.engine.timeout(self._backoff_delay(ctx, attempt, err))

    def _backoff_delay(self, ctx, attempt: int, err: BaseException) -> float:
        """Exponential backoff with seeded jitter; a hard outage with a
        known end is waited out instead of blind-hammered."""
        delay = self.retry_backoff * (2.0 ** (attempt - 1))
        if self.faults is not None:
            delay *= self.faults.retry_jitter()
        until = getattr(err, "until", None)
        if until is not None and math.isfinite(until):
            delay = max(delay, until - ctx.engine.now)
        return delay

    def _sync_fallback(self, ctx, batch: list, cause: BaseException) -> Generator:
        """Complete staged ops via the reliable blocking path.

        Issues fault-exempt (``fallback-w``) storage requests after
        waiting out any hard outage, so it cannot fail — mirroring a
        blocking H5Dwrite that retries until success.  The transactional
        snapshot taken at submission makes this safe even when the
        staging medium itself (e.g. the local SSD) is what failed.
        """
        if self.faults is not None:
            self.faults.note("sync_fallback", rank=ctx.rank,
                             nops=len(batch), cause=type(cause).__name__)
            yield from self.faults.when_pfs_available()
        for desc in batch:
            for req in desc.stored.request_sizes(desc.selection):
                yield ctx.cluster.pfs_write(
                    ctx.node, desc.stored.file.target, req,
                    tag=("fallback-w", ctx.rank, desc.stored.path),
                )
            now = ctx.engine.now
            desc.record.t_complete = now
            desc.record.faulted = True
            desc.record.fallback = True
            desc.stored.apply_write(desc.selection, desc.payload)
            if self.staging == "ssd":
                ctx.node.ssd.evict(desc.nbytes)
            if desc.staged_tier == "nvme":
                # The write-through hop left these bytes on the NVMe
                # tier; the blocking path made them durable on the PFS.
                self.cache.stage_release(ctx.node, desc.nbytes)
                desc.staged_tier = None
            if desc.reservation.held:
                desc.reservation.release()
            self.fallbacks += 1
            if not desc.done.triggered:
                desc.done.succeed()

    def _inline_sync_write(self, ctx, stored, selection, data, nbytes,
                           phase, es, t_submit) -> Generator:
        """App-thread blocking write: the last rung of the fallback
        ladder, used when the staging reservation times out or the
        worker pool is dead.  Durable when it returns (``t_unblocked ==
        t_complete``), fault-exempt, waits out outages."""
        if self.faults is not None:
            self.faults.note("inline_fallback", rank=ctx.rank,
                             dataset=stored.path)
            yield from self.faults.when_pfs_available()
        for req in stored.request_sizes(selection):
            yield ctx.cluster.pfs_write(
                ctx.node, stored.file.target, req,
                tag=("fallback-w", ctx.rank, stored.path),
            )
        now = ctx.engine.now
        stored.apply_write(selection, None if data is None else np.array(data))
        self.fallbacks += 1
        self.log.append(IOOpRecord(
            op="write", mode=self.mode, rank=ctx.rank, nbytes=nbytes,
            dataset=stored.path, phase=phase, t_submit=t_submit,
            t_unblocked=now, t_complete=now, faulted=True, fallback=True,
        ))
        if es is not None:
            done = ctx.engine.event(name=f"sync-fallback({stored.path})")
            done.succeed()
            es.add(done)

    @staticmethod
    def _batch_requests(batch: list) -> list[float]:
        """Storage requests for a batch: merged total for a coalesced
        batch, the per-chunk split for a single (possibly chunked) op."""
        if len(batch) == 1:
            desc = batch[0]
            return desc.stored.request_sizes(desc.selection)
        return [sum(d.nbytes for d in batch)]

    # ------------------------------------------------------------------
    # Reads (with prefetch)
    # ------------------------------------------------------------------
    def dataset_read(
        self,
        ctx: "RankContext",
        stored: "StoredDataset",
        selection: Hyperslab,
        phase: Optional[int],
        es: Optional["EventSet"],
    ) -> Generator:
        yield from self._ensure_rank(ctx)
        state = self._rank_state(ctx)
        nbytes = self._nbytes(stored, selection)
        key = self._cache_key(ctx.rank, stored.path, selection)
        t_submit = ctx.engine.now

        prefetch_faulted = False
        if self.cache is not None and self.cache.enabled:
            block = self.cache.lookup(ctx.node, key)
            if block is not None:
                was_resident = block.state == "resident"
                if block.state == "inflight":
                    # Partially hidden: the planner's copy is still in
                    # flight — wait for it rather than re-reading.
                    block.pins += 1
                    try:
                        yield block.ready
                    finally:
                        block.pins -= 1
                if block.state == "resident":
                    yield from self.cache.serve(
                        ctx.node, block, tag=("cache-cpy", ctx.rank))
                    self.cache.metrics.hits += 1
                    now = ctx.engine.now
                    self.log.append(IOOpRecord(
                        op="read", mode=self.mode, rank=ctx.rank,
                        nbytes=nbytes, dataset=stored.path, phase=phase,
                        t_submit=t_submit, t_unblocked=now, t_complete=now,
                        cache_hit=was_resident,
                    ))
                    return stored.read_payload(selection)
                # The planner's copy failed (injected fault): the block
                # is gone; pay the source-tier read below.
                prefetch_faulted = True
            self.cache.metrics.misses += 1
        entry = self._cache.get(key)
        if entry is not None:
            was_ready = entry.state == "ready"
            if not was_ready:
                yield entry.ready  # partially-hidden: wait for in-flight fetch
            if entry.state != "ready":
                # The prefetch died (fault or worker crash): forget it
                # and take the blocking-read path below.
                prefetch_faulted = True
                del self._cache[key]
                if entry.reservation is not None and entry.reservation.held:
                    entry.reservation.release()
                entry = None
        if entry is not None:
            # Local copy from the staging buffer to the app buffer.
            yield ctx.cluster.memcpy(ctx.node, nbytes,
                                     tag=("cache-cpy", ctx.rank))
            del self._cache[key]
            entry.reservation.release()
            now = ctx.engine.now
            self.log.append(IOOpRecord(
                op="read", mode=self.mode, rank=ctx.rank, nbytes=nbytes,
                dataset=stored.path, phase=phase, t_submit=t_submit,
                t_unblocked=now, t_complete=now, cache_hit=was_ready,
            ))
            return stored.read_payload(selection)

        # Miss: blocking read (the paper's first time step), then kick
        # off background prefetch of upcoming datasets.
        retries_used, fell_back = yield from self._reliable_read(
            ctx, stored, selection)
        now = ctx.engine.now
        self.log.append(IOOpRecord(
            op="read", mode=self.mode, rank=ctx.rank, nbytes=nbytes,
            dataset=stored.path, phase=phase, t_submit=t_submit,
            t_unblocked=now, t_complete=now, cache_hit=False,
            retries=retries_used,
            faulted=prefetch_faulted or retries_used > 0 or fell_back,
            fallback=fell_back,
        ))
        # Every blocking miss (re)plans prefetch of upcoming datasets:
        # the first time-step read triggers it (paper §V-A.2), and a new
        # pass over the file (e.g. the next training epoch) re-arms it.
        if self.prefetcher is not None and not state.crashed:
            for path, sel in self.prefetcher.plan(stored.file, stored.path,
                                                  selection):
                self._start_prefetch(ctx, state, stored.file, path, sel)
        return stored.read_payload(selection)

    def _reliable_read(self, ctx, stored, selection) -> Generator:
        """Blocking read with bounded retry; exhausted retries degrade
        to the fault-exempt reliable path.  Returns ``(retries,
        fell_back)``."""
        attempt = 0
        while True:
            try:
                for req in stored.request_sizes(selection):
                    yield ctx.cluster.pfs_read(
                        ctx.node, stored.file.target, req,
                        tag=("ar", ctx.rank, stored.path))
                return (attempt, False)
            except TransientIOError as err:
                attempt += 1
                self.retries += 1
                if attempt > self.max_retries:
                    break
                yield ctx.engine.timeout(self._backoff_delay(ctx, attempt, err))
        if self.faults is not None:
            yield from self.faults.when_pfs_available()
        for req in stored.request_sizes(selection):
            yield ctx.cluster.pfs_read(
                ctx.node, stored.file.target, req,
                tag=("fallback-r", ctx.rank, stored.path))
        self.fallbacks += 1
        return (attempt, True)

    def _start_prefetch(self, ctx, state, stored_file, path, selection) -> None:
        dset = stored_file.datasets[path]
        nbytes = float(selection.nbytes(dset.dtype.itemsize))
        key = self._cache_key(ctx.rank, path, selection)
        if key in self._cache:
            return
        entry = _CacheEntry(ctx.engine, nbytes)
        self._cache[key] = entry
        state.outstanding.append(entry.ready)
        if len(state.outstanding) >= state.sweep_at:
            state.sweep()
        state.queue.put((
            self._bg_prefetch(ctx, stored_file, nbytes, entry, path),
            entry.ready,
        ))

    def _bg_prefetch(self, ctx, stored_file, nbytes, entry, path) -> Generator:
        staging = self._node_staging(ctx)
        entry.reservation = yield from staging.reserve(nbytes)
        try:
            yield ctx.cluster.pfs_read(ctx.node, stored_file.target, nbytes,
                                       tag=("pf", ctx.rank, path))
        except FaultError as err:
            # Prefetch is best-effort: free the space, mark the entry
            # failed, and *succeed* the ready event so drains don't trip
            # on it — the reader checks ``state`` and falls back to a
            # blocking read.
            entry.state = "failed"
            entry.error = err
            entry.reservation.release()
            entry.reservation = None
            entry.ready.succeed()
            return
        entry.state = "ready"
        entry.ready.succeed()

    @staticmethod
    def _cache_key(rank: int, path: str, selection: Hyperslab) -> tuple:
        return (rank, path, selection.start, selection.count)
