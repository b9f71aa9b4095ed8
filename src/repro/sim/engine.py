"""Deterministic discrete-event engine with generator-based processes.

The engine maintains a priority heap of ``(time, priority, sequence)``
keys.  The sequence number breaks ties so that events scheduled at the
same simulated time fire in FIFO order, which makes every simulation run
bit-for-bit reproducible for a given seed.

A *process* is a Python generator.  Each ``yield`` hands the engine a
*waitable* — one of:

- :class:`Timeout` — resume after a fixed simulated delay,
- :class:`SimEvent` — resume when the event is triggered,
- :class:`Process` — resume when the child process terminates (a join),
- :class:`AllOf` / :class:`AnyOf` — composite conditions.

The value passed to :meth:`SimEvent.succeed` becomes the result of the
``yield`` expression; a failure raised with :meth:`SimEvent.fail` is
re-raised inside the waiting process.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.check import hooks as _check_hooks

__all__ = [
    "AllOf",
    "AnyOf",
    "DeadlineExceeded",
    "Engine",
    "EngineStats",
    "Interrupted",
    "Process",
    "SimEvent",
    "SimulationError",
    "Timeout",
]

#: Priority band for ordinary events.
PRIORITY_NORMAL = 0
#: Priority band for deferred bookkeeping (e.g. network rebalance) that
#: must run *after* every ordinary event scheduled at the same instant.
PRIORITY_LATE = 1


class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (e.g. time reversal)."""


class DeadlineExceeded(TimeoutError):
    """A :meth:`Engine.timeout_guard` deadline expired before its waitable
    fired.  ``deadline`` is the absolute simulated time of expiry."""

    def __init__(self, message: str = "deadline exceeded",
                 deadline: float = float("nan")):
        super().__init__(message)
        self.deadline = deadline


class Interrupted(RuntimeError):
    """Raised inside a process that another process interrupted.

    ``cause`` carries the interrupter's reason (e.g. a scheduler's
    walltime kill).  A process may catch it and keep running; the
    waitable it was blocked on is detached, so a later firing of that
    waitable no longer resumes the process.
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class EngineStats:
    """Opt-in counter surface for observing simulator hot-path behavior.

    Counters are plain ints updated by the engine and the network
    allocator; reading them is free and resetting them mid-run is safe.
    ``events`` counts every executed callback, ``fastpath_events`` the
    subset served from the zero-delay ready queue (never through the
    heap).  ``rebalances`` / ``rebalances_skipped`` / ``allocator_rounds``
    are maintained by :class:`repro.sim.network.Network`: a *skipped*
    rebalance ran its advance/completion bookkeeping but skipped the
    water-filling because neither the flow-class structure nor any link
    capacity changed since the last allocation.
    """

    __slots__ = (
        "events",
        "fastpath_events",
        "rebalances",
        "rebalances_skipped",
        "allocator_rounds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.events = 0
        self.fastpath_events = 0
        self.rebalances = 0
        self.rebalances_skipped = 0
        self.allocator_rounds = 0

    def snapshot(self) -> dict:
        """Counters as a plain dict (for benchmark JSON / logging)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = " ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"<EngineStats {body}>"


class SimEvent:
    """A one-shot event processes can wait on.

    An event has three states: *pending* (initial), *triggered*
    (``succeed``/``fail`` called, callbacks scheduled) and *processed*
    (callbacks have run).  Waiting on an already-triggered event resumes
    the waiter immediately (at the current simulated time).
    """

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_exc",
        "_triggered",
        "_processed",
        "name",
        # Vector-clock snapshot slot for the opt-in runtime checker
        # (repro.check.runtime).  Never assigned unless a checker is
        # installed, so the uninstrumented cost is zero.
        "_clock",
    )

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.callbacks: list[Callable[["SimEvent"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event completed without a failure."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (``None`` until triggered)."""
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event, optionally after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        # The value first: a subclass whose value is read-only (a
        # network Flow) raises here before any state changes.
        self._value = value
        self._triggered = True
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_trigger(self)
        self.engine.schedule(delay, self._dispatch)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with a failure re-raised in each waiter."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._exc = exc
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_trigger(self)
        self.engine.schedule(delay, self._dispatch)
        return self

    def _dispatch(self) -> None:
        self._processed = True
        callbacks = self.callbacks
        # An empty tuple, not a fresh list: nothing appends after
        # dispatch (late subscribers go through the _wait re-dispatch
        # path), so the allocation would be pure overhead.
        self.callbacks = ()
        for cb in callbacks:
            cb(self)

    def _wait(self, callback: Callable[["SimEvent"], None]) -> None:
        """Register ``callback``; fires immediately if already processed.

        A *triggered but not yet dispatched* event (e.g. a delayed
        ``succeed``) simply queues the callback for the pending dispatch.
        """
        if self._processed:
            # Re-dispatch for late subscribers at the current time.
            self.engine.schedule(0.0, lambda: callback(self))
        else:
            self.callbacks.append(callback)

    # Waitable protocol -------------------------------------------------
    def _as_event(self, engine: "Engine") -> "SimEvent":
        if engine is not self.engine:
            raise SimulationError("event waited on from a foreign engine")
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Timeout:
    """Waitable that fires after a fixed simulated delay.

    ``yield Timeout(dt)`` resumes the process ``dt`` seconds later and
    evaluates to ``value``.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value

    def _as_event(self, engine: "Engine") -> SimEvent:
        ev = SimEvent(engine, name=f"timeout({self.delay})")
        ev.succeed(self.value, delay=self.delay)
        return ev


class AllOf:
    """Composite waitable: fires when *all* child waitables have fired.

    The result is a list of the children's values in input order.
    """

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = list(waitables)

    def _as_event(self, engine: "Engine") -> SimEvent:
        done = SimEvent(engine, name="all_of")
        children = [w._as_event(engine) for w in self.waitables]
        if not children:
            done.succeed([])
            return done
        remaining = [len(children)]
        values: list[Any] = [None] * len(children)

        def make_cb(i: int) -> Callable[[SimEvent], None]:
            def cb(ev: SimEvent) -> None:
                if done.triggered:
                    return
                if ev._exc is not None:
                    done.fail(ev._exc)
                    return
                values[i] = ev.value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))

            return cb

        for i, child in enumerate(children):
            child._wait(make_cb(i))
        return done


class AnyOf:
    """Composite waitable: fires when *any* child waitable fires.

    The result is a ``(index, value)`` pair for the first child to fire.
    """

    __slots__ = ("waitables",)

    def __init__(self, waitables: Iterable[Any]):
        self.waitables = list(waitables)
        if not self.waitables:
            raise ValueError("AnyOf requires at least one waitable")

    def _as_event(self, engine: "Engine") -> SimEvent:
        done = SimEvent(engine, name="any_of")
        children = [w._as_event(engine) for w in self.waitables]

        def make_cb(i: int) -> Callable[[SimEvent], None]:
            def cb(ev: SimEvent) -> None:
                if done.triggered:
                    return
                if ev._exc is not None:
                    done.fail(ev._exc)
                else:
                    done.succeed((i, ev.value))

            return cb

        for i, child in enumerate(children):
            child._wait(make_cb(i))
        return done


class Process:
    """A running simulation process wrapping a generator.

    Joining: a process is itself a waitable; ``yield child`` resumes the
    parent when ``child`` terminates and evaluates to the child's return
    value.  Unhandled exceptions escape to :meth:`Engine.run` unless some
    process joins the failing process, in which case they propagate there.
    """

    # ``_vc`` is the runtime checker's per-process vector clock; like
    # ``SimEvent._clock`` it stays unassigned unless a checker is live.
    __slots__ = ("engine", "generator", "done", "name", "_started",
                 "_waiting", "_vc")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = SimEvent(engine, name=f"{self.name}.done")
        self._started = False
        #: The event this process is currently blocked on.  Used to
        #: detach a stale subscription after :meth:`interrupt`: if the
        #: old waitable fires later, its callback no longer matches
        #: ``_waiting`` and is dropped.
        self._waiting: Optional[SimEvent] = None
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_spawn(self)
        engine.schedule(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        """Whether the process has not yet terminated."""
        return not self.done.triggered

    @property
    def value(self) -> Any:
        """Return value of the process (``None`` until it terminates)."""
        return self.done.value

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupted` into the process *now*.

        Used by schedulers to enforce walltime limits on running jobs.
        The process's current wait is detached — if the waitable it was
        blocked on fires later, the process is not resumed by it.  The
        generator may catch :class:`Interrupted` (to clean up or keep
        running); an uncaught interrupt terminates the process like any
        other unhandled exception (propagating to joiners if any).

        Returns ``False`` (no-op) if the process already terminated.
        A process that has been created but not yet started defers the
        interrupt until after its first resume, preserving the rule
        that every process body starts executing at its spawn instant.
        """
        if self.done._triggered:
            return False
        if not self._started:
            # The start callback is already queued ahead of us; run the
            # interrupt right after it at the same instant.
            self.engine.schedule(0.0, self.interrupt, cause)
            return True
        self._waiting = None
        self._resume(None, cause if isinstance(cause, BaseException)
                     else Interrupted(cause))
        return True

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        done = self.done
        if done._triggered:
            return
        self._started = True
        ck = _check_hooks.checker
        if ck is not None:
            # Instrumented path: identical control flow with the
            # checker's resume/suspend hooks wrapped around it.
            self._resume_checked(value, exc, ck)
            return
        try:
            if exc is not None:
                waitable = self.generator.throw(exc)
            else:
                waitable = self.generator.send(value)
        except StopIteration as stop:
            done.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate to joiners
            if done.callbacks:
                done.fail(err)
            else:
                raise
            return
        # Inlined SimEvent._wait — this is the hottest subscription
        # site.
        event = waitable._as_event(self.engine)
        self._waiting = event
        if event._processed:
            self.engine.schedule(0.0, self._on_event, event)
        else:
            event.callbacks.append(self._on_event)

    def _resume_checked(self, value: Any, exc: Optional[BaseException],
                        ck: Any) -> None:
        done = self.done
        ck.on_resume(self)
        try:
            try:
                if exc is not None:
                    waitable = self.generator.throw(exc)
                else:
                    waitable = self.generator.send(value)
            except StopIteration as stop:
                done.succeed(stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - propagate to joiners
                if done.callbacks:
                    done.fail(err)
                else:
                    raise
                return
            event = waitable._as_event(self.engine)
            self._waiting = event
            if event._processed:
                self.engine.schedule(0.0, self._on_event, event)
            else:
                event.callbacks.append(self._on_event)
        finally:
            ck.on_suspend(self)

    def _on_event(self, event: SimEvent) -> None:
        if event is not self._waiting:
            # Stale subscription: the process was interrupted while
            # blocked on this event and has moved on (or died).
            return
        self._waiting = None
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_wakeup(self, event)
            self._resume(event._value, event._exc)
            return
        # Unchecked fast path: _resume's body inlined (this is the
        # hottest call chain in the simulator — one wakeup per flow
        # completion — and the extra frame was measurable).
        done = self.done
        if done._triggered:
            return
        self._started = True
        try:
            if event._exc is not None:
                waitable = self.generator.throw(event._exc)
            else:
                waitable = self.generator.send(event._value)
        except StopIteration as stop:
            done.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate to joiners
            if done.callbacks:
                done.fail(err)
            else:
                raise
            return
        nxt = waitable._as_event(self.engine)
        self._waiting = nxt
        if nxt._processed:
            self.engine.schedule(0.0, self._on_event, nxt)
        else:
            nxt.callbacks.append(self._on_event)

    # Waitable protocol -------------------------------------------------
    def _as_event(self, engine: "Engine") -> SimEvent:
        if engine is not self.engine:
            raise SimulationError("process joined from a foreign engine")
        return self.done

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Engine:
    """Deterministic discrete-event simulation engine.

    All times are in seconds of *simulated* time.  The engine is strictly
    single-threaded: determinism comes from the total ordering
    ``(time, priority, sequence)`` on scheduled callbacks.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, int, Callable, tuple]] = []
        #: Zero-delay callbacks at the current instant whose priority is
        #: non-decreasing: they bypass the heap entirely (no tuple key,
        #: no sift) and are merged back into (time, priority, sequence)
        #: order by the run loop.
        self._ready: deque[tuple[int, int, Callable, tuple]] = deque()
        #: Hot-path counters (events, network rebalances, ...).
        self.stats = EngineStats()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def executed(self) -> int:
        """Number of callbacks executed so far (observability / tests)."""
        return self.stats.events

    def schedule(
        self,
        delay: float,
        callback: Callable,
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Zero-delay callbacks (the dominant case: event dispatch, process
        starts, rebalance batching) take a fast path onto a FIFO ready
        queue instead of the heap whenever their priority keeps the
        queue's key order intact; the run loop interleaves the two
        sources in exact ``(time, priority, sequence)`` order, so the
        observable schedule is identical to a pure-heap engine.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        if delay == 0.0:
            # Fast path: append iff the queue stays sorted by
            # (time, priority); sequence numbers are monotonic, so FIFO
            # order within the queue is already key order.
            ready = self._ready
            if ready:
                tail = ready[-1]
                if self._now > tail[0] or (
                    self._now == tail[0] and priority >= tail[1]
                ):
                    ready.append(
                        (self._now, priority, self._seq, callback, args)
                    )
                    return
            else:
                ready.append((self._now, priority, self._seq, callback, args))
                return
        heapq.heappush(
            self._heap, (self._now + delay, priority, self._seq, callback, args)
        )

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending :class:`SimEvent`."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` waitable (convenience)."""
        return Timeout(delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def timeout_guard(
        self,
        waitable: Any,
        timeout: float,
        exc: Optional[BaseException] = None,
    ) -> SimEvent:
        """Bound any wait by a deadline.

        Returns an event that mirrors ``waitable``'s outcome (value or
        failure) if it fires within ``timeout`` simulated seconds, and
        otherwise fails with ``exc`` (default: :class:`DeadlineExceeded`).
        The underlying waitable is *not* cancelled — a resource-granting
        event (semaphore permit, staging reservation) that fires after
        the deadline still grants the resource, so guarded acquirers
        must cancel or release on :class:`DeadlineExceeded` (see
        ``StagingBuffer.reserve`` for the pattern).

        Tie-break: a waitable firing at exactly the deadline instant
        wins or loses deterministically by schedule order — the deadline
        callback is scheduled *now*, so an inner event triggered before
        this call loses the race and the guard still mirrors it.
        """
        if timeout < 0:
            raise ValueError(f"negative timeout_guard timeout: {timeout}")
        inner = waitable._as_event(self)
        done = SimEvent(self, name="timeout_guard")
        deadline = self._now + timeout

        def on_inner(ev: SimEvent) -> None:
            if done._triggered:
                return
            if ev._exc is not None:
                done.fail(ev._exc)
            else:
                done.succeed(ev._value)

        def on_deadline() -> None:
            if done._triggered:
                return
            done.fail(
                exc if exc is not None
                else DeadlineExceeded(
                    f"wait on {inner.name!r} exceeded {timeout:.6g}s",
                    deadline=deadline,
                )
            )

        inner._wait(on_inner)
        self.schedule(timeout, on_deadline)
        return done

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or ``until`` is reached.

        Returns the simulated time at which execution stopped.

        ``until`` semantics (see also :meth:`peek`): the first pending
        callback whose timestamp is *strictly after* ``until`` is peeked
        but **not** popped — it stays queued for a later ``run`` call,
        it does not count toward ``executed``/``stats.events``, and
        ``peek()`` still reports its time.  The clock is then set to
        exactly ``until`` (callbacks scheduled *at* ``until`` do run).
        If the queue drains first, the clock stays at the last executed
        callback's time and ``until`` is not reached.
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        stats = self.stats
        if until is None:
            # Common case: no horizon check per event.  ``now`` mirrors
            # ``self._now`` locally (callbacks never write the clock).
            now = self._now
            while ready or heap:
                if ready and (not heap or ready[0] <= heap[0]):
                    entry = popleft()
                    stats.fastpath_events += 1
                else:
                    entry = pop(heap)
                time = entry[0]
                if time < now - 1e-12:
                    raise SimulationError("event heap time reversal")
                self._now = now = time
                entry[3](*entry[4])
                stats.events += 1
            ck = _check_hooks.checker
            if ck is not None:
                ck.on_drained(self)
            return self._now
        while ready or heap:
            if ready and (not heap or ready[0] <= heap[0]):
                entry = ready[0]
                from_ready = True
            else:
                entry = heap[0]
                from_ready = False
            time = entry[0]
            if time > until:
                self._now = until
                return self._now
            if from_ready:
                popleft()
                stats.fastpath_events += 1
            else:
                pop(heap)
            if time < self._now - 1e-12:
                raise SimulationError("event heap time reversal")
            self._now = time
            entry[3](*entry[4])
            stats.events += 1
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_drained(self)
        return self._now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Start ``generator`` as a process, run to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        if proc.alive:
            raise SimulationError(
                f"process {proc.name!r} deadlocked: event heap drained "
                f"at t={self._now} with the process still waiting"
            )
        if proc.done._exc is not None:
            raise proc.done._exc
        return proc.value

    def peek(self) -> float:
        """Time of the next scheduled callback (``inf`` if none).

        Purely observational: the callback is not popped.  After
        ``run(until=...)`` stopped early, this is the timestamp of the
        peeked-but-unpopped callback that ``run`` left queued.
        """
        ready = self._ready
        heap = self._heap
        if ready:
            t = ready[0][0]
            return heap[0][0] if heap and heap[0][0] < t else t
        return heap[0][0] if heap else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = len(self._heap) + len(self._ready)
        return f"<Engine t={self._now:.6g} pending={pending}>"
