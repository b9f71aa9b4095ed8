"""Bandwidth-sharing network model with max-min fair allocation.

Data movement in the reproduction (parallel file system traffic, staging
memcpys, burst-buffer drains) is modeled as *flows* traversing one or
more *links*.  Each link has a capacity in bytes/second; each flow may
additionally carry a per-flow rate cap (e.g. the size-dependent
efficiency of a GPFS client, or the memcpy bandwidth curve).

Rates are assigned by **max-min fairness with caps** (progressive
filling / water-filling): all flows grow uniformly until either a link
saturates (its flows freeze) or a flow hits its own cap (it freezes).
This is the standard fluid model for TCP-like fair sharing and
reproduces the saturation shapes the paper observes: aggregate
bandwidth grows with the number of clients until the shared file-system
link is the bottleneck, then plateaus.

Fast path (see ``docs/architecture.md``, "Simulator fast path"): active
flows are grouped into **flow classes** keyed by ``(links, cap)``.  All
members of a class receive identical rates under progressive filling,
so the water-filling rounds run over classes (a handful, rarely more
than a few hundred) instead of flows (thousands), in plain Python.  A
class holds its own rate, minimum member residual and member count; a
link holds its member count and the installed classes that use it.  A
class is installed by its first arrival and uninstalled the moment it
drains with no arrivals pending, so every pass visits live classes
only.  The advance sweep is a per-class quick-reject that drops to a
member scan only for the few classes actually near completion.

Bit-identity: the reference per-flow implementation is preserved in
:mod:`repro.sim.network_ref`; the fast path is required (and tested) to
produce bit-identical simulated timestamps and rates.  Every class-level
operation is the float operation the reference performs for each
member, and minima are exact and order-independent.  The ordering rules
that matter (documented inline) are: cap-freezing happens before
link-residual updates within a round; residual updates happen before
saturation checks; and completion callbacks fire in activation order.

Efficiency notes (guides: avoid per-event quadratic work): flow arrivals
and completions at the same simulated instant are *batched* — a single
rebalance runs after all of them, scheduled in a late priority band.
With ``N`` identical flows starting and finishing together (the common
bulk-synchronous I/O-phase case) the whole phase costs ``O(N)`` events
and two rate computations over ``O(1)`` classes, not ``O(N^2)``.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Iterable, Optional

from repro.check import hooks as _check_hooks
from repro.sim.engine import PRIORITY_LATE, Engine, SimEvent, SimulationError

__all__ = ["Flow", "Link", "Network"]

#: Relative tolerance for "link saturated" / "cap reached" tests.
_REL_EPS = 1e-9
#: Absolute byte tolerance below which a flow counts as complete.
_BYTE_EPS = 1e-6

_INF = math.inf

#: Completion callbacks fire in activation order (see _advance_and_complete).
_ORDER_KEY = attrgetter("_order")


class Link:
    """A shared bandwidth resource (NIC, PFS backend, memory bus).

    Capacity may be changed at runtime (used by the contention model);
    in-flight flows are re-balanced from the current instant onward.
    """

    __slots__ = (
        "name", "_capacity", "_sat", "_network", "_members", "_classes",
        "_n", "_res",
    )

    def __init__(self, name: str, capacity: float):
        if capacity < 0:
            raise ValueError(f"link {name!r}: negative capacity {capacity}")
        self.name = name
        self._capacity = float(capacity)
        #: Saturation threshold ``capacity * _REL_EPS``, recomputed only
        #: when the capacity changes (not every water-filling round).
        self._sat = self._capacity * _REL_EPS
        self._network: Optional["Network"] = None
        #: Merged member flows crossing this link, weighted by path
        #: multiplicity (a path that repeats the link counts twice,
        #: exactly as in the reference allocator).
        self._members = 0
        #: Installed classes whose path uses this link (an ordered set).
        self._classes: dict[_FlowClass, None] = {}
        #: Water-filling scratch: unfrozen member count and residual
        #: capacity, valid only inside :meth:`Network._allocate`.
        self._n = 0
        self._res = 0.0

    @property
    def capacity(self) -> float:
        """Capacity in bytes/second."""
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity, re-balancing any in-flight flows.

        A rebalance is scheduled even for an unchanged value (the
        reference implementation does the same, and the advance
        checkpoints must match it bit-for-bit); the allocator itself is
        only re-run when the value actually changed.
        """
        if capacity < 0:
            raise ValueError(f"link {self.name!r}: negative capacity {capacity}")
        capacity = float(capacity)
        network = self._network
        if network is not None:
            if capacity != self._capacity:
                network._epoch += 1
            if capacity <= 0.0:
                network._zero_links.add(self)
            else:
                network._zero_links.discard(self)
            network._mark_dirty()
        self._capacity = capacity
        self._sat = capacity * _REL_EPS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name!r} {self._capacity:.3g} B/s>"


class Flow(SimEvent):
    """A single data transfer across a path of links.

    A flow is its own completion event: it triggers when the last byte
    has moved, and ``yield flow`` resumes with the flow itself as value
    (so does :meth:`~repro.sim.engine.Engine.timeout_guard` on a flow).
    The value is a read-only view of the flow, never a stored
    self-reference, so a finished transfer holds no reference cycle and
    is freed by refcount the moment its last user drops it.  Only the
    owning network triggers a flow (``succeed`` raises on one).

    ``elapsed`` and ``achieved_rate`` are populated on completion and
    used to derive the paper's "aggregate bandwidth" metrics.
    """

    __slots__ = (
        "nbytes",
        "_rem",
        "links",
        "cap",
        "_rate",
        "_klass",
        "_order",
        "tag",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        engine: Engine,
        nbytes: float,
        links: tuple,
        cap: float,
        tag: Any,
    ):
        # SimEvent state, set inline: its __init__ would store a value.
        # The event name is static (formatting a per-flow f-string is
        # measurable at scale; the tag is on the flow for debugging).
        self.engine = engine
        self.name = "flow"
        self.callbacks: list = []
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self.nbytes = float(nbytes)
        self._rem = float(nbytes)
        self.links = links
        self.cap = float(cap)
        self._rate = 0.0
        self._klass: Optional["_FlowClass"] = None
        self._order = 0
        self.tag = tag
        self.started_at = engine._now
        self.finished_at: Optional[float] = None

    @property
    def _value(self) -> "Flow":
        """The completion value: the flow itself (read-only)."""
        return self

    @property
    def done(self) -> "Flow":
        """The flow itself, under the completion-event name that
        :mod:`repro.sim.network_ref` flows carry (shared traffic
        drivers reach either module's event through it)."""
        return self

    def _complete(self) -> None:
        """Trigger completion now (the network's one trigger path)."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_trigger(self)
        self.engine.schedule(0.0, self._dispatch)

    @property
    def rate(self) -> float:
        """Current allocated rate (read lazily from the flow's class)."""
        klass = self._klass
        return klass.rate if klass is not None else self._rate

    @property
    def remaining(self) -> float:
        """Bytes left to move.

        While the flow is a class member its residual lives in the
        class's ``rems`` list, parallel to its members (the advance
        defers per-member updates, see :meth:`_FlowClass.materialize`);
        this accessor is for observability, not the hot path.
        """
        klass = self._klass
        if klass is None:
            return self._rem
        klass.materialize()
        return klass.rems[klass.members.index(self)]

    @remaining.setter
    def remaining(self, value: float) -> None:
        klass = self._klass
        if klass is None:
            self._rem = value
        else:
            klass.materialize()
            klass.rems[klass.members.index(self)] = value

    @property
    def elapsed(self) -> float:
        """Transfer duration in seconds (``nan`` until complete)."""
        if self.finished_at is None:
            return float("nan")
        return self.finished_at - self.started_at

    @property
    def achieved_rate(self) -> float:
        """Average achieved bytes/second over the whole transfer.

        Always finite: an in-flight flow reports ``0.0`` (rather than
        propagating the ``nan`` from :attr:`elapsed`), and a
        zero-duration transfer (empty payload, or an instantaneous move
        over an uncapped path) also reports ``0.0`` — a finite,
        ``nbytes``-consistent value for the downstream regression in
        :mod:`repro.analysis.fitting`, where an ``inf``/``nan`` sample
        would poison the fit's r².
        """
        if self.finished_at is None:
            return 0.0
        dt = self.finished_at - self.started_at
        if dt > 0.0:
            return self.nbytes / dt
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.tag!r} {self.nbytes:.3g}B "
            f"remaining={self.remaining:.3g} rate={self.rate:.3g}>"
        )


class _FlowClass:
    """Equivalence class of active flows sharing ``(links, cap)``.

    Progressive filling assigns identical rates to all members, so the
    allocator operates on classes and members read their rate through
    :attr:`Flow.rate`.  ``link_mults`` maps each distinct link of the
    path to its multiplicity: a duplicated link counts twice toward
    that link's member count, exactly as in the reference allocator.
    """

    __slots__ = (
        "key", "cap", "cap_thresh", "link_mults", "members", "rems",
        "pending", "count", "rate", "minrem", "tol", "decs", "frozen",
    )

    def __init__(self, key: tuple):
        links, cap = key
        self.key = key
        self.cap = cap
        self.cap_thresh = cap * (1.0 - _REL_EPS)
        mults: dict[Link, int] = {}
        for link in links:
            mults[link] = mults.get(link, 0) + 1
        self.link_mults = mults
        self.members: list[Flow] = []
        #: Per-member residual bytes, parallel to ``members`` — current
        #: only after :meth:`materialize` replays ``decs``.
        self.rems: list[float] = []
        #: Arrivals since the last allocation: they hold rate 0 (exactly
        #: like a fresh flow in the reference allocator) until the next
        #: water-filling pass merges them into ``members``.
        self.pending: list[Flow] = []
        self.count = 0
        self.rate = 0.0
        #: Minimum member residual (+inf when memberless).
        self.minrem = _INF
        #: ``max(_BYTE_EPS, largest member size * 1e-9)``: a member whose
        #: residual is above it can only complete by the time test.
        self.tol = _BYTE_EPS
        #: Deferred advance decrements (``rate * dt`` of each checkpoint
        #: since the last replay; zero ones subtract nothing and are
        #: never logged).
        self.decs: list[float] = []
        #: The allocation stamp of the pass that froze this class.
        self.frozen = 0

    def materialize(self) -> None:
        """Replay deferred advance decrements onto member residuals.

        Applying decrements member-by-member at every checkpoint would
        be O(members) per rebalance; instead each advance appends one
        decrement to ``decs`` (the class minimum still advances eagerly)
        and members replay the sequence — the same clamped subtractions
        in the same order, so bit-identical — only when their residuals
        are actually read.  The replay is a pure function of the starting
        residual, and members that merged together start from the same
        one, so a run of equal residuals is replayed once.
        """
        decs = self.decs
        if not decs:
            return
        rems = self.rems
        last_in = last_out = -1.0
        for i, r in enumerate(rems):
            if r != last_in:
                last_in = r
                for d in decs:
                    r = r - d
                    if r <= 0.0:
                        r = 0.0
                last_out = r
            rems[i] = last_out
        decs.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ",".join(l.name for l in self.key[0])
        return f"<FlowClass [{names}] cap={self.cap:.3g} n={self.count}>"


def _dispatch_batch(events: list) -> None:
    """Run the queued completion dispatches of one rebalance in order.

    Body-for-body the same as :meth:`SimEvent._dispatch`, inlined to
    skip a method call per completion at scale.
    """
    for ev in events:
        ev._processed = True
        callbacks = ev.callbacks
        ev.callbacks = ()
        for cb in callbacks:
            cb(ev)


class Network:
    """Fluid-flow network: manages active flows and their fair rates."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: (links, cap) -> installed class (insertion-ordered).
        self._classes: dict[tuple, _FlowClass] = {}
        #: Links used by at least one installed class (an ordered set).
        self._links: dict[Link, None] = {}
        #: Classes with unmerged arrivals (each listed at most once).
        self._pending_classes: list[_FlowClass] = []

        #: Open run of same-deadline delayed activations (see
        #: :meth:`transfer`): the list scheduled with the head flow,
        #: its absolute deadline, and the engine sequence number as of
        #: the head's schedule — any other schedule() in between bumps
        #: the counter and closes the batch.
        self._act_batch: Optional[list] = None
        self._act_deadline = 0.0
        self._act_seq = -1

        self._n_active = 0
        self._order = 0
        #: Allocation counter (see ``_FlowClass.frozen``).
        self._stamp = 0
        #: Links currently at zero capacity (their flows freeze at rate
        #: 0); maintained here so the allocator doesn't scan every link.
        self._zero_links: set[Link] = set()
        #: Bumped on any arrival/completion/capacity change; the
        #: allocator is skipped while ``_alloc_epoch`` matches.
        self._epoch = 0
        self._alloc_epoch = -1
        self._last_update = 0.0
        self._dirty = False
        self._completion_token = 0
        #: Completed-flow count (observability / tests).
        self.completed = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        links: Iterable[Link],
        cap: float = math.inf,
        latency: float = 0.0,
        tag: Any = None,
    ) -> Flow:
        """Start a transfer of ``nbytes`` over ``links``.

        ``cap`` bounds this flow's rate regardless of link headroom
        (bytes/second).  ``latency`` is a fixed startup delay (request
        setup, metadata round-trip) before any byte moves.  Returns the
        :class:`Flow`, which is its own completion event, so process
        code reads naturally::

            flow = network.transfer(nbytes, [nic, pfs])
            yield flow
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if cap <= 0:
            raise ValueError(f"flow cap must be positive, got {cap}")
        links = tuple(links)
        for link in links:
            if link._network is not self:
                self._attach_link(link)
        flow = Flow(self.engine, nbytes, links, cap, tag)
        if nbytes <= _BYTE_EPS:
            if latency > 0.0:
                self.engine.schedule(latency, self._finish_now, flow)
            else:
                self._finish_now(flow)
            return flow
        if latency > 0.0:
            eng = self.engine
            deadline = eng._now + latency
            batch = self._act_batch
            if (
                batch is not None
                and deadline == self._act_deadline
                and eng._seq == self._act_seq
            ):
                # No event has been scheduled since this batch's head:
                # unbatched, this activation would carry the very next
                # sequence number at the same (time, priority) key and
                # pop immediately after the previous one with nothing in
                # between.  Running the whole run from the head's
                # callback is therefore observationally identical — and
                # skips a heap push/pop per flow.  Any interleaved
                # schedule() bumps the engine's sequence counter and
                # closes the batch, so the guarantee is structural.
                batch.append(flow)
            else:
                batch = [flow]
                eng.schedule(latency, self._activate_batch, batch)
                self._act_batch = batch
                self._act_deadline = deadline
                self._act_seq = eng._seq
        else:
            self._activate(flow)
        return flow

    def link_throughput(self, link: Link) -> float:
        """Instantaneous aggregate rate through ``link`` (bytes/second).

        Served from the per-class aggregates the fast path maintains —
        ``O(classes on link)`` instead of a scan over every active flow.
        """
        self._settle()
        return sum((cls.rate * cls.count for cls in link._classes), 0.0)

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows (maintained count, no flow scan)."""
        self._settle()
        return self._n_active

    @property
    def class_count(self) -> int:
        """Number of distinct flow classes currently installed."""
        return len(self._classes)

    # ------------------------------------------------------------------
    # Class bookkeeping
    # ------------------------------------------------------------------
    def _attach_link(self, link: Link) -> None:
        if link._network is not None:
            raise RuntimeError(f"link {link.name!r} belongs to another network")
        link._network = self
        if link._capacity <= 0.0:
            self._zero_links.add(link)

    def _install_class(self, key: tuple) -> _FlowClass:
        cls = _FlowClass(key)
        self._classes[key] = cls
        used = self._links
        for link in cls.link_mults:
            classes = link._classes
            if not classes:
                used[link] = None
            classes[cls] = None
        return cls

    def _uninstall_class(self, cls: _FlowClass) -> None:
        del self._classes[cls.key]
        used = self._links
        for link in cls.link_mults:
            classes = link._classes
            del classes[cls]
            if not classes:
                del used[link]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish_now(self, flow: Flow) -> None:
        flow.started_at = min(flow.started_at, self.engine.now)
        flow.finished_at = self.engine.now
        flow._rem = 0.0
        self.completed += 1
        flow._complete()

    def _activate(self, flow: Flow) -> None:
        flow.started_at = self.engine._now
        order = self._order + 1
        self._order = order
        flow._order = order
        key = (flow.links, flow.cap)
        cls = self._classes.get(key)
        if cls is None:
            cls = self._install_class(key)
        # Fresh arrivals hold rate 0 until the next water-filling pass
        # (the reference allocator behaves the same way): they sit on the
        # class's pending list so the advance/completion scans skip them;
        # link membership counts are settled at merge time in one batch.
        pending = cls.pending
        if not pending:
            self._pending_classes.append(cls)
        pending.append(flow)
        self._n_active += 1
        self._epoch += 1
        if not self._dirty:
            self._dirty = True
            self.engine.schedule(0.0, self._rebalance, priority=PRIORITY_LATE)

    def _activate_batch(self, flows: list) -> None:
        """Activate a run of same-deadline delayed transfers in order.

        Loop body matches :meth:`_activate` flow-for-flow; the shared
        counters (activation order, active count, epoch, dirty flag) are
        carried in locals and written back once — the epoch is a change
        marker and the rebalance is batched per instant anyway, so one
        bump covers the whole run.
        """
        if flows is self._act_batch:
            self._act_batch = None
        now = self.engine._now
        order = self._order
        classes = self._classes
        pending_classes = self._pending_classes
        # Run-length class cache: bulk-synchronous batches are long runs
        # of flows sharing a (links, cap) key (e.g. the ranks of one
        # node all writing through its NIC), so remember the last class
        # and skip the dict probe while the key repeats.  Content
        # equality, not identity — each rank builds its own path tuple.
        last_links: object = None
        last_cap = -1.0
        pending: list = []
        for flow in flows:
            flow.started_at = now
            order += 1
            flow._order = order
            links = flow.links
            cap = flow.cap
            if cap != last_cap or links != last_links:
                last_links = links
                last_cap = cap
                key = (links, cap)
                cls = classes.get(key)
                if cls is None:
                    cls = self._install_class(key)
                pending = cls.pending
                if not pending:
                    pending_classes.append(cls)
            pending.append(flow)
        self._order = order
        self._n_active += len(flows)
        self._epoch += 1
        if not self._dirty:
            self._dirty = True
            self.engine.schedule(0.0, self._rebalance, priority=PRIORITY_LATE)

    def _mark_dirty(self) -> None:
        if not self._dirty:
            self._dirty = True
            # Late priority: batch all arrivals/changes at this instant.
            self.engine.schedule(0.0, self._rebalance, priority=PRIORITY_LATE)

    def _settle(self) -> None:
        """Force a pending rebalance to run synchronously (for queries)."""
        if self._dirty:
            self._rebalance()

    def _rebalance(self) -> None:
        self._dirty = False
        stats = self.engine.stats
        stats.rebalances += 1
        self._advance_and_complete()
        if self._alloc_epoch != self._epoch:
            self._allocate()
            self._alloc_epoch = self._epoch
        else:
            # Pure no-op rebalance (e.g. a redundant capacity write or a
            # superseded query settle): rates are still valid, skip the
            # water-filling entirely.
            stats.rebalances_skipped += 1
        self._schedule_completion()

    def _advance_and_complete(self) -> None:
        # Advance member residuals to ``now``, then complete drained
        # flows.  Each class's advance and completion are independent of
        # every other's, so the arithmetic matches the reference's
        # advance-all-then-scan-all sequence bit-for-bit.
        #
        # A flow is complete when its residual is negligible relative to
        # its size, or when draining it needs a time step too small to
        # represent at the current simulated time (float resolution) —
        # otherwise zero-progress completion events would loop forever.
        now = self.engine._now
        dt = now - self._last_update
        self._last_update = now
        classes = self._classes
        if not classes:
            return
        time_eps = max(1e-12, abs(now) * 1e-12)
        # Per-class selector: flag every class whose minimum residual
        # might clear one of the three completion tests.  This is only a
        # *selector* — the per-member scan below applies the exact
        # reference tests, and scanning a class where nothing completes
        # rewrites bit-identical state — so a conservative
        # overapproximation is safe and lets the time test use a
        # division-free bound: ``rem / r <= eps`` implies
        # ``rem <= r * (eps * 1.0625)`` (two rounding steps fit well
        # inside the 6.25% margin; an inf rate makes the bound inf,
        # correctly flagging instant-drain classes).  The two size tests
        # share the class's precomputed ``tol``.  Memberless classes sit
        # at minrem +inf and are never flagged.
        time_thr = time_eps * 1.0625
        flagged: list[_FlowClass] = []
        for cls in classes.values():
            r = cls.rate
            m = cls.minrem
            if dt > 0.0:
                # Log the decrement for the members' lazy replay (see
                # _FlowClass.materialize) and advance the class minimum
                # eagerly: subtraction is monotonic, so the minimizing
                # member stays minimal, and this clamped subtraction is
                # the same arithmetic the members replay, bit-for-bit.
                # A zero decrement (rate 0) subtracts exactly nothing.
                d = r * dt
                if d > 0.0:
                    cls.decs.append(d)
                    m = m - d
                    if m <= 0.0:
                        m = 0.0
                    cls.minrem = m
            if m <= cls.tol or m <= r * time_thr:
                flagged.append(cls)
        if not flagged:
            return
        finished: list[Flow] = []
        inf = _INF
        for cls in flagged:
            r = cls.rate
            # Replay the deferred decrements inline while scanning: the
            # same clamped subtractions in the same order as
            # :meth:`_FlowClass.materialize` (a run of equal residuals
            # replayed once), fused into the member loop so the residual
            # list is rebuilt once instead of twice.
            decs = cls.decs
            keep: list[Flow] = []
            keep_rems: list[float] = []
            new_min = inf
            new_max = 0.0
            rpos = r > 0.0
            last_in = last_out = -1.0
            for f, rem in zip(cls.members, cls.rems):
                if rem == last_in:
                    rem = last_out
                else:
                    last_in = rem
                    for d in decs:
                        rem = rem - d
                        if rem <= 0.0:
                            rem = 0.0
                    last_out = rem
                if (
                    rem <= _BYTE_EPS
                    or rem <= f.nbytes * 1e-9
                    or (rpos and rem / r <= time_eps)
                ):
                    f._rate = r
                    f._klass = None
                    f.finished_at = now
                    f._rem = 0.0
                    finished.append(f)
                else:
                    keep.append(f)
                    keep_rems.append(rem)
                    if rem < new_min:
                        new_min = rem
                    if f.nbytes > new_max:
                        new_max = f.nbytes
            decs.clear()
            dropped = cls.count - len(keep)
            cls.members = keep
            cls.rems = keep_rems
            cls.count = len(keep)
            cls.minrem = new_min
            tol = new_max * 1e-9
            cls.tol = tol if tol > _BYTE_EPS else _BYTE_EPS
            if dropped:
                for link, mult in cls.link_mults.items():
                    link._members -= mult * dropped
                if not keep and not cls.pending:
                    self._uninstall_class(cls)
        if not finished:
            return
        self._n_active -= len(finished)
        self._epoch += 1
        # Completion callbacks must fire in activation order — the exact
        # order the reference implementation's active-list scan produces
        # (downstream processes observe it, e.g. in-flight counters).
        finished.sort(key=_ORDER_KEY)
        self.completed += len(finished)
        if _check_hooks.checker is not None or len(finished) == 1:
            for flow in finished:
                flow._complete()
            return
        # Batched dispatch: trigger every completed flow now and run
        # their dispatches from one scheduled callback.  The _complete
        # loop above schedules one consecutive-sequence dispatch per
        # event with nothing in between, so draining them back-to-back
        # from a single callback resumes the same waiters in the same
        # order before any event they themselves schedule — the
        # observable schedule is identical, minus the per-event queue
        # traffic.  (With a runtime checker installed the per-event path
        # runs instead, so on_trigger hooks see every event.)
        for flow in finished:
            if flow._triggered:
                raise SimulationError(f"event {flow.name!r} triggered twice")
            flow._triggered = True
        self.engine.schedule(0.0, _dispatch_batch, finished)

    def _merge_pending(self) -> None:
        """Fold every class's pending arrivals into its members."""
        pending_classes = self._pending_classes
        for cls in pending_classes:
            rems = cls.rems
            if cls.decs:
                # Existing members must not replay decrements from
                # after the merge as if they predated it — flush the
                # deferred ones first.
                cls.materialize()
            pend = cls.pending
            for flow in pend:
                flow._klass = cls
            # A pending flow has moved no bytes: its residual is its
            # full size.  min()/max() run at C speed; comparing the
            # two Python floats afterwards is the same comparison
            # chain the per-flow loop produced.
            new_rems = [flow._rem for flow in pend]
            rems += new_rems
            lo = min(new_rems)
            if lo < cls.minrem:
                cls.minrem = lo
            tol = max(new_rems) * 1e-9
            if tol > cls.tol:
                cls.tol = tol
            cls.members.extend(pend)
            n_new = len(pend)
            pend.clear()
            cls.count += n_new
            for link, mult in cls.link_mults.items():
                link._members += mult * n_new
        pending_classes.clear()

    def _allocate(self) -> None:
        """Max-min fair rates with per-flow caps (progressive filling).

        Every round computes one uniform rate increment from the
        per-link residuals and the per-class cap headroom, then freezes
        capped and saturated classes.  The order of value-changing steps
        (cap freeze, then residual update, then saturation freeze) is
        the reference per-flow allocator's, float for float.
        """
        if self._pending_classes:
            self._merge_pending()
        classes = self._classes
        if not classes:
            return
        # Every installed class is populated here (a class drained with
        # no arrivals pending was uninstalled, and the merge above
        # populated the rest), so every used link has members.  A class
        # is frozen in this pass iff its ``frozen`` equals ``stamp``.
        stamp = self._stamp = self._stamp + 1
        for link in self._links:
            link._n = link._members
            link._res = link._capacity
        unf = list(classes.values())
        act = list(self._links)
        # Flows on a zero-capacity link can never move: freeze at rate 0.
        if self._zero_links:
            for link in self._zero_links:
                for cls in link._classes:
                    if cls.frozen != stamp:
                        cls.frozen = stamp
                        cls.rate = 0.0
                        cnt = cls.count
                        for l, mult in cls.link_mults.items():
                            l._n -= mult * cnt
            unf = [cls for cls in unf if cls.frozen != stamp]
            act = [link for link in act if link._n]
        # Every unfrozen class has received every increment since 0.0,
        # so all of them hold one shared ``rate``: a class's rate is
        # written once, when it freezes.  Subtraction and scaling are
        # monotonic, so the reference's minimum of ``cap - rate`` over
        # unfrozen flows is ``min_cap - rate`` and its cap test holds
        # for some class only if ``rate >= min_cap * (1 - eps)``.
        rate = 0.0
        min_cap = min([cls.cap for cls in unf]) if unf else _INF
        rounds = 0
        inf = _INF
        while unf:
            rounds += 1
            # The reference takes the minimum of ``residual / n`` over
            # links with unfrozen members (``act``) and clamps a
            # negative result to 0 below; clamping the numerator instead
            # gives the same increment up to the sign of a zero, which
            # ``+``/``-`` on the non-negative rates and residuals it
            # meets cannot observe.
            inc = min_cap - rate
            for link in act:
                res = link._res
                t = (res if res > 0.0 else 0.0) / link._n
                if t < inc:
                    inc = t
            if inc == inf:
                # No finite constraint: flows are effectively unbounded.
                rate = inf
                break
            if inc < 0.0:
                inc = 0.0
            rate = rate + inc
            # Cap freezing reads rates before the residual update.
            n_frozen = 0
            if rate >= min_cap * (1.0 - _REL_EPS):
                for cls in unf:
                    if rate >= cls.cap_thresh:
                        cls.frozen = stamp
                        cls.rate = rate
                        n_frozen += 1
            # Links without unfrozen members subtract ``inc * 0`` in the
            # reference: nothing, so only ``act`` is updated.
            for link in act:
                res = link._res - link._n * inc
                link._res = res
                if res <= link._sat:
                    for cls in link._classes:
                        if cls.frozen != stamp:
                            cls.frozen = stamp
                            cls.rate = rate
                            n_frozen += 1
            if not n_frozen:
                # Numerical stall safeguard; freeze everything.
                break
            if n_frozen == len(unf):
                unf = []
                break  # final round: nothing left to read the counts
            # Frozen members leave the per-link unfrozen counts (exact
            # small integers, so the accumulation order is immaterial).
            keep = []
            for cls in unf:
                if cls.frozen == stamp:
                    cnt = cls.count
                    for link, mult in cls.link_mults.items():
                        link._n -= mult * cnt
                else:
                    keep.append(cls)
            unf = keep
            act = [link for link in act if link._n]
            min_cap = min([cls.cap for cls in unf])
        for cls in unf:
            cls.rate = rate
        self.engine.stats.allocator_rounds += rounds

    def _schedule_completion(self) -> None:
        self._completion_token += 1
        # min(remaining)/rate == min(remaining/rate) for each class's
        # uniform positive rate, and the class minimum is tracked
        # incrementally — no member scan.  An inf rate yields 0.0,
        # exactly as in the reference's per-flow scan.
        next_dt = _INF
        for cls in self._classes.values():
            r = cls.rate
            if r > 0.0:
                t = cls.minrem / r
                if t < next_dt:
                    next_dt = t
        if next_dt == _INF:
            return
        self.engine.schedule(
            max(0.0, next_dt),
            self._on_completion,
            self._completion_token,
            priority=PRIORITY_LATE,
        )

    def _on_completion(self, token: int) -> None:
        if token != self._completion_token:
            return  # superseded by a newer rebalance
        self._rebalance()
