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
flows are grouped into **flow classes** keyed by ``(path, cap)``, where
each distinct link path is interned once with its link multiplicities.
All members of a class receive identical rates, so water-filling runs
over classes.  A class holds its own rate and decrement log (it is
*loose*) until at least ``_GROUP_MIN`` classes share its rate; then it
lives in a **rate group**, and a rebalance pays for the groups and the
classes and links that changed rather than for every live one:

- the advance logs one decrement per group; a class replays its
  group's log onto its minimum residual, and onto its members, only
  when they are read;
- each group indexes its classes by minimum residual (a heap whose
  entries hold classes known to be equal), so the completion scan and
  the next-completion pick read group heads;
- while groups exist, links with equal capacity and member count form
  one **link set**, kept up to date as counts change: twin links hold
  the same residual in the first filling round, so that round reads
  one residual per set, and freezes a group whole when a saturated
  set or its caps cover all of it;
- what the first round does not settle runs class by class, as the
  reference does flow by flow, and classes whose rates part ways move
  to the group (or loose state) of their new rate.

Without groups, every allocation runs class by class: at a few dozen
classes that costs less than keeping sets and groups.

Bit-identity: the reference per-flow implementation is preserved in
:mod:`repro.sim.network_ref`; the fast path is required (and tested) to
produce bit-identical simulated timestamps and rates.  Every class-level
operation is the float operation the reference performs for each
member, minima are exact and order-independent, and an index only ever
selects candidates: the exact reference test decides each one.  The
ordering rules that matter (documented inline) are: cap-freezing happens
before link-residual updates within a round; residual updates happen
before saturation checks; and completion callbacks fire in activation
order.

Efficiency notes (guides: avoid per-event quadratic work): flow arrivals
and completions at the same simulated instant are *batched* — a single
rebalance runs after all of them, scheduled in a late priority band.
With ``N`` identical flows starting and finishing together (the common
bulk-synchronous I/O-phase case) the whole phase costs ``O(N)`` events
and two rate computations over ``O(1)`` classes, not ``O(N^2)``.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Iterable, Optional

from repro.check import hooks as _check_hooks
from repro.sim.engine import PRIORITY_LATE, Engine, SimEvent, SimulationError

__all__ = ["Flow", "Link", "Network"]

#: Relative tolerance for "link saturated" / "cap reached" tests.
_REL_EPS = 1e-9
#: Absolute byte tolerance below which a flow counts as complete.
_BYTE_EPS = 1e-6
#: Per-log-entry bound (about 9 units in the last place) on how far a
#: completion-index key, read back against its group's running
#: decrement total, can drift from the exact replayed residual.
_KEY_SLACK = 1e-15

#: A rate gets a group once this many loose classes share it; fewer
#: classes cost less loose than the group's bookkeeping.
_GROUP_MIN = 128

#: A group's decrement log is replayed onto all its classes and cleared
#: once it holds this many entries more than twice its class count, so
#: the log (and the index's drift bound) stays bounded at O(1) amortized
#: cost per entry.
_LOG_SLACK = 64

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
        "_groups", "_set", "_paths", "_n", "_res", "_on", "_stamp",
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
        #: Rate groups with classes on this link -> how many.
        self._groups: dict[_Group, int] = {}
        #: The link set of its ``(capacity, members)`` (None while it
        #: has no members or no capacity).
        self._set: Optional[_LinkSet] = None
        #: Interned paths through this link.
        self._paths: list[_Path] = []
        #: Class-level rounds scratch, valid only inside
        #: :meth:`Network._class_rounds` pass ``_stamp``: unfrozen member
        #: count, residual and unfrozen classes.
        self._n = 0
        self._res = 0.0
        self._on: list = []
        self._stamp = 0

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
        changed = capacity != self._capacity
        self._capacity = capacity
        self._sat = capacity * _REL_EPS
        network = self._network
        if network is not None:
            if changed:
                network._epoch += 1
                if network._stale_links is not None:
                    network._stale_links[self] = None
                for path in self._paths:
                    if path.recheck():
                        for cls in path.classes.values():
                            if cls.group is not None:
                                cls.group.twins += 1 if path.twin else -1
            if capacity <= 0.0:
                network._zero_links.add(self)
            else:
                network._zero_links.discard(self)
            network._mark_dirty()

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
        "_path",
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
        path: "_Path",
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
        self.nbytes = self._rem = float(nbytes)
        self.links = links
        self.cap = float(cap)
        self._rate = 0.0
        self._klass: Optional["_FlowClass"] = None
        self._path = path
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
        defers per-member updates to the group's decrement log, see
        :meth:`_FlowClass.materialize`); this accessor is for
        observability, not the hot path.
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


class _Path:
    """An interned link path: each distinct link with its multiplicity
    (a duplicated link counts twice toward that link's member count,
    exactly as in the reference allocator), and the path's installed
    classes by cap.  Built once per distinct path, so a burst of
    transfers re-uses it."""

    __slots__ = ("mults", "classes", "twin")

    def __init__(self, links: tuple):
        mults: dict[Link, int] = {}
        for link in links:
            mults[link] = mults.get(link, 0) + 1
        self.mults = mults
        self.classes: dict[float, _FlowClass] = {}
        #: Whether two of its links have equal capacity (so they may
        #: share a link set; see ``_Group.twins``).
        self.twin = False
        self.recheck()
        for link in mults:
            link._paths.append(self)

    def recheck(self) -> bool:
        """Recompute :attr:`twin`; returns whether it changed."""
        caps = [link._capacity for link in self.mults]
        twin = len(set(caps)) < len(caps)
        changed = twin != self.twin
        self.twin = twin
        return changed


class _FlowClass:
    """Equivalence class of active flows sharing ``(path, cap)``.

    Progressive filling assigns identical rates to all members, so the
    allocator operates on classes and members read their rate through
    their class (:attr:`Flow.rate`).  A class is *loose* unless it
    belongs to a rate group: it holds its own rate ``fr`` and log
    ``decs``.  An allocation puts a loose class in the rate group of
    its new rate if there is one, and gives a rate that at least
    ``_GROUP_MIN`` loose classes share a group of its own.
    """

    __slots__ = (
        "path", "cap", "cap_thresh", "members", "rems", "pending",
        "count", "minrem", "tol", "group", "off", "roff", "seq",
        "decs", "fz", "fr",
    )

    def __init__(self, path: _Path, cap: float):
        self.path = path
        self.cap = cap
        self.cap_thresh = cap * (1.0 - _REL_EPS)
        self.members: list[Flow] = []
        #: Per-member residual bytes, parallel to ``members`` — current
        #: only after :meth:`materialize` replays the group's log.
        self.rems: list[float] = []
        #: Arrivals since the last allocation: they hold rate 0 (exactly
        #: like a fresh flow in the reference allocator) until the next
        #: water-filling pass merges them into ``members``.
        self.pending: list[Flow] = []
        self.count = 0
        #: Minimum member residual (+inf when memberless), current once
        #: :meth:`sync` has replayed the group's log (always, while
        #: loose).
        self.minrem = _INF
        #: ``max(_BYTE_EPS, largest member size * 1e-9)``: a member whose
        #: residual is above it can only complete by the time test.
        self.tol = _BYTE_EPS
        #: The rate group (None while loose).
        self.group: Optional[_Group] = None
        #: While loose, the advance decrements not yet replayed onto
        #: ``rems`` (``minrem`` is advanced eagerly).
        self.decs: list[float] = []
        #: The rate while loose; inside class-level rounds, the rate it
        #: froze at in pass ``fz`` (see ``Network.class_passes``).
        self.fr = 0.0
        self.fz = 0
        #: Entries of the group's decrement log already replayed onto
        #: ``minrem`` (``off``) and onto ``rems`` (``roff``).
        self.off = 0
        self.roff = 0
        #: Sequence number of the live completion-index entry (0: none).
        self.seq = 0

    @property
    def rate(self) -> float:
        group = self.group
        return group.rate if group is not None else self.fr

    def sync(self) -> None:
        """Replay the group's new decrements onto ``minrem``.

        Subtraction and the clamp at zero are monotonic, so the
        minimizing member stays minimal, and this is the arithmetic the
        members replay, bit for bit.
        """
        log = self.group.log
        off = self.off
        if off < len(log):
            m = self.minrem
            for d in log[off:]:
                m = m - d
                if m <= 0.0:
                    m = 0.0
            self.minrem = m
            self.off = len(log)

    def materialize(self) -> None:
        """Replay the group's new decrements onto member residuals.

        Applying decrements member-by-member at every checkpoint would
        be O(members) per rebalance; instead each advance appends one
        decrement per group (and per loose class), and members replay
        the sequence — the same clamped subtractions in the same order,
        so bit-identical — only when their residuals are actually read.  The replay is a pure
        function of the starting residual, and members that merged
        together start from the same one, so a run of equal residuals
        is replayed once.
        """
        group = self.group
        if group is None:
            decs = self.decs
            if not decs:
                return
            self.decs = []
        else:
            log = group.log
            if self.roff == len(log):
                return
            decs = log[self.roff:]
            self.roff = len(log)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ",".join(l.name for l in self.path.mults)
        return f"<FlowClass [{names}] cap={self.cap:.3g} n={self.count}>"


class _Group:
    """Classes that share one rate.

    ``log`` holds the advance decrements ``rate * dt`` (positive ones
    only) since the group was formed, and ``total`` their running float
    sum.  The completion index ``heap`` keys each entry by its classes'
    ``minrem + total`` at
    entry: every member subtracts the same decrements, so the keys keep
    the order of the current minima, and ``key - total`` stays within
    ``_KEY_SLACK`` per log entry of the exact replayed value.  An entry
    ``(key, seq, classes, minrem, off)`` holds classes known to be
    equal; a class is live in it while its ``seq`` matches.
    """

    __slots__ = (
        "rate", "log", "total", "heap", "tail", "minrem", "stale", "tol",
        "classes", "caps", "lo", "hi", "twins",
    )

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.log: list[float] = []
        self.total = 0.0
        #: The completion index.
        self.heap: list[tuple] = []
        #: The last entry pushed, while it is in ``heap``.
        self.tail: Optional[tuple] = None
        #: Minimum of the members' current ``minrem``: exact unless
        #: ``stale`` (a member left or grew), a lower bound always.
        self.minrem = _INF
        self.stale = False
        #: Upper bound of the members' ``tol``.
        self.tol = _BYTE_EPS
        self.classes: dict[_FlowClass, None] = {}
        #: Cap -> number of member classes with it, and the least and
        #: greatest of them.
        self.caps: dict[float, int] = {}
        self.lo = _INF
        self.hi = 0.0
        #: Member classes with two links of equal capacity (the only
        #: ones a link set can count twice).
        self.twins = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RateGroup rate={self.rate:.3g} classes={len(self.classes)}>"


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


class _LinkSet:
    """Links with equal capacity and member count.

    Such links start every allocation with the same residual and
    subtract the same ``n * inc`` in its first round, so that round
    reads and updates one residual per set instead of one per link.
    The network keeps one set per ``(capacity, members)``.
    """

    __slots__ = ("cap", "n", "sat", "links", "res")

    def __init__(self, cap: float, n: int, sat: float):
        self.cap = cap
        self.n = n
        self.sat = sat
        self.links: dict[Link, None] = {}
        #: The residual after the running allocation's first round.
        self.res = cap


class Network:
    """Fluid-flow network: manages active flows and their fair rates."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: Link tuple -> interned path.
        self._paths: dict[tuple, _Path] = {}
        self._nclasses = 0
        #: Links used by at least one installed class (an ordered set).
        self._links: dict[Link, None] = {}
        #: Live rate groups (an ordered set).
        self._groups: dict[_Group, None] = {}
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

        #: Loose classes (see :class:`_FlowClass`; an ordered set).
        self._loose: dict[_FlowClass, None] = {}
        self._n_active = 0
        self._order = 0
        #: Allocations that ran class-level rounds (observability: with
        #: groups, the first round runs over link sets and groups).
        self.class_passes = 0
        #: Links currently at zero capacity (their flows freeze at rate
        #: 0); maintained here so the allocator doesn't scan every link.
        self._zero_links: set[Link] = set()
        #: ``(capacity, members)`` -> link set (see :class:`_LinkSet`).
        self._lsets: dict[tuple, _LinkSet] = {}
        #: Sequence counter for completion-index entries.
        self._seq = 0
        #: Links whose member count or capacity changed since they were
        #: placed in their set; None while there are no groups, when
        #: the link sets are not kept.
        self._stale_links: Optional[dict[Link, None]] = None
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
        path = self._paths.get(links)
        if path is None:
            for link in links:
                if link._network is not self:
                    self._attach_link(link)
            path = self._paths[links] = _Path(links)
        flow = Flow(self.engine, nbytes, links, path, cap, tag)
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
        return self._nclasses

    # ------------------------------------------------------------------
    # Class, group and index bookkeeping
    # ------------------------------------------------------------------
    def _attach_link(self, link: Link) -> None:
        if link._network is not None:
            raise RuntimeError(f"link {link.name!r} belongs to another network")
        link._network = self
        if link._capacity <= 0.0:
            self._zero_links.add(link)

    def _class_of(self, path: _Path, cap: float) -> _FlowClass:
        """The installed class of ``(path, cap)``, installed if absent."""
        cls = path.classes.get(cap)
        if cls is None:
            cls = path.classes[cap] = _FlowClass(path, cap)
            for link in path.mults:
                classes = link._classes
                if not classes:
                    self._links[link] = None
                classes[cls] = None
            self._nclasses += 1
            self._loose[cls] = None
        return cls

    def _uninstall(self, classes: list) -> None:
        """Uninstall drained ``classes``.  A group they all belonged to
        is dropped in one go."""
        loose = self._loose
        left: dict[_Group, list] = {}
        for cls in classes:
            group = cls.group
            if group is None:
                del loose[cls]
            else:
                part = left.get(group)
                if part is None:
                    left[group] = [cls]
                else:
                    part.append(cls)
            path = cls.path
            del path.classes[cls.cap]
            for link in path.mults:
                on = link._classes
                del on[cls]
                if not on:
                    del self._links[link]
        self._nclasses -= len(classes)
        for group, part in left.items():
            if len(part) == len(group.classes):
                del self._groups[group]
                for cls in part:
                    cls.group = None
                    for link in cls.path.mults:
                        link._groups.pop(group, None)
            else:
                for cls in part:
                    self._leave(cls, False)

    def _join(self, cls: _FlowClass, group: _Group) -> None:
        """Add ``cls`` (current minimum, no group) to ``group``."""
        cls.group = group
        cls.off = cls.roff = len(group.log)
        classes = group.classes
        classes[cls] = None
        path = cls.path
        for link in path.mults:
            tally = link._groups
            tally[group] = tally.get(group, 0) + 1
        if path.twin:
            group.twins += 1
        caps = group.caps
        cap = cls.cap
        caps[cap] = caps.get(cap, 0) + 1
        if cap < group.lo:
            group.lo = cap
        if cap > group.hi:
            group.hi = cap
        if cls.tol > group.tol:
            group.tol = cls.tol
        m = cls.minrem
        if m < group.minrem:
            group.minrem = m
        if m != _INF:
            self._push(cls)

    def _leave(self, cls: _FlowClass, keep: bool = True) -> None:
        """Remove ``cls`` from its group, first replaying the group's
        log onto it if it is ``keep``-ing its members; a group left
        empty is dropped."""
        group = cls.group
        if keep:
            cls.sync()
            cls.materialize()
        cls.seq = 0
        cls.group = None
        mults = cls.path.mults
        if len(group.classes) == 1:
            for link in mults:
                del link._groups[group]
            del self._groups[group]
            return
        del group.classes[cls]
        for link in mults:
            tally = link._groups
            left = tally[group] - 1
            if left:
                tally[group] = left
            else:
                del tally[group]
        if cls.path.twin:
            group.twins -= 1
        caps = group.caps
        cap = cls.cap
        left = caps[cap] - 1
        if left:
            caps[cap] = left
        else:
            del caps[cap]
            if cap == group.lo:
                group.lo = min(caps)
            if cap == group.hi:
                group.hi = max(caps)
        group.stale = True

    def _compact(self, group: _Group) -> None:
        """Replay ``group``'s log onto every class and start it afresh,
        re-keying the completion index against the empty log."""
        for cls in group.classes:
            cls.sync()
            cls.materialize()
            cls.off = cls.roff = 0
        group.log = []
        group.total = 0.0
        group.heap = []
        group.tail = None
        for cls in group.classes:
            if cls.minrem != _INF:
                self._push(cls)

    def _push(self, cls: _FlowClass) -> None:
        """(Re-)enter ``cls``, synced, in its group's completion index.

        A class entered right after one with the same minimum at the
        same log position joins its entry: the two replay the same
        decrements from the same value, so they stay equal.
        """
        group = cls.group
        tail = group.tail
        if tail is not None and tail[3] == cls.minrem and tail[4] == cls.off:
            cls.seq = tail[1]
            tail[2].append(cls)
            return
        self._enter(group, [cls], cls.minrem, cls.off)

    def _enter(self, group: _Group, members: list, m: float,
               off: int) -> None:
        """Enter ``members``, whose current minimum is ``m`` as of log
        position ``off``, as one completion-index entry."""
        seq = self._seq = self._seq + 1
        for cls in members:
            cls.seq = seq
        entry = (m + group.total, seq, members, m, off)
        heap = group.heap
        heappush(heap, entry)
        group.tail = entry
        if len(heap) > 2 * len(group.classes) + 8:
            kept = []
            for key, seq, members, m, off in heap:
                live = [c for c in members if c.seq == seq]
                if live:
                    kept.append((key, seq, live, m, off))
            heapify(kept)
            heap[:] = kept
            group.tail = None

    def _pop(self, group: _Group, bound: float) -> Optional[tuple]:
        """Pop the head entry of ``group``'s completion index if its
        exact minimum may be at most ``bound`` (its key less the drift
        bound is a lower bound); returns ``(live members, their exact
        minimum, its log position)`` or None."""
        heap = group.heap
        total = group.total
        slack = (len(group.log) + 2) * _KEY_SLACK
        while heap:
            entry = heap[0]
            seq = entry[1]
            live = [c for c in entry[2] if c.seq == seq]
            if not live:
                heappop(heap)
                continue
            key = entry[0]
            if key - total - slack * (key + total) > bound:
                return None
            heappop(heap)
            if entry is group.tail:
                group.tail = None
            head = live[0]
            head.sync()
            return live, head.minrem, head.off
        return None

    def _refresh(self, group: _Group) -> None:
        """Recompute the exact ``minrem`` of a stale group: pop entries
        while they may still hold the minimum, replay one class of
        each exactly, and re-enter them."""
        best = _INF
        popped = []
        while True:
            got = self._pop(group, best)
            if got is None:
                break
            if got[1] < best:
                best = got[1]
            popped.append(got)
        for live, m, off in popped:
            self._enter(group, live, m, off)
        group.minrem = best
        group.stale = False

    def _place(self, link: Link) -> None:
        """Move ``link`` to the set of its ``(capacity, members)``.  A
        link alone in its set takes the set along when no set has its
        new key."""
        old = link._set
        n = link._members
        cap = link._capacity
        lsets = self._lsets
        live = n and cap > 0.0
        if old is not None:
            del old.links[link]
            if not old.links:
                del lsets[old.cap, old.n]
                if live and (cap, n) not in lsets:
                    old.cap = cap
                    old.n = n
                    old.sat = link._sat
                    old.links[link] = None
                    lsets[cap, n] = old
                    return
        if not live:
            link._set = None
            return
        lset = lsets.get((cap, n))
        if lset is None:
            lset = lsets[cap, n] = _LinkSet(cap, n, link._sat)
        lset.links[link] = None
        link._set = lset

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
        cls = self._class_of(flow._path, flow.cap)
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
        pending_classes = self._pending_classes
        # Run-length class cache: bulk-synchronous batches are long runs
        # of flows sharing a (path, cap) key (e.g. the ranks of one
        # node all writing through its NIC), so remember the last class
        # and skip the lookup while the key repeats.
        last_path: object = None
        last_cap = -1.0
        pending: list = []
        for flow in flows:
            flow.started_at = now
            order += 1
            flow._order = order
            path = flow._path
            cap = flow.cap
            if cap != last_cap or path is not last_path:
                last_path = path
                last_cap = cap
                cls = path.classes.get(cap)
                if cls is None:
                    cls = self._class_of(path, cap)
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
        # Advance residuals to ``now``, then complete drained flows.
        # Each class's advance and completion are independent of every
        # other's, so the arithmetic matches the reference's
        # advance-all-then-scan-all sequence bit-for-bit.
        #
        # A flow is complete when its residual is negligible relative to
        # its size, or when draining it needs a time step too small to
        # represent at the current simulated time (float resolution) —
        # otherwise zero-progress completion events would loop forever.
        now = self.engine._now
        dt = now - self._last_update
        self._last_update = now
        groups = self._groups
        loose = self._loose
        if not groups and not loose:
            return
        time_eps = max(1e-12, abs(now) * 1e-12)
        # Selector: flag every class or group whose minimum residual
        # might clear one of the three completion tests for one of its
        # classes.  This is only a *selector* — the per-member scan
        # below applies the exact reference tests, and
        # scanning a class where nothing completes rewrites
        # bit-identical state — so a conservative overapproximation is
        # safe and lets the time test use a division-free bound:
        # ``rem / r <= eps`` implies ``rem <= r * (eps * 1.0625)`` (two
        # rounding steps fit well inside the 6.25% margin; an inf rate
        # makes the bound inf, correctly flagging instant-drain
        # classes).  The size tests use the class's precomputed ``tol``
        # (the group's bounds it).
        time_thr = time_eps * 1.0625
        # Classes to scan.
        todo: list[_FlowClass] = []
        if loose:
            # A loose class logs the decrement for its members' lazy
            # replay and advances its minimum eagerly, as a group does
            # (see :meth:`_FlowClass.materialize`).  A zero decrement
            # (rate 0) subtracts exactly nothing and is never logged.
            for cls in loose:
                r = cls.fr
                m = cls.minrem
                if dt > 0.0:
                    d = r * dt
                    if d > 0.0:
                        cls.decs.append(d)
                        m = m - d
                        if m <= 0.0:
                            m = 0.0
                        cls.minrem = m
                if m <= cls.tol or m <= r * time_thr:
                    todo.append(cls)
        flagged: list[_Group] = []
        for group in groups:
            r = group.rate
            m = group.minrem
            if dt > 0.0:
                d = r * dt
                if d > 0.0:
                    log = group.log
                    log.append(d)
                    group.total += d
                    m = m - d
                    if m <= 0.0:
                        m = 0.0
                    group.minrem = m
                    if len(log) > _LOG_SLACK + 2 * len(group.classes):
                        self._compact(group)
            if m <= group.tol or m <= r * time_thr:
                flagged.append(group)
        inf = _INF
        for group in flagged:
            r = group.rate
            thr = r * time_thr
            tol = group.tol
            lim = tol if tol > thr else thr
            # Pop every class whose minimum may pass the class-level
            # selector (index keys less the drift bound) and apply it
            # exactly; the rest go back.
            hits: list[_FlowClass] = []
            misses = []
            while True:
                got = self._pop(group, lim)
                if got is None:
                    break
                live, m, off = got
                rest = []
                for cls in live:
                    if m <= cls.tol or m <= thr:
                        hits.append(cls)
                    else:
                        rest.append(cls)
                if rest:
                    misses.append((rest, m, off))
            for rest, m, off in misses:
                self._enter(group, rest, m, off)
            if hits:
                group.stale = True
                todo += hits
        if not todo:
            return
        finished: list[Flow] = []
        stale_links = self._stale_links
        gone: list[_FlowClass] = []
        for cls in todo:
            # Replay the deferred decrements inline while scanning: the
            # same clamped subtractions in the same order as
            # :meth:`_FlowClass.materialize` (a run of equal residuals
            # replayed once), fused into the member loop so the residual
            # list is rebuilt once instead of twice.
            group = cls.group
            if group is None:
                r = cls.fr
                decs = cls.decs
                cls.decs = []
            else:
                r = group.rate
                log = group.log
                decs = log[cls.roff:]
                cls.off = cls.roff = len(log)
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
            dropped = cls.count - len(keep)
            cls.members = keep
            cls.rems = keep_rems
            cls.count = len(keep)
            cls.minrem = new_min
            tol = new_max * 1e-9
            cls.tol = tol if tol > _BYTE_EPS else _BYTE_EPS
            if dropped:
                for link, mult in cls.path.mults.items():
                    link._members -= mult * dropped
                    if stale_links is not None:
                        stale_links[link] = None
                if not keep and not cls.pending:
                    gone.append(cls)
                    continue
            if keep and group is not None:
                self._push(cls)
        if gone:
            self._uninstall(gone)
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
        stale_links = self._stale_links
        for cls in self._pending_classes:
            group = cls.group
            # Existing members must not replay decrements from after
            # the merge as if they predated it — flush the deferred
            # ones first.
            if group is not None:
                cls.sync()
                cls.materialize()
            elif cls.decs:
                cls.materialize()
            pend = cls.pending
            for flow in pend:
                flow._klass = cls
            # A pending flow has moved no bytes: its residual is its
            # full size.  min()/max() run at C speed; comparing the
            # two Python floats afterwards is the same comparison
            # chain the per-flow loop produced.
            new_rems = [flow._rem for flow in pend]
            cls.rems += new_rems
            lo = min(new_rems)
            tol = max(new_rems) * 1e-9
            if tol > cls.tol:
                cls.tol = tol
            cls.members.extend(pend)
            n_new = len(pend)
            pend.clear()
            cls.count += n_new
            for link, mult in cls.path.mults.items():
                link._members += mult * n_new
                if stale_links is not None:
                    stale_links[link] = None
            if lo < cls.minrem:
                cls.minrem = lo
                if group is not None:
                    if lo < group.minrem:
                        group.minrem = lo
                    self._push(cls)
            if group is not None and cls.tol > group.tol:
                group.tol = cls.tol
        self._pending_classes.clear()

    def _allocate(self) -> None:
        """Max-min fair rates with per-flow caps (progressive filling).

        Every round computes one uniform rate increment from the
        per-link residuals and the per-class cap headroom, then freezes
        capped and saturated classes.  The order of value-changing steps
        (cap freeze, then residual update, then saturation freeze) is
        the reference per-flow allocator's, float for float.

        With groups, the first round runs over link sets and groups,
        plus the loose classes one by one: it reads one residual per set
        of twin links and, in the common case that every group freezes
        whole, is the only round.  Otherwise the classes still
        unfrozen, and those of groups that froze only in part, go on
        class by class (:meth:`_class_rounds`), as every class does in
        an allocation without groups.
        """
        if self._pending_classes:
            self._merge_pending()
        groups = self._groups
        loose = self._loose
        if not groups or self._zero_links:
            # Without groups the link sets have nothing to save, and
            # flows on a zero-capacity link can never move (they freeze
            # at rate 0 before the first round, so the member counts the
            # sets hold do not apply): the allocation runs class by
            # class from the start.  Without groups the sets are
            # dropped, and rebuilt when a group forms.
            if not groups and self._stale_links is not None:
                for lset in self._lsets.values():
                    for link in lset.links:
                        link._set = None
                self._lsets.clear()
                self._stale_links = None
            if self._zero_links:
                frozen = {cls: None for link in self._zero_links
                          for cls in link._classes}
                unf = [cls for group in groups for cls in group.classes
                       if cls not in frozen]
                unf += [cls for cls in loose if cls not in frozen]
                self._class_rounds(list(groups), frozen, unf, 0.0, 0, {})
            elif loose:
                self._class_rounds([], None, loose, 0.0, 0, {})
            return
        stale_links = self._stale_links
        if stale_links is None:
            self._stale_links = {}
            for link in self._links:
                self._place(link)
        elif stale_links:
            place = self._place
            for link in stale_links:
                lset = link._set
                if (lset is None or lset.n != link._members
                        or lset.cap != link._capacity):
                    place(link)
            stale_links.clear()
        # Round one.  Every class is unfrozen at rate 0, so the cap
        # headroom is the least cap, each link's residual is its
        # capacity and its unfrozen count its member count; twin links
        # share the quotient, one per set.
        lsets = self._lsets.values()
        caps = [g.lo for g in groups]
        caps += [cls.cap for cls in loose]
        inc = min(caps)
        for lset in lsets:
            t = lset.cap / lset.n
            if t < inc:
                inc = t
        if inc == _INF:
            # No finite constraint: flows are effectively unbounded.
            self._one_rate(_INF)
            return
        rate = 0.0 + inc
        # Groups that freeze whole (``None``) or in part (``False``).
        # Cap freezing reads rates before the residual update; a cap
        # test ``rate >= cap * (1 - eps)`` is monotonic in the cap.
        part: dict[_Group, Optional[bool]] = {}
        thr = 1.0 - _REL_EPS
        for group in groups:
            if rate >= group.lo * thr:
                part[group] = None if rate >= group.hi * thr else False
        for lset in lsets:
            res = lset.res = lset.cap - lset.n * inc
            if res <= lset.sat:
                # Saturated sets are few and small, so their groups
                # are counted here from the links' tallies.  A count
                # equal to a group's size means all of it is on the set
                # when no class can be counted twice: the set is one
                # link, or no class of the group has two links of equal
                # capacity (links in one set have equal capacity).
                links = lset.links
                if len(links) == 1:
                    for link in links:
                        counts = link._groups
                else:
                    counts = {}
                    for link in links:
                        for group, count in link._groups.items():
                            counts[group] = counts.get(group, 0) + count
                single = len(links) == 1
                for group, count in counts.items():
                    if part.get(group, False) is not None:
                        part[group] = (
                            None if count == len(group.classes)
                            and (single or not group.twins) else False)
        # Loose classes and those of groups that froze in part are
        # tested exactly.
        unf = []
        for cls in loose:
            if rate < cls.cap_thresh:
                for link in cls.path.mults:
                    lset = link._set
                    if lset.res <= lset.sat:
                        break
                else:
                    unf.append(cls)
        whole = [group for group, how in part.items() if how is None]
        if (len(whole) == len(groups) and not unf
                or not part and len(unf) == len(loose)):
            # Every class froze in this round, or none did (the
            # numerical stall safeguard: freeze everything).
            self._one_rate(rate)
            return
        frozen = dict.fromkeys(loose)
        for cls in unf:
            del frozen[cls]
        rest = []
        for group in groups:
            how = part.get(group, True)
            if how is None:
                group.rate = rate
                continue
            rest.append(group)
            if how:
                unf += group.classes
                continue
            for cls in group.classes:
                if rate >= cls.cap_thresh:
                    frozen[cls] = None
                    continue
                for link in cls.path.mults:
                    lset = link._set
                    if lset.res <= lset.sat:
                        frozen[cls] = None
                        break
                else:
                    unf.append(cls)
        self._class_rounds(rest, frozen, unf, rate, 1,
                           {rate: whole[0]} if whole else {})

    def _one_rate(self, rate: float) -> None:
        """End a one-round allocation that gave every class ``rate``."""
        self.engine.stats.allocator_rounds += 1
        groups = self._groups
        for group in groups:
            group.rate = rate
        loose = self._loose
        if loose:
            for cls in loose:
                cls.fr = rate
            self._regroup({rate: next(iter(groups))}, ())

    def _regroup(self, by_rate: dict, moves) -> None:
        """Place the loose classes and the ``(rate, classes)`` parts in
        ``moves`` that leave their groups: each joins the group of its
        rate in ``by_rate`` if there is one, else is (or stays) loose;
        at least ``_GROUP_MIN`` loose classes of one rate found a group
        together."""
        loose = self._loose
        for r, part in moves:
            group = by_rate.get(r)
            for cls in part:
                self._leave(cls)
                if group is None:
                    loose[cls] = None
                else:
                    self._join(cls, group)
        if not by_rate and len(loose) < _GROUP_MIN:
            return
        joins = []
        shared: dict[float, list] = {}
        for cls in loose:
            r = cls.fr
            group = by_rate.get(r)
            if group is not None:
                joins.append((cls, group))
            elif r in shared:
                shared[r].append(cls)
            else:
                shared[r] = [cls]
        for r, classes in shared.items():
            if len(classes) >= _GROUP_MIN:
                group = _Group(r)
                self._groups[group] = None
                joins += [(cls, group) for cls in classes]
        for cls, group in joins:
            cls.materialize()
            del loose[cls]
            self._join(cls, group)

    def _class_rounds(self, groups: list, frozen: Optional[dict], unf,
                      rate: float, rounds: int, by_rate: dict) -> None:
        """Finish an allocation class by class, as the reference does
        flow by flow: the classes in ``frozen`` froze at ``rate`` and
        those in ``unf`` are still unfrozen after ``rounds`` rounds;
        ``groups`` are the groups they belong to (loose classes belong
        to none) and ``by_rate`` maps the rate of groups frozen whole to
        one of them.  Then regroup by rate.  ``frozen`` is None when
        ``unf`` holds every class, before the first round."""
        stamp = self.class_passes = self.class_passes + 1
        if frozen is None:
            # Every member counts on every used link.
            act = list(self._links)
            for link in act:
                link._n = link._members
                link._res = link._capacity
                link._on = link._classes
        else:
            for cls in frozen:
                cls.fz = stamp
                cls.fr = rate
            # Unfrozen member counts and classes of each link they use;
            # a link's residual is its set's after round one, else its
            # capacity.  Counts are exact small integers, so the order
            # of accumulation is immaterial.
            act = []
            for cls in unf:
                count = cls.count
                for link, mult in cls.path.mults.items():
                    if link._stamp != stamp:
                        link._stamp = stamp
                        link._on = [cls]
                        link._n = mult * count
                        link._res = (link._set.res if rounds
                                     else link._capacity)
                        act.append(link)
                    else:
                        link._on.append(cls)
                        link._n += mult * count
        min_cap = min([cls.cap for cls in unf]) if unf else _INF
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
                        cls.fz = stamp
                        cls.fr = rate
                        n_frozen += 1
            # Links without unfrozen members subtract ``inc * 0`` in the
            # reference: nothing, so only ``act`` is updated.
            for link in act:
                res = link._res - link._n * inc
                link._res = res
                if res <= link._sat:
                    for cls in link._on:
                        if cls.fz != stamp:
                            cls.fz = stamp
                            cls.fr = rate
                            n_frozen += 1
            if not n_frozen:
                # Numerical stall safeguard; freeze everything.
                break
            if n_frozen == len(unf):
                unf = []
                break  # final round: nothing left to read the counts
            # Frozen members leave the per-link unfrozen counts.
            keep = []
            for cls in unf:
                if cls.fz == stamp:
                    count = cls.count
                    for link, mult in cls.path.mults.items():
                        link._n -= mult * count
                else:
                    keep.append(cls)
            unf = keep
            act = [link for link in act if link._n]
            min_cap = min([cls.cap for cls in unf])
        for cls in unf:
            cls.fr = rate
        self.engine.stats.allocator_rounds += rounds
        # Regroup: a group whose classes froze at one rate keeps them;
        # otherwise its largest part stays and the others move (see
        # :meth:`_regroup`).
        moves = []
        for group in groups:
            parts: dict[float, list] = {}
            for cls in group.classes:
                r = cls.fr
                part = parts.get(r)
                if part is None:
                    parts[r] = [cls]
                else:
                    part.append(cls)
            if len(parts) == 1:
                stay = r
            else:
                stay = max(parts, key=lambda r: len(parts[r]))
                for r, part in parts.items():
                    if r != stay:
                        moves.append((r, part))
            group.rate = stay
            if stay not in by_rate:
                by_rate[stay] = group
        if moves or by_rate or len(self._loose) >= _GROUP_MIN:
            self._regroup(by_rate, moves)

    def _schedule_completion(self) -> None:
        self._completion_token += 1
        # min(remaining)/rate == min(remaining/rate) for the uniform
        # positive rate of each loose class and group, and the minimum
        # is tracked incrementally (a group's refreshed from its index
        # when stale) — no member scan.  An inf rate yields 0.0, exactly as in the
        # reference's per-flow scan.
        next_dt = _INF
        for cls in self._loose:
            r = cls.fr
            if r > 0.0:
                t = cls.minrem / r
                if t < next_dt:
                    next_dt = t
        for group in self._groups:
            r = group.rate
            if r > 0.0:
                if group.stale:
                    self._refresh(group)
                t = group.minrem / r
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
