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
so the water-filling rounds operate on classes (dozens) instead of
flows (thousands).  Class-level and link-level state live in dense
numpy arrays indexed by stable slots (``_c_*`` for classes, ``_l_*``
for links), with a per-class CSR-ish incidence list (``lmults``) built
incrementally as classes appear.  Each progressive-filling round is a
handful of vectorized reductions — per-link residual minima plus
per-class cap headroom — and the advance/completion sweep is a
vectorized quick-reject over every class at once, dropping to a scalar
member scan only for the few classes actually near completion.

Bit-identity: the reference per-flow implementation is preserved in
:mod:`repro.sim.network_ref`; the fast path is required (and tested) to
produce bit-identical simulated timestamps and rates.  All vector
arithmetic is elementwise IEEE-754 double precision — identical to the
scalar operations it replaces — and min-reductions are exact and
order-independent, so vectorizing never reorders a float operation in a
value-changing way.  The ordering rules that matter (documented inline)
are: cap-freezing happens before link-residual updates within a round;
residual updates happen before saturation checks; completion callbacks
fire in activation order; and every value escaping the arrays into
engine or :class:`Flow` state is converted back to a Python float so
``repr``/serialization stay byte-identical downstream.

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
from typing import Any, Iterable, Optional, Sequence

import numpy as np

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

    __slots__ = ("name", "_capacity", "_sat", "_network", "_lid")

    def __init__(self, name: str, capacity: float):
        if capacity < 0:
            raise ValueError(f"link {name!r}: negative capacity {capacity}")
        self.name = name
        self._capacity = float(capacity)
        #: Saturation threshold ``capacity * _REL_EPS``, recomputed only
        #: when the capacity changes (not every water-filling round).
        self._sat = self._capacity * _REL_EPS
        self._network: Optional["Network"] = None
        #: Slot index into the owning network's link arrays (assigned on
        #: first use by a transfer).
        self._lid = -1

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
        sat = capacity * _REL_EPS
        network = self._network
        if network is not None:
            if capacity != self._capacity:
                network._epoch += 1
            if capacity <= 0.0:
                network._zero_links.add(self)
            else:
                network._zero_links.discard(self)
            network._l_cap[self._lid] = capacity
            network._l_sat[self._lid] = sat
            network._mark_dirty()
        self._capacity = capacity
        self._sat = sat

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
        class's parallel ``rems`` array (the advance loop updates that
        array wholesale, far cheaper than per-flow attribute stores);
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
    :attr:`Flow.rate`.  Scalar per-class state (rate, min residual, max
    member size, member count) lives in the owning network's dense slot
    arrays (``_c_*``); the class object holds the member lists, the
    incidence row (``lmults``: each distinct link's slot id with its
    multiplicity — a duplicated link in a path counts twice toward that
    link's flow count, exactly as in the reference allocator) and the
    replay cursor into the network's deferred-decrement log.
    """

    __slots__ = (
        "key", "links", "cap", "cap_thresh", "slot", "net", "members",
        "rems", "pending", "count", "link_mults", "lmults", "dec_from",
    )

    def __init__(self, key: tuple, links: tuple, cap: float, net: "Network"):
        self.key = key
        self.links = links
        self.cap = cap
        self.cap_thresh = cap * (1.0 - _REL_EPS)
        self.net = net
        self.slot = -1
        self.members: list[Flow] = []
        #: Per-member residual bytes, parallel to ``members`` — current
        #: only after :meth:`materialize` replays the deferred advance
        #: decrements logged since ``dec_from``.
        self.rems: list[float] = []
        #: Arrivals since the last allocation: they hold rate 0 (exactly
        #: like a fresh flow in the reference allocator) until the next
        #: water-filling pass merges them into ``members``.
        self.pending: list[Flow] = []
        self.count = 0
        mults: dict[Link, int] = {}
        for link in links:
            mults[link] = mults.get(link, 0) + 1
        self.link_mults = tuple(mults.items())
        #: Incidence row: (link slot, multiplicity) pairs with the
        #: multiplicity pre-converted to float (counts this small are
        #: exact in binary64, so float bookkeeping matches int).
        self.lmults = tuple(
            (link._lid, float(mult)) for link, mult in self.link_mults
        )
        #: Replay cursor into ``net._dec_log``; entries before it were
        #: either applied to ``rems`` already or predate this class.
        self.dec_from = 0

    @property
    def rate(self) -> float:
        """Current class rate (read from the network's slot array)."""
        return float(self.net._c_rate[self.slot])

    def materialize(self) -> None:
        """Replay deferred advance decrements onto member residuals.

        Applying decrements member-by-member at every checkpoint would
        be O(members) per rebalance; instead each advance appends one
        per-slot row to the network-wide log (the class minimum still
        advances eagerly) and members replay the sequence — the same
        clamped subtractions in the same order, so bit-identical — only
        when their residuals are actually read.  Zero rows (checkpoints
        where this class's rate was 0) subtract exactly nothing in the
        reference too, so they are skipped.
        """
        net = self.net
        start = self.dec_from
        end = net._dec_rows
        if start >= end:
            return
        self.dec_from = end
        rems = self.rems
        if not rems:
            return
        # Back to Python floats before the scalar replay: the residuals
        # must stay plain floats (they escape into Flow state).  A
        # checkpoint where this class's rate was 0 logged a 0 row, which
        # subtracts exactly nothing in the reference too — filter them.
        if end - start <= 8:
            # Few rows: scalar extraction (``.item`` returns a Python
            # float directly) beats the slice/compare/gather round-trip.
            item = net._dec_buf.item
            slot = self.slot
            decs = []
            for k in range(start, end):
                d = item(k, slot)
                if d > 0.0:
                    decs.append(d)
            if not decs:
                return
        else:
            col = net._dec_buf[start:end, self.slot]
            col = col[col > 0.0]
            if not col.size:
                return
            decs = col.tolist()
        for i, r in enumerate(rems):
            for d in decs:
                r = r - d
                if r <= 0.0:
                    r = 0.0
            rems[i] = r

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ",".join(l.name for l in self.links)
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
        #: (links, cap) -> class of active flows (insertion-ordered).
        self._classes: dict[tuple, _FlowClass] = {}
        #: link -> {class: multiplicity} for classes whose path uses it.
        self._link_classes: dict[Link, dict[_FlowClass, int]] = {}
        #: Classes with unmerged arrivals (each listed at most once).
        self._pending_classes: list[_FlowClass] = []

        # Class slot arrays (capacity-doubling; freed slots are recycled
        # through ``_c_free`` and hold neutral values: rate 0, min
        # residual inf, cap threshold inf, count 0, not alive).
        cc = 16
        self._c_cap_n = cc
        self._c_hi = 0
        self._c_free: list[int] = []
        self._c_obj: list[Optional[_FlowClass]] = [None] * cc
        self._c_rate = np.zeros(cc)
        self._c_cap = np.zeros(cc)
        self._c_capth = np.full(cc, _INF)
        self._c_minrem = np.full(cc, _INF)
        self._c_maxnb = np.zeros(cc)
        self._c_count = np.zeros(cc)
        self._scr_thr = np.zeros(cc)
        self._scr_hd = np.zeros(cc)
        self._scr_unf = np.zeros(cc, dtype=bool)
        self._scr_new = np.zeros(cc, dtype=bool)
        self._scr_cb = np.zeros(cc, dtype=bool)

        #: Class×link incidence, CSR-ish but padded to a fixed row
        #: width for branch-free gathers: row ``s`` lists the link slot
        #: ids of class ``s``'s distinct links, padded with the class's
        #: *own first link id* (a class's saturation test is "any of my
        #: links saturated?", so repeating one of its real links is a
        #: no-op); the parallel multiplicity rows pad with 0 (a
        #: member-count update of ``0 * count`` subtracts exactly
        #: nothing).  Rows of freed slots go stale harmlessly — every
        #: consumer masks with the unfrozen mask, and link slots are
        #: never recycled, so stale ids still index in range.
        self._c_deg = 4
        self._c_lids = np.zeros((cc, self._c_deg), dtype=np.intp)
        self._c_mults = np.zeros((cc, self._c_deg))
        #: Transposed copy of ``_c_lids`` (link column k across all
        #: classes) for the per-round saturation test: k separate 1-D
        #: gathers beat one 2-D gather-plus-row-reduce by ~3x at the
        #: widths the allocator runs at.
        self._c_lidsT = np.zeros((self._c_deg, cc), dtype=np.intp)
        #: Highest link-set size among installed classes (monotone
        #: overapproximation: stale after frees, but scanning a pad
        #: column is a no-op, never wrong).
        self._c_maxdeg = 1

        # Link slot arrays (member counts are exact small integers kept
        # in float64 so the allocator's divisions read them directly).
        lc = 16
        self._l_cap_n = lc
        self._l_hi = 0
        self._links: list[Link] = []
        self._l_cap = np.zeros(lc)
        self._l_sat = np.zeros(lc)
        self._l_members = np.zeros(lc)
        self._scr_n = np.zeros(lc)
        self._scr_res = np.zeros(lc)
        self._scr_t = np.zeros(lc)
        self._scr_nz = np.zeros(lc, dtype=bool)
        self._scr_st = np.zeros(lc, dtype=bool)

        #: Deferred advance decrements: row ``k`` holds ``rate * dt`` of
        #: the ``k``-th advance checkpoint for every class slot (columns
        #: beyond the high-water mark at write time hold stale garbage,
        #: which is safe: a class only replays rows logged at or after
        #: its creation, when its slot was already in range).  Compacted
        #: in place when full; see :meth:`_compact_log`.
        self._dec_buf = np.zeros((512, cc))
        self._dec_rows = 0

        #: Shells of fully-drained classes, kept for reuse: workloads
        #: arrive in bursts over a stable set of (links, cap) keys, and
        #: rebuilding the incidence row and link registration for every
        #: burst dominated the allocator's cost.  Bounded; cleared
        #: wholesale if a workload churns through too many keys.
        self._retired: dict[tuple, _FlowClass] = {}

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
        classes = self._link_classes.get(link)
        if not classes:
            return 0.0
        rate = self._c_rate
        return float(sum(rate[cls.slot] * cls.count for cls in classes))

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows (maintained count, no flow scan)."""
        self._settle()
        return self._n_active

    @property
    def class_count(self) -> int:
        """Number of distinct flow classes currently active."""
        return len(self._classes)

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------
    def _attach_link(self, link: Link) -> None:
        if link._network is not None:
            raise RuntimeError(f"link {link.name!r} belongs to another network")
        link._network = self
        lid = self._l_hi
        if lid == self._l_cap_n:
            self._grow_links()
        self._l_hi = lid + 1
        link._lid = lid
        self._links.append(link)
        self._l_cap[lid] = link._capacity
        self._l_sat[lid] = link._sat
        if link._capacity <= 0.0:
            self._zero_links.add(link)

    def _grow_links(self) -> None:
        new = self._l_cap_n * 2
        hi = self._l_hi
        for name in ("_l_cap", "_l_sat", "_l_members"):
            arr = np.zeros(new)
            arr[:hi] = getattr(self, name)[:hi]
            setattr(self, name, arr)
        self._scr_n = np.zeros(new)
        self._scr_res = np.zeros(new)
        self._scr_t = np.zeros(new)
        self._scr_nz = np.zeros(new, dtype=bool)
        self._scr_st = np.zeros(new, dtype=bool)
        self._l_cap_n = new

    def _install_class(self, cls: _FlowClass) -> None:
        """Give ``cls`` a slot and register it (fresh or revived)."""
        free = self._c_free
        if free:
            slot = free.pop()
        else:
            slot = self._c_hi
            if slot == self._c_cap_n:
                self._grow_classes()
            self._c_hi = slot + 1
        cls.slot = slot
        cls.dec_from = self._dec_rows
        self._c_cap[slot] = cls.cap
        self._c_capth[slot] = cls.cap_thresh
        self._c_obj[slot] = cls
        lmults = cls.lmults
        deg = len(lmults)
        if deg > self._c_deg:
            self._grow_degree(deg)
        if deg > self._c_maxdeg:
            self._c_maxdeg = deg
        row_l = self._c_lids[slot]
        row_m = self._c_mults[slot]
        pad = lmults[0][0]
        row_l[:] = pad
        row_m[:] = 0.0
        self._c_lidsT[:, slot] = pad
        for k, (lid, mult) in enumerate(lmults):
            row_l[k] = lid
            row_m[k] = mult
            self._c_lidsT[k, slot] = lid
        # rate/minrem/maxnb/count already hold their neutral values
        # (0 / inf / 0 / 0) from init or the last _free_class.
        self._classes[cls.key] = cls
        link_classes = self._link_classes
        for link, mult in cls.link_mults:
            members = link_classes.get(link)
            if members is None:
                link_classes[link] = {cls: mult}
            else:
                members[cls] = mult

    def _grow_classes(self) -> None:
        new = self._c_cap_n * 2
        hi = self._c_hi
        grown = {
            "_c_rate": 0.0,
            "_c_cap": 0.0,
            "_c_capth": _INF,
            "_c_minrem": _INF,
            "_c_maxnb": 0.0,
            "_c_count": 0.0,
        }
        for name, fill in grown.items():
            arr = np.full(new, fill)
            arr[:hi] = getattr(self, name)[:hi]
            setattr(self, name, arr)
        self._scr_thr = np.zeros(new)
        self._scr_hd = np.zeros(new)
        self._scr_unf = np.zeros(new, dtype=bool)
        self._scr_new = np.zeros(new, dtype=bool)
        self._scr_cb = np.zeros(new, dtype=bool)
        self._c_obj.extend([None] * (new - self._c_cap_n))
        deg = self._c_deg
        lids = np.zeros((new, deg), dtype=np.intp)
        lids[:hi] = self._c_lids[:hi]
        self._c_lids = lids
        mults = np.zeros((new, deg))
        mults[:hi] = self._c_mults[:hi]
        self._c_mults = mults
        lidsT = np.zeros((deg, new), dtype=np.intp)
        lidsT[:, :hi] = self._c_lidsT[:, :hi]
        self._c_lidsT = lidsT
        buf = np.zeros((self._dec_buf.shape[0], new))
        rows = self._dec_rows
        buf[:rows, : self._c_cap_n] = self._dec_buf[:rows]
        self._dec_buf = buf
        self._c_cap_n = new

    def _grow_degree(self, deg: int) -> None:
        """Widen the incidence rows to ``deg`` link columns.

        New link columns replicate column 0 (each row's own first link
        id — the established pad value) and multiplicity 0, preserving
        the pad invariants for every existing row.
        """
        old_l = self._c_lids
        old_m = self._c_mults
        old_deg = self._c_deg
        lids = np.repeat(old_l[:, :1], deg, axis=1)
        lids[:, :old_deg] = old_l
        mults = np.zeros((old_m.shape[0], deg))
        mults[:, :old_deg] = old_m
        self._c_lids = lids
        self._c_mults = mults
        self._c_lidsT = np.ascontiguousarray(lids.T)
        self._c_deg = deg

    def _free_class(self, cls: _FlowClass) -> None:
        slot = cls.slot
        self._c_rate[slot] = 0.0
        self._c_cap[slot] = 0.0
        self._c_capth[slot] = _INF
        self._c_minrem[slot] = _INF
        self._c_maxnb[slot] = 0.0
        self._c_count[slot] = 0.0
        self._c_obj[slot] = None
        self._c_free.append(slot)
        cls.slot = -1

    def _compact_log(self) -> None:
        """Make room in the decrement buffer (called when it fills).

        Shifts out the row prefix every class has already replayed; if
        laggard classes (long-lived, never materialized) pin most of the
        buffer, force their replay — each (class, row) pair is replayed
        at most once over its lifetime either way, so this only moves
        cost, never adds it.
        """
        rows = self._dec_rows
        classes = self._classes.values()
        mn = rows
        for cls in classes:
            if not cls.rems:
                # Memberless (inert) class: nothing to replay, ever —
                # advance its cursor so it cannot pin the buffer.
                cls.dec_from = rows
            elif cls.dec_from < mn:
                mn = cls.dec_from
        if mn:
            buf = self._dec_buf
            buf[: rows - mn] = buf[mn:rows].copy()
            rows -= mn
            self._dec_rows = rows
            for cls in classes:
                cls.dec_from -= mn
        if rows >= (self._dec_buf.shape[0] * 3) // 4:
            for cls in classes:
                cls.materialize()
            self._dec_rows = 0
            for cls in classes:
                cls.dec_from = 0

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
            cls = self._retired.pop(key, None)
            if cls is None:
                cls = _FlowClass(key, flow.links, flow.cap, self)
            self._install_class(cls)
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
        retired = self._retired
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
                    cls = retired.pop(key, None)
                    if cls is None:
                        cls = _FlowClass(key, links, cap, self)
                    self._install_class(cls)
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

    def _evict_empties(self) -> None:
        """Deregister every fully-drained inert class (memory pressure).

        A fully-drained class is normally *not* deregistered: workloads
        arrive in bursts over a stable set of (links, cap) keys, and
        tearing the class down only to rebuild it milliseconds later
        dominated the allocator's cost.  The empty class stays installed
        but inert — its count is 0, so every allocation mask excludes it
        — and the next burst revives it with a plain dict hit.  Shells
        are only evicted (into ``_retired``) here, under memory
        pressure, when a workload churns through thousands of distinct
        keys.  Safe to run mid-scan: an evictable class is empty, hence
        quiet in the advance flags, hence never in the pending
        member-scan list; slots are only handed out again by
        ``_activate``.
        """
        classes = self._classes
        link_classes = self._link_classes
        retired = self._retired
        empties = [
            c for c in classes.values() if c.count == 0 and not c.pending
        ]
        for cls in empties:
            del classes[cls.key]
            for link, _mult in cls.link_mults:
                members = link_classes[link]
                del members[cls]
                if not members:
                    del link_classes[link]
            self._free_class(cls)
            if len(retired) >= 4096:
                retired.clear()
            retired[cls.key] = cls

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
        # flows.  The vectorized advance updates every class minimum at
        # once and logs one decrement row; each class's advance and
        # completion are independent of every other's, so the arithmetic
        # matches the reference's advance-all-then-scan-all sequence
        # bit-for-bit (and a zero decrement subtracts exactly nothing,
        # so rate-0 classes come out unchanged just as if skipped).
        #
        # A flow is complete when its residual is negligible relative to
        # its size, or when draining it needs a time step too small to
        # represent at the current simulated time (float resolution) —
        # otherwise zero-progress completion events would loop forever.
        now = self.engine._now
        dt = now - self._last_update
        self._last_update = now
        if not self._classes:
            return
        hi = self._c_hi
        rate = self._c_rate[:hi]
        minrem = self._c_minrem[:hi]
        if dt > 0.0:
            # One row of per-slot decrements; members replay it lazily
            # (see _FlowClass.materialize).  The class minimum advances
            # eagerly: subtraction is monotonic, so the minimizing
            # member stays minimal and the clamped subtraction below is
            # the same arithmetic the members will replay, bit-for-bit.
            row = self._dec_rows
            if row == self._dec_buf.shape[0]:
                self._compact_log()
                row = self._dec_rows
            dec = self._dec_buf[row, :hi]
            np.multiply(rate, dt, out=dec)
            self._dec_rows = row + 1
            np.subtract(minrem, dec, out=minrem)
            clamp = np.less_equal(minrem, 0.0, out=self._scr_cb[:hi])
            np.copyto(minrem, 0.0, where=clamp)
        time_eps = max(1e-12, abs(now) * 1e-12)
        # Scalar quick reject first: with mn the global minimum residual
        # and rmax the global maximum rate, every per-class completion
        # test below is bounded by the corresponding global one
        # (minrem_c >= mn, maxnb_c <= max(maxnb), minrem_c / rate_c >=
        # mn / rmax), so three reductions prove most checkpoints have
        # nothing to complete.  Conservative only: on failure the full
        # per-class flags below decide.  (No NaNs: populated classes
        # have finite minima, empty ones sit at +inf.)
        mn = minrem.min()
        if mn > _BYTE_EPS and mn > self._c_maxnb[:hi].max() * 1e-9:
            rmax = rate.max()
            if rmax == 0.0 or mn / rmax > time_eps:
                return
        # Per-class selector: flag every class whose minimum residual
        # might clear one of the three completion tests.  This is only a
        # *selector* — the per-member scan below applies the exact
        # reference tests, and scanning a class where nothing completes
        # rewrites bit-identical state — so a conservative
        # overapproximation is safe and lets the time test use a
        # division-free bound: ``rem / r <= eps`` implies
        # ``rem <= r * (eps * 1.0625)`` (two rounding steps fit well
        # inside the 6.25% margin; an inf rate makes the bound inf,
        # correctly flagging instant-drain classes).  Inert and dead
        # slots sit at minrem inf / rate 0 and are never flagged, so no
        # aliveness mask is needed.
        thr = np.multiply(rate, time_eps * 1.0625, out=self._scr_thr[:hi])
        np.maximum(thr, _BYTE_EPS, out=thr)
        flagged = np.less_equal(minrem, thr, out=self._scr_new[:hi])
        np.multiply(self._c_maxnb[:hi], 1e-9, out=thr)
        rel = np.less_equal(minrem, thr, out=self._scr_cb[:hi])
        np.logical_or(flagged, rel, out=flagged)
        slots_f = np.nonzero(flagged)[0].tolist()
        if not slots_f:
            return
        finished: list[Flow] = []
        c_obj = self._c_obj
        maxnb = self._c_maxnb
        countf = self._c_count
        inf = _INF
        rows = self._dec_rows
        dec_buf = self._dec_buf
        buf_item = dec_buf.item
        slots_w: list[int] = []
        mins_w: list[float] = []
        maxs_w: list[float] = []
        counts_w: list[int] = []
        ldelta: dict[int, float] = {}
        emptied = False
        for s in slots_f:
            cls = c_obj[s]
            r = float(rate[s])
            # Replay any deferred decrements inline while scanning: the
            # same clamped subtractions in the same order as
            # :meth:`_FlowClass.materialize`, fused into the member loop
            # so the residual list is rebuilt once instead of twice.
            start = cls.dec_from
            if start != rows:
                cls.dec_from = rows
                if rows - start <= 8:
                    decs = []
                    for k in range(start, rows):
                        d = buf_item(k, s)
                        if d > 0.0:
                            decs.append(d)
                else:
                    col = dec_buf[start:rows, s]
                    decs = col[col > 0.0].tolist()
            else:
                decs = None
            keep: list[Flow] = []
            keep_rems: list[float] = []
            new_min = inf
            new_max = 0.0
            rpos = r > 0.0
            for f, rem in zip(cls.members, cls.rems):
                if decs:
                    for d in decs:
                        rem = rem - d
                        if rem <= 0.0:
                            rem = 0.0
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
            slots_w.append(s)
            mins_w.append(new_min)
            maxs_w.append(new_max)
            counts_w.append(len(keep))
            if dropped:
                # Sum the integer-valued link-member decrements in
                # Python and apply one read-modify-write per link below:
                # exact small-integer arithmetic, bit-identical to the
                # per-class updates it replaces.
                for lid, mult in cls.lmults:
                    d = ldelta.get(lid)
                    ldelta[lid] = (
                        mult * dropped if d is None else d + mult * dropped
                    )
                if not keep:
                    emptied = True
        # Batched slot writes (a drained class's neutral values land on
        # its slot whether or not an eviction sweep just freed it).
        minrem[slots_w] = mins_w
        maxnb[slots_w] = maxs_w
        countf[slots_w] = counts_w
        if ldelta:
            lm = self._l_members
            for lid, delta in ldelta.items():
                lm[lid] -= delta
        if emptied and len(self._classes) >= 4096:
            self._evict_empties()
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

    def _allocate(self) -> None:
        """Max-min fair rates with per-flow caps (progressive filling).

        Operates on flow-class slot arrays: every round computes one
        uniform rate increment from vectorized per-link residuals and
        per-class cap headroom, then freezes saturated classes.  All
        elementwise operations and exact min-reductions match the
        reference per-flow allocator float-for-float; the order of
        value-changing steps (cap freeze, then residual update, then
        saturation freeze) is preserved from the scalar code.
        """
        classes = self._classes
        hi = self._c_hi
        rate = self._c_rate[:hi]
        rate.fill(0.0)
        pending_classes = self._pending_classes
        if pending_classes:
            minrem_a = self._c_minrem
            maxnb_a = self._c_maxnb
            count_a = self._c_count
            rows = self._dec_rows
            slots: list[int] = []
            mins: list[float] = []
            maxs: list[float] = []
            counts: list[int] = []
            #: Aggregated per-link member deltas.  Multiplicities and
            #: counts are exact small integers, so summing them in
            #: Python before the single array update is bit-identical
            #: to the per-class updates it replaces.
            ldelta: dict[int, float] = {}
            for cls in pending_classes:
                rems = cls.rems
                slot = cls.slot
                if rems:
                    # Existing members must not replay decrements from
                    # after the merge as if they predated it — flush the
                    # deferred ones first.
                    if cls.dec_from != rows:
                        cls.materialize()
                    min_rem = float(minrem_a[slot])
                    max_nb = float(maxnb_a[slot])
                else:
                    # Empty (fresh or revived-inert) class: the slot
                    # holds exactly these neutral values and there is
                    # nothing to replay for anyone.
                    cls.dec_from = rows
                    min_rem = _INF
                    max_nb = 0.0
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
                if lo < min_rem:
                    min_rem = lo
                hi_nb = max(new_rems)
                if hi_nb > max_nb:
                    max_nb = hi_nb
                cls.members.extend(pend)
                n_new = len(pend)
                pend.clear()
                cls.count += n_new
                slots.append(slot)
                mins.append(min_rem)
                maxs.append(max_nb)
                counts.append(cls.count)
                for lid, mult in cls.lmults:
                    d = ldelta.get(lid)
                    ldelta[lid] = (
                        mult * n_new if d is None else d + mult * n_new
                    )
            pending_classes.clear()
            minrem_a[slots] = mins
            maxnb_a[slots] = maxs
            count_a[slots] = counts
            lm = self._l_members
            for lid, delta in ldelta.items():
                lm[lid] += delta
        if not classes:
            return
        lhi = self._l_hi
        n = self._scr_n[:lhi]
        np.copyto(n, self._l_members[:lhi])
        residual = self._scr_res[:lhi]
        np.copyto(residual, self._l_cap[:lhi])
        lsat = self._l_sat[:lhi]
        unf = self._scr_unf[:hi]
        # Unfrozen = populated: inert drained classes (count 0) and dead
        # slots (count 0 too) never enter a round, exactly as if they
        # had been deregistered the way the reference drops them.
        np.greater(self._c_count[:hi], 0.0, out=unf)
        newly = self._scr_new[:hi]
        cap = self._c_cap[:hi]
        capth = self._c_capth[:hi]
        c_lids = self._c_lids[:hi]
        c_mults = self._c_mults[:hi]
        counts = self._c_count[:hi]
        link_classes = self._link_classes

        # Flows on a zero-capacity link can never move: freeze at rate 0.
        if self._zero_links:
            for link in self._zero_links:
                for cls in link_classes.get(link, ()):
                    s = cls.slot
                    if unf[s]:
                        unf[s] = False
                        cnt = cls.count
                        for lid, mult in cls.lmults:
                            n[lid] -= mult * cnt

        # The rounds below work entirely in preallocated scratch with
        # full-width unmasked ufuncs — no boolean gathers, no masked
        # reductions, no temporaries (all three dominated the round's
        # cost; a full-width op on these widths is several times
        # cheaper than its gathered or ``where=``-masked form).
        #
        # Exactness of the two full-width reductions:
        #
        # * Rate increment.  The scalar round takes the min of
        #   ``residual / n`` over member-bearing links, then clamps a
        #   negative result to 0.  Clamping the *numerator* to 0 and
        #   dividing over *every* link gives the same value: a negative
        #   residual's quotient collapses to 0 either way (the final
        #   ``inc < 0`` clamp makes them indistinguishable), while
        #   ``n == 0`` links yield +inf or 0/0 = NaN — both neutral,
        #   since ``fmin.reduce`` ignores NaNs and ``initial=inf``
        #   reproduces the no-constraint default.  (Clamping the
        #   *quotient* instead would be wrong: a drained link with a
        #   slightly-negative residual and no members left divides to
        #   -inf, and clamping that to 0 would fabricate a constraint
        #   the member-bearing reduction never saw.)  The only drift is
        #   the sign of a zero increment, and a ±0.0 increment is
        #   unobservable through ``+``/``-`` on the non-negative rates
        #   and residuals it meets.
        #
        # * Cap headroom.  ``capw`` mirrors ``cap`` but holds +inf on
        #   every frozen or dead slot (initialized via ``unf``, updated
        #   as classes freeze), so ``(capw - rate).min()`` minimizes
        #   exactly the unfrozen classes' ``cap - rate`` values with
        #   +inf as the neutral element — and rates stay finite inside
        #   the loop, so no inf - inf can appear.
        rounds = 0
        inf = _INF
        tmp = self._scr_t[:lhi]
        nz = self._scr_nz[:lhi]
        sat = self._scr_st[:lhi]
        head = self._scr_hd[:hi]
        frz = self._scr_cb[:hi]
        capw = self._scr_thr[:hi]
        np.copyto(capw, inf)
        np.copyto(capw, cap, where=unf)
        lidsT = self._c_lidsT[:, :hi]
        maxdeg = self._c_maxdeg
        fmin_reduce = np.fmin.reduce
        min_reduce = np.minimum.reduce
        count_nonzero = np.count_nonzero
        old_err = np.seterr(divide="ignore", invalid="ignore")
        first = True
        # Member counts only change when classes freeze (end of round),
        # so the nonzero-count mask is refreshed there, not per round.
        np.greater(n, 0.0, out=nz)
        # Control flow runs on integer counters instead of repeated
        # ``any()`` reductions: ``count_nonzero`` and the raw ufunc
        # reduces skip the ndarray-method wrappers, which at class-churn
        # sizes (tens of slots) cost more than the reduction itself.
        n_unf = count_nonzero(unf)
        while n_unf:
            rounds += 1
            np.maximum(residual, 0.0, out=tmp)
            np.divide(tmp, n, out=tmp)
            inc = fmin_reduce(tmp, initial=inf)
            if first:
                # Round one starts from rate 0 everywhere, so the
                # headroom subtraction collapses (``cap - 0.0`` is
                # ``cap`` bit-for-bit).
                head_min = min_reduce(capw)
            else:
                np.subtract(capw, rate, out=head)
                head_min = min_reduce(head)
            if head_min < inc:
                inc = head_min
            if inc == inf:
                # No finite constraint: flows are effectively unbounded.
                np.copyto(rate, inf, where=unf)
                break
            if inc < 0.0:
                inc = 0.0
            if first:
                # ``0.0 + inc`` is ``inc`` bit-for-bit: plain store.
                np.copyto(rate, inc, where=unf)
                first = False
            else:
                np.add(rate, inc, out=rate, where=unf)
            # Cap freezing reads rates before the residual update, same
            # as the scalar round.  ``newly`` is a subset of ``unf`` by
            # construction, so the xor clears exactly those bits.
            np.greater_equal(rate, capth, out=frz)
            np.logical_and(unf, frz, out=newly)
            np.logical_xor(unf, newly, out=unf)
            # Residual update over every link at once: links with no
            # unfrozen members subtract exactly inc * 0 == 0, leaving
            # their residuals untouched (the scalar code skips them).
            np.multiply(n, inc, out=tmp)
            np.subtract(residual, tmp, out=residual)
            np.less_equal(residual, lsat, out=sat)
            np.logical_and(sat, nz, out=sat)
            if count_nonzero(sat):
                # Saturation freeze through the incidence columns: a
                # class freezes iff any of its links saturated.  The
                # pad entries repeat each class's first real link, so
                # or-ing the per-column gathers tests exactly the
                # class's link set; masking with ``unf`` restricts to
                # classes the scalar loop would actually have flipped.
                hit = sat[lidsT[0]]
                for k in range(1, maxdeg):
                    np.logical_or(hit, sat[lidsT[k]], out=hit)
                np.logical_and(hit, unf, out=hit)
                np.logical_or(newly, hit, out=newly)
                np.logical_xor(unf, hit, out=unf)
            n_new = count_nonzero(newly)
            if not n_new:
                # Numerical stall safeguard; freeze everything.
                break
            np.copyto(capw, inf, where=newly)
            n_unf -= n_new
            if not n_unf:
                break  # final round: nothing left to read the counts
            # Frozen members leave the per-link unfrozen counts.  The
            # decrements are exact small integers, so the accumulation
            # order is immaterial; pad columns subtract 0 * count = 0.
            rows = np.nonzero(newly)[0]
            np.subtract.at(
                n,
                c_lids[rows].ravel(),
                (c_mults[rows] * counts[rows, None]).ravel(),
            )
            np.greater(n, 0.0, out=nz)
        np.seterr(**old_err)
        self.engine.stats.allocator_rounds += rounds

    def _schedule_completion(self) -> None:
        self._completion_token += 1
        hi = self._c_hi
        rate = self._c_rate[:hi]
        live = (rate > 0.0) & (self._c_count[:hi] > 0.0)
        if not live.any():
            return
        # min(remaining)/rate == min(remaining/rate) for each class's
        # uniform positive rate, and the class minimum is tracked
        # incrementally — no member scan.  Rates here are positive and
        # the minima of populated classes finite, so the division is
        # clean (an inf rate yields 0.0, exactly as in the scalar scan).
        next_dt = float((self._c_minrem[:hi][live] / rate[live]).min())
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


