"""Seeded, trace-recorded fault injection for the simulated I/O stack.

The paper's evaluation covers only the happy path; real async-VOL
deployments must survive the unhappy ones — the staged data lives in
node memory until the background drain lands it on the PFS, and the
shared PFS is precisely the volatile component (Fig. 8).  This module
makes failure a first-class simulated event:

- :class:`FaultConfig` declares a *schedule* of injectable faults:
  PFS outage and degradation windows, per-op flaky write/read errors
  with configurable probability, per-node SSD failures, background
  worker stalls and crashes, and — at fleet scale — whole-node faults:
  explicit node crash times, drain windows, correlated cabinet
  failures, and a seeded rate-based crash schedule (exponential
  inter-failure times per node over a bounded horizon).
- :class:`FaultInjector` applies the schedule through hooks in
  :mod:`repro.platform.storage` (``fault_hook`` on the PFS and SSDs),
  :mod:`repro.platform.contention` (a shared fault-timeline recorder),
  :mod:`repro.hdf5.async_vol` (worker dispositions, retry jitter) and
  :mod:`repro.platform.cluster`'s node ledger (``fail_node`` /
  ``drain_node`` / ``revive_node``), whose ``on_node_down`` callbacks
  let the scheduler kill and requeue resident jobs.

Everything is deterministic per seed: the same ``(config, workload)``
pair produces an identical :attr:`FaultInjector.trace` on every run —
CI enforces this via :meth:`FaultInjector.signature`.  With no faults
configured, every hook is ``None`` and the simulation's event schedule
is untouched (the layer is zero-cost-off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.faults.errors import (
    FlakyReadError,
    FlakyWriteError,
    PFSUnavailableError,
    SSDFaultError,
    TierDegradedError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.cluster import Cluster
    from repro.sim.engine import Engine

__all__ = [
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "OutageWindow",
    "SlowdownWindow",
]

#: Tag prefixes marking *reliable-path* storage requests (the sync
#: fallback ladder): the injector never fails these, mirroring a
#: blocking retry-until-success H5Dwrite.
RELIABLE_TAGS = ("fallback-w", "fallback-r")


@dataclass(frozen=True)
class OutageWindow:
    """The PFS rejects new requests during ``[start, start+duration)``."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError(f"invalid outage window: {self}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class SlowdownWindow:
    """Shared storage runs at ``factor`` of capacity during the window
    (an overloaded or recovering PFS), composing multiplicatively with
    the contention model's availability."""

    start: float
    duration: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError(f"invalid slowdown window: {self}")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(
                f"slowdown factor must be in (0,1), got {self.factor}"
            )

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FaultConfig:
    """Declarative, seed-deterministic schedule of injectable faults."""

    seed: int = 0
    #: Probability that one PFS write request errors (checked at issue).
    write_error_rate: float = 0.0
    #: Probability that one PFS read request errors.
    read_error_rate: float = 0.0
    #: Hard PFS outage windows (new requests raise, in-flight complete).
    pfs_outages: tuple[OutageWindow, ...] = ()
    #: Soft degradation windows (capacity scaled, nothing fails).
    pfs_slowdowns: tuple[SlowdownWindow, ...] = ()
    #: ``(node_index, at_time)``: the node's local SSD fails at ``at_time``.
    ssd_failures: tuple[tuple[int, float], ...] = ()
    #: ``(node_index, start, duration)``: the node's NVMe staging-cache
    #: tier is degraded (refuses new tier copies) during the window.
    #: The cache's planner falls back to the PFS — deadlines may be
    #: missed, data is never lost.
    tier_degraded: tuple[tuple[int, float, float], ...] = ()
    #: ``(rank, after_tasks)``: the rank's background worker crashes
    #: after executing ``after_tasks`` tasks.
    worker_crashes: tuple[tuple[int, int], ...] = ()
    #: ``(rank, at_task, seconds)``: the worker stalls before task
    #: number ``at_task`` (0-based) for ``seconds``.
    worker_stalls: tuple[tuple[int, int, float], ...] = ()
    #: ``(node_index, at_time)``: the node hard-crashes at ``at_time``
    #: — resident jobs die, the ledger marks the node ``DOWN``.
    node_crashes: tuple[tuple[int, float], ...] = ()
    #: ``(node_index, start, duration)``: a maintenance drain — the node
    #: stops taking new work at ``start`` (resident jobs finish
    #: unharmed) and revives at ``start + duration``.
    node_drains: tuple[tuple[int, float, float], ...] = ()
    #: ``(cabinet_index, at_time)``: correlated failure — every node in
    #: the cabinet (``cabinet_size`` consecutive indices) crashes
    #: together, the rack-level blast radius of a PDU/cooling fault.
    cabinet_crashes: tuple[tuple[int, float], ...] = ()
    #: Nodes per cabinet for ``cabinet_crashes``.
    cabinet_size: int = 4
    #: Mean seconds between crashes *per node* (exponential draws from
    #: the seeded node stream); 0 disables the rate-based schedule.
    node_mtbf: float = 0.0
    #: Rate-based crash times are drawn inside ``[0, fault_horizon)``
    #: only, so the schedule is finite and the drain bounded.
    fault_horizon: float = 0.0
    #: Seconds after a crash at which the node revives (0 = stays down
    #: for the rest of the run).
    node_repair_time: float = 0.0

    def __post_init__(self) -> None:
        for rate, label in ((self.write_error_rate, "write_error_rate"),
                            (self.read_error_rate, "read_error_rate")):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} must be in [0,1), got {rate}")
        for node, at in self.ssd_failures:
            if node < 0 or at < 0:
                raise ValueError(f"invalid ssd failure ({node}, {at})")
        for node, start, duration in self.tier_degraded:
            if node < 0 or start < 0 or duration <= 0:
                raise ValueError(
                    f"invalid tier degradation ({node}, {start}, {duration})"
                )
        for rank, after in self.worker_crashes:
            if rank < 0 or after < 0:
                raise ValueError(f"invalid worker crash ({rank}, {after})")
        for rank, at_task, seconds in self.worker_stalls:
            if rank < 0 or at_task < 0 or seconds <= 0:
                raise ValueError(
                    f"invalid worker stall ({rank}, {at_task}, {seconds})"
                )
        for node, at in self.node_crashes:
            if node < 0 or at < 0:
                raise ValueError(f"invalid node crash ({node}, {at})")
        for node, start, duration in self.node_drains:
            if node < 0 or start < 0 or duration <= 0:
                raise ValueError(
                    f"invalid node drain ({node}, {start}, {duration})"
                )
        for cabinet, at in self.cabinet_crashes:
            if cabinet < 0 or at < 0:
                raise ValueError(f"invalid cabinet crash ({cabinet}, {at})")
        if self.cabinet_size < 1:
            raise ValueError(f"cabinet_size must be >= 1, got "
                             f"{self.cabinet_size}")
        if self.node_mtbf < 0 or self.fault_horizon < 0 \
                or self.node_repair_time < 0:
            raise ValueError("node_mtbf / fault_horizon / node_repair_time "
                             "must be non-negative")
        if self.node_mtbf > 0 and self.fault_horizon <= 0:
            raise ValueError(
                "rate-based node crashes (node_mtbf > 0) need a positive "
                "fault_horizon to bound the schedule"
            )

    @property
    def any_pfs_faults(self) -> bool:
        """Whether the PFS hook has anything to do at all."""
        return bool(self.write_error_rate or self.read_error_rate
                    or self.pfs_outages)

    @property
    def any_node_faults(self) -> bool:
        """Whether any whole-node fault is scheduled."""
        return bool(self.node_crashes or self.node_drains
                    or self.cabinet_crashes
                    or (self.node_mtbf > 0 and self.fault_horizon > 0))


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the injected-fault timeline."""

    t: float
    kind: str
    info: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def signature(self) -> tuple:
        """Hashable, repr-stable identity (CI determinism checks)."""
        return (round(self.t, 9), self.kind, self.info)


class FaultInjector:
    """Applies a :class:`FaultConfig` to one simulation, recording every
    injected fault into a deterministic trace."""

    def __init__(self, config: Optional[FaultConfig] = None):
        self.config = config if config is not None else FaultConfig()
        self.trace: list[FaultEvent] = []
        # Purpose-split RNG streams: per-op error draws, retry jitter
        # and node-failure times must not perturb each other's
        # sequences when one is unused.
        self._op_rng = np.random.default_rng((self.config.seed, 0xF1))
        self._retry_rng = np.random.default_rng((self.config.seed, 0xF2))
        self._node_rng = np.random.default_rng((self.config.seed, 0xF3))
        self.engine: Optional["Engine"] = None
        self.cluster: Optional["Cluster"] = None
        self._failed_ssds: set[int] = set()
        self._task_counts: dict[int, int] = {}
        self._crash_after = dict(self.config.worker_crashes)
        self._crashed_ranks: set[int] = set()
        self._stalls = {(rank, at): seconds
                        for rank, at, seconds in self.config.worker_stalls}
        self._tier_windows: dict[int, list[OutageWindow]] = {}
        for node, start, duration in self.config.tier_degraded:
            self._tier_windows.setdefault(node, []).append(
                OutageWindow(start=start, duration=duration)
            )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, cluster: "Cluster") -> "FaultInjector":
        """Install hooks into ``cluster``'s storage layer and schedule
        the time-based fault windows.  Returns self for chaining."""
        if self.engine is not None:
            raise RuntimeError("FaultInjector already attached")
        self.engine = cluster.engine
        self.cluster = cluster
        if self.config.any_pfs_faults:
            cluster.pfs.fault_hook = self.pfs_hook
        for start_t, factor in self._slowdown_edges():
            self.engine.schedule(
                start_t - self.engine.now, self._apply_slowdown,
                cluster.pfs, factor,
            )
        for node_index, at in self.config.ssd_failures:
            if node_index < len(cluster.nodes):
                node = cluster.nodes[node_index]
                if node.spec.local_ssd is not None:
                    node.ssd.fault_hook = self.ssd_hook
                    self.engine.schedule(
                        at - self.engine.now, self._fail_ssd, node_index
                    )
        for node_index, windows in sorted(self._tier_windows.items()):
            for window in sorted(windows, key=lambda w: w.start):
                self.engine.schedule(
                    window.start - self.engine.now,
                    self._note_tier_edge, "tier_degraded", node_index,
                )
                self.engine.schedule(
                    window.end - self.engine.now,
                    self._note_tier_edge, "tier_restored", node_index,
                )
        if self.config.any_node_faults:
            for t, kind, node_index in self._node_fault_plan(
                    len(cluster.nodes)):
                self.engine.schedule(
                    max(0.0, t - self.engine.now),
                    self._apply_node_event, kind, node_index,
                )
        return self

    def _slowdown_edges(self) -> list[tuple[float, float]]:
        """(time, factor) capacity edges for the slowdown schedule."""
        edges = []
        for w in self.config.pfs_slowdowns:
            edges.append((w.start, w.factor))
            edges.append((w.end, 1.0))
        return sorted(edges)

    def _apply_slowdown(self, pfs, factor: float) -> None:
        pfs.set_fault_factor(factor)
        self.note("pfs_slowdown", factor=factor)

    def _fail_ssd(self, node_index: int) -> None:
        self._failed_ssds.add(node_index)
        self.note("ssd_failed", node=node_index)

    def _note_tier_edge(self, kind: str, node_index: int) -> None:
        self.note(kind, node=node_index)

    # ------------------------------------------------------------------
    # Node-level faults (fleet scale)
    # ------------------------------------------------------------------
    def _node_fault_plan(self, n_nodes: int) -> list[tuple[float, str, int]]:
        """The full ``(time, kind, node)`` node-fault schedule, sorted.

        Pure function of the config (and the seeded node RNG stream for
        the rate-based part, drawn in node-index order) — the plan is
        identical on every same-seed run, which is what the chaos
        determinism gate replays.  ``kind`` is ``"crash"``, ``"drain"``
        or ``"revive"``.
        """
        cfg = self.config
        events: list[tuple[float, str, int]] = []

        def crash(node: int, at: float) -> None:
            events.append((at, "crash", node))
            if cfg.node_repair_time > 0:
                events.append((at + cfg.node_repair_time, "revive", node))

        for node, at in cfg.node_crashes:
            if node < n_nodes:
                crash(node, at)
        for cabinet, at in cfg.cabinet_crashes:
            base = cabinet * cfg.cabinet_size
            for node in range(base, min(base + cfg.cabinet_size, n_nodes)):
                crash(node, at)
        for node, start, duration in cfg.node_drains:
            if node < n_nodes:
                events.append((start, "drain", node))
                events.append((start + duration, "revive", node))
        if cfg.node_mtbf > 0 and cfg.fault_horizon > 0:
            for node in range(n_nodes):
                t = 0.0
                while True:
                    t += float(self._node_rng.exponential(cfg.node_mtbf))
                    if t >= cfg.fault_horizon:
                        break
                    crash(node, t)
                    if cfg.node_repair_time <= 0:
                        break
                    t += cfg.node_repair_time
        # Deterministic total order; revives sort after crashes at the
        # same instant so an instant repair cannot resurrect a node
        # before its crash is applied.
        kind_order = {"crash": 0, "drain": 1, "revive": 2}
        events.sort(key=lambda e: (e[0], kind_order[e[1]], e[2]))
        return events

    def _apply_node_event(self, kind: str, node_index: int) -> None:
        """Drive one planned node event through the cluster ledger."""
        from repro.platform.cluster import NodeState

        cluster = self.cluster
        state = cluster.node_state(node_index)
        if kind == "crash":
            if state is NodeState.DOWN:
                return  # correlated schedules may double-hit a node
            owner = cluster.owner_of(node_index)
            self.note("node_crash", node=node_index, owner=owner)
            cluster.fail_node(node_index)
        elif kind == "drain":
            if state is not NodeState.UP:
                return
            self.note("node_drain", node=node_index)
            cluster.drain_node(node_index)
        else:  # revive
            if state is NodeState.UP:
                return
            self.note("node_revive", node=node_index)
            cluster.revive_node(node_index)

    # ------------------------------------------------------------------
    # Storage hooks (called from platform.storage at request issue)
    # ------------------------------------------------------------------
    def pfs_hook(self, op: str, node, target, nbytes: float, tag) -> None:
        """May raise a :class:`TransientIOError` for one PFS request."""
        if isinstance(tag, tuple) and tag and tag[0] in RELIABLE_TAGS:
            return
        now = self.engine.now
        window = self._outage_at(now)
        if window is not None:
            self.note("pfs_outage_hit", op=op, tag=tag, until=window.end)
            raise PFSUnavailableError(
                f"PFS outage until t={window.end:.6g} (op={op})",
                until=window.end,
            )
        rate = (self.config.write_error_rate if op == "write"
                else self.config.read_error_rate)
        if rate > 0.0 and self._op_rng.random() < rate:
            self.note("flaky_" + op, tag=tag, nbytes=nbytes)
            exc = FlakyWriteError if op == "write" else FlakyReadError
            raise exc(f"injected {op} error (tag={tag!r})")

    def ssd_hook(self, op: str, node_index: int, nbytes: float, tag) -> None:
        """May raise :class:`SSDFaultError` for one local-drive request."""
        if node_index in self._failed_ssds:
            self.note("ssd_fault_hit", op=op, node=node_index)
            raise SSDFaultError(f"node {node_index} local SSD failed")

    def tier_hook(self, node_index: int, nbytes: float, tag=None) -> None:
        """May raise :class:`TierDegradedError` for one tier copy.

        Called by the staging cache's copy engine before any NVMe-tier
        leg moves bytes, so a rejected copy is always bypass-safe: the
        block still exists on its source tier.
        """
        window = self._tier_window_at(node_index, self.engine.now)
        if window is not None:
            self.note("tier_degraded_hit", node=node_index, tag=tag,
                      until=window.end)
            raise TierDegradedError(
                f"node {node_index} cache tier degraded until "
                f"t={window.end:.6g}",
                until=window.end,
            )

    def tier_degraded_at(self, node_index: int,
                         t: Optional[float] = None) -> bool:
        """Whether ``node_index``'s NVMe tier is degraded at ``t``
        (default: now)."""
        when = self.engine.now if t is None else t
        return self._tier_window_at(node_index, when) is not None

    def _tier_window_at(self, node_index: int,
                        t: float) -> Optional[OutageWindow]:
        for window in self._tier_windows.get(node_index, ()):
            if window.covers(t):
                return window
        return None

    def _outage_at(self, t: float) -> Optional[OutageWindow]:
        for window in self.config.pfs_outages:
            if window.covers(t):
                return window
        return None

    def outage_end(self, t: Optional[float] = None) -> Optional[float]:
        """End of the outage window covering ``t`` (None when PFS is up).

        The scheduler's degraded-mode admission uses this to defer
        placements to the window's edge instead of polling.
        """
        window = self._outage_at(self.engine.now if t is None else t)
        return None if window is None else window.end

    def when_pfs_available(self) -> Generator:
        """Process helper: block until outside every outage window (the
        reliable fallback path waits out a hard outage instead of
        failing)."""
        while True:
            window = self._outage_at(self.engine.now)
            if window is None:
                return
            yield self.engine.timeout(window.end - self.engine.now)

    # ------------------------------------------------------------------
    # Async-VOL hooks
    # ------------------------------------------------------------------
    def worker_disposition(self, rank: int) -> Optional[tuple[str, float]]:
        """Called by the background worker before each task.

        Returns ``None`` (proceed), ``("stall", seconds)`` (sleep, then
        proceed) or ``("crash", 0.0)`` (the worker dies now).  Task
        counting is per rank and monotonic, so a schedule like
        ``worker_crashes=((3, 2),)`` deterministically kills rank 3's
        worker after its second task regardless of interleaving.
        """
        count = self._task_counts.get(rank, 0)
        self._task_counts[rank] = count + 1
        after = self._crash_after.get(rank)
        if after is not None and count >= after and rank not in self._crashed_ranks:
            self._crashed_ranks.add(rank)
            self.note("worker_crash", rank=rank, task=count)
            return ("crash", 0.0)
        seconds = self._stalls.get((rank, count))
        if seconds is not None:
            self.note("worker_stall", rank=rank, task=count, seconds=seconds)
            return ("stall", seconds)
        return None

    def retry_jitter(self) -> float:
        """Multiplicative backoff jitter in [0.5, 1.5) — seeded, so the
        whole retry cascade replays identically per seed."""
        return 0.5 + float(self._retry_rng.random())

    # ------------------------------------------------------------------
    # Trace
    # ------------------------------------------------------------------
    def note(self, kind: str, t: Optional[float] = None, **info) -> None:
        """Append one event to the fault timeline.  Also used by the
        contention layer to interleave availability changes with faults
        on a single timeline."""
        if t is None:
            t = self.engine.now if self.engine is not None else 0.0
        self.trace.append(FaultEvent(
            t=t, kind=kind,
            info=tuple(sorted((k, repr(v)) for k, v in info.items())),
        ))

    def count(self, kind: str) -> int:
        """Number of trace events of one kind."""
        return sum(1 for ev in self.trace if ev.kind == kind)

    def signature(self) -> tuple:
        """Stable identity of the full fault trace (determinism gate)."""
        return tuple(ev.signature() for ev in self.trace)
