"""Deadline-aware prefetch planner.

Workloads declare *future* reads as :class:`CacheRequest` records —
"rank 2 will need this slab of ``/Step#3/px`` by t=140s" — and the
:class:`PrefetchPlanner` turns them into a deadline-ordered (EDF) copy
schedule per node, with admission control when the target tiers are
full.  This is the read-side mirror of the paper's write-behind
staging: BD-CATS-style analysis knows epoch N+1's selections during
epoch N's compute window (§V-A.2), so the planner can hide read time
under compute exactly the way the async VOL hides write time.

Admission is a cascade: the requested destination tier first, then any
remaining faster-than-PFS tier on the node.  A request that no tier
can hold is *rejected* (counted, ``submit`` returns ``False``) — the
reader simply pays the source-tier read, admission control degrades
service, never correctness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.agent import Block, NodeAgent
from repro.cache.engine import CopyEngine
from repro.cache.metrics import CacheMetrics
from repro.cache.tiers import DRAM, NVME, PFS
from repro.faults.errors import CacheAdmissionError, TransientIOError
from repro.platform.storage import FileTarget

__all__ = ["CacheRequest", "PrefetchPlanner", "cache_key"]


def cache_key(rank: int, path: str, selection) -> tuple:
    """The residency-map key of one rank's selection of one dataset.

    Matches the async VOL's prefetch-slot convention, so planner-made
    blocks and VOL reads agree on identity.
    """
    return (rank, path, selection.start, selection.count)


@dataclass(frozen=True)
class CacheRequest:
    """One declared future read."""

    #: Who asked (workload name / rank label) — for traces only.
    tenant: str
    #: Residency key (see :func:`cache_key`).
    key: tuple
    nbytes: float
    #: Tier holding the bytes now (usually ``pfs``).
    tier_src: str
    #: Tier the bytes should be resident on by ``deadline``.
    tier_dst: str
    #: Simulated time the reader will ask for the bytes.
    deadline: float
    node_index: int
    #: Backing file region (required for PFS-endpoint copies).
    target: Optional[FileTarget] = None
    #: Invoked (with the block) when the copy completes, on time or not.
    on_ready: Optional[Callable[[Block], None]] = field(
        default=None, compare=False)

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"request for non-positive {self.nbytes:.3g}B")
        if self.tier_src == self.tier_dst:
            raise ValueError(f"degenerate request {self.tier_src!r}->"
                             f"{self.tier_dst!r}")
        if self.deadline < 0:
            raise ValueError(f"negative deadline {self.deadline}")
        if self.node_index < 0:
            raise ValueError(f"negative node index {self.node_index}")


class PrefetchPlanner:
    """EDF copy scheduling with admission control, one queue per node."""

    def __init__(self, copy_engine: CopyEngine, metrics: CacheMetrics,
                 agent_of: Callable[[int], NodeAgent]):
        self.copy_engine = copy_engine
        self.engine = copy_engine.engine
        self.metrics = metrics
        self._agent_of = agent_of
        #: node -> EDF heap of (deadline, seq, request, block).
        self._queues: dict[int, list] = {}
        self._running: set[int] = set()
        self._seq = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: CacheRequest) -> bool:
        """Admit and enqueue one declared read; False on rejection."""
        agent = self._agent_of(request.node_index)
        if agent.lookup(request.key) is not None:
            return True
        block = self._admit(agent, request)
        if block is None:
            self.metrics.prefetch_rejected += 1
            return False
        self._seq += 1
        queue = self._queues.setdefault(request.node_index, [])
        heapq.heappush(queue, (request.deadline, self._seq, request, block))
        if request.node_index not in self._running:
            self._running.add(request.node_index)
            self.engine.process(self._runner(request.node_index),
                                name=f"cache-pf[{request.node_index}]")
        return True

    def _admit(self, agent: NodeAgent,
               request: CacheRequest) -> Optional[Block]:
        """Try the requested tier, then cascade across remaining cache
        tiers fastest-first; None when every tier refuses."""
        tried = []
        for tier in (request.tier_dst, DRAM, NVME):
            if tier == PFS or tier in tried or tier not in agent.tiers:
                continue
            tried.append(tier)
            try:
                return agent.admit(request.key, request.nbytes, tier,
                                   deadline=request.deadline)
            except CacheAdmissionError:
                continue
        return None

    # ------------------------------------------------------------------
    # Per-node EDF runner
    # ------------------------------------------------------------------
    def _runner(self, node_index: int):
        agent = self._agent_of(node_index)
        node = self.copy_engine.cluster.nodes[node_index]
        queue = self._queues[node_index]
        try:
            # An EDF drain, not a retry loop: each pass pops a distinct
            # request, and a faulted copy is marked failed, not re-queued.
            # repro-check: disable=RC205 (drain loop, nothing retried)
            while queue:
                deadline, _seq, request, block = heapq.heappop(queue)
                try:
                    yield from self.copy_engine.copy(
                        node, request.tier_src, block.tier, request.nbytes,
                        target=request.target,
                        tag=("cache-pf", request.tenant, node_index),
                    )
                except TransientIOError:
                    # The copy never moved bytes onto the tier (faults
                    # bite at issue); the reader serves from the source
                    # tier — a missed deadline, not lost data.
                    agent.mark_failed(block)
                    self.metrics.prefetch_failed += 1
                else:
                    agent.mark_resident(block)
                    if self.engine.now <= deadline + 1e-9:
                        self.metrics.prefetch_on_time += 1
                    else:
                        self.metrics.prefetch_late += 1
                if request.on_ready is not None:
                    request.on_ready(block)
        finally:
            self._running.discard(node_index)
