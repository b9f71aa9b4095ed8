"""LogP-style cost model for MPI collectives.

The paper folds "any communication time and the synchronization time
among parallel processes" into the computation phase (§III-A), so the
collective model here only needs to be *plausible*, not exact: a
binomial-tree latency term plus a bandwidth term,

``t = alpha * ceil(log2 p) + nbytes / beta``

with machine-specific ``alpha``/``beta`` from
:class:`~repro.platform.spec.InterconnectSpec`.
"""

from __future__ import annotations

import math

from repro.platform.spec import InterconnectSpec

__all__ = ["CollectiveCostModel"]


class CollectiveCostModel:
    """Closed-form costs for the collectives the workloads use."""

    def __init__(self, spec: InterconnectSpec):
        self.spec = spec

    def _tree_depth(self, nprocs: int) -> int:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        return max(0, math.ceil(math.log2(nprocs)))

    def barrier(self, nprocs: int) -> float:
        """Dissemination barrier: pure latency term."""
        return self.spec.alpha * self._tree_depth(nprocs)

    def bcast(self, nprocs: int, nbytes: float) -> float:
        """Binomial-tree broadcast."""
        depth = self._tree_depth(nprocs)
        return self.spec.alpha * depth + depth * nbytes / self.spec.beta

    def reduce(self, nprocs: int, nbytes: float) -> float:
        """Binomial-tree reduction (same asymptotics as bcast)."""
        return self.bcast(nprocs, nbytes)

    def allreduce(self, nprocs: int, nbytes: float) -> float:
        """Reduce + broadcast."""
        return self.reduce(nprocs, nbytes) + self.bcast(nprocs, nbytes)

    def gather(self, nprocs: int, nbytes_per_rank: float) -> float:
        """Root receives ``(p-1)·n`` bytes; bandwidth-dominated."""
        depth = self._tree_depth(nprocs)
        total = max(0, nprocs - 1) * nbytes_per_rank
        return self.spec.alpha * depth + total / self.spec.beta

    def point_to_point(self, nbytes: float) -> float:
        """Single message cost."""
        return self.spec.alpha + nbytes / self.spec.beta
