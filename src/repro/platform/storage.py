"""Storage models: GPFS, Lustre, node-local SSD, burst buffer.

All storage traffic is expressed as flows on the shared
:class:`~repro.sim.network.Network`.  A write from rank *r* on node *n*
to the parallel file system traverses:

``[node n's NIC link] -> [per-file link (Lustre striping ceiling)] ->
[file-system backend link]``

with a per-flow rate cap ``nic_peak * eff(request_size)`` where
``eff(s) = s / (s + s0)`` models the client-side efficiency loss for
small requests (GPFS "reacts to the workload"; Lustre clients pay
per-RPC overhead).  This size-dependent efficiency is the mechanism
behind the paper's strong-scaling observation: as ranks grow and
per-rank data shrinks, synchronous aggregate bandwidth *decreases*
(Fig. 4, Fig. 6), while the async staging copy cost shrinks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Engine
from repro.sim.network import Flow, Link, Network
from repro.platform.spec import FileSystemSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.cluster import Node

__all__ = [
    "BurstBuffer",
    "FileTarget",
    "GPFSModel",
    "LustreModel",
    "NodeLocalSSD",
    "ParallelFileSystem",
    "make_filesystem",
]


class FileTarget:
    """Storage-side identity of one file on a parallel file system.

    Holds the extra links a flow touching this file must traverse
    (empty for GPFS; the striping-ceiling link for Lustre) plus simple
    accounting used by tests and the harness.
    """

    __slots__ = ("path", "fs", "stripe_count", "links", "bytes_written", "bytes_read")

    def __init__(
        self,
        path: str,
        fs: "ParallelFileSystem",
        stripe_count: int = 0,
        links: tuple[Link, ...] = (),
    ):
        self.path = path
        self.fs = fs
        self.stripe_count = stripe_count
        self.links = links
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FileTarget {self.path!r} stripes={self.stripe_count}>"


class ParallelFileSystem:
    """Common machinery for shared parallel file systems."""

    kind = "abstract"

    def __init__(self, engine: Engine, network: Network, spec: FileSystemSpec,
                 name: str = "pfs"):
        self.engine = engine
        self.network = network
        self.spec = spec
        self.name = name
        self.backend = Link(f"{name}.backend", spec.peak_bandwidth)
        #: Link -> nominal (uncontended) capacity, for contention scaling.
        self._base_capacities: dict[Link, float] = {
            self.backend: spec.peak_bandwidth
        }
        self._availability = 1.0
        #: Multiplicative fault-layer capacity factor (degradation
        #: windows), composed with contention availability.
        self._fault_factor = 1.0
        #: Optional chaos hook ``(op, node, target, nbytes, tag)`` called
        #: as each request is issued; may raise a
        #: :class:`repro.faults.TransientIOError`.  ``None`` (default)
        #: keeps the request path byte-identical to a fault-free build.
        self.fault_hook = None
        self._targets: dict[str, FileTarget] = {}
        #: In-flight request count (drives the metadata-serialization
        #: latency term).
        self._inflight = 0
        #: (nbytes, client_peak) -> cap.  Sweeps issue the same request
        #: size from thousands of ranks; the cache keeps those caps
        #: byte-identical (flows land in one flow class of the fast-path
        #: allocator) and skips the per-request arithmetic.
        self._cap_cache: dict[tuple[float, float], float] = {}

    # -- file namespace --------------------------------------------------
    def open_file(self, path: str, stripe_count: Optional[int] = None) -> FileTarget:
        """Open (or create) the storage target for ``path``.

        Re-opening an existing path returns the same target, so several
        jobs in one simulation share bandwidth ceilings consistently
        (e.g. BD-CATS-IO reading what VPIC-IO wrote).
        """
        if path in self._targets:
            return self._targets[path]
        target = self._make_target(path, stripe_count)
        self._targets[path] = target
        return target

    def _make_target(self, path: str, stripe_count: Optional[int]) -> FileTarget:
        raise NotImplementedError

    # -- performance model -----------------------------------------------
    def client_efficiency(self, nbytes: float) -> float:
        """Fraction of a client's peak achieved for one request of ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return nbytes / (nbytes + self.spec.efficiency_s0)

    def client_cap(self, nbytes: float, client_peak: float) -> float:
        """Per-flow rate cap for one client request.

        The size-dependent efficiency shrinks the cap for small
        requests; the floor models the client RPC pipeline's minimum
        sustained rate (and avoids zero-rate stalls).  Results are
        memoized per ``(nbytes, client_peak)``: same request shape, same
        cap float — which also lets the network's fast path aggregate
        the resulting flows into one flow class.
        """
        key = (nbytes, client_peak)
        cap = self._cap_cache.get(key)
        if cap is None:
            eff = self.client_efficiency(nbytes)
            cap = max(client_peak * eff, self.spec.client_floor_rate)
            self._cap_cache[key] = cap
        return cap

    # -- data movement -----------------------------------------------------
    def write(self, node: "Node", target: FileTarget, nbytes: float,
              tag=None) -> Flow:
        """Start one client's write of ``nbytes`` to ``target``.

        Raises a :class:`repro.faults.TransientIOError` *before any
        bytes move* if a fault injector rejects the request, so a failed
        request is always retry-safe (no partial accounting).
        """
        if self.fault_hook is not None:
            self.fault_hook("write", node, target, nbytes, tag)
        target.bytes_written += nbytes
        return self._transfer(node, target, nbytes, tag)

    def read(self, node: "Node", target: FileTarget, nbytes: float,
             tag=None) -> Flow:
        """Start one client's read of ``nbytes`` from ``target``."""
        if self.fault_hook is not None:
            self.fault_hook("read", node, target, nbytes, tag)
        target.bytes_read += nbytes
        return self._transfer(node, target, nbytes, tag)

    def _transfer(self, node: "Node", target: FileTarget, nbytes: float,
                  tag) -> Flow:
        links = [node.nic_link, *target.links, self.backend]
        # Server-side metadata serialization: the k-th concurrent
        # request pays k extra penalties before its data moves.  The
        # latency is quantized so that bulk-synchronous arrivals stay
        # *batched* in the fluid network (a handful of rebalances per
        # phase instead of one per flow — O(F) instead of O(F^2)).
        latency = (self.spec.metadata_latency
                   + self.spec.client_latency_penalty * self._inflight)
        quantum = self.spec.metadata_latency / 4.0
        if quantum > 0.0:
            latency = math.ceil(latency / quantum - 1e-9) * quantum
        self._inflight += 1
        flow = self.network.transfer(
            nbytes,
            links,
            cap=self.client_cap(nbytes, node.spec.nic_bandwidth),
            latency=latency,
            tag=tag,
        )
        flow._wait(self._on_flow_done)
        return flow

    def _on_flow_done(self, _event) -> None:
        self._inflight = max(0, self._inflight - 1)

    # -- contention ---------------------------------------------------------
    @property
    def availability(self) -> float:
        """Current fraction of nominal capacity available to this job."""
        return self._availability

    def set_availability(self, factor: float) -> None:
        """Scale every shared storage link to ``factor`` of nominal capacity.

        Models full-system-level contention from other jobs (paper §V-C):
        only *shared* resources are affected; node-local staging links
        are private to the allocation and stay at nominal speed.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"availability factor must be in (0,1], got {factor}")
        if factor == self._availability:
            # Redundant write: capacities cannot change, so don't force
            # a rebalance checkpoint on every in-flight flow.
            return
        self._availability = factor
        self._apply_capacity_factors()

    def set_fault_factor(self, factor: float) -> None:
        """Scale shared capacity by a *fault-layer* factor.

        Composes multiplicatively with :meth:`set_availability`, so a
        degradation window injected by :class:`repro.faults.FaultInjector`
        and the contention model's per-day availability never clobber
        each other's state.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"fault factor must be in (0,1], got {factor}")
        if factor == self._fault_factor:
            return
        self._fault_factor = factor
        self._apply_capacity_factors()

    def _apply_capacity_factors(self) -> None:
        factor = self._availability * self._fault_factor
        for link, base in self._base_capacities.items():
            link.set_capacity(base * factor)


class GPFSModel(ParallelFileSystem):
    """GPFS (Summit "Alpine"): no user striping, workload-reactive.

    Files carry no individual ceiling; the global backend link plus the
    size-dependent client efficiency reproduce both the weak-scaling
    saturation and the strong-scaling collapse.
    """

    kind = "gpfs"

    def _make_target(self, path: str, stripe_count: Optional[int]) -> FileTarget:
        if stripe_count is not None:
            raise ValueError("GPFS does not expose user-controlled striping")
        return FileTarget(path, self, stripe_count=0, links=())


class LustreModel(ParallelFileSystem):
    """Lustre (Cori): per-file ceiling of ``stripe_count × ost_bandwidth``."""

    kind = "lustre"

    def _make_target(self, path: str, stripe_count: Optional[int]) -> FileTarget:
        count = stripe_count if stripe_count is not None else self.spec.default_stripe_count
        if not 1 <= count <= self.spec.n_osts:
            raise ValueError(
                f"stripe_count {count} out of range [1, {self.spec.n_osts}]"
            )
        ceiling = min(count * self.spec.ost_bandwidth, self.spec.peak_bandwidth)
        link = Link(f"{self.name}.file({path})", ceiling)
        self._base_capacities[link] = ceiling
        factor = self._availability * self._fault_factor
        if factor != 1.0:
            link.set_capacity(ceiling * factor)
        return FileTarget(path, self, stripe_count=count, links=(link,))


class NodeLocalSSD:
    """A node's private NVMe drive (async staging target option)."""

    def __init__(self, engine: Engine, network: Network, node: "Node"):
        spec = node.spec.local_ssd
        if spec is None:
            raise ValueError(f"node {node.index} has no local SSD")
        self.engine = engine
        self.network = network
        self.node = node
        self.spec = spec
        self.write_link = Link(f"ssd[{node.index}].write", spec.write_bandwidth)
        self.read_link = Link(f"ssd[{node.index}].read", spec.read_bandwidth)
        self.bytes_stored = 0.0
        #: Optional chaos hook ``(op, node_index, nbytes, tag)``; may
        #: raise :class:`repro.faults.SSDFaultError` once the drive has
        #: been failed by an injector schedule.
        self.fault_hook = None

    def write(self, nbytes: float, tag=None) -> Flow:
        """Write ``nbytes`` to the local drive."""
        if self.fault_hook is not None:
            self.fault_hook("write", self.node.index, nbytes, tag)
        if self.bytes_stored + nbytes > self.spec.capacity_bytes:
            raise RuntimeError(
                f"node {self.node.index} SSD full: "
                f"{self.bytes_stored + nbytes:.3g} > {self.spec.capacity_bytes:.3g}"
            )
        self.bytes_stored += nbytes
        return self.network.transfer(nbytes, [self.write_link], tag=tag)

    def read(self, nbytes: float, tag=None) -> Flow:
        """Read ``nbytes`` back from the local drive."""
        if self.fault_hook is not None:
            self.fault_hook("read", self.node.index, nbytes, tag)
        return self.network.transfer(nbytes, [self.read_link], tag=tag)

    def evict(self, nbytes: float) -> None:
        """Release ``nbytes`` of drive space (post-drain cleanup)."""
        self.bytes_stored = max(0.0, self.bytes_stored - nbytes)


class BurstBuffer:
    """Shared SSD tier between compute and the PFS (Cori: 1.7 TB/s)."""

    def __init__(self, engine: Engine, network: Network, bandwidth: float,
                 name: str = "bb"):
        if bandwidth <= 0:
            raise ValueError("burst buffer bandwidth must be positive")
        self.engine = engine
        self.network = network
        self.link = Link(f"{name}.link", bandwidth)

    def write(self, node: "Node", nbytes: float, tag=None) -> Flow:
        """Stage ``nbytes`` from ``node`` into the burst buffer."""
        return self.network.transfer(
            nbytes, [node.nic_link, self.link], tag=tag
        )

    def read(self, node: "Node", nbytes: float, tag=None) -> Flow:
        """Fetch ``nbytes`` from the burst buffer to ``node``."""
        return self.network.transfer(
            nbytes, [node.nic_link, self.link], tag=tag
        )

    def drain_to_pfs(self, pfs: ParallelFileSystem, target: FileTarget,
                     nbytes: float, tag=None) -> Flow:
        """Server-side drain: move staged data to the PFS without
        touching any compute node (the DataElevator pattern, §II-C)."""
        target.bytes_written += nbytes
        return self.network.transfer(
            nbytes, [self.link, *target.links, pfs.backend],
            latency=pfs.spec.metadata_latency, tag=tag,
        )


def make_filesystem(
    engine: Engine, network: Network, spec: FileSystemSpec, name: str = "pfs"
) -> ParallelFileSystem:
    """Instantiate the storage model matching ``spec.kind``."""
    if spec.kind == "gpfs":
        return GPFSModel(engine, network, spec, name=name)
    if spec.kind == "lustre":
        return LustreModel(engine, network, spec, name=name)
    raise ValueError(f"unknown file system kind: {spec.kind!r}")
