"""Synthetic traffic shapes for simulator benchmarking and testing.

Each builder drives a bare :class:`~repro.sim.network.Network` (or the
reference allocator in :mod:`repro.sim.network_ref` — the module is a
parameter, so the exact same traffic can run against either) with a
workload shaped like the reproduction's hot paths:

- :func:`identical_flows` — N identical flows on one shared link, the
  bulk-synchronous best case (one flow class).
- :func:`mixed_classes` — K classes × M flows with heterogeneous caps
  and private first hops sharing one backend, the general case.
- :func:`fig3a_phase` — a VPIC-IO-shaped weak-scaling write phase:
  per-node NIC links feeding a shared file-system backend, per-client
  size-dependent rate caps, and quantized metadata-staggered arrivals
  (the same stagger :mod:`repro.platform.storage` applies), repeated
  over a few timesteps.  This is the shape every fig3–fig8 sweep is
  built from and the benchmark the fast path is judged on.
- :func:`class_churn` — waves of short-lived flows whose (links, cap)
  keys rotate every wave, so flow classes are installed and uninstalled
  constantly (the allocator's bookkeeping worst case).
- :func:`many_links` — flows fanned across a wide link pool with long
  paths, stressing the per-link class sets and the saturated-link
  propagation of the filling loop.
- :func:`wide_classes` — about a thousand live flow classes at once,
  each on a private hop into one backend, with sizes and caps spread
  so completions fall on many instants (the paper-scale class count).
- :func:`cap_ladder` — overlapping waves whose caps climb a ladder
  below the shared backend's fair share, so most allocations freeze
  several cap levels in successive rounds before the backend
  saturates (multi-round filling).

All builders are deterministic: same arguments → same event trace.
"""

from __future__ import annotations

import math
from types import ModuleType
from typing import Optional

from repro.sim import network as _network
from repro.sim.engine import Engine

__all__ = [
    "identical_flows",
    "mixed_classes",
    "fig3a_phase",
    "class_churn",
    "many_links",
    "wide_classes",
    "cap_ladder",
]


def identical_flows(
    net_mod: Optional[ModuleType] = None,
    n: int = 1000,
    nbytes: float = 1e6,
    capacity: float = 1e9,
) -> tuple[Engine, object, list]:
    """N identical flows over one shared link; returns (engine, net, flows)."""
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    link = net_mod.Link("shared", capacity)
    flows = [net.transfer(nbytes, [link], tag=i) for i in range(n)]
    return engine, net, flows


def mixed_classes(
    net_mod: Optional[ModuleType] = None,
    n_classes: int = 64,
    flows_per_class: int = 32,
    backend_bw: float = 1e9,
    hop_bw: float = 1e8,
    nbytes: float = 1e6,
) -> tuple[Engine, object, list]:
    """K flow classes (private hop + shared backend, distinct caps)."""
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    backend = net_mod.Link("backend", backend_bw)
    flows = []
    for c in range(n_classes):
        hop = net_mod.Link(f"hop{c}", hop_bw)
        cap = hop_bw / (2.0 + c % 7)
        for i in range(flows_per_class):
            flows.append(
                net.transfer(nbytes, [hop, backend], cap=cap, tag=(c, i))
            )
    return engine, net, flows


class _Fig3aRank:
    """Callback-driven rank state machine for :func:`fig3a_phase`.

    One instance drives one rank's sequential request chain: issuing a
    transfer registers the instance itself as the flow's completion
    callback, and the callback issues the next request (or joins the
    timestep barrier).  This is observationally identical to a
    generator process yielding each flow — the callback runs at exactly
    the point such a process would resume, in the same dispatch order —
    but skips the per-flow generator frame and wait bookkeeping that
    dominated the driver at scale.  The driver is shared by both
    network modules, so every microsecond it burns per flow is time
    stolen from what the benchmark actually compares.
    """

    __slots__ = (
        "transfer", "append", "inflight", "barrier", "path", "rank",
        "step", "d", "metadata_latency", "penalty", "quantum", "cap",
        "nbytes", "datasets", "timesteps",
    )

    def __init__(self, transfer, append, inflight, barrier, path, rank,
                 metadata_latency, penalty, quantum, cap, nbytes,
                 datasets, timesteps):
        self.transfer = transfer
        self.append = append
        self.inflight = inflight
        self.barrier = barrier
        self.path = path
        self.rank = rank
        self.step = 0
        self.d = 0
        self.metadata_latency = metadata_latency
        self.penalty = penalty
        self.quantum = quantum
        self.cap = cap
        self.nbytes = nbytes
        self.datasets = datasets
        self.timesteps = timesteps

    def issue(self) -> None:
        # The latency arithmetic is kept operation-for-operation
        # identical to the storage layer's (it feeds simulated
        # timestamps, which must not drift by a ulp).
        inflight = self.inflight
        q = self.quantum
        latency = self.metadata_latency + self.penalty * inflight[0]
        latency = math.ceil(latency / q - 1e-9) * q
        inflight[0] += 1
        # Positional call (both network modules share this signature).
        flow = self.transfer(
            self.nbytes, self.path, self.cap, latency,
            (self.rank, self.step, self.d),
        )
        self.append(flow)
        flow.done.callbacks.append(self)

    def __call__(self, ev) -> None:
        # A flow of ours completed.
        self.inflight[0] -= 1
        d = self.d + 1
        if d < self.datasets:
            self.d = d
            self.issue()
            return
        release = self.barrier.wait()
        step = self.step + 1
        if step < self.timesteps:
            self.step = step
            self.d = 0
            release.callbacks.append(self._next_timestep)

    def _next_timestep(self, ev) -> None:
        self.issue()


def fig3a_phase(
    net_mod: Optional[ModuleType] = None,
    ranks: int = 1536,
    ranks_per_node: int = 6,
    timesteps: int = 2,
    datasets: int = 8,
    nbytes_per_rank: float = 64e6,
    nic_bw: float = 25e9,
    backend_bw: float = 2.5e12,
    efficiency_s0: float = 8 * (1 << 20),
    metadata_latency: float = 3e-3,
    client_latency_penalty: float = 5e-6,
) -> tuple[Engine, object, list]:
    """A fig3a-shaped bulk-synchronous write sweep phase.

    Each of ``ranks`` ranks writes ``datasets`` sequential requests of
    ``nbytes_per_rank`` (VPIC-IO writes one HDF5 dataset per particle
    variable) through its node's NIC into a shared backend, then joins
    a barrier before the next timestep.  Requests carry the storage
    layer's size-dependent client cap and quantized
    metadata-serialization stagger, driven by a live in-flight counter
    exactly like :meth:`repro.platform.storage.ParallelFileSystem`.
    Sequential per-rank chains scatter completions and arrivals across
    many instants — the rebalance-heavy pattern every fig3–fig8 sweep
    is built from, and the benchmark the fast path is judged on.

    Ranks are driven by :class:`_Fig3aRank` callback chains rather than
    generator processes; the issue order, latency arithmetic, and
    completion-dispatch ordering are identical.
    """
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    nodes = (ranks + ranks_per_node - 1) // ranks_per_node
    nics = [net_mod.Link(f"nic{i}", nic_bw) for i in range(nodes)]
    backend = net_mod.Link("backend", backend_bw)
    eff = nbytes_per_rank / (nbytes_per_rank + efficiency_s0)
    cap = nic_bw * eff
    quantum = metadata_latency / 4.0
    flows: list = []
    inflight = [0]

    from repro.sim.primitives import Barrier

    barrier = Barrier(engine, ranks, name="timestep")
    transfer = net.transfer
    append = flows.append
    for rank in range(ranks):
        _Fig3aRank(
            transfer, append, inflight, barrier,
            (nics[rank // ranks_per_node], backend), rank,
            metadata_latency, client_latency_penalty, quantum, cap,
            nbytes_per_rank, datasets, timesteps,
        ).issue()
    return engine, net, flows


def class_churn(
    net_mod: Optional[ModuleType] = None,
    waves: int = 150,
    flows_per_wave: int = 8,
    nlinks: int = 12,
    hop_bw: float = 1e9,
    backend_bw: float = 2e10,
) -> tuple[Engine, object, list]:
    """Waves of short flows with rotating (links, cap) class keys.

    Each wave's flows pick a different hop link and cap than the last,
    and are sized to drain before the next wave arrives — so every wave
    installs fresh flow classes while the previous wave's drain and are
    uninstalled.  Stresses class install/uninstall and the per-link
    bookkeeping rather than the filling rounds themselves.
    """
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    links = [net_mod.Link(f"hop{i}", hop_bw) for i in range(nlinks)]
    backend = net_mod.Link("backend", backend_bw)
    flows: list = []

    def driver():
        for w in range(waves):
            for i in range(flows_per_wave):
                hop = links[(3 * w + i) % nlinks]
                cap = 1e6 * (1 + (w + i) % 9)
                flows.append(net.transfer(
                    2e5 + 1e4 * i, [hop, backend], cap=cap, tag=(w, i),
                ))
            yield engine.timeout(0.31)

    engine.process(driver(), name="churn")
    return engine, net, flows


def many_links(
    net_mod: Optional[ModuleType] = None,
    nflows: int = 600,
    nlinks: int = 96,
    path_len: int = 6,
    link_bw: float = 1e9,
    nbytes: float = 4e6,
) -> tuple[Engine, object, list]:
    """Flows striped across a wide link pool with long paths.

    Each flow crosses ``path_len`` links chosen by a deterministic
    stride, so most link pairs are shared by several classes and a
    saturated link freezes many classes at once — the worst case for
    saturation propagation through the per-link class sets.  Small
    latency staggers spread arrivals over a few instants to force
    repeated rebalances.
    """
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    links = [
        net_mod.Link(f"l{i}", link_bw * (1 + i % 5) / 3.0)
        for i in range(nlinks)
    ]
    flows: list = []
    for f in range(nflows):
        path = [links[(7 * f + 13 * k) % nlinks] for k in range(path_len)]
        cap = math.inf if f % 3 else link_bw / (2.0 + f % 11)
        flows.append(net.transfer(
            nbytes * (1 + f % 4) / 2.0, path, cap=cap,
            latency=(f % 7) * 1e-3, tag=f,
        ))
    return engine, net, flows


def wide_classes(
    net_mod: Optional[ModuleType] = None,
    n_classes: int = 1000,
    levels: int = 40,
    hop_bw: float = 1e8,
    backend_bw: float = 2e10,
    nbytes: float = 1e5,
) -> tuple[Engine, object, list]:
    """``n_classes`` live classes, one flow each on a private hop.

    Caps take seven levels under the hop capacity and sizes ``levels``
    multiples of ``nbytes``, so the backend binds while most flows are
    live and completions spread over many instants: every rebalance
    sees hundreds of live classes but only a few change.
    """
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    backend = net_mod.Link("backend", backend_bw)
    flows = []
    for c in range(n_classes):
        hop = net_mod.Link(f"hop{c}", hop_bw)
        flows.append(net.transfer(
            nbytes * (1 + c % levels), [hop, backend],
            cap=hop_bw / (2.0 + c % 7), tag=c,
        ))
    return engine, net, flows


def cap_ladder(
    net_mod: Optional[ModuleType] = None,
    waves: int = 40,
    flows_per_wave: int = 10,
    caps: tuple = (2e7, 4e7, 7e7, 1.1e8, 3e8),
    nhops: int = 8,
    hop_bw: float = 1e9,
    backend_bw: float = 2.4e9,
    nbytes: float = 2e6,
    gap: float = 0.02,
) -> tuple[Engine, object, list]:
    """Overlapping waves of flows with a ladder of caps.

    Each wave's flows take the caps in turn and spread over ``nhops``
    first hops into one backend.  The lower caps sit under the
    backend's fair share, so an allocation freezes them one level per
    round before the backend saturates: most allocations run three or
    more filling rounds.  Waves arrive every ``gap`` seconds, before
    the last one drains, so arrivals and completions interleave.
    """
    net_mod = net_mod or _network
    engine = Engine()
    net = net_mod.Network(engine)
    hops = [net_mod.Link(f"hop{i}", hop_bw) for i in range(nhops)]
    backend = net_mod.Link("backend", backend_bw)
    flows: list = []

    def driver():
        for w in range(waves):
            for i in range(flows_per_wave):
                flows.append(net.transfer(
                    nbytes * (1 + (w + i) % 3),
                    [hops[(w + 3 * i) % nhops], backend],
                    cap=caps[(w + i) % len(caps)], tag=(w, i),
                ))
            yield engine.timeout(gap)

    engine.process(driver(), name="ladder")
    return engine, net, flows
