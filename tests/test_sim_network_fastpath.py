"""Fast-path allocator vs. reference: bit-identity and observability.

The optimized flow-class allocator in :mod:`repro.sim.network` must
produce **bit-identical** simulated timestamps and rates to the frozen
per-flow reference in :mod:`repro.sim.network_ref` — not approximately
equal: sweeps in the harness compare derived bandwidths across runs, so
any drift would show up as spurious model error.  These tests drive the
exact same randomized workloads (heterogeneous caps, shared and
duplicated links, mid-flight capacity changes) through both modules and
compare the full traces with ``==``.
"""

import math
import random

import pytest

from repro.sim import Engine, EngineStats
from repro.sim import network as fastmod
from repro.sim import network_ref as refmod
from repro.sim.traffic import (
    class_churn,
    fig3a_phase,
    identical_flows,
    many_links,
    mixed_classes,
)


def _random_workload(net_mod, seed, nflows=60, nlinks=5, nchanges=8):
    """Seeded chaotic workload; returns the full per-flow trace."""
    rng = random.Random(seed)
    engine = Engine()
    net = net_mod.Network(engine)
    caps = [1e5, 3e6, 5e7, 8e8, 1e9, 2.5e12]
    links = [net_mod.Link(f"l{i}", rng.choice(caps)) for i in range(nlinks)]
    flows = []

    def issue():
        for i in range(nflows):
            path = rng.sample(links, rng.randint(1, 3))
            if rng.random() < 0.3:
                path = path + [path[0]]  # duplicate link in the path
            cap = math.inf if rng.random() < 0.4 else rng.choice(
                [1e5, 3e6, 8e8]
            )
            nbytes = rng.choice([512.0, 1e4, 1e6, 64e6])
            latency = rng.choice([0.0, 0.0, 1e-3, 0.25, rng.random()])
            flows.append(
                net.transfer(nbytes, path, cap=cap, latency=latency, tag=i)
            )
            if rng.random() < 0.5:
                yield engine.timeout(rng.random() * 0.1)

    def chaos():
        for _ in range(nchanges):
            yield engine.timeout(rng.random() * 0.5)
            link = rng.choice(links)
            r = rng.random()
            if r < 0.2:
                link.set_capacity(0.0)
            elif r < 0.4:
                link.set_capacity(link.capacity)  # redundant write
            else:
                link.set_capacity(rng.choice(caps))

    engine.process(issue(), name="issue")
    engine.process(chaos(), name="chaos")
    engine.run()
    return [(f.tag, f.started_at, f.finished_at, f.rate) for f in flows]


@pytest.mark.parametrize("seed", range(12))
def test_random_workload_bit_identical_to_reference(seed):
    assert _random_workload(fastmod, seed) == _random_workload(refmod, seed)


@pytest.mark.parametrize(
    "builder,kwargs",
    [
        (identical_flows, dict(n=200)),
        (mixed_classes, dict(n_classes=8, flows_per_class=5)),
        (fig3a_phase, dict(ranks=96, timesteps=2, datasets=3)),
        (class_churn, dict(waves=20, flows_per_wave=6)),
        (many_links, dict(nflows=80, nlinks=24, path_len=5)),
    ],
)
def test_traffic_shapes_bit_identical_to_reference(builder, kwargs):
    traces = []
    for mod in (fastmod, refmod):
        engine, net, flows = builder(mod, **kwargs)
        engine.run()
        traces.append([(f.started_at, f.finished_at, f.rate) for f in flows])
    assert traces[0] == traces[1]


def test_drained_network_holds_no_classes():
    """A class leaves the network the moment its last member drains:
    after waves of rotating (links, cap) keys nothing stays installed."""
    engine, net, flows = class_churn(waves=20, flows_per_wave=6)
    engine.run()
    assert all(f.finished_at is not None for f in flows)
    assert net.class_count == 0
    assert net.active_flows == 0


def test_fig3a_two_runs_deterministic():
    """Two runs of the VPIC-shaped phase produce identical traces."""
    traces = []
    for _ in range(2):
        engine, net, flows = fig3a_phase(ranks=96, timesteps=2, datasets=3)
        engine.run()
        traces.append(
            [(f.tag, f.started_at, f.finished_at, f.rate) for f in flows]
        )
    assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# Satellite fixes: finite achieved_rate, aggregate-served observability
# ---------------------------------------------------------------------------


def test_achieved_rate_finite_for_zero_duration_transfer():
    engine = Engine()
    net = fastmod.Network(engine)
    link = fastmod.Link("l", 100.0)
    flow = net.transfer(0.0, [link])
    engine.run()
    # Zero-duration transfer: finite, nbytes-consistent value (the old
    # behaviour returned inf, which poisoned downstream curve fits).
    assert flow.achieved_rate == 0.0
    assert math.isfinite(flow.achieved_rate)


def test_achieved_rate_zero_while_in_flight():
    engine = Engine()
    net = fastmod.Network(engine)
    link = fastmod.Link("l", 100.0)
    flow = net.transfer(1e6, [link])
    # Not yet complete: no nan propagation from `elapsed`.
    assert flow.achieved_rate == 0.0
    assert math.isnan(flow.elapsed)
    engine.run()
    assert flow.achieved_rate == pytest.approx(100.0)


def test_link_throughput_served_from_class_aggregates():
    engine = Engine()
    net = fastmod.Network(engine)
    shared = fastmod.Link("shared", 100.0)
    private = fastmod.Link("private", 1000.0)
    f1 = net.transfer(1e6, [shared], tag=1)
    f2 = net.transfer(1e6, [shared, private], cap=10.0, tag=2)
    net._settle()
    assert net.link_throughput(shared) == pytest.approx(100.0)
    assert net.link_throughput(private) == pytest.approx(10.0)
    # Matches the per-flow sum the reference computes.
    assert net.link_throughput(shared) == pytest.approx(f1.rate + f2.rate)
    assert net.active_flows == 2
    assert net.class_count == 2


def test_link_throughput_zero_for_idle_link():
    engine = Engine()
    net = fastmod.Network(engine)
    link = fastmod.Link("l", 100.0)
    assert net.link_throughput(link) == 0.0


def test_flow_remaining_observable_mid_flight():
    engine = Engine()
    net = fastmod.Network(engine)
    link = fastmod.Link("l", 100.0)
    flow = net.transfer(1000.0, [link])

    def poke():
        # Residuals advance at rebalance checkpoints (same as the
        # reference); force one mid-flight to observe progress.
        yield engine.timeout(4.0)
        link.set_capacity(100.0)

    engine.process(poke())
    engine.run(until=5.0)
    # The lazily-advanced residual materializes on read.
    assert flow.remaining == pytest.approx(600.0)
    engine.run()
    assert flow.remaining == 0.0


# ---------------------------------------------------------------------------
# Engine.stats counters
# ---------------------------------------------------------------------------


def test_engine_stats_counts_rebalances_and_rounds():
    engine, net, flows = mixed_classes(n_classes=4, flows_per_class=3)
    engine.run()
    stats = engine.stats
    assert stats.events == engine.executed > 0
    assert stats.rebalances > 0
    assert stats.allocator_rounds > 0
    snap = stats.snapshot()
    assert snap["rebalances"] == stats.rebalances
    assert set(snap) == set(EngineStats.__slots__)


def test_engine_stats_skip_counter_on_redundant_capacity_write():
    engine = Engine()
    net = fastmod.Network(engine)
    link = fastmod.Link("l", 100.0)
    net.transfer(1000.0, [link])

    def poke():
        yield engine.timeout(1.0)
        link.set_capacity(100.0)  # same value: rates cannot change

    engine.process(poke())
    engine.run()
    # The redundant write forces an advance checkpoint (the reference
    # does the same) but the water-filling itself is skipped.
    assert engine.stats.rebalances_skipped >= 1


def test_engine_stats_reset():
    engine, net, flows = identical_flows(n=10)
    engine.run()
    assert engine.stats.events > 0
    engine.stats.reset()
    assert engine.stats.events == 0
    assert engine.stats.rebalances == 0
