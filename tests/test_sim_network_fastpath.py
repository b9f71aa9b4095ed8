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
    cap_ladder,
    class_churn,
    fig3a_phase,
    identical_flows,
    many_links,
    mixed_classes,
    wide_classes,
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


def _stats(events, fastpath, rebalances, skipped, rounds):
    return dict(events=events, fastpath_events=fastpath,
                rebalances=rebalances, rebalances_skipped=skipped,
                allocator_rounds=rounds)


@pytest.mark.parametrize(
    "builder,kwargs,stats",
    [
        (identical_flows, dict(n=200), _stats(3, 2, 2, 0, 1)),
        (mixed_classes, dict(n_classes=8, flows_per_class=5),
         _stats(9, 5, 5, 0, 10)),
        (fig3a_phase, dict(ranks=96, timesteps=2, datasets=3),
         _stats(80, 36, 34, 0, 38)),
        (class_churn, dict(waves=20, flows_per_wave=6),
         _stats(282, 142, 140, 0, 420)),
        (many_links, dict(nflows=80, nlinks=24, path_len=5),
         _stats(231, 82, 82, 0, 297)),
        # About a thousand live classes per rebalance.
        (wide_classes, dict(), _stats(421, 211, 211, 0, 1187)),
        # Mixed caps: most allocations take three or more rounds.
        (cap_ladder, dict(waves=16, flows_per_wave=10),
         _stats(297, 135, 140, 7, 595)),
    ],
    # The ids predate the stats column: keep them.
    ids=[f"{name}-kwargs{i}" for i, name in enumerate((
        "identical_flows", "mixed_classes", "fig3a_phase", "class_churn",
        "many_links", "wide_classes", "cap_ladder"))],
)
def test_traffic_shapes_bit_identical_to_reference(builder, kwargs, stats):
    """Traces equal the reference's, and the engine counters equal the
    ones recorded before the rate-group allocator: they are part of the
    fleet artifact, so an optimisation must keep them identical."""
    traces = []
    for mod in (fastmod, refmod):
        engine, net, flows = builder(mod, **kwargs)
        engine.run()
        traces.append([(f.started_at, f.finished_at, f.rate) for f in flows])
        if mod is fastmod:
            assert engine.stats.snapshot() == stats
    assert traces[0] == traces[1]


def test_cap_ladder_allocations_are_mostly_multi_round():
    """The mixed-cap shape exercises multi-round filling: three or more
    rounds in most allocations."""
    engine, net, flows = cap_ladder(waves=16, flows_per_wave=10)
    rounds = []
    allocate = net._allocate

    def counting():
        before = engine.stats.allocator_rounds
        allocate()
        rounds.append(engine.stats.allocator_rounds - before)

    net._allocate = counting
    engine.run()
    assert sum(r >= 3 for r in rounds) > 0.8 * len(rounds)


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


@pytest.mark.parametrize("seed", range(24))
def test_random_workload_with_small_groups_bit_identical(seed, monkeypatch):
    """With the group threshold at its least, the random workloads run
    through rate groups, link sets, class-level rounds, regrouping and
    completion indexes: still bit-identical."""
    monkeypatch.setattr(fastmod, "_GROUP_MIN", 2)
    assert _random_workload(fastmod, seed) == _random_workload(refmod, seed)


@pytest.mark.parametrize("builder,kwargs", [
    (mixed_classes, dict(n_classes=8, flows_per_class=5)),
    (fig3a_phase, dict(ranks=96, timesteps=2, datasets=3)),
    (many_links, dict(nflows=80, nlinks=24, path_len=5)),
    (cap_ladder, dict(waves=16, flows_per_wave=10)),
])
def test_traffic_shapes_with_small_groups_bit_identical(builder, kwargs,
                                                        monkeypatch):
    """The same with the shapes; the engine counters do not depend on
    how classes are grouped."""
    engine, net, flows = builder(fastmod, **kwargs)
    engine.run()
    stats = engine.stats.snapshot()
    monkeypatch.setattr(fastmod, "_GROUP_MIN", 2)
    traces = []
    groups = []
    for mod in (fastmod, refmod):
        engine, net, flows = builder(mod, **kwargs)
        if mod is fastmod:
            allocate = net._allocate

            def counting():
                allocate()
                groups.append(len(net._groups))

            net._allocate = counting
        engine.run()
        traces.append([(f.started_at, f.finished_at, f.rate) for f in flows])
        if mod is fastmod:
            assert engine.stats.snapshot() == stats
    assert traces[0] == traces[1]
    assert max(groups) > 0


def test_wide_classes_form_rate_groups():
    """A thousand classes at one rate share a rate group."""
    engine, net, flows = wide_classes(fastmod)
    most = []
    allocate = net._allocate

    def counting():
        allocate()
        most.append(max((len(g.classes) for g in net._groups), default=0))

    net._allocate = counting
    engine.run()
    assert max(most) >= fastmod._GROUP_MIN


def test_group_log_stays_bounded(monkeypatch):
    """A long-lived rate group under a stream of rebalances replays and
    clears its decrement log instead of growing it without bound."""
    monkeypatch.setattr(fastmod, "_GROUP_MIN", 2)

    def build(mod):
        engine = Engine()
        net = mod.Network(engine)
        shared = mod.Link("shared", 1e9)
        hops = [mod.Link(f"hop{i}", 1e9) for i in range(12)]
        side = mod.Link("side", 1e6)
        flows = [net.transfer(5e7, [shared, hop], cap=1e6, tag=i)
                 for i, hop in enumerate(hops)]

        def stream():
            for i in range(400):
                flows.append(net.transfer(1e3 * (1 + i % 7), [side],
                                          tag=("s", i)))
                yield engine.timeout(0.01)

        engine.process(stream())
        return engine, net, flows

    engine, net, flows = build(fastmod)
    longest = []
    advance = net._advance_and_complete

    def sampling():
        advance()
        longest.append(max((len(g.log) for g in net._groups), default=0))

    net._advance_and_complete = sampling
    engine.run()
    assert max(longest) <= fastmod._LOG_SLACK + 2 * 12 + 1
    assert sum(n > 0 for n in longest) > 400
    ref_engine, _, ref_flows = build(refmod)
    ref_engine.run()
    assert ([(f.started_at, f.finished_at, f.rate) for f in flows]
            == [(f.started_at, f.finished_at, f.rate) for f in ref_flows])
