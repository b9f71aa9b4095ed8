"""Tests for the tiered staging cache: tiers, agents, planner, wiring.

Covers the five mandated behaviors — full-tier admission rejection,
eviction skipping in-flight blocks, a prefetch landing *exactly* at its
deadline counting as on time, deadline misses under the
``tier_degraded`` fault, and same-seed copy-schedule replay — plus the
zero-cost-off identity, the write-through drain ledgers, the warm-node
placement hints and the sweep/CLI surface.
"""

import json
import math
import os

import pytest

from repro.sim import Engine
from repro.platform import Cluster
from repro.platform import testbed as make_testbed
from repro.hdf5 import FLOAT32, H5Library
from repro.cache import (
    DRAM,
    NVME,
    PFS,
    CacheMetrics,
    CacheRequest,
    CacheSubsystem,
    CacheTier,
    NodeAgent,
    TierSpec,
    cache_key,
    tier_preset,
    tier_preset_names,
    tier_stack_for,
)
from repro.faults import (
    CacheAdmissionError,
    FaultConfig,
    FaultInjector,
    TierDegradedError,
)
from repro.harness import run_experiment
from repro.harness.sweepengine import SweepSpec, expand_grid
from repro.sched.policies import IOAwarePolicy, Placement
from repro.trace.recorder import _merge_cache_stats
from repro.workloads import BDCATSConfig, bdcats_program, prepopulate_vpic_file

MiB = 1 << 20


def make_env(nodes=1, ranks_per_node=4):
    eng = Engine()
    cluster = Cluster(
        eng, make_testbed(nodes=nodes, ranks_per_node=ranks_per_node), nodes
    )
    lib = H5Library(cluster)
    return eng, cluster, lib


def prepopulated_target(lib, path="/in.h5", n=1 << 20):
    lib.prepopulate(path, {"/d": ((n,), FLOAT32)})
    return lib.stored_file(path).target


def small_tiers(dram_cap=100.0, nvme_cap=None):
    """A tiny explicit stack for admission/eviction tests."""
    tiers = [TierSpec(DRAM, dram_cap, 8e9, 8e9)]
    if nvme_cap is not None:
        tiers.append(TierSpec(NVME, nvme_cap, 3.5e9, 2e9, latency=1e-4))
    tiers.append(TierSpec(PFS, math.inf, 40e9, 40e9, latency=1e-3))
    return tuple(tiers)


# ---------------------------------------------------------------------------
# TierSpec / CacheTier
# ---------------------------------------------------------------------------


def test_tierspec_validation():
    with pytest.raises(ValueError):
        TierSpec("tape", 1e9, 1e9, 1e9)
    with pytest.raises(ValueError):
        TierSpec(DRAM, 0.0, 1e9, 1e9)
    with pytest.raises(ValueError):
        TierSpec(DRAM, 1e9, 0.0, 1e9)
    with pytest.raises(ValueError):
        TierSpec(DRAM, 1e9, 1e9, 1e9, latency=-1.0)
    # inf capacity is legal (the PFS backs everything).
    assert math.isinf(TierSpec(PFS, math.inf, 1e9, 1e9).capacity_bytes)


def test_cache_tier_strict_ledger():
    tier = CacheTier(TierSpec(DRAM, 100.0, 1e9, 1e9))
    tier.take(60.0)
    assert tier.used == 60.0 and tier.free_bytes == 40.0
    with pytest.raises(RuntimeError):
        tier.take(50.0)  # over-claim
    with pytest.raises(ValueError):
        tier.take(0.0)
    with pytest.raises(RuntimeError):
        tier.give(70.0)  # over-release
    tier.give(60.0)
    assert tier.used == 0.0


def test_tier_stack_presets():
    assert tier_preset_names() == [
        "cori-haswell", "exascale-testbed", "summit", "testbed",
    ]
    for name in tier_preset_names():
        stack = tier_preset(name)
        names = [t.name for t in stack]
        assert names[0] == DRAM and names[-1] == PFS
        assert NVME in names  # every preset machine has a middle tier
    with pytest.raises(ValueError):
        tier_preset("laptop")
    stack = tier_stack_for(make_testbed())
    nvme = next(t for t in stack if t.name == NVME)
    assert nvme.capacity_bytes == pytest.approx(1e12)
    with pytest.raises(ValueError):
        tier_stack_for(make_testbed(), dram_fraction=0.0)


# ---------------------------------------------------------------------------
# Mandated: full-tier admission rejection
# ---------------------------------------------------------------------------


def test_admission_rejected_when_tier_full():
    eng, cluster, lib = make_env()
    target = prepopulated_target(lib)
    cs = CacheSubsystem(cluster, tiers=small_tiers(dram_cap=100.0))

    def req(key, nbytes, deadline=10.0):
        return CacheRequest(
            tenant="t", key=(0, "/d", key, 1), nbytes=nbytes,
            tier_src=PFS, tier_dst=DRAM, deadline=deadline,
            node_index=0, target=target,
        )

    assert cs.planner.submit(req(0, 80.0)) is True
    # The first block is still in flight and fills the tier: the second
    # request has nothing evictable to displace and must be rejected.
    assert cs.planner.submit(req(1, 80.0)) is False
    assert cs.metrics.prefetch_rejected == 1
    # A block larger than the whole tier is rejected outright.
    assert cs.planner.submit(req(2, 200.0)) is False
    assert cs.metrics.prefetch_rejected == 2
    eng.run()
    assert cs.metrics.prefetch_on_time == 1
    # Rejection degraded service, never corrupted the ledger.
    assert cs.agent(0).tiers[DRAM].used == 80.0


def test_agent_admission_error_leaves_ledger_untouched():
    eng = Engine()
    agent = NodeAgent(eng, 0, small_tiers(dram_cap=100.0), CacheMetrics())
    block = agent.admit(("a",), 70.0, DRAM)
    agent.mark_resident(block)
    block.pins += 1  # a reader is consuming it: not evictable
    with pytest.raises(CacheAdmissionError):
        agent.admit(("b",), 80.0, DRAM)
    assert agent.tiers[DRAM].used == 70.0
    assert agent.lookup(("a",)) is block


# ---------------------------------------------------------------------------
# Mandated: eviction must skip blocks with an in-flight copy
# ---------------------------------------------------------------------------


def test_eviction_skips_inflight_blocks():
    eng = Engine()
    agent = NodeAgent(eng, 0, small_tiers(dram_cap=100.0), CacheMetrics())
    resident = agent.admit(("old",), 50.0, DRAM)
    agent.mark_resident(resident)
    inflight = agent.admit(("filling",), 50.0, DRAM)
    assert inflight.state == "inflight"
    # 60B needs eviction; only the resident 50B block is evictable, so
    # admission fails rather than yanking the in-flight block's bytes.
    with pytest.raises(CacheAdmissionError):
        agent.admit(("new",), 60.0, DRAM)
    assert agent.lookup(("filling",)) is inflight
    assert agent.lookup(("old",)) is resident
    assert agent.tiers[DRAM].used == 100.0
    assert agent.metrics.evictions == 0
    # Once the copy lands the block becomes fair game, LRU order:
    # "old" was touched by the lookup above *after* "filling", so
    # "filling" is now the least recently used and goes first.
    agent.mark_resident(inflight)
    agent.admit(("new",), 40.0, DRAM)
    assert agent.metrics.evictions == 1
    assert agent.lookup(("filling",)) is None
    assert agent.lookup(("old",)) is resident


def test_pinned_blocks_never_evicted():
    eng = Engine()
    agent = NodeAgent(eng, 0, small_tiers(dram_cap=100.0), CacheMetrics())
    block = agent.admit(("pinned",), 100.0, DRAM)
    agent.mark_resident(block)
    block.pins += 1
    with pytest.raises(CacheAdmissionError):
        agent.admit(("other",), 10.0, DRAM)
    block.pins -= 1
    agent.admit(("other",), 10.0, DRAM)
    assert agent.lookup(("pinned",)) is None  # now evictable, and gone


# ---------------------------------------------------------------------------
# Mandated: prefetch completing exactly at the deadline is on time
# ---------------------------------------------------------------------------


def _run_one_prefetch(deadline):
    """Submit one pfs->dram prefetch; return (completion time, metrics)."""
    eng, cluster, lib = make_env()
    target = prepopulated_target(lib)
    cs = CacheSubsystem(cluster)
    done = []
    request = CacheRequest(
        tenant="t", key=(0, "/d", 0, 1024), nbytes=float(4 * MiB),
        tier_src=PFS, tier_dst=DRAM, deadline=deadline,
        node_index=0, target=target,
        on_ready=lambda block: done.append(eng.now),
    )
    assert cs.planner.submit(request) is True
    eng.run()
    assert len(done) == 1
    return done[0], cs.metrics


def test_prefetch_exactly_at_deadline_is_on_time():
    # Self-calibrate: learn the copy's completion time, then re-run the
    # identical scenario with the deadline set to that exact instant.
    t_done, _ = _run_one_prefetch(deadline=math.inf)
    assert t_done > 0.0
    _, metrics = _run_one_prefetch(deadline=t_done)
    assert metrics.prefetch_on_time == 1
    assert metrics.prefetch_late == 0
    assert metrics.on_time_ratio == 1.0
    # Any earlier deadline makes the same copy late.
    _, metrics = _run_one_prefetch(deadline=t_done / 2)
    assert metrics.prefetch_on_time == 0
    assert metrics.prefetch_late == 1
    assert metrics.on_time_ratio == 0.0


# ---------------------------------------------------------------------------
# Mandated: deadline missed under the tier_degraded fault
# ---------------------------------------------------------------------------


def test_deadline_missed_under_tier_degraded():
    eng, cluster, lib = make_env()
    target = prepopulated_target(lib)
    injector = FaultInjector(
        FaultConfig(tier_degraded=((0, 0.0, 50.0),))
    ).attach(cluster)
    cs = CacheSubsystem(cluster, faults=injector)
    request = CacheRequest(
        tenant="t", key=(0, "/d", 0, 1024), nbytes=float(MiB),
        tier_src=PFS, tier_dst=NVME, deadline=5.0,
        node_index=0, target=target,
    )
    assert cs.planner.submit(request) is True
    block = cs.lookup(cluster.nodes[0], request.key)
    woken = []

    def reader():
        yield block.ready
        woken.append((eng.now, block.state))

    eng.process(reader(), name="reader")
    eng.run()
    # The copy was refused inside the degradation window: the block
    # failed, the reader woke (and would fall back to a PFS read), the
    # deadline was missed, and nothing leaked.
    assert cs.metrics.prefetch_failed == 1
    assert cs.metrics.on_time_ratio == 0.0
    assert woken == [(0.0, "failed")]  # refused at issue, woken at once
    assert cs.lookup(cluster.nodes[0], request.key) is None
    assert cs.agent(0).tiers[NVME].used == 0.0
    assert cluster.nodes[0].ssd.bytes_stored == 0.0
    # The injected fault is part of the deterministic signature.
    kinds = [event[1] for event in injector.signature()]
    assert "tier_degraded_hit" in kinds
    assert injector.tier_degraded_at(0, 10.0)
    assert not injector.tier_degraded_at(0, 60.0)


def test_stage_write_bypasses_on_tier_degraded():
    eng, cluster, lib = make_env()
    injector = FaultInjector(
        FaultConfig(tier_degraded=((0, 0.0, 50.0),))
    ).attach(cluster)
    cs = CacheSubsystem(cluster, faults=injector)

    def proc():
        with pytest.raises(TierDegradedError):
            yield from cs.stage_write(cluster.nodes[0], 1000.0)
        return cs.agent(0).tiers[NVME].used

    assert eng.run_process(proc()) == 0.0
    assert cluster.nodes[0].ssd.bytes_stored == 0.0


# ---------------------------------------------------------------------------
# Mandated: same-seed copy-schedule replay determinism
# ---------------------------------------------------------------------------


def _copy_schedule_run():
    eng, cluster, lib = make_env(nodes=2)
    target = prepopulated_target(lib)
    injector = FaultInjector(
        FaultConfig(seed=7, tier_degraded=((1, 0.0, 0.002),))
    ).attach(cluster)
    cs = CacheSubsystem(cluster, faults=injector)
    for node_index in (0, 1):
        for i, (dst, deadline) in enumerate(
            [(DRAM, 9.0), (NVME, 3.0), (DRAM, 6.0)]
        ):
            cs.planner.submit(CacheRequest(
                tenant=f"t{node_index}", key=(node_index, "/d", i, 1),
                nbytes=float((i + 1) * MiB), tier_src=PFS, tier_dst=dst,
                deadline=deadline, node_index=node_index, target=target,
            ))
    eng.run()
    return tuple(cs.copy_engine.schedule), cs.snapshot()


def test_copy_schedule_replay_is_deterministic():
    schedule_a, stats_a = _copy_schedule_run()
    schedule_b, stats_b = _copy_schedule_run()
    assert schedule_a == schedule_b
    assert stats_a == stats_b
    # EDF: within each node the earliest deadline issues first, so the
    # nvme-bound (deadline 3.0) copy leads despite being submitted second.
    node0 = [entry for entry in schedule_a if entry[1] == 0]
    assert node0[0][3] == NVME


# ---------------------------------------------------------------------------
# Write-through drain hops
# ---------------------------------------------------------------------------


def test_stage_write_roundtrip_and_release():
    eng, cluster, lib = make_env()
    cs = CacheSubsystem(cluster)
    node = cluster.nodes[0]
    tier = cs.agent(0).tiers[NVME]

    def proc():
        yield from cs.stage_write(node, 1000.0, tag=("t", 0))
        assert tier.used == 1000.0
        assert node.ssd.bytes_stored == 1000.0
        yield from cs.stage_read(node, 1000.0, tag=("t", 0))
        cs.stage_release(node, 1000.0)
        return tier.used, node.ssd.bytes_stored

    assert eng.run_process(proc()) == (0.0, 0.0)
    assert cs.metrics.bytes_to_tier[NVME] == 1000.0


def test_stage_write_full_tier_raises_admission_error():
    eng, cluster, lib = make_env()
    cs = CacheSubsystem(cluster, tiers=small_tiers(nvme_cap=500.0))
    node = cluster.nodes[0]

    def proc():
        with pytest.raises(CacheAdmissionError):
            yield from cs.stage_write(node, 1000.0)
        return cs.agent(0).tiers[NVME].used

    assert eng.run_process(proc()) == 0.0
    assert node.ssd.bytes_stored == 0.0


def test_serve_requires_resident_block():
    eng, cluster, lib = make_env()
    cs = CacheSubsystem(cluster)
    block = cs.agent(0).admit(("k",), 10.0, DRAM)
    with pytest.raises(RuntimeError):
        next(cs.serve(cluster.nodes[0], block))


# ---------------------------------------------------------------------------
# Experiment wiring: zero-cost-off and stall reduction
# ---------------------------------------------------------------------------

SMALL_BDCATS = BDCATSConfig(
    particles_per_rank=1 << 16, n_properties=2, steps=3, compute_seconds=5.0
)


def _bdcats_run(cache_mode, **kw):
    return run_experiment(
        make_testbed(nodes=1, ranks_per_node=4), "bdcats", bdcats_program,
        SMALL_BDCATS, mode="async", nranks=4, op="read",
        prepopulate=lambda lib, n: prepopulate_vpic_file(lib, SMALL_BDCATS, n),
        cache_mode=cache_mode, **kw,
    )


def test_cache_off_is_zero_cost():
    base = _bdcats_run(None)
    off = _bdcats_run("off")
    assert base.app_time == off.app_time
    assert base.read_stall_seconds == off.read_stall_seconds
    assert base.peak_bandwidth == off.peak_bandwidth
    assert base.cache_stats is None
    assert off.cache_stats["hits"] == 0
    assert off.cache_stats["bytes_to_tier"] == {}


def test_prefetch_reduces_read_stall():
    # The VOL's own heuristic prefetcher is disabled on both sides so
    # the planner is the only read-ahead in play.
    off = _bdcats_run("off", vol_kwargs={"prefetcher": None})
    on = _bdcats_run("on", vol_kwargs={"prefetcher": None})
    assert on.total_bytes == off.total_bytes
    assert off.read_stall_seconds > 0.0
    assert on.read_stall_seconds < off.read_stall_seconds
    stats = on.cache_stats
    assert stats["hits"] > 0
    assert stats["on_time_ratio"] == 1.0
    assert stats["bytes_to_tier"][DRAM] > 0


def test_run_experiment_rejects_bad_cache_mode():
    with pytest.raises(ValueError):
        _bdcats_run("turbo")


# ---------------------------------------------------------------------------
# Warm-node placement
# ---------------------------------------------------------------------------


def test_warm_nodes_ranking():
    policy = IOAwarePolicy(
        4, service=None,
        tier_telemetry=lambda: {0: 50.0, 1: 0.0, 2: 100.0, 3: 50.0},
    )
    assert policy._warm_nodes() == (2, 0, 3)
    assert IOAwarePolicy(4, service=None)._warm_nodes() == ()


def test_placement_validates_preferred_nodes():
    with pytest.raises(ValueError):
        Placement(record=None, nnodes=1, mode="sync",
                  preferred_nodes=(-1,))


def test_allocate_nodes_prefers_warm_nodes():
    eng = Engine()
    cluster = Cluster(eng, make_testbed(nodes=4, ranks_per_node=4), 4)
    assert cluster.allocate_nodes(2, preferred=(2, 1)) == (2, 1)
    cluster.release_nodes((2, 1))
    # Preferences already taken fall back to lowest-free order.
    assert cluster.allocate_nodes(2) == (0, 1)
    assert cluster.allocate_nodes(2, preferred=(0, 1)) == (2, 3)


def test_warm_bytes_telemetry():
    eng, cluster, lib = make_env(nodes=2)
    cs = CacheSubsystem(cluster)
    block = cs.agent(1).admit(("k",), 42.0, DRAM)
    cs.agent(1).mark_resident(block)
    cs.agent(0)  # touched but empty
    assert cs.warm_bytes() == {0: 0.0, 1: 42.0}


# ---------------------------------------------------------------------------
# Metrics merging, sweep axis, CLI surface
# ---------------------------------------------------------------------------


def test_merge_cache_stats():
    a = CacheMetrics()
    a.hits = 3
    a.misses = 1
    a.prefetch_on_time = 2
    a.bytes_to_tier[DRAM] = 100.0
    b = CacheMetrics()
    b.hits = 1
    b.misses = 3
    b.prefetch_late = 2
    b.bytes_to_tier[NVME] = 50.0
    merged = _merge_cache_stats(a.snapshot(), b.snapshot())
    assert merged["hits"] == 4 and merged["misses"] == 4
    assert merged["hit_ratio"] == 0.5
    assert merged["on_time_ratio"] == 0.5
    assert merged["bytes_to_tier"] == {DRAM: 100.0, NVME: 50.0}
    assert _merge_cache_stats({}, b.snapshot()) == b.snapshot()


def test_sweep_cache_axis():
    spec = SweepSpec(
        kind="workload", workload="bdcats", modes=("async",),
        scales=(4,), seeds=(0,), cache=("none", "on"),
    )
    tasks = expand_grid(spec)
    assert [t.cache for t in tasks] == ["none", "on"]
    assert "2 cache mode(s)" in spec.describe()
    with pytest.raises(ValueError):
        SweepSpec(cache=("turbo",))
    with pytest.raises(ValueError):
        SweepSpec(kind="sched", modes=("fifo",), cache=("on",))


def test_cli_cache_parser():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["cache", "--workload", "bdcats", "--tiers", "testbed",
         "--prefetch", "off"]
    )
    assert args.command == "cache"
    assert args.workload == "bdcats"
    assert args.tiers == "testbed"
    assert args.prefetch == "off"


@pytest.mark.parametrize("command", ["run", "cache"])
def test_cli_single_run_commands_have_no_seed_grid(command, capsys):
    """Seed grids run through ``repro sweep`` only."""
    from repro.cli import main

    with pytest.raises(SystemExit):
        main([command, "--workload", "bdcats", "--seeds", "0"])
    assert "unrecognized arguments: --seeds" in capsys.readouterr().err


def test_cli_sweep_cache_axis_is_worker_count_invariant(tmp_path,
                                                       monkeypatch):
    from repro.cli import main

    def sweep(name):
        out = tmp_path / f"cache-{name}.json"
        assert main(["sweep", "--workload", "bdcats", "--machines",
                     "testbed", "--modes", "async", "--scales", "4",
                     "--seeds", "0", "1", "--cache", "on", "--quiet",
                     "--out", str(out)]) == 0
        return out.read_text()

    every_cpu = sweep("ncpu")
    # What ``taskset -c 0`` does: the sweep runs serially.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert sweep("1cpu") == every_cpu
    points = json.loads(every_cpu)["points"]
    assert [p["seed"] for p in points] == [0, 1]
    assert all(p["cache"] == "on" and p["metrics"]["cache_stats"]
               for p in points)


def test_cli_sweep_reduces_each_cache_mode_apart(capsys):
    from repro.cli import main

    assert main(["sweep", "--workload", "bdcats", "--machines", "testbed",
                 "--modes", "async", "--scales", "4", "--seeds", "0", "1",
                 "--cache", "off", "on", "--quiet"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if "peak=" in line]
    assert [row[2] for row in rows] == ["cache=off", "cache=on"]
    assert all(row[-2:] == ["2", "seed(s)"] for row in rows)
