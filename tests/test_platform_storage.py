"""Tests for storage models, cluster wiring and contention."""

import math

import pytest

from repro.sim import Engine
from repro.platform import Cluster, ContentionModel, cori_haswell, summit
from repro.platform import testbed as _testbed

MiB = float(1 << 20)
GB = 1e9


def build(machine, nodes):
    eng = Engine()
    return eng, Cluster(eng, machine, nodes)


# ---------------------------------------------------------------------------
# Machine specs
# ---------------------------------------------------------------------------


def test_summit_spec_matches_paper():
    m = summit()
    assert m.filesystem.kind == "gpfs"
    assert m.filesystem.peak_bandwidth == pytest.approx(2.5e12)
    assert m.default_ranks_per_node == 6
    assert m.node.gpus == 6
    assert m.node.local_ssd is not None
    assert m.node.local_ssd.capacity_bytes == pytest.approx(1.6e12)
    assert m.node.gpu_link.link_peak == pytest.approx(50 * GB)


def test_cori_spec_matches_paper():
    m = cori_haswell()
    assert m.filesystem.kind == "lustre"
    assert m.filesystem.peak_bandwidth == pytest.approx(700 * GB)
    assert m.filesystem.default_stripe_count == 72
    assert m.default_ranks_per_node == 32
    assert m.burst_buffer_bandwidth == pytest.approx(1.7e12)
    assert m.node.gpus == 0


def test_allocation_bounds():
    eng = Engine()
    with pytest.raises(ValueError):
        Cluster(eng, _testbed(nodes=4), nodes=5)
    with pytest.raises(ValueError):
        Cluster(eng, _testbed(nodes=4), nodes=0)


# ---------------------------------------------------------------------------
# PFS transfers
# ---------------------------------------------------------------------------


def test_single_write_duration_reasonable():
    eng, cluster = build(_testbed(), 1)
    target = cluster.pfs.open_file("/out.h5")
    node = cluster.nodes[0]
    flow = cluster.pfs_write(node, target, 64 * MiB)
    eng.run()
    # client cap = nic * eff(64MiB); eff = 64/(64+4) ~ 0.94
    expected_rate = 10 * GB * (64 / 68.0)
    assert flow.achieved_rate == pytest.approx(expected_rate, rel=1e-3)


def test_small_requests_get_lower_bandwidth():
    eng, cluster = build(_testbed(), 1)
    target = cluster.pfs.open_file("/out.h5")
    node = cluster.nodes[0]
    big = cluster.pfs_write(node, target, 64 * MiB)
    eng.run()
    eng2, cluster2 = build(_testbed(), 1)
    target2 = cluster2.pfs.open_file("/out.h5")
    small = cluster2.pfs_write(cluster2.nodes[0], target2, 1 * MiB)
    eng2.run()
    assert small.achieved_rate < 0.3 * big.achieved_rate


def test_pfs_ceiling_caps_aggregate_bandwidth():
    """Enough nodes writing together saturate the shared backend."""
    machine = _testbed(nodes=8, pfs_peak=20 * GB, nic=10 * GB)
    eng, cluster = build(machine, 8)
    target = cluster.pfs.open_file("/big.h5")
    nbytes = 256 * MiB
    flows = [
        cluster.pfs_write(node, target, nbytes, tag=node.index)
        for node in cluster.nodes
    ]
    eng.run()
    t_io = max(f.finished_at for f in flows) - machine.filesystem.metadata_latency
    aggregate = 8 * nbytes / t_io
    assert aggregate == pytest.approx(20 * GB, rel=0.02)


def test_ranks_share_node_nic():
    machine = _testbed(nodes=1, pfs_peak=100 * GB, nic=10 * GB)
    eng, cluster = build(machine, 1)
    target = cluster.pfs.open_file("/f.h5")
    node = cluster.nodes[0]
    flows = [cluster.pfs_write(node, target, 64 * MiB, tag=i) for i in range(4)]
    eng.run()
    t_io = max(f.finished_at for f in flows) - machine.filesystem.metadata_latency
    aggregate = 4 * 64 * MiB / t_io
    assert aggregate <= 10 * GB * 1.001
    assert aggregate == pytest.approx(10 * GB, rel=0.05)


def test_metadata_latency_applied():
    eng, cluster = build(_testbed(), 1)
    target = cluster.pfs.open_file("/meta.h5")
    flow = cluster.pfs_write(cluster.nodes[0], target, 0.0)
    eng.run()
    assert flow.finished_at == pytest.approx(
        _testbed().filesystem.metadata_latency
    )


def test_file_target_accounting_and_reopen():
    eng, cluster = build(_testbed(), 1)
    t1 = cluster.pfs.open_file("/data.h5")
    t2 = cluster.pfs.open_file("/data.h5")
    assert t1 is t2
    cluster.pfs_write(cluster.nodes[0], t1, 100.0)
    cluster.pfs_read(cluster.nodes[0], t1, 40.0)
    eng.run()
    assert t1.bytes_written == 100.0
    assert t1.bytes_read == 40.0


# ---------------------------------------------------------------------------
# Lustre specifics
# ---------------------------------------------------------------------------


def test_lustre_stripe_ceiling():
    machine = cori_haswell()
    eng, cluster = build(machine, 64)
    target = cluster.pfs.open_file("/striped.h5")  # default 72 OSTs
    assert target.stripe_count == 72
    ceiling = 72 * machine.filesystem.ost_bandwidth
    nbytes = 512 * MiB
    flows = [
        cluster.pfs_write(node, target, nbytes, tag=node.index)
        for node in cluster.nodes
    ]
    eng.run()
    t_io = max(f.finished_at for f in flows) - machine.filesystem.metadata_latency
    aggregate = len(flows) * nbytes / t_io
    # 64 nodes * 6.5 GB/s = 416 GB/s of injection > 208.8 GB/s stripe ceiling
    assert aggregate == pytest.approx(ceiling, rel=0.02)


def test_lustre_stripe_count_validation():
    eng, cluster = build(cori_haswell(), 1)
    with pytest.raises(ValueError):
        cluster.pfs.open_file("/bad.h5", stripe_count=0)
    with pytest.raises(ValueError):
        cluster.pfs.open_file("/bad2.h5", stripe_count=10_000)


def test_lustre_single_stripe_is_slow():
    machine = cori_haswell()
    eng, cluster = build(machine, 4)
    narrow = cluster.pfs.open_file("/narrow.h5", stripe_count=1)
    flows = [
        cluster.pfs_write(node, narrow, 256 * MiB, tag=node.index)
        for node in cluster.nodes
    ]
    eng.run()
    t_io = max(f.finished_at for f in flows) - machine.filesystem.metadata_latency
    aggregate = 4 * 256 * MiB / t_io
    assert aggregate == pytest.approx(machine.filesystem.ost_bandwidth, rel=0.02)


def test_gpfs_rejects_user_striping():
    eng, cluster = build(summit(), 1)
    with pytest.raises(ValueError):
        cluster.pfs.open_file("/x.h5", stripe_count=4)


# ---------------------------------------------------------------------------
# Node-local resources
# ---------------------------------------------------------------------------


def test_memcpy_total_time_follows_curve():
    """Setup latency + peak-rate stream == the §III-B1 curve's time."""
    eng, cluster = build(_testbed(), 1)
    node = cluster.nodes[0]
    flow = cluster.memcpy(node, 256 * MiB)
    eng.run()
    expected = node.spec.memcpy.per_copy.transfer_time(256 * MiB)
    assert flow.finished_at == pytest.approx(expected, rel=1e-6)
    # effective bandwidth over the whole copy matches the curve
    assert 256 * MiB / flow.finished_at == pytest.approx(
        node.spec.memcpy.per_copy.bandwidth(256 * MiB), rel=1e-6
    )


def test_concurrent_memcpy_shares_node_aggregate():
    machine = summit()  # 48 GB/s aggregate, 10 GB/s per stream
    eng, cluster = build(machine, 1)
    node = cluster.nodes[0]
    flows = [cluster.memcpy(node, 256 * MiB, tag=i) for i in range(6)]
    eng.run()
    # 6 streams want ~9.7 GB/s each = 58 GB/s > 48 -> link-shared at 8 GB/s
    for f in flows:
        assert f.achieved_rate == pytest.approx(48 * GB / 6, rel=0.02)


def test_gpu_transfer_pinned_vs_pageable():
    eng, cluster = build(summit(), 1)
    node = cluster.nodes[0]
    pinned = cluster.gpu_transfer(node, 100 * MiB, pinned=True)
    eng.run()
    eng2, cluster2 = build(summit(), 1)
    pageable = cluster2.gpu_transfer(cluster2.nodes[0], 100 * MiB, pinned=False)
    eng2.run()
    assert pinned.elapsed < pageable.elapsed


def test_gpu_transfer_requires_gpu():
    eng, cluster = build(cori_haswell(), 1)
    with pytest.raises(ValueError):
        cluster.gpu_transfer(cluster.nodes[0], 1.0)


def test_node_ssd_write_and_capacity():
    eng, cluster = build(summit(), 1)
    node = cluster.nodes[0]
    flow = node.ssd.write(1 * GB)
    eng.run()
    assert flow.achieved_rate == pytest.approx(2.1 * GB, rel=1e-6)
    with pytest.raises(RuntimeError):
        node.ssd.write(2e12)  # over 1.6 TB capacity
    node.ssd.evict(1 * GB)
    assert node.ssd.bytes_stored == 0.0


def test_node_without_ssd_raises():
    eng, cluster = build(cori_haswell(), 1)
    with pytest.raises(ValueError):
        _ = cluster.nodes[0].ssd


def test_burst_buffer_available_on_cori():
    eng, cluster = build(cori_haswell(), 1)
    assert cluster.burst_buffer is not None
    flow = cluster.burst_buffer.write(cluster.nodes[0], 100 * MiB)
    eng.run()
    # NIC (6.5 GB/s) is the bottleneck, not the 1.7 TB/s BB
    assert flow.achieved_rate == pytest.approx(6.5 * GB, rel=1e-6)


def test_burst_buffer_shared_by_co_tenant_jobs():
    """Two tenants' nodes draining to one BB split its link fairly."""
    machine = cori_haswell()
    eng, cluster = build(machine, 4)
    bb = cluster.burst_buffer
    nbytes = 512 * MiB
    # Tenant A on nodes 0-1, tenant B on nodes 2-3, all writing at once.
    flows = [
        bb.write(node, nbytes, tag=("A" if node.index < 2 else "B", node.index))
        for node in cluster.nodes
    ]
    eng.run()
    # Each node's 6.5 GB/s NIC is the bottleneck (4 * 6.5 = 26 GB/s
    # << 1.7 TB/s BB): co-tenancy costs nothing until the BB saturates.
    for f in flows:
        assert f.achieved_rate == pytest.approx(6.5 * GB, rel=1e-6)


def test_burst_buffer_saturation_splits_across_tenants():
    """When aggregate injection exceeds the BB link, tenants share it."""
    machine = _testbed(nodes=4, nic=10 * GB)
    machine = type(machine)(**{**machine.__dict__,
                               "burst_buffer_bandwidth": 20 * GB})
    eng, cluster = build(machine, 4)
    bb = cluster.burst_buffer
    # 4 nodes * 10 GB/s NIC = 40 GB/s wants through a 20 GB/s BB link.
    flows = [bb.write(node, 512 * MiB, tag=node.index)
             for node in cluster.nodes]
    eng.run()
    for f in flows:
        assert f.achieved_rate == pytest.approx(20 * GB / 4, rel=0.02)


def test_burst_buffer_drain_competes_with_other_tenant_pfs_writes():
    """A BB->PFS drain and a direct PFS write share the PFS backend."""
    machine = _testbed(nodes=2, pfs_peak=10 * GB, nic=10 * GB)
    machine = type(machine)(**{**machine.__dict__,
                               "burst_buffer_bandwidth": 100 * GB})
    eng, cluster = build(machine, 2)
    bb = cluster.burst_buffer
    target_a = cluster.pfs.open_file("/tenants/a/drain.h5")
    target_b = cluster.pfs.open_file("/tenants/b/direct.h5")
    drain = bb.drain_to_pfs(cluster.pfs, target_a, 512 * MiB, tag="a")
    direct = cluster.pfs_write(cluster.nodes[1], target_b, 512 * MiB, tag="b")
    eng.run()
    # Both want the full 10 GB/s backend; max-min gives each half.
    assert drain.achieved_rate == pytest.approx(5 * GB, rel=0.02)
    assert direct.achieved_rate == pytest.approx(5 * GB, rel=0.02)


def test_node_local_ssds_are_private_per_tenant():
    """Co-tenant jobs on *different* nodes never share SSD bandwidth."""
    eng, cluster = build(summit(), 2)
    f_a = cluster.nodes[0].ssd.write(1 * GB, tag="tenant-a")
    f_b = cluster.nodes[1].ssd.write(1 * GB, tag="tenant-b")
    eng.run()
    # Each gets the full 2.1 GB/s device rate: node-local isolation.
    assert f_a.achieved_rate == pytest.approx(2.1 * GB, rel=1e-6)
    assert f_b.achieved_rate == pytest.approx(2.1 * GB, rel=1e-6)
    # Capacity accounting is per-device too.
    assert cluster.nodes[0].ssd.bytes_stored == pytest.approx(1 * GB)
    assert cluster.nodes[1].ssd.bytes_stored == pytest.approx(1 * GB)


def test_node_local_ssd_shared_within_a_node():
    """Ranks co-located on one node DO share that node's SSD link."""
    eng, cluster = build(summit(), 1)
    ssd = cluster.nodes[0].ssd
    flows = [ssd.write(512 * MiB, tag=i) for i in range(4)]
    eng.run()
    for f in flows:
        assert f.achieved_rate == pytest.approx(2.1 * GB / 4, rel=0.02)


def test_node_local_ssd_capacity_is_shared_by_co_tenants():
    """Two tenants filling one node's SSD hit the same capacity wall."""
    eng, cluster = build(summit(), 1)
    ssd = cluster.nodes[0].ssd
    ssd.write(1.0e12, tag="tenant-a")
    ssd.write(0.5e12, tag="tenant-b")
    eng.run()
    with pytest.raises(RuntimeError):
        ssd.write(0.2e12, tag="tenant-c")  # 1.5 + 0.2 > 1.6 TB
    ssd.evict(0.5e12)
    flow = ssd.write(0.1e12, tag="tenant-c")
    eng.run()
    assert flow.triggered


def test_rank_placement():
    eng, cluster = build(_testbed(nodes=4, ranks_per_node=4), 4)
    assert cluster.node_of_rank(0, 4).index == 0
    assert cluster.node_of_rank(3, 4).index == 0
    assert cluster.node_of_rank(4, 4).index == 1
    assert cluster.node_of_rank(15, 4).index == 3
    with pytest.raises(ValueError):
        cluster.node_of_rank(16, 4)
    with pytest.raises(ValueError):
        cluster.node_of_rank(-1, 4)


# ---------------------------------------------------------------------------
# Contention
# ---------------------------------------------------------------------------


def test_contention_deterministic_per_day():
    model = ContentionModel(seed=7)
    assert model.availability(3) == model.availability(3)
    series = model.series(days=10)
    assert len(set(series)) > 1  # days differ


def test_contention_factors_in_range():
    model = ContentionModel(seed=1)
    for a in model.series(days=50):
        assert 0.05 <= a <= 1.0


def test_contention_scales_pfs_but_not_memcpy():
    machine = _testbed(nodes=1)
    eng, cluster = build(machine, 1)
    model = ContentionModel(seed=3, median_load=1.0)
    factor = model.apply(cluster.pfs, day=0)
    assert factor < 1.0
    target = cluster.pfs.open_file("/c.h5")
    node = cluster.nodes[0]
    pfs_flow = cluster.pfs_write(node, target, 512 * MiB)
    mem_flow = cluster.memcpy(node, 512 * MiB)
    eng.run()
    # memcpy unaffected by contention
    assert mem_flow.finished_at == pytest.approx(
        node.spec.memcpy.per_copy.transfer_time(512 * MiB), rel=1e-6
    )
    # pfs flow capped by scaled backend when factor small enough
    assert pfs_flow.achieved_rate <= machine.filesystem.peak_bandwidth * factor * 1.01


def test_contention_zero_load_gives_full_availability():
    model = ContentionModel(seed=0, median_load=0.0)
    assert model.availability(5) == 1.0


def test_contention_validation():
    with pytest.raises(ValueError):
        ContentionModel(median_load=-1.0)
    with pytest.raises(ValueError):
        ContentionModel(floor=0.0)
    eng, cluster = build(_testbed(), 1)
    with pytest.raises(ValueError):
        cluster.pfs.set_availability(0.0)


def test_exascale_testbed_three_tiers():
    """The paper's §I outlook: node-local + performance + capacity tiers."""
    from repro.platform import exascale_testbed
    m = exascale_testbed()
    assert m.node.local_ssd is not None            # fast node-local tier
    assert m.burst_buffer_bandwidth > m.filesystem.peak_bandwidth  # perf tier
    assert m.filesystem.kind == "lustre"           # capacity tier
    eng = Engine()
    cluster = Cluster(eng, m, 4)
    # all three tiers usable for async staging
    node = cluster.nodes[0]
    f1 = node.ssd.write(1 << 20)
    f2 = cluster.burst_buffer.write(node, 1 << 20)
    t = cluster.pfs.open_file("/x.h5")
    f3 = cluster.pfs_write(node, t, 1 << 20)
    eng.run()
    for f in (f1, f2, f3):
        assert f.triggered
