"""Tests for the asynchronous VOL connector: staging, workers, prefetch."""

import math

import numpy as np
import pytest

from repro.sim import Engine
from repro.mpi import MPIJob
from repro.platform import Cluster
from repro.platform import testbed as make_testbed
from repro.hdf5 import (
    FLOAT64,
    AsyncVOL,
    EventSet,
    H5Library,
    NativeVOL,
    SequentialPrefetcher,
    slab_1d,
)
from repro.hdf5.async_vol import StagingBuffer

MiB = 1 << 20


def make_env(nodes=1, ranks_per_node=4, nprocs=1, **machine_kw):
    eng = Engine()
    cluster = Cluster(
        eng, make_testbed(nodes=nodes, ranks_per_node=ranks_per_node, **machine_kw),
        nodes,
    )
    job = MPIJob(cluster, nprocs, ranks_per_node=ranks_per_node)
    lib = H5Library(cluster)
    return eng, cluster, job, lib


# ---------------------------------------------------------------------------
# StagingBuffer
# ---------------------------------------------------------------------------


def test_staging_reserve_release():
    eng = Engine()
    buf = StagingBuffer(eng, capacity=100.0)

    def proc():
        yield from buf.reserve(60.0)
        assert buf.used == 60.0
        buf.release(60.0)
        return buf.used

    assert eng.run_process(proc()) == 0.0


def test_staging_backpressure_fifo():
    eng = Engine()
    buf = StagingBuffer(eng, capacity=100.0)
    order = []

    def holder():
        yield from buf.reserve(80.0)
        yield eng.timeout(5.0)
        buf.release(80.0)

    def waiter(tag, need):
        yield eng.timeout(1.0)
        yield from buf.reserve(need)
        order.append((eng.now, tag))
        buf.release(need)

    eng.process(holder())
    eng.process(waiter("a", 50.0))
    eng.process(waiter("b", 30.0))
    eng.run()
    # both blocked until t=5; FIFO: a admitted first, then b
    assert order == [(5.0, "a"), (5.0, "b")]


def test_staging_oversize_reservation_rejected():
    eng = Engine()
    buf = StagingBuffer(eng, capacity=10.0)

    def proc():
        yield from buf.reserve(11.0)

    with pytest.raises(ValueError):
        eng.run_process(proc())


def test_staging_invalid_capacity():
    with pytest.raises(ValueError):
        StagingBuffer(Engine(), capacity=0.0)


# ---------------------------------------------------------------------------
# Async writes
# ---------------------------------------------------------------------------


def test_async_write_blocks_only_for_staging_copy():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)
    n_elems = 32 * MiB  # 256 MiB of float64
    nbytes = n_elems * 8

    def program(ctx):
        f = yield from lib.create(ctx, "/aw.h5", vol)
        d = f.create_dataset("/d", shape=(n_elems,), dtype=FLOAT64)
        # repro-check: disable=RC401 (deliberate: close-side drain is under test)
        es = EventSet(ctx.engine)
        t0 = ctx.now
        yield from d.write(es=es, phase=0)
        blocked = ctx.now - t0
        # repro-check: disable=RC401 (deliberate: close() must drain the un-waited op)
        yield from f.close()
        return blocked, ctx.now

    blocked, total = job.run(program)[0]
    memcpy_time = cluster.machine.node.memcpy.per_copy.transfer_time(nbytes)
    assert blocked == pytest.approx(memcpy_time, rel=1e-6)
    # the PFS write still happened before close returned
    sync_time = nbytes / (cluster.machine.node.nic_bandwidth
                          * nbytes / (nbytes + cluster.machine.filesystem.efficiency_s0))
    assert total >= blocked + sync_time


def test_async_write_records_blocking_and_completion():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/rec.h5", vol)
        d = f.create_dataset("/d", shape=(32 * MiB,), dtype=FLOAT64)
        yield from d.write(phase=0)
        yield from f.close()

    job.run(program)
    (rec,) = vol.log.select(op="write")
    assert rec.mode == "async"
    assert rec.blocking_time > 0
    assert math.isfinite(rec.t_complete)
    assert rec.t_complete > rec.t_unblocked  # background work took time
    assert rec.observed_rate > 0


def test_async_observed_rate_beats_sync():
    """The headline effect: with ranks contending for the shared NIC/PFS,
    the async per-op 'bandwidth' (staging memcpy) beats the sync one."""
    n_elems = 32 * MiB

    def run(vol_factory):
        eng, cluster, job, lib = make_env(nprocs=4)
        vol = vol_factory()

        def program(ctx):
            f = yield from lib.create(ctx, "/cmp.h5", vol)
            d = f.create_dataset("/d", shape=(4 * n_elems,), dtype=FLOAT64)
            yield from d.write(slab_1d(ctx.rank, n_elems), phase=0)
            yield from f.close()

        job.run(program)
        recs = vol.log.select(op="write")
        return min(r.observed_rate for r in recs)

    sync_rate = run(NativeVOL)
    async_rate = run(lambda: AsyncVOL(init_time=0.0))
    # 4 ranks share the 10 GB/s NIC (2.5 GB/s each) but get 7.5 GB/s each
    # from the 30 GB/s node memory for the staging copy.
    assert async_rate > 2 * sync_rate


def test_async_ops_execute_in_order():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/order.h5", vol)
        ds = [f.create_dataset(f"/d{i}", shape=(MiB,), dtype=FLOAT64)
              for i in range(4)]
        for i, d in enumerate(ds):
            yield from d.write(phase=i)
        yield from f.close()

    job.run(program)
    recs = vol.log.select(op="write")
    completions = [r.t_complete for r in recs]
    assert completions == sorted(completions)
    assert len(recs) == 4


def test_event_set_wait_drains_all_ops():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/es.h5", vol)
        es = EventSet(ctx.engine)
        for i in range(3):
            d = f.create_dataset(f"/d{i}", shape=(4 * MiB,), dtype=FLOAT64)
            yield from d.write(es=es, phase=0)
        assert es.op_counter == 3
        yield from es.wait()
        pending_after = es.n_pending
        yield from f.close()
        return pending_after

    assert job.run(program)[0] == 0
    for rec in vol.log.select(op="write"):
        assert math.isfinite(rec.t_complete)


def test_file_close_waits_for_background_writes():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/drain.h5", vol)
        d = f.create_dataset("/d", shape=(32 * MiB,), dtype=FLOAT64)
        yield from d.write(phase=0)
        yield from f.close()
        return ctx.now

    close_time = job.run(program)[0]
    rec = vol.log.select(op="write")[0]
    assert close_time >= rec.t_complete


def test_async_write_payload_applied_after_background_write():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/data.h5", vol)
        d = f.create_dataset("/d", shape=(8,), dtype=FLOAT64)
        payload = np.arange(8.0)
        yield from d.write(data=payload, phase=0)
        payload[:] = -1.0  # mutate app buffer: staging copy must protect us
        yield from f.flush()
        got = d.stored.data.copy()
        yield from f.close()
        return got

    got = job.run(program)[0]
    assert np.allclose(got, np.arange(8.0))


def test_async_overlap_with_compute():
    """Compute longer than I/O fully hides the PFS transfer (Fig. 1a)."""
    n_elems = 32 * MiB
    nbytes = n_elems * 8
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/ov.h5", vol)
        d = f.create_dataset("/d", shape=(n_elems,), dtype=FLOAT64)
        t0 = ctx.now
        yield from d.write(phase=0)
        yield ctx.compute(10.0)  # far longer than the PFS write
        t_before_close = ctx.now - t0
        yield from f.close()
        return t_before_close, ctx.now - t0

    before_close, total = job.run(program)[0]
    memcpy_time = cluster.machine.node.memcpy.per_copy.transfer_time(nbytes)
    # epoch = staging copy + compute; close adds only metadata latency
    assert before_close == pytest.approx(memcpy_time + 10.0, rel=1e-6)
    assert total == pytest.approx(
        before_close + cluster.machine.filesystem.metadata_latency, rel=1e-3
    )


def test_staging_backpressure_limits_inflight_bytes():
    """A tiny staging buffer forces the app to wait for the drain."""
    eng = Engine()
    machine = make_testbed(nodes=1, ranks_per_node=1)
    cluster = Cluster(eng, machine, 1)
    job = MPIJob(cluster, 1, ranks_per_node=1)
    lib = H5Library(cluster)
    # staging buffer: 64 MiB only
    frac = 64 * MiB / machine.node.dram_bytes
    vol = AsyncVOL(init_time=0.0, staging_fraction=frac)
    n_elems = 4 * MiB  # 32 MiB of float64 per write

    def program(ctx):
        f = yield from lib.create(ctx, "/bp.h5", vol)
        es = EventSet(ctx.engine)
        t0 = ctx.now
        for i in range(4):  # 128 MiB total staged > 64 MiB buffer
            d = f.create_dataset(f"/d{i}", shape=(n_elems,), dtype=FLOAT64)
            yield from d.write(es=es, phase=0)
        blocked = ctx.now - t0
        yield from es.wait()
        yield from f.close()
        return blocked

    blocked = job.run(program)[0]
    nbytes = n_elems * 8
    pure_memcpy = 4 * cluster.machine.node.memcpy.per_copy.transfer_time(nbytes)
    assert blocked > pure_memcpy  # had to wait for drain at least once


def test_ssd_staging_slower_than_dram():
    def run(staging):
        eng, cluster, job, lib = make_env()
        vol = AsyncVOL(init_time=0.0, staging=staging)

        def program(ctx):
            f = yield from lib.create(ctx, f"/{staging}.h5", vol)
            d = f.create_dataset("/d", shape=(32 * MiB,), dtype=FLOAT64)
            t0 = ctx.now
            yield from d.write(phase=0)
            blocked = ctx.now - t0
            yield from f.close()
            return blocked

        return job.run(program)[0]

    assert run("ssd") > run("dram")


def test_ssd_staging_requires_local_drive():
    eng = Engine()
    from repro.platform import cori_haswell
    cluster = Cluster(eng, cori_haswell(), 1)
    job = MPIJob(cluster, 1, ranks_per_node=32)
    lib = H5Library(cluster)
    vol = AsyncVOL(init_time=0.0, staging="ssd")

    def program(ctx):
        f = yield from lib.create(ctx, "/nossd.h5", vol)
        d = f.create_dataset("/d", shape=(MiB,), dtype=FLOAT64)
        yield from d.write(phase=0)

    with pytest.raises(ValueError, match="no local SSD"):
        job.run(program)


def test_gpu_sourced_async_write_blocks_for_d2h():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)
    n_elems = 16 * MiB
    nbytes = n_elems * 8

    def program(ctx):
        f = yield from lib.create(ctx, "/gpu.h5", vol)
        d = f.create_dataset("/d", shape=(n_elems,), dtype=FLOAT64)
        t0 = ctx.now
        yield from d.write(phase=0, from_gpu=True, pinned=True)
        blocked = ctx.now - t0
        yield from f.close()
        return blocked

    blocked = job.run(program)[0]
    expected = cluster.machine.node.gpu_link.transfer_time(nbytes, pinned=True)
    assert blocked == pytest.approx(expected, rel=1e-6)


def test_init_cost_charged_once_per_rank():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=1.0)

    def program(ctx):
        t0 = ctx.now
        f = yield from lib.create(ctx, "/init.h5", vol)
        first_open = ctx.now - t0
        f2 = yield from lib.create(ctx, "/init2.h5", vol)
        second_open = ctx.now - t0 - first_open
        yield from f.close()
        yield from f2.close()
        return first_open, second_open

    first, second = job.run(program)[0]
    assert first >= 1.0
    assert second < 1.0


def test_finalize_charges_term_time_and_stops_worker():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0, term_time=0.5)

    def program(ctx):
        f = yield from lib.create(ctx, "/fin.h5", vol)
        d = f.create_dataset("/d", shape=(MiB,), dtype=FLOAT64)
        yield from d.write(phase=0)
        yield from f.close()
        t0 = ctx.now
        yield from vol.finalize(ctx)
        return ctx.now - t0

    dt = job.run(program)[0]
    assert dt >= 0.5


def test_async_vol_validation():
    with pytest.raises(ValueError):
        AsyncVOL(staging="tape")
    with pytest.raises(ValueError):
        AsyncVOL(staging_fraction=0.0)
    with pytest.raises(ValueError):
        AsyncVOL(init_time=-1.0)
    with pytest.raises(ValueError):
        SequentialPrefetcher(depth=0)


# ---------------------------------------------------------------------------
# Reads & prefetch
# ---------------------------------------------------------------------------


def prepopulate_steps(lib, steps=4, n_elems=1024):
    datasets = {
        f"/Step#{s}/x": ((n_elems,), FLOAT64) for s in range(steps)
    }
    lib.prepopulate("/steps.h5", datasets)
    return n_elems


def test_first_read_blocking_then_prefetch_hits():
    # Slow NIC: PFS reads clearly dominate the local cache-hit copy.
    eng, cluster, job, lib = make_env(nic=1e9)
    vol = AsyncVOL(init_time=0.0)
    n = 4 * MiB
    lib.prepopulate("/steps.h5",
                    {f"/Step#{s}/x": ((n,), FLOAT64) for s in range(4)})

    def program(ctx):
        f = yield from lib.open(ctx, "/steps.h5", vol)
        times = []
        for s in range(4):
            d = f.dataset(f"/Step#{s}/x")
            t0 = ctx.now
            yield from d.read(phase=s)
            times.append(ctx.now - t0)
            yield ctx.compute(5.0)  # plenty of time to prefetch the rest
        yield from f.close()
        return times

    times = job.run(program)[0]
    # first read blocking (PFS), later reads only pay a local copy
    assert times[0] > 5 * max(times[1:])
    recs = vol.log.select(op="read")
    assert recs[0].cache_hit is False
    assert all(r.cache_hit for r in recs[2:])


def test_prefetch_depth_limits_plans():
    pf = SequentialPrefetcher(depth=2)
    eng, cluster, job, lib = make_env()
    stored = lib.prepopulate(
        "/d.h5", {f"/Step#{s}/x": ((16,), FLOAT64) for s in range(6)}
    )
    from repro.hdf5 import Hyperslab
    plans = pf.plan(stored, "/Step#0/x", Hyperslab.whole((16,)))
    assert [p for p, _ in plans] == ["/Step#1/x", "/Step#2/x"]


def test_prefetch_disabled():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0, prefetcher=None)
    n = 4 * MiB
    lib.prepopulate("/nopf.h5",
                    {f"/Step#{s}/x": ((n,), FLOAT64) for s in range(3)})

    def program(ctx):
        f = yield from lib.open(ctx, "/nopf.h5", vol)
        for s in range(3):
            d = f.dataset(f"/Step#{s}/x")
            yield from d.read(phase=s)
            yield ctx.compute(5.0)
        yield from f.close()

    job.run(program)
    assert all(not r.cache_hit for r in vol.log.select(op="read"))


def test_inflight_prefetch_waited_not_duplicated():
    """Reading before the prefetch lands waits for it (partial overlap)."""
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)
    n = 32 * MiB  # 256 MiB reads: slow enough to still be in flight
    lib.prepopulate("/fast.h5",
                    {f"/Step#{s}/x": ((n,), FLOAT64) for s in range(3)})

    def program(ctx):
        f = yield from lib.open(ctx, "/fast.h5", vol)
        for s in range(3):
            d = f.dataset(f"/Step#{s}/x")
            yield from d.read(phase=s)
            # no compute: back-to-back reads race the prefetcher
        yield from f.close()

    job.run(program)
    recs = vol.log.select(op="read")
    assert len(recs) == 3
    # step1 read waited on the in-flight prefetch: not a clean cache hit
    assert recs[1].cache_hit is False


def test_sequential_prefetcher_unknown_dataset():
    pf = SequentialPrefetcher()
    eng, cluster, job, lib = make_env()
    stored = lib.prepopulate("/u.h5", {"/a": ((4,), FLOAT64)})
    from repro.hdf5 import Hyperslab
    assert pf.plan(stored, "/not-there", Hyperslab.whole((4,))) == []


def test_bb_staging_on_cori():
    """Burst-buffer staging (DataElevator pattern): the transactional
    copy goes over the NIC to the shared 1.7 TB/s tier, and the drain to
    the PFS happens server-side."""
    from repro.platform import cori_haswell
    eng = Engine()
    cluster = Cluster(eng, cori_haswell(), 1)
    job = MPIJob(cluster, 4, ranks_per_node=32)
    lib = H5Library(cluster)
    vol = AsyncVOL(init_time=0.0, staging="bb")

    def program(ctx):
        f = yield from lib.create(ctx, "/bb.h5", vol)
        d = f.create_dataset("/d", shape=(4 * 32 * MiB,), dtype=FLOAT64)
        t0 = ctx.now
        yield from d.write(slab_1d(ctx.rank, 32 * MiB), phase=0)
        blocked = ctx.now - t0
        yield from f.close()
        return blocked

    blocked = job.run(program)[0]
    # blocking portion = NIC-shared write to the burst buffer
    nbytes = 32 * MiB * 8
    nic_share = cluster.machine.node.nic_bandwidth / 4
    assert blocked == pytest.approx(nbytes / nic_share, rel=0.02)
    # data became durable on the PFS target
    stored = lib.files["/bb.h5"]
    assert stored.target.bytes_written >= 4 * nbytes


def test_bb_staging_requires_burst_buffer():
    eng, cluster, job, lib = make_env()  # testbed has no burst buffer
    vol = AsyncVOL(init_time=0.0, staging="bb")

    def program(ctx):
        f = yield from lib.create(ctx, "/nobb.h5", vol)
        d = f.create_dataset("/d", shape=(MiB,), dtype=FLOAT64)
        yield from d.write(phase=0)

    with pytest.raises(ValueError, match="no burst buffer"):
        job.run(program)


def test_multiple_background_streams_overlap_independent_ops():
    """With nworkers>1 (Argobots pool), queued operations drain in
    parallel; with one worker they serialize."""

    def drain_time(nworkers):
        eng, cluster, job, lib = make_env()
        vol = AsyncVOL(init_time=0.0, nworkers=nworkers)

        def program(ctx):
            f = yield from lib.create(ctx, "/mw.h5", vol)
            # many small ops: each is cap/latency-bound, far below the
            # NIC, so only parallel streams can overlap them
            for i in range(8):
                d = f.create_dataset(f"/d{i}", shape=(MiB // 8,),
                                     dtype=FLOAT64)
                yield from d.write(phase=i)
            t0 = ctx.now
            yield from f.flush()
            return ctx.now - t0

        return job.run(program)[0]

    serial = drain_time(1)
    parallel = drain_time(4)
    # small requests cannot saturate the NIC individually: four streams
    # overlap their latencies and capped transfers
    assert parallel < 0.6 * serial


def test_nworkers_validation():
    with pytest.raises(ValueError):
        AsyncVOL(nworkers=0)


def test_background_write_failure_surfaces_at_wait():
    """A failing background operation fails its event; the application
    sees the error at H5ESwait/H5Fclose (event-set error semantics),
    and the worker survives to execute later operations."""
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    original = cluster.pfs_write
    calls = {"n": 0}

    def flaky_pfs_write(node, target, nbytes, tag=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise IOError("OST failure")
        return original(node, target, nbytes, tag=tag)

    cluster.pfs_write = flaky_pfs_write

    def program(ctx):
        f = yield from lib.create(ctx, "/flaky.h5", vol)
        es = EventSet(ctx.engine)
        d1 = f.create_dataset("/d1", shape=(MiB,), dtype=FLOAT64)
        d2 = f.create_dataset("/d2", shape=(MiB,), dtype=FLOAT64)
        yield from d1.write(es=es, phase=0)  # this one will fail
        yield from d2.write(es=es, phase=0)  # this one still succeeds
        failed = None
        try:
            yield from es.wait()
        except IOError as err:
            failed = str(err)
        return failed

    failed = job.run(program)[0]
    assert failed == "OST failure"
    # the second op still completed despite the first one failing
    import math
    recs = vol.log.select(op="write")
    assert math.isfinite(recs[1].t_complete)


def test_event_set_never_waited_holds_only_unfinished_ops():
    """A set that is never waited on does not keep every finished
    write: adding ops drops the ones that completed successfully, while
    every failure stays for the set's error accounting, in insertion
    order.  The rank's own list of outstanding ops is swept the same
    way, so neither grows with the number of writes."""
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)
    n = 400
    original = cluster.pfs_write
    calls = {"n": 0}

    def flaky_pfs_write(node, target, nbytes, tag=None):
        calls["n"] += 1
        if calls["n"] % 97 == 5:
            raise IOError(f"OST failure {calls['n']}")
        return original(node, target, nbytes, tag=tag)

    cluster.pfs_write = flaky_pfs_write
    held = []

    def program(ctx):
        f = yield from lib.create(ctx, "/never_waited.h5", vol)
        es = EventSet(ctx.engine)
        d = f.create_dataset("/d", shape=(64 * 1024,), dtype=FLOAT64)
        state = vol._rank_state(ctx)
        for _ in range(n):
            yield from d.write(es=es, phase=0)
            held.append((
                sum(1 for _, ev in es._pending
                    if ev._processed and ev._exc is None),
                sum(1 for ev in state.outstanding
                    if ev._processed and ev._exc is None),
            ))
        # Let the worker finish everything; the set is still not waited.
        yield ctx.engine.timeout(1e3)
        yield from f.close()
        return es

    es = job.run(program)[0]
    assert es.op_counter == n
    # Finished successful ops never pile up beyond one sweep's batch.
    assert max(in_set for in_set, _ in held) < 64
    assert max(in_rank for _, in_rank in held) < 64
    failures = es.get_err_info()
    expected = [i - 1 for i in range(1, n + 1) if i % 97 == 5]
    assert [idx for idx, _ in failures] == expected
    assert [str(exc) for _, exc in failures] == [
        f"OST failure {i + 1}" for i in expected]
    assert es.n_pending == 0


def test_write_merging_coalesces_small_drains():
    """merge_writes=True: queued small writes drain as one big storage
    request — fewer per-request costs, same per-op completion records."""

    def drain_time(merge):
        eng, cluster, job, lib = make_env()
        vol = AsyncVOL(init_time=0.0, merge_writes=merge)

        def program(ctx):
            f = yield from lib.create(ctx, "/merge.h5", vol)
            for i in range(16):
                d = f.create_dataset(f"/d{i}", shape=(MiB // 16,),
                                     dtype=FLOAT64)  # 512 KiB each
                yield from d.write(phase=i)
            t0 = ctx.now
            yield from f.flush()
            return ctx.now - t0, vol

        drain, _ = job.run(program)[0]
        return drain, vol

    slow, vol_off = drain_time(False)
    fast, vol_on = drain_time(True)
    assert fast < 0.5 * slow  # 16 request latencies collapse to ~1
    # every op still individually durable with correct byte counts
    import math
    recs = vol_on.log.select(op="write")
    assert len(recs) == 16
    assert all(math.isfinite(r.t_complete) for r in recs)
    assert all(r.nbytes == (MiB // 16) * 8 for r in recs)


def test_write_merging_respects_threshold():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0, merge_writes=True,
                   merge_threshold=MiB)  # at most ~2 x 512 KiB per batch

    def program(ctx):
        f = yield from lib.create(ctx, "/thr.h5", vol)
        for i in range(8):
            d = f.create_dataset(f"/d{i}", shape=(MiB // 16,), dtype=FLOAT64)
            yield from d.write(phase=i)
        yield from f.close()

    job.run(program)
    import math
    assert all(math.isfinite(r.t_complete)
               for r in vol.log.select(op="write"))


def test_write_merging_skips_chunked_datasets():
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0, merge_writes=True)

    def program(ctx):
        f = yield from lib.create(ctx, "/ck.h5", vol)
        for i in range(4):
            d = f.create_dataset(f"/d{i}", shape=(MiB,), dtype=FLOAT64,
                                 chunks=(MiB // 4,))
            yield from d.write(phase=i)
        yield from f.close()

    job.run(program)
    import math
    assert all(math.isfinite(r.t_complete)
               for r in vol.log.select(op="write"))


def test_merge_threshold_validation():
    with pytest.raises(ValueError):
        AsyncVOL(merge_threshold=0.0)


def test_failed_background_write_releases_staging():
    """A failed drain must free its staging reservation, or writers
    blocked on backpressure would hang forever."""
    eng, cluster, job, lib = make_env()
    vol = AsyncVOL(init_time=0.0)

    def broken_pfs_write(node, target, nbytes, tag=None):
        raise IOError("backend down")

    cluster.pfs_write = broken_pfs_write

    def program(ctx):
        f = yield from lib.create(ctx, "/leak.h5", vol)
        es = EventSet(ctx.engine)
        d = f.create_dataset("/d", shape=(MiB,), dtype=FLOAT64)
        yield from d.write(es=es, phase=0)
        try:
            yield from es.wait()
        except IOError:
            pass
        return None

    job.run(program)
    for buf in vol._staging.values():
        assert buf.used == pytest.approx(0.0)
