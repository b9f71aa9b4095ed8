"""Cross-layer integration tests: end-to-end flows, determinism,
failure injection."""

import gc
import math
from collections import Counter

import pytest

from repro.sim import Engine
from repro.mpi import MPIJob
from repro.platform import Cluster, ContentionModel, summit
from repro.platform import testbed as make_testbed
from repro.hdf5 import FLOAT64, AsyncVOL, EventSet, H5Library, NativeVOL, slab_1d
from repro.harness import run_experiment
from repro.model import (
    Advisor,
    AdaptiveVOL,
    ComputeTimeModel,
    EpochCosts,
    IORateModel,
    MeasurementHistory,
    TransactOverheadModel,
    async_epoch_time,
    memcpy_microbench,
    sync_epoch_time,
)
from repro.workloads import (
    BDCATSConfig,
    VPICConfig,
    bdcats_program,
    prepopulate_vpic_file,
    vpic_program,
)

MiB = 1 << 20


# ---------------------------------------------------------------------------
# Memory: a run's operations are freed by refcount
# ---------------------------------------------------------------------------


def _cyclic_garbage(run) -> Counter:
    """Type-name counts of what the cyclic collector alone would free
    after ``run()`` (it saves everything instead of freeing it)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("mode,op", [("sync", "write"), ("async", "write"),
                                     ("async", "read")])
def test_run_leaves_no_per_operation_cycles(mode, op):
    # No transfer sits in a reference cycle, and each rank holds one
    # selection for all its datasets.  What the collector still finds
    # is the run's structural graph (links, nodes, flow classes, stored
    # datasets), which keeps the per-rank selections it records.
    nranks = 96
    vpic = VPICConfig(steps=1)
    bdcats = BDCATSConfig(steps=2)
    if op == "write":
        def run():
            run_experiment(summit(), "vpic-io", vpic_program, vpic,
                           mode=mode, nranks=nranks)
    else:
        def run():
            run_experiment(
                summit(), "bdcats", bdcats_program, bdcats, mode=mode,
                nranks=nranks, op="read",
                prepopulate=lambda lib, n: prepopulate_vpic_file(
                    lib, bdcats, n),
            )
    garbage = _cyclic_garbage(run)
    assert garbage["Flow"] == 0
    assert garbage["SimEvent"] == 0
    assert garbage["Hyperslab"] <= nranks


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_identical_runs_are_bit_identical():
    cfg = VPICConfig(particles_per_rank=MiB, steps=3, compute_seconds=2.0)

    def run():
        r = run_experiment(
            make_testbed(nodes=4, ranks_per_node=4), "vpic", vpic_program,
            cfg, mode="async", nranks=16, day=2,
            contention=ContentionModel(seed=9, median_load=0.3), op="write",
        )
        return (r.peak_bandwidth, r.mean_bandwidth, r.app_time, r.availability)

    assert run() == run()


def test_different_days_differ():
    cfg = VPICConfig(particles_per_rank=MiB, steps=2, compute_seconds=2.0)
    cm = ContentionModel(seed=9, median_load=1.0)

    def run(day):
        return run_experiment(
            make_testbed(nodes=8, ranks_per_node=4), "vpic", vpic_program,
            cfg, mode="sync", nranks=32, day=day, contention=cm, op="write",
        ).peak_bandwidth

    assert run(0) != run(1)


# ---------------------------------------------------------------------------
# End-to-end: measure -> fit -> predict -> decide
# ---------------------------------------------------------------------------


def test_full_model_workflow_predicts_simulation():
    """The paper's workflow: microbench + history regression predict the
    simulated epoch times well enough to rank the two modes."""
    machine = make_testbed(nodes=8, ranks_per_node=4)
    nranks = 32
    cfg = VPICConfig(particles_per_rank=2 * MiB, steps=3, compute_seconds=4.0)

    # 1. Calibrate the transactional-overhead model from microbenchmarks.
    samples = memcpy_microbench(machine)
    transact = TransactOverheadModel.from_samples(
        [s.nbytes for s in samples], [s.seconds for s in samples]
    )

    # 2. Measure both modes in simulation.
    results = {
        mode: run_experiment(machine, "vpic", vpic_program, cfg, mode=mode,
                             nranks=nranks, op="write")
        for mode in ("sync", "async")
    }

    # 3. Build the Eq. 2 costs from measured sync rate + model overhead.
    phase_bytes = results["sync"].total_bytes / results["sync"].n_phases
    t_io = phase_bytes / results["sync"].peak_bandwidth
    per_rank = phase_bytes / nranks
    # one staging copy per property dataset per epoch
    t_transact = 8 * transact.estimate(per_rank / 8)
    costs = EpochCosts(t_comp=cfg.compute_seconds, t_io=t_io,
                       t_transact=t_transact)

    # 4. The model must rank the modes the same way the simulation does.
    sim_sync_epoch = (results["sync"].app_time) / cfg.steps
    sim_async_epoch = (results["async"].app_time) / cfg.steps
    assert (sync_epoch_time(costs) > async_epoch_time(costs)) == (
        sim_sync_epoch > sim_async_epoch
    )
    # and predict the sync epoch within 20%
    assert sync_epoch_time(costs) == pytest.approx(sim_sync_epoch, rel=0.2)


def test_adaptive_vol_whole_campaign():
    """AdaptiveVOL over a full multi-file campaign stays consistent."""
    engine = Engine()
    cluster = Cluster(engine, make_testbed(nodes=2, ranks_per_node=4), 2)
    lib = H5Library(cluster)
    advisor = Advisor(
        ComputeTimeModel(),
        IORateModel(MeasurementHistory(), mode="sync", min_samples=3),
        TransactOverheadModel.from_memcpy_spec(cluster.machine.node.memcpy),
    )
    vol = AdaptiveVOL(NativeVOL(), AsyncVOL(init_time=0.0), advisor, nranks=8)

    def program(ctx):
        for file_idx in range(2):
            f = yield from lib.create(ctx, f"/campaign{file_idx}.h5", vol)
            for epoch in range(4):
                yield ctx.compute(3.0)
                d = f.create_dataset(f"/e{epoch}", shape=(8 * 2 * MiB,),
                                     dtype=FLOAT64)
                yield from d.write(slab_1d(ctx.rank, 2 * MiB),
                                   phase=file_idx * 4 + epoch)
            yield from f.close()
        return ctx.now

    job = MPIJob(cluster, 8)
    job.run(program)
    assert len(vol.log.records) == 8 * 8  # ranks x phases
    # every op became durable
    assert all(math.isfinite(r.t_complete) for r in vol.log.records)
    # both files fully written
    for file_idx in range(2):
        stored = lib.files[f"/campaign{file_idx}.h5"]
        for dset in stored.datasets.values():
            assert dset.coverage_1d() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------


def test_async_drain_survives_pfs_blackout():
    """A temporary full PFS outage stalls background writes; they resume
    when capacity returns and H5Fclose still completes correctly."""
    engine = Engine()
    cluster = Cluster(engine, make_testbed(nodes=1, ranks_per_node=4), 1)
    lib = H5Library(cluster)
    vol = AsyncVOL(init_time=0.0)

    def blackout():
        yield engine.timeout(0.01)
        cluster.pfs.backend.set_capacity(0.0)
        yield engine.timeout(5.0)
        cluster.pfs.backend.set_capacity(
            cluster.machine.filesystem.peak_bandwidth
        )

    engine.process(blackout())

    def program(ctx):
        f = yield from lib.create(ctx, "/blk.h5", vol)
        d = f.create_dataset("/d", shape=(32 * MiB,), dtype=FLOAT64)
        yield from d.write(phase=0)
        yield from f.close()
        return ctx.now

    job = MPIJob(cluster, 1, ranks_per_node=4)
    finished_at = job.run(program)[0]
    assert finished_at > 5.0  # had to wait out the blackout
    rec = vol.log.select(op="write")[0]
    assert math.isfinite(rec.t_complete)
    assert lib.files["/blk.h5"].datasets["/d"].coverage_1d() == 1.0


def test_sync_write_stalls_and_resumes_on_blackout():
    engine = Engine()
    cluster = Cluster(engine, make_testbed(nodes=1, ranks_per_node=4), 1)
    lib = H5Library(cluster)
    vol = NativeVOL()

    def blackout():
        yield engine.timeout(0.05)
        cluster.pfs.backend.set_capacity(0.0)
        yield engine.timeout(2.0)
        cluster.pfs.backend.set_capacity(
            cluster.machine.filesystem.peak_bandwidth
        )

    engine.process(blackout())

    def program(ctx):
        f = yield from lib.create(ctx, "/sb.h5", vol)
        d = f.create_dataset("/d", shape=(64 * MiB,), dtype=FLOAT64)
        t0 = ctx.now
        yield from d.write(phase=0)
        blocked = ctx.now - t0
        yield from f.close()
        return blocked

    job = MPIJob(cluster, 1, ranks_per_node=4)
    blocked = job.run(program)[0]
    assert blocked > 2.0  # the blackout is visible in the blocking time


def test_contention_process_varies_within_run():
    from repro.platform import ContentionProcess
    engine = Engine()
    cluster = Cluster(engine, make_testbed(nodes=1), 1)
    model = ContentionModel(seed=4, median_load=0.5)
    proc = ContentionProcess(model, cluster.pfs, day=0, interval=1.0,
                             duration=10.0)
    proc.start(engine)
    observed = []

    def probe():
        for _ in range(8):
            yield engine.timeout(1.01)
            observed.append(cluster.pfs.availability)

    engine.process(probe())
    engine.run(until=12.0)
    assert len(set(round(a, 6) for a in observed)) > 1


def test_rank_failure_mid_campaign_propagates():
    engine = Engine()
    cluster = Cluster(engine, make_testbed(nodes=1, ranks_per_node=4), 1)
    lib = H5Library(cluster)
    vol = AsyncVOL(init_time=0.0)

    def program(ctx):
        f = yield from lib.create(ctx, "/fail.h5", vol)
        d = f.create_dataset("/d", shape=(4 * MiB,), dtype=FLOAT64)
        yield from d.write(slab_1d(0, MiB), phase=0)
        if ctx.rank == 1:
            raise RuntimeError("node fault on rank 1")
        yield from f.close()

    job = MPIJob(cluster, 2, ranks_per_node=4)
    with pytest.raises(RuntimeError, match="node fault"):
        job.run(program)
