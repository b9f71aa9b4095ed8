"""Tests for the HDF5 object model: dataspaces, types, files, datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.mpi import MPIJob
from repro.platform import Cluster
from repro.platform import testbed as make_testbed
from repro.hdf5 import (
    FLOAT32,
    FLOAT64,
    Datatype,
    H5Library,
    Hyperslab,
    NativeVOL,
    slab_1d,
)

MiB = 1 << 20


def make_env(nodes=1, ranks_per_node=4, nprocs=2):
    eng = Engine()
    cluster = Cluster(eng, make_testbed(nodes=nodes, ranks_per_node=ranks_per_node),
                      nodes)
    job = MPIJob(cluster, nprocs, ranks_per_node=ranks_per_node)
    lib = H5Library(cluster)
    return eng, cluster, job, lib


# ---------------------------------------------------------------------------
# Datatypes
# ---------------------------------------------------------------------------


def test_builtin_datatypes():
    assert FLOAT32.itemsize == 4
    assert FLOAT64.itemsize == 8
    assert FLOAT32.np_dtype == np.float32


def test_datatype_validation():
    with pytest.raises(ValueError):
        Datatype("bad", 0)


# ---------------------------------------------------------------------------
# Hyperslabs
# ---------------------------------------------------------------------------


def test_hyperslab_npoints_and_nbytes():
    h = Hyperslab(start=(0, 0), count=(4, 8))
    assert h.npoints == 32
    assert h.nbytes(4) == 128


def test_hyperslab_fits_in():
    h = Hyperslab(start=(2,), count=(3,))
    assert h.fits_in((5,))
    assert not h.fits_in((4,))
    assert not h.fits_in((5, 5))
    # Every dimension is checked: one exact edge and one a point past it.
    box = Hyperslab(start=(0, 4), count=(2, 4))
    assert box.fits_in((2, 8))
    assert not box.fits_in((2, 7))
    assert not box.fits_in((1, 8))


def test_hyperslab_validation():
    with pytest.raises(ValueError):
        Hyperslab(start=(0,), count=(1, 2))
    with pytest.raises(ValueError):
        Hyperslab(start=(-1,), count=(1,))
    with pytest.raises(ValueError):
        Hyperslab(start=(), count=())


def test_hyperslab_overlap():
    a = Hyperslab(start=(0,), count=(10,))
    b = Hyperslab(start=(5,), count=(10,))
    c = Hyperslab(start=(10,), count=(5,))
    assert a.overlaps(b)
    assert not a.overlaps(c)
    with pytest.raises(ValueError):
        a.overlaps(Hyperslab(start=(0, 0), count=(1, 1)))


def test_slab_1d_decomposition():
    assert slab_1d(0, 100) == Hyperslab(start=(0,), count=(100,))
    assert slab_1d(3, 100) == Hyperslab(start=(300,), count=(100,))
    with pytest.raises(ValueError):
        slab_1d(-1, 10)


def test_hyperslab_whole():
    h = Hyperslab.whole((3, 4, 5))
    assert h.start == (0, 0, 0)
    assert h.count == (3, 4, 5)
    assert h.npoints == 60


@given(
    starts=st.lists(st.integers(0, 50), min_size=1, max_size=4),
    counts=st.lists(st.integers(0, 50), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_property_hyperslab_npoints(starts, counts):
    n = min(len(starts), len(counts))
    h = Hyperslab(start=tuple(starts[:n]), count=tuple(counts[:n]))
    expected = 1
    for c in counts[:n]:
        expected *= c
    assert h.npoints == expected
    assert h.nbytes(8) == expected * 8


# ---------------------------------------------------------------------------
# File / dataset lifecycle through the native VOL
# ---------------------------------------------------------------------------


def test_create_write_read_roundtrip():
    eng, cluster, job, lib = make_env(nprocs=2)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/round.h5", vol)
        dset = f.create_dataset("/x", shape=(200,), dtype=FLOAT64)
        sel = slab_1d(ctx.rank, 100)
        data = np.full(100, float(ctx.rank) + 1.0)
        yield from dset.write(sel, data=data, phase=0)
        yield from ctx.barrier()
        got = yield from dset.read(sel, phase=1)
        yield from f.close()
        return got

    results = job.run(program)
    assert np.allclose(results[0], 1.0)
    assert np.allclose(results[1], 2.0)


def test_cross_rank_visibility_after_barrier():
    eng, cluster, job, lib = make_env(nprocs=2)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/shared.h5", vol)
        dset = f.create_dataset("/x", shape=(20,), dtype=FLOAT64)
        yield from dset.write(slab_1d(ctx.rank, 10),
                              data=np.arange(10) + 100.0 * ctx.rank)
        yield from ctx.barrier()
        other = (ctx.rank + 1) % 2
        got = yield from dset.read(slab_1d(other, 10))
        yield from f.close()
        return got

    r0, r1 = job.run(program)
    assert np.allclose(r0, np.arange(10) + 100.0)  # rank 0 reads rank 1's slab
    assert np.allclose(r1, np.arange(10))


def test_dataset_creation_idempotent_across_ranks():
    eng, cluster, job, lib = make_env(nprocs=4, ranks_per_node=4)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/idem.h5", vol)
        dset = f.create_dataset("/g/d", shape=(40,), dtype=FLOAT32)
        yield from f.close()
        return dset.stored

    stores = job.run(program)
    assert all(s is stores[0] for s in stores)


def test_dataset_shape_conflict_raises():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/conflict.h5", vol)
        f.create_dataset("/d", shape=(10,), dtype=FLOAT32)
        f.create_dataset("/d", shape=(20,), dtype=FLOAT32)
        yield from f.close()

    with pytest.raises(ValueError, match="exists with shape"):
        job.run(program)


def test_open_missing_file_raises():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.open(ctx, "/missing.h5", vol)
        yield from f.close()

    with pytest.raises(FileNotFoundError):
        job.run(program)


def test_selection_outside_dataset_raises():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/oob.h5", vol)
        d = f.create_dataset("/d", shape=(10,), dtype=FLOAT32)
        yield from d.write(Hyperslab(start=(5,), count=(10,)))

    with pytest.raises(ValueError, match="outside dataset"):
        job.run(program)


def test_closed_handle_rejected():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/closed.h5", vol)
        yield from f.close()
        # repro-check: disable=RC403 (deliberate: closed-handle rejection under test)
        f.create_dataset("/late", shape=(1,), dtype=FLOAT32)

    with pytest.raises(RuntimeError, match="already closed"):
        job.run(program)


def test_groups_and_path_normalization():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/grp.h5", vol)
        g = f.create_group("Step#0")
        d = g.create_dataset("x", shape=(4,), dtype=FLOAT32)
        same = f.dataset("/Step#0/x")
        yield from f.close()
        return d.stored is same.stored, f.stored.groups

    ok, groups = job.run(program)[0]
    assert ok
    assert "/Step#0" in groups


def test_large_dataset_not_materialized():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/big.h5", vol)
        d = f.create_dataset("/d", shape=(64 * MiB,), dtype=FLOAT64)  # 512 MiB
        yield from d.write(slab_1d(0, 1024))
        got = yield from d.read(slab_1d(0, 1024))
        yield from f.close()
        return d.stored.data, got

    data, got = job.run(program)[0]
    assert data is None
    assert got is None


def test_coverage_tracking():
    eng, cluster, job, lib = make_env(nprocs=2)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/cov.h5", vol)
        d = f.create_dataset("/d", shape=(100,), dtype=FLOAT32)
        yield from d.write(slab_1d(ctx.rank, 40))  # covers [0,80)
        yield from ctx.barrier()
        yield from f.close()
        return d.stored.coverage_1d()

    coverage = job.run(program)[0]
    assert coverage == pytest.approx(0.8)


def test_prepopulate_marks_datasets_written():
    eng, cluster, job, lib = make_env(nprocs=1)
    stored = lib.prepopulate(
        "/pre.h5", {"/Step#0/x": ((100,), FLOAT32), "/Step#1/x": ((100,), FLOAT32)}
    )
    assert lib.exists("/pre.h5")
    assert stored.datasets["/Step#0/x"].coverage_1d() == 1.0
    assert stored.dataset_order == ["/Step#0/x", "/Step#1/x"]


def test_sync_write_blocks_for_pfs_time():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()
    nbytes = 64 * MiB * 8  # 512 MiB of float64

    def program(ctx):
        f = yield from lib.create(ctx, "/timed.h5", vol)
        d = f.create_dataset("/d", shape=(64 * MiB,), dtype=FLOAT64)
        t0 = ctx.now
        yield from d.write()
        dt = ctx.now - t0
        yield from f.close()
        return dt

    dt = job.run(program)[0]
    machine = cluster.machine
    eff = nbytes / (nbytes + machine.filesystem.efficiency_s0)
    expected = nbytes / (machine.node.nic_bandwidth * eff)
    expected += machine.filesystem.metadata_latency
    assert dt == pytest.approx(expected, rel=1e-3)


def test_contains_and_groups_listing():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/nav.h5", vol)
        f.create_group("Step#0")
        f.create_dataset("/Step#0/x", shape=(4,), dtype=FLOAT32)
        result = (
            "/Step#0" in f,
            "/Step#0/x" in f,
            "Step#0/x" in f,       # normalized
            "/nope" in f,
            f.groups(),
        )
        yield from f.close()
        return result

    has_group, has_dset, has_norm, has_missing, groups = job.run(program)[0]
    assert has_group and has_dset and has_norm
    assert not has_missing
    assert groups == ["/", "/Step#0"]


def test_require_dataset_idempotent_and_validating():
    eng, cluster, job, lib = make_env(nprocs=1)
    vol = NativeVOL()

    def program(ctx):
        f = yield from lib.create(ctx, "/req.h5", vol)
        d1 = f.require_dataset("/d", shape=(10,), dtype=FLOAT32)
        d2 = f.require_dataset("/d", shape=(10,), dtype=FLOAT32)
        ok = d1.stored is d2.stored
        try:
            f.require_dataset("/d", shape=(20,), dtype=FLOAT32)
            conflict = False
        except ValueError:
            conflict = True
        yield from f.close()
        return ok, conflict

    ok, conflict = job.run(program)[0]
    assert ok and conflict
