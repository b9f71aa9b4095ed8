"""Tests for the application workloads: AMReX substrate, Nyx, Castro,
SW4/EQSIM and Cosmoflow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from repro.mpi import MPIJob
from repro.platform import Cluster
from repro.platform import testbed as make_testbed
from repro.hdf5 import AsyncVOL, H5Library, NativeVOL
from repro.workloads import (
    Box,
    BoxArray,
    CastroConfig,
    CosmoflowConfig,
    MultiFab,
    NyxConfig,
    ParticleContainer,
    SW4Config,
    castro_program,
    cosmoflow_program,
    nyx_program,
    sw4_program,
)

Mi = 1 << 20


def run_app(program_factory, config, vol, nprocs=4, prepopulate=None):
    eng = Engine()
    cluster = Cluster(eng, make_testbed(nodes=1, ranks_per_node=nprocs), 1)
    job = MPIJob(cluster, nprocs, ranks_per_node=nprocs)
    lib = H5Library(cluster)
    if prepopulate is not None:
        prepopulate(lib, nprocs)
    results = job.run(program_factory(lib, vol, config))
    return lib, vol, results


# ---------------------------------------------------------------------------
# AMReX substrate
# ---------------------------------------------------------------------------


def test_box_cells():
    b = Box(lo=(0, 0, 0), hi=(3, 3, 3))
    assert b.ncells == 64
    with pytest.raises(ValueError):
        Box(lo=(1, 0, 0), hi=(0, 0, 0))


def test_boxarray_covers_domain_exactly():
    ba = BoxArray((64, 64, 64), max_grid_size=32)
    assert len(ba) == 8
    assert ba.ncells == 64**3


def test_boxarray_handles_non_divisible_domain():
    ba = BoxArray((10, 10, 10), max_grid_size=4)
    assert ba.ncells == 1000  # partial boxes at the high ends
    assert len(ba) == 27


def test_boxarray_distribution_roundrobin():
    ba = BoxArray((64, 64, 64), max_grid_size=32)
    owned = ba.distribute(3)
    assert [len(o) for o in owned] == [3, 3, 2]
    assert sum(ba.cells_per_rank(3)) == ba.ncells
    prefix = ba.cells_prefix(3)
    assert prefix[0] == 0
    assert prefix[2] == ba.cells_per_rank(3)[0] + ba.cells_per_rank(3)[1]


def test_boxarray_more_ranks_than_boxes():
    ba = BoxArray((32, 32, 32), max_grid_size=32)  # single box
    cells = ba.cells_per_rank(4)
    assert cells == [32**3, 0, 0, 0]


def test_boxarray_validation():
    with pytest.raises(ValueError):
        BoxArray((0, 1, 1), 4)
    with pytest.raises(ValueError):
        BoxArray((4, 4, 4), 0)
    with pytest.raises(ValueError):
        BoxArray((4, 4, 4), 2).cells_per_rank(0)


def test_multifab_bytes():
    ba = BoxArray((16, 16, 16), max_grid_size=8)
    mf = MultiFab(ba, ncomp=6)
    assert mf.total_bytes == 16**3 * 6 * 8
    assert sum(mf.bytes_of_rank(r, 4) for r in range(4)) == mf.total_bytes
    with pytest.raises(ValueError):
        MultiFab(ba, ncomp=0)


def test_particle_container_bytes():
    ba = BoxArray((8, 8, 8), max_grid_size=8)
    pc = ParticleContainer(ba, particles_per_cell=2, reals_per_particle=4)
    assert pc.total_bytes == 8**3 * 2 * 4 * 8
    with pytest.raises(ValueError):
        ParticleContainer(ba, particles_per_cell=-1)


@given(
    nx=st.integers(min_value=1, max_value=40),
    ny=st.integers(min_value=1, max_value=40),
    nz=st.integers(min_value=1, max_value=40),
    mgs=st.integers(min_value=1, max_value=16),
    nranks=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_property_boxarray_partition(nx, ny, nz, mgs, nranks):
    """The decomposition partitions the domain: cells sum exactly and
    every prefix is consistent."""
    ba = BoxArray((nx, ny, nz), mgs)
    cells = ba.cells_per_rank(nranks)
    assert sum(cells) == nx * ny * nz
    prefix = ba.cells_prefix(nranks)
    for r in range(nranks):
        assert prefix[r] == sum(cells[:r])


# ---------------------------------------------------------------------------
# Nyx
# ---------------------------------------------------------------------------

SMALL_NYX = NyxConfig(dim=64, max_grid_size=16, ncomp=4, plot_int=5,
                      n_plotfiles=2, seconds_per_step=0.4)


def test_nyx_config_presets():
    small = NyxConfig.small()
    large = NyxConfig.large()
    assert (small.dim, small.plot_int) == (256, 20)
    assert (large.dim, large.plot_int) == (2048, 50)
    assert small.compute_phase_seconds() == pytest.approx(20 * 0.5)
    with pytest.raises(ValueError):
        NyxConfig(plot_int=0)


def test_nyx_plotfile_bytes_strong_scaling():
    cfg = SMALL_NYX
    assert cfg.plotfile_bytes() == 64**3 * 4 * 8
    # fixed total regardless of rank count (strong scaling)


def test_nyx_writes_plotfiles():
    vol = NativeVOL()
    lib, vol, results = run_app(nyx_program, SMALL_NYX, vol)
    stored = lib.files["/nyx_plt.h5"]
    assert set(stored.datasets) == {"/plt00005/state_lev0",
                                    "/plt00010/state_lev0"}
    total = sum(r.nbytes for r in vol.log.select(op="write"))
    assert total == pytest.approx(2 * SMALL_NYX.plotfile_bytes())


def test_nyx_async_hides_io():
    # Zero the connector constants (t_init, t_term): this test isolates
    # the I/O hiding itself, and rank programs now charge t_term at
    # finalize (Eq. 1), which would otherwise swamp the tiny margin.
    sync = NativeVOL()
    _, _, sync_results = run_app(nyx_program, SMALL_NYX, sync)
    async_vol = AsyncVOL(init_time=0.0, term_time=0.0)
    _, _, async_results = run_app(nyx_program, SMALL_NYX, async_vol)
    assert max(async_results) < max(sync_results)


# ---------------------------------------------------------------------------
# Castro
# ---------------------------------------------------------------------------

SMALL_CASTRO = CastroConfig(dim=32, max_grid_size=16, plot_int=2,
                            n_plotfiles=2, seconds_per_step=0.5)


def test_castro_config_paper_defaults():
    cfg = CastroConfig()
    assert cfg.dim == 128
    assert cfg.ncomp == 6
    assert cfg.particles_per_cell == 2
    with pytest.raises(ValueError):
        CastroConfig(n_multifabs=0)


def test_castro_plotfile_includes_particles():
    vol = NativeVOL()
    lib, vol, results = run_app(castro_program, SMALL_CASTRO, vol)
    stored = lib.files["/castro_plt.h5"]
    names = set(stored.datasets)
    assert "/plt00002/mf0" in names
    assert "/plt00002/mf1" in names
    assert "/plt00002/particles" in names
    total = sum(r.nbytes for r in vol.log.select(op="write"))
    assert total == pytest.approx(2 * SMALL_CASTRO.plotfile_bytes())


def test_castro_per_rank_bytes_shrink_with_scale():
    """Strong scaling: per-rank write sizes drop as ranks grow."""
    cfg = SMALL_CASTRO
    vol4 = NativeVOL()
    run_app(castro_program, cfg, vol4, nprocs=4)
    vol8 = NativeVOL()
    run_app(castro_program, cfg, vol8, nprocs=8)
    mean4 = sum(r.nbytes for r in vol4.log.records) / len(vol4.log.records)
    mean8 = sum(r.nbytes for r in vol8.log.records) / len(vol8.log.records)
    assert mean8 < mean4


def test_castro_builds_each_rank_span_once(monkeypatch):
    """A rank's span of a multifab is built once, not once per plotfile:
    a run holds at most one selection per rank and field, however many
    plotfiles it writes."""
    from dataclasses import replace

    from repro.hdf5 import Hyperslab
    from repro.workloads import amrex

    built = []

    class CountingSlab(Hyperslab):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(amrex, "Hyperslab", CountingSlab)
    cfg = replace(SMALL_CASTRO, n_plotfiles=4)
    nprocs = 4
    vol = NativeVOL()
    run_app(castro_program, cfg, vol, nprocs=nprocs)
    writes = len(vol.log.select(op="write"))
    assert writes == cfg.n_plotfiles * (cfg.n_multifabs + 1) * nprocs
    assert 0 < len(built) <= nprocs * (cfg.n_multifabs + 1)


# ---------------------------------------------------------------------------
# SW4 / EQSIM
# ---------------------------------------------------------------------------


def test_sw4_paper_geometry():
    cfg = SW4Config()
    assert cfg.grid_points() == 600 * 600 * 340
    assert cfg.checkpoint_bytes() == 600 * 600 * 340 * 6 * 8
    assert cfg.compute_phase_seconds() == pytest.approx(25.0)
    with pytest.raises(ValueError):
        SW4Config(grid_spacing_m=0.0)


SMALL_SW4 = SW4Config(domain_m=(800.0, 800.0, 400.0), grid_spacing_m=50.0,
                      checkpoint_int=4, n_checkpoints=2, seconds_per_step=0.5)


def test_sw4_checkpoints_written():
    vol = NativeVOL()
    lib, vol, results = run_app(sw4_program, SMALL_SW4, vol)
    stored = lib.files["/sw4_ckpt.h5"]
    assert set(stored.datasets) == {"/ckpt0000/u", "/ckpt0001/u"}
    for d in stored.datasets.values():
        assert d.coverage_1d() == pytest.approx(1.0)
    total = sum(r.nbytes for r in vol.log.select(op="write"))
    assert total == pytest.approx(2 * SMALL_SW4.checkpoint_bytes())


def test_sw4_remainder_goes_to_last_rank():
    """Uneven division: last rank takes the remainder, nothing lost."""
    cfg = SW4Config(domain_m=(350.0, 350.0, 350.0), grid_spacing_m=50.0,
                    checkpoint_int=1, n_checkpoints=1, seconds_per_step=0.1)
    vol = NativeVOL()
    lib, vol, results = run_app(sw4_program, cfg, vol, nprocs=4)
    # 7*7*7*6 = 2058 elements over 4 ranks: 514/514/514/516
    sizes = sorted(r.nbytes / 8 for r in vol.log.select(op="write"))
    assert sizes == [514.0, 514.0, 514.0, 516.0]


# ---------------------------------------------------------------------------
# Cosmoflow
# ---------------------------------------------------------------------------

SMALL_CF = CosmoflowConfig(voxels=32, channels=2, batch_size=2,
                           batches_per_rank=3, epochs=2,
                           seconds_per_batch=2.0)


def test_cosmoflow_paper_defaults():
    cfg = CosmoflowConfig()
    assert cfg.voxels == 128
    assert cfg.batch_size == 8
    assert cfg.epochs == 4
    assert cfg.sample_bytes() == 128**3 * 4 * 4
    with pytest.raises(ValueError):
        CosmoflowConfig(batch_size=0)


def test_cosmoflow_reads_batches():
    vol = NativeVOL()
    lib, vol, results = run_app(
        cosmoflow_program, SMALL_CF, vol,
        prepopulate=lambda lib, n: SMALL_CF.prepopulate(lib, n),
    )
    recs = vol.log.select(op="read")
    # ranks * epochs * batches * batch_size sample reads
    assert len(recs) == 4 * 2 * 3 * 2
    assert all(r.nbytes == SMALL_CF.sample_bytes() for r in recs)
    # one phase per (epoch, batch)
    assert vol.log.phases(op="read") == list(range(2 * 3))


def test_cosmoflow_async_loader_sustains_bandwidth():
    pre = lambda lib, n: SMALL_CF.prepopulate(lib, n)
    sync = NativeVOL()
    run_app(cosmoflow_program, SMALL_CF, sync, prepopulate=pre)
    async_vol = AsyncVOL(init_time=0.0)
    run_app(cosmoflow_program, SMALL_CF, async_vol, prepopulate=pre)
    # steady-state async batches beat sync batches
    assert (async_vol.log.peak_bandwidth(op="read")
            > sync.log.peak_bandwidth(op="read"))
    # second-epoch reads are cache hits again (prefetch re-armed)
    later = async_vol.log.select(op="read", phase=4)
    assert any(r.cache_hit for r in later)


def test_cosmoflow_shuffling_defeats_sequential_prefetch():
    """Shuffled access order makes the sequential prefetcher useless —
    the reason loaders shuffle shards, not samples within a stream."""
    from repro.hdf5 import AsyncVOL

    def run(shuffle_seed):
        cfg = CosmoflowConfig(voxels=32, channels=2, batch_size=2,
                              batches_per_rank=4, epochs=1,
                              seconds_per_batch=2.0,
                              shuffle_seed=shuffle_seed)
        vol = AsyncVOL(init_time=0.0)
        run_app(cosmoflow_program, cfg, vol, nprocs=2,
                prepopulate=lambda lib, n: cfg.prepopulate(lib, n))
        recs = vol.log.select(op="read")
        return sum(1 for r in recs if r.cache_hit), len(recs)

    ordered_hits, n = run(None)
    shuffled_hits, n2 = run(12345)
    assert n == n2
    assert ordered_hits > n // 2       # in-order: mostly cache hits
    assert shuffled_hits < ordered_hits  # shuffle erodes hit rate


def test_amr_hierarchy_levels_and_cells():
    from repro.workloads import AMRHierarchy
    h = AMRHierarchy((64, 64, 64), max_grid_size=16, levels=3,
                     ref_ratio=2, coverage=0.125)
    assert len(h) == 3
    # level 1 refines half the extent per side at ratio 2 -> same size
    assert h.levels[0].ncells == 64**3
    assert h.levels[1].ncells == 64**3  # (64*0.5)*2 per side
    assert h.total_cells == sum(ba.ncells for ba in h.levels)
    mfs = h.multifabs(ncomp=4)
    assert [m.name for m in mfs] == ["state_lev0", "state_lev1", "state_lev2"]
    import pytest as _p
    with _p.raises(ValueError):
        AMRHierarchy((8, 8, 8), 4, levels=0)
    with _p.raises(ValueError):
        AMRHierarchy((8, 8, 8), 4, coverage=0.0)
    with _p.raises(ValueError):
        AMRHierarchy((8, 8, 8), 4, ref_ratio=1)


def test_nyx_multilevel_plotfile():
    cfg = NyxConfig(dim=32, max_grid_size=8, ncomp=2, plot_int=2,
                    n_plotfiles=1, seconds_per_step=0.2,
                    amr_levels=2, amr_coverage=0.125)
    vol = NativeVOL()
    lib, vol, results = run_app(nyx_program, cfg, vol)
    stored = lib.files["/nyx_plt.h5"]
    assert set(stored.datasets) == {"/plt00002/state_lev0",
                                    "/plt00002/state_lev1"}
    # the refined level writes its own (refined sub-domain) volume
    total = sum(r.nbytes for r in vol.log.select(op="write"))
    assert total > cfg.plotfile_bytes()  # more than single-level output
