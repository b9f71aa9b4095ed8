"""BD-CATS-IO: particle-read kernel of the BD-CATS DBSCAN clustering.

Paper §IV-B: "particle data written by plasma physics and astrophysics
are read from HDF5 files.  In our tests, we read the data written by
the VPIC-IO kernel.  This I/O kernel reads all the time steps' data,
and the clustering computation was replaced with 30 seconds of sleep
time."  §V-A.2: with the async VOL, "prefetching is triggered after
reading data for the first time step.  The first read is a blocking
operation."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.hdf5 import FLOAT32, H5Library, slab_1d
from repro.hdf5.vol import VOLConnector
from repro.workloads.vpic_io import VPICConfig

__all__ = ["BDCATSConfig", "bdcats_program", "prepopulate_vpic_file"]

Mi = 1 << 20


@dataclass(frozen=True)
class BDCATSConfig:
    """BD-CATS-IO kernel parameters (mirrors the VPIC file layout)."""

    particles_per_rank: int = 8 * Mi
    n_properties: int = 8
    steps: int = 5
    compute_seconds: float = 30.0
    path: str = "/vpic.h5"

    def __post_init__(self) -> None:
        if self.particles_per_rank < 1 or self.n_properties < 1 or self.steps < 1:
            raise ValueError(f"invalid BD-CATS config: {self}")
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")

    @classmethod
    def matching(cls, vpic: VPICConfig, compute_seconds: float = 30.0
                 ) -> "BDCATSConfig":
        """Config that reads exactly what a VPIC-IO run wrote."""
        return cls(
            particles_per_rank=vpic.particles_per_rank,
            n_properties=vpic.n_properties,
            steps=vpic.steps,
            compute_seconds=compute_seconds,
            path=vpic.path,
        )


def prepopulate_vpic_file(lib: H5Library, config: BDCATSConfig, nranks: int
                          ) -> None:
    """Materialize the VPIC output file's metadata without simulating
    the write campaign (stands in for a previous job's output)."""
    from repro.hdf5 import FLOAT32 as F32
    n_global = config.particles_per_rank * nranks
    datasets = {
        f"/Step#{step}/p{prop}": ((n_global,), F32)
        for step in range(config.steps)
        for prop in range(config.n_properties)
    }
    lib.prepopulate(config.path, datasets)


def bdcats_program(lib: H5Library, vol: VOLConnector, config: BDCATSConfig,
                   cache=None, prefetch: bool = False):
    """Per-rank coroutine: read every time step, 30 s of clustering between.

    With a :class:`~repro.cache.CacheSubsystem` and ``prefetch=True``,
    each rank *declares* time step N+1's reads to the cache planner just
    before step N's clustering window, deadline-stamped at the moment
    the reader will come back for them (now + compute time).  The
    planner's deadline-ordered copies then run under compute — the
    read-side mirror of the paper's write-behind staging (§V-A.2's
    "prefetching is triggered after reading data for the first time
    step" generalized to an explicit declared-read interface).
    """
    use_prefetch = prefetch and cache is not None and cache.prefetch

    def declare_step(ctx, f, step: int) -> int:
        """Register one future step's reads; returns submissions made."""
        from repro.cache import CacheRequest, cache_key

        slab = slab_1d(ctx.rank, config.particles_per_rank)
        deadline = ctx.now + config.compute_seconds
        submitted = 0
        for prop in range(config.n_properties):
            path = f"/Step#{step}/p{prop}"
            stored = f.stored.datasets[path]
            submitted += cache.planner.submit(CacheRequest(
                tenant=f"bdcats[{ctx.rank}]",
                key=cache_key(ctx.rank, path, slab),
                nbytes=float(slab.nbytes(stored.dtype.itemsize)),
                tier_src="pfs", tier_dst="dram", deadline=deadline,
                node_index=ctx.node.index, target=f.stored.target,
            ))
        return submitted

    def program(ctx) -> Generator:
        f = yield from lib.open(ctx, config.path, vol)
        # One selection per rank: every dataset shares it (immutable).
        slab = slab_1d(ctx.rank, config.particles_per_rank)
        for step in range(config.steps):
            yield from ctx.barrier()  # clustering rounds are collective
            for prop in range(config.n_properties):
                dset = f.dataset(f"/Step#{step}/p{prop}")
                yield from dset.read(slab, phase=step)
            if use_prefetch and step + 1 < config.steps:
                declare_step(ctx, f, step + 1)
            yield ctx.compute(config.compute_seconds)
        yield from f.close()
        yield from vol.finalize(ctx)
        return ctx.now

    return program
