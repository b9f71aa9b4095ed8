"""VPIC-IO: particle-write kernel from the VPIC plasma-physics code.

Paper §IV-B: "The kernel emulates writing particle data, where each
particle has 8 properties and each MPI process writes (8x1024x1024)
particles (≈32 MB).  The number of particles increases with the number
of MPI processes (weak scaling).  Each property of the particles is
written to a 1-D HDF5 dataset. ... we set the periodicity of I/O phases
in VPIC-IO using a 30 second sleep in place for the computation."

(The "≈32 MB" is per property per rank: 8 Mi particles × 4 bytes; a
rank moves 8 × 32 MiB = 256 MiB per time step.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.hdf5 import FLOAT32, EventSet, H5Library, slab_1d
from repro.hdf5.vol import VOLConnector

__all__ = ["VPICConfig", "vpic_program"]

Mi = 1 << 20


@dataclass(frozen=True)
class VPICConfig:
    """VPIC-IO kernel parameters (paper defaults)."""

    particles_per_rank: int = 8 * Mi
    n_properties: int = 8
    steps: int = 5
    compute_seconds: float = 30.0
    path: str = "/vpic.h5"

    def __post_init__(self) -> None:
        if self.particles_per_rank < 1 or self.n_properties < 1 or self.steps < 1:
            raise ValueError(f"invalid VPIC config: {self}")
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")

    def bytes_per_rank_per_step(self) -> int:
        """Data one rank writes per time step (≈256 MiB by default)."""
        return self.particles_per_rank * self.n_properties * FLOAT32.itemsize

    def total_bytes(self, nranks: int) -> int:
        """Whole-run output volume (weak scaling: grows with ranks)."""
        return self.bytes_per_rank_per_step() * nranks * self.steps


def vpic_program(lib: H5Library, vol: VOLConnector, config: VPICConfig):
    """Per-rank coroutine: alternate computation and particle dumps."""

    def program(ctx) -> Generator:
        f = yield from lib.create(ctx, config.path, vol)
        es = EventSet(ctx.engine, name=f"vpic.r{ctx.rank}")
        n_global = config.particles_per_rank * ctx.size
        # One selection per rank: every dataset shares it (immutable).
        slab = slab_1d(ctx.rank, config.particles_per_rank)
        for step in range(config.steps):
            yield ctx.compute(config.compute_seconds)
            # Simulation time steps are bulk-synchronous (halo
            # exchanges); ranks enter the I/O phase together.
            yield from ctx.barrier()
            group = f.create_group(f"Step#{step}")
            for prop in range(config.n_properties):
                dset = group.create_dataset(
                    f"p{prop}", shape=(n_global,), dtype=FLOAT32
                )
                yield from dset.write(slab, phase=step, es=es)
        yield from es.wait()
        yield from f.close()
        yield from vol.finalize(ctx)
        return ctx.now

    return program
