"""EQSIM / SW4: seismic wave propagation (paper §IV-C, Fig. 6).

"EQSIM is an earthquake simulation framework using SW4, a 3D seismic
modeling code ... We ran the simulation at grid size 50 with
30000x30000x17000 dimensions and checkpoint every 100 time steps.  The
simulation size does not increase as we scale up the compute
resources" — strong scaling.  A grid spacing of 50 m over that domain
gives a 600×600×340 point mesh; checkpoints persist the displacement
wavefields at two time levels (3 components each → 6 doubles/point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.hdf5 import FLOAT64, EventSet, H5Library, Hyperslab
from repro.hdf5.vol import VOLConnector

__all__ = ["SW4Config", "sw4_program"]


@dataclass(frozen=True)
class SW4Config:
    """SW4/EQSIM run parameters (paper defaults)."""

    domain_m: tuple[float, float, float] = (30000.0, 30000.0, 17000.0)
    grid_spacing_m: float = 50.0
    doubles_per_point: int = 6  # u(t), u(t-dt): 3 components each
    checkpoint_int: int = 100
    n_checkpoints: int = 3
    seconds_per_step: float = 0.25
    path: str = "/sw4_ckpt.h5"

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.domain_m) or self.grid_spacing_m <= 0:
            raise ValueError(f"invalid SW4 geometry: {self}")
        if self.doubles_per_point < 1:
            raise ValueError("doubles_per_point must be >= 1")
        if self.checkpoint_int < 1 or self.n_checkpoints < 1:
            raise ValueError(f"invalid SW4 checkpoint config: {self}")
        if self.seconds_per_step < 0:
            raise ValueError("seconds_per_step must be non-negative")

    def grid_points(self) -> int:
        """Total mesh points at the configured spacing."""
        n = 1
        for d in self.domain_m:
            n *= int(d / self.grid_spacing_m)
        return n

    def checkpoint_bytes(self) -> int:
        """Bytes per checkpoint (fixed — strong scaling)."""
        return self.grid_points() * self.doubles_per_point * FLOAT64.itemsize

    def compute_phase_seconds(self) -> float:
        """Duration of one computation phase."""
        return self.checkpoint_int * self.seconds_per_step


def sw4_program(lib: H5Library, vol: VOLConnector, config: SW4Config):
    """Per-rank coroutine: 100 wave-propagation steps, then a checkpoint."""
    total_elems = config.grid_points() * config.doubles_per_point

    def program(ctx) -> Generator:
        f = yield from lib.create(ctx, config.path, vol)
        es = EventSet(ctx.engine, name=f"sw4.r{ctx.rank}")
        # 1-D slab decomposition of the flattened wavefield.
        base = total_elems // ctx.size
        start = ctx.rank * base
        count = base if ctx.rank < ctx.size - 1 else total_elems - start
        slab = Hyperslab(start=(start,), count=(count,))
        for ckpt in range(config.n_checkpoints):
            yield ctx.compute(config.compute_phase_seconds())
            yield from ctx.barrier()  # wave steps are bulk-synchronous
            dset = f.create_dataset(
                f"/ckpt{ckpt:04d}/u", shape=(total_elems,), dtype=FLOAT64
            )
            if count:
                yield from dset.write(slab, phase=ckpt, es=es)
        yield from es.wait()
        yield from f.close()
        yield from vol.finalize(ctx)
        return ctx.now

    return program
