"""Checkpoint/restart: the canonical consumer of checkpoint I/O.

The paper's workloads all *produce* checkpoints ("large-scale
simulations which commonly use a checkpoint-based approach", §IV-B);
this module closes the loop: a job that begins by reading the newest
checkpoint back (restart), then resumes the compute/checkpoint cycle.
Restart reads are a synchronous, latency-critical burst at job start —
prefetching cannot help the first read (§V-A.2), so the restart phase
isolates the pure synchronous read path, while the subsequent
checkpoint phases benefit from asynchronous writes as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.hdf5 import FLOAT64, EventSet, H5Library, Hyperslab, slab_1d
from repro.hdf5.vol import VOLConnector

__all__ = ["RestartConfig", "restart_program"]

Mi = 1 << 20


@dataclass(frozen=True)
class RestartConfig:
    """A restartable iterative application's parameters."""

    elems_per_rank: int = 4 * Mi  # 32 MiB of state per rank
    checkpoints: int = 3  # checkpoints to write after restarting
    compute_seconds: float = 10.0
    path: str = "/restart.h5"
    #: Checkpoint index to restart from (None = fresh start).
    restart_from: Optional[int] = None

    def __post_init__(self) -> None:
        if self.elems_per_rank < 1 or self.checkpoints < 1:
            raise ValueError(f"invalid restart config: {self}")
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")
        if self.restart_from is not None and self.restart_from < 0:
            raise ValueError("restart_from must be non-negative")

    def checkpoint_name(self, index: int) -> str:
        """Dataset path of checkpoint ``index``."""
        return f"/ckpt{index:05d}/state"


def restart_program(lib: H5Library, vol: VOLConnector, config: RestartConfig):
    """Per-rank coroutine: (restart-read) → [compute → checkpoint]*.

    Returns ``(restart_seconds, finish_time)`` per rank so harnesses can
    separate the restart cost from steady-state progress.
    """

    def program(ctx) -> Generator:
        first_new = 0
        restart_seconds = 0.0
        # One selection per rank: every checkpoint shares it (immutable).
        slab = slab_1d(ctx.rank, config.elems_per_rank)
        if config.restart_from is None:
            f = yield from lib.create(ctx, config.path, vol)
        else:
            f = yield from lib.open(ctx, config.path, vol)
            name = config.checkpoint_name(config.restart_from)
            dset = f.dataset(name)
            t0 = ctx.now
            yield from dset.read(slab, phase=-1)
            yield from ctx.barrier()  # everyone restored before stepping
            restart_seconds = ctx.now - t0
            first_new = config.restart_from + 1

        es = EventSet(ctx.engine, name=f"restart.r{ctx.rank}")
        n_global = config.elems_per_rank * ctx.size
        for k in range(first_new, first_new + config.checkpoints):
            yield ctx.compute(config.compute_seconds)
            yield from ctx.barrier()
            dset = f.create_dataset(config.checkpoint_name(k),
                                    shape=(n_global,), dtype=FLOAT64)
            yield from dset.write(slab, phase=k, es=es)
        yield from es.wait()
        yield from f.close()
        yield from vol.finalize(ctx)
        return (restart_seconds, ctx.now)

    return program
