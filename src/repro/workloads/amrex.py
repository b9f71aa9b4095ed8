"""Mini AMReX substrate: block-structured meshes, multifabs, particles.

Nyx and Castro "use the AMReX framework for computation and performing
I/O" (§IV-C).  This module provides the minimal AMReX machinery their
I/O paths need:

- :class:`Box` — a rectangular index-space region,
- :class:`BoxArray` — a domain chopped into grids of at most
  ``max_grid_size`` cells per side, with round-robin rank distribution,
- :class:`MultiFab` — multi-component cell data over a BoxArray,
- :class:`ParticleContainer` — particles-per-cell data (Castro),
- :func:`write_plotfile` — the HDF5 plotfile dump: one flattened 1-D
  dataset per multifab at each plot step, each rank writing the
  contiguous span holding its boxes' cells (the AMReX HDF5 writer's
  layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.hdf5 import FLOAT64, EventSet, Hyperslab
from repro.hdf5.objects import File

__all__ = [
    "AMRHierarchy",
    "Box",
    "BoxArray",
    "MultiFab",
    "ParticleContainer",
    "write_plotfile",
]


@dataclass(frozen=True)
class Box:
    """Cell-centered index-space box ``[lo, hi]`` (inclusive)."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo={self.lo} hi={self.hi}")

    @property
    def ncells(self) -> int:
        """Number of cells in the box."""
        n = 1
        for l, h in zip(self.lo, self.hi):
            n *= h - l + 1
        return n


class BoxArray:
    """A 3-D domain decomposed into grids of ``max_grid_size`` per side."""

    def __init__(self, domain: tuple[int, int, int], max_grid_size: int):
        if any(d < 1 for d in domain):
            raise ValueError(f"invalid domain {domain}")
        if max_grid_size < 1:
            raise ValueError(f"invalid max_grid_size {max_grid_size}")
        self.domain = tuple(int(d) for d in domain)
        self.max_grid_size = max_grid_size
        self._cells_cache: dict[int, list[int]] = {}
        self._prefix_cache: dict[int, list[int]] = {}
        self._span_cache: dict[tuple[int, int], dict[int, Optional[Hyperslab]]] = {}
        self._ncells: Optional[int] = None
        self.boxes: list[Box] = []
        nx, ny, nz = self.domain
        m = max_grid_size
        for z0 in range(0, nz, m):
            for y0 in range(0, ny, m):
                for x0 in range(0, nx, m):
                    self.boxes.append(Box(
                        lo=(x0, y0, z0),
                        hi=(min(x0 + m, nx) - 1, min(y0 + m, ny) - 1,
                            min(z0 + m, nz) - 1),
                    ))

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def ncells(self) -> int:
        """Total cells over all boxes (== domain volume)."""
        if self._ncells is None:
            self._ncells = sum(b.ncells for b in self.boxes)
        return self._ncells

    def distribute(self, nranks: int) -> list[list[int]]:
        """Round-robin box→rank map: list of box indices per rank."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        owned: list[list[int]] = [[] for _ in range(nranks)]
        for i in range(len(self.boxes)):
            owned[i % nranks].append(i)
        return owned

    def cells_per_rank(self, nranks: int) -> list[int]:
        """Cells owned by each rank (round-robin), cached per ``nranks``."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        cached = self._cells_cache.get(nranks)
        if cached is None:
            cached = [0] * nranks
            for i, box in enumerate(self.boxes):
                cached[i % nranks] += box.ncells
            self._cells_cache[nranks] = cached
        return cached

    def cells_of_rank(self, rank: int, nranks: int) -> int:
        """Cells owned by ``rank`` under round-robin distribution."""
        return self.cells_per_rank(nranks)[rank]

    def cells_prefix(self, nranks: int) -> list[int]:
        """Exclusive prefix sums of :meth:`cells_per_rank` (cached)."""
        cached = self._prefix_cache.get(nranks)
        if cached is None:
            cells = self.cells_per_rank(nranks)
            cached = [0] * nranks
            for r in range(1, nranks):
                cached[r] = cached[r - 1] + cells[r - 1]
            self._prefix_cache[nranks] = cached
        return cached

    def span(self, rank: int, nranks: int, per_cell: int) -> Optional[Hyperslab]:
        """``rank``'s contiguous 1-D span of a flattened field with
        ``per_cell`` values per cell, or None if it owns no cells.

        Built once per ``(rank, nranks, per_cell)`` and shared by every
        plotfile (a selection is immutable), so a run holds one span
        per rank and field layout instead of one per write.
        """
        spans = self._span_cache.get((nranks, per_cell))
        if spans is None:
            spans = self._span_cache[nranks, per_cell] = {}
        if rank not in spans:
            count = self.cells_of_rank(rank, nranks) * per_cell
            spans[rank] = None if not count else _rank_span(
                self.cells_prefix(nranks)[rank] * per_cell, count)
        return spans[rank]


class MultiFab:
    """Multi-component double-precision data over a BoxArray."""

    def __init__(self, boxarray: BoxArray, ncomp: int, name: str = "mf"):
        if ncomp < 1:
            raise ValueError(f"ncomp must be >= 1, got {ncomp}")
        self.boxarray = boxarray
        self.ncomp = ncomp
        self.name = name

    def bytes_of_rank(self, rank: int, nranks: int) -> int:
        """Plotfile bytes contributed by ``rank``."""
        return (self.boxarray.cells_of_rank(rank, nranks)
                * self.ncomp * FLOAT64.itemsize)

    @property
    def total_bytes(self) -> int:
        """Whole multifab size on disk."""
        return self.boxarray.ncells * self.ncomp * FLOAT64.itemsize


class ParticleContainer:
    """Particles at fixed density over a BoxArray (Castro: 2/cell)."""

    def __init__(self, boxarray: BoxArray, particles_per_cell: int,
                 reals_per_particle: int = 4, name: str = "particles"):
        if particles_per_cell < 0 or reals_per_particle < 1:
            raise ValueError("invalid particle container parameters")
        self.boxarray = boxarray
        self.particles_per_cell = particles_per_cell
        self.reals_per_particle = reals_per_particle
        self.name = name

    def bytes_of_rank(self, rank: int, nranks: int) -> int:
        """Checkpoint bytes contributed by ``rank``."""
        return (self.boxarray.cells_of_rank(rank, nranks)
                * self.particles_per_cell * self.reals_per_particle
                * FLOAT64.itemsize)

    @property
    def total_bytes(self) -> int:
        """Whole container size on disk."""
        return (self.boxarray.ncells * self.particles_per_cell
                * self.reals_per_particle * FLOAT64.itemsize)


class AMRHierarchy:
    """A block-structured AMR level hierarchy.

    Level 0 covers the whole domain; each finer level refines a
    ``coverage`` fraction of the previous one by ``ref_ratio`` per side
    (AMReX defaults to 2).  Cell counts therefore grow by
    ``coverage * ref_ratio**3`` per level — the reason AMR plotfiles are
    often dominated by their finest levels.
    """

    def __init__(self, domain: tuple[int, int, int], max_grid_size: int,
                 levels: int = 1, ref_ratio: int = 2,
                 coverage: float = 0.25):
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if ref_ratio < 2:
            raise ValueError(f"ref_ratio must be >= 2, got {ref_ratio}")
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0,1], got {coverage}")
        self.ref_ratio = ref_ratio
        self.coverage = coverage
        self.levels: list[BoxArray] = []
        extent = tuple(domain)
        for level in range(levels):
            if level > 0:
                # refine a sub-box covering ``coverage`` of the volume
                frac = coverage ** (1.0 / 3.0)
                extent = tuple(
                    max(1, int(d * frac)) * ref_ratio for d in extent
                )
            self.levels.append(BoxArray(extent, max_grid_size))

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def total_cells(self) -> int:
        """Cells across all levels."""
        return sum(ba.ncells for ba in self.levels)

    def multifabs(self, ncomp: int, name: str = "state") -> list[MultiFab]:
        """One multifab per level (plotfiles store levels separately)."""
        return [
            MultiFab(ba, ncomp=ncomp, name=f"{name}_lev{i}")
            for i, ba in enumerate(self.levels)
        ]


def _rank_span(start: int, count: int) -> Hyperslab:
    """Contiguous 1-D span ``[start, start+count)``."""
    return Hyperslab(start=(start,), count=(count,))


def write_plotfile(ctx, f: File, step: int, multifabs: Sequence[MultiFab],
                   particles: Optional[ParticleContainer] = None,
                   es: Optional[EventSet] = None, phase: Optional[int] = None,
                   from_gpu: bool = False, pinned: bool = True) -> Generator:
    """Dump one plotfile: a dataset per multifab (+ particles) under
    ``/plt{step}``, each rank writing its contiguous cell span.

    ``from_gpu`` adds the device→host transfer to each write (GPU-
    resident state, e.g. Nyx's GPU configuration)."""
    nranks = ctx.size
    group = f.create_group(f"plt{step:05d}")
    phase = step if phase is None else phase
    for mf in multifabs:
        ba = mf.boxarray
        span = ba.span(ctx.rank, nranks, mf.ncomp)
        dset = group.create_dataset(mf.name, shape=(ba.ncells * mf.ncomp,),
                                    dtype=FLOAT64)
        if span is not None:
            yield from dset.write(span, phase=phase,
                                  es=es, from_gpu=from_gpu, pinned=pinned)
    if particles is not None and particles.particles_per_cell > 0:
        ba = particles.boxarray
        per_cell = particles.particles_per_cell * particles.reals_per_particle
        span = ba.span(ctx.rank, nranks, per_cell)
        dset = group.create_dataset(particles.name,
                                    shape=(ba.ncells * per_cell,),
                                    dtype=FLOAT64)
        if span is not None:
            yield from dset.write(span, phase=phase,
                                  es=es, from_gpu=from_gpu, pinned=pinned)
