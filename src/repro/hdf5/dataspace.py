"""Dataspaces and hyperslab selections.

A :class:`Hyperslab` is the contiguous-block special case of HDF5's
hyperslab selection (start/count per dimension, stride and block of 1),
which covers every access pattern in the paper's workloads: 1-D
per-rank particle slabs (VPIC/BD-CATS), 3-D box regions (AMReX plot
files, SW4 checkpoints) and whole-sample reads (Cosmoflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["Hyperslab", "slab_1d"]


@dataclass(frozen=True)
class Hyperslab:
    """A rectangular region ``[start, start+count)`` in each dimension."""

    start: Tuple[int, ...]
    count: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", tuple(int(s) for s in self.start))
        object.__setattr__(self, "count", tuple(int(c) for c in self.count))
        if len(self.start) != len(self.count):
            raise ValueError(
                f"rank mismatch: start {self.start} vs count {self.count}"
            )
        if not self.start:
            raise ValueError("hyperslab needs at least one dimension")
        if any(s < 0 for s in self.start) or any(c < 0 for c in self.count):
            raise ValueError(f"negative start/count: {self.start}, {self.count}")

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.start)

    @property
    def npoints(self) -> int:
        """Number of selected elements."""
        n = 1
        for c in self.count:
            n *= c
        return n

    def nbytes(self, itemsize: int) -> int:
        """Selected bytes for elements of ``itemsize``."""
        return self.npoints * itemsize

    def fits_in(self, shape: Sequence[int]) -> bool:
        """Whether the slab lies inside a dataset of ``shape``."""
        if len(shape) != self.ndim:
            return False
        # A plain loop: this runs on every dataset read and write, and a
        # generator costs more than the one or three comparisons it makes.
        for s, c, dim in zip(self.start, self.count, shape):
            if s + c > dim:
                return False
        return True

    def as_slices(self) -> Tuple[slice, ...]:
        """NumPy basic-indexing slices for backing-array access."""
        return tuple(slice(s, s + c) for s, c in zip(self.start, self.count))

    def overlaps(self, other: "Hyperslab") -> bool:
        """Whether two slabs of the same rank intersect."""
        if other.ndim != self.ndim:
            raise ValueError("cannot compare slabs of different rank")
        for s1, c1, s2, c2 in zip(self.start, self.count, other.start, other.count):
            if s1 + c1 <= s2 or s2 + c2 <= s1:
                return False
        return True

    @classmethod
    def whole(cls, shape: Sequence[int]) -> "Hyperslab":
        """Select an entire dataset of ``shape``."""
        return cls(start=tuple(0 for _ in shape), count=tuple(shape))


def slab_1d(rank: int, per_rank: int) -> Hyperslab:
    """The standard 1-D block decomposition: rank ``r`` owns
    ``[r*per_rank, (r+1)*per_rank)`` — how VPIC-IO lays out particles."""
    if rank < 0 or per_rank < 0:
        raise ValueError(f"invalid rank/per_rank: {rank}/{per_rank}")
    return Hyperslab(start=(rank * per_rank,), count=(per_rank,))
