"""HDF5 object model: library, files, groups, datasets.

Objects come in two flavours:

- **Stored** objects (:class:`StoredFile`, :class:`StoredGroup`,
  :class:`StoredDataset`) live in the :class:`H5Library` namespace and
  are shared by every rank — they are "the file" as it exists on the
  parallel file system, including an optional backing ``ndarray`` for
  small datasets so tests can verify real round trips.
- **Handles** (:class:`File`, :class:`Group`, :class:`Dataset`) are
  per-rank views bound to a :class:`~repro.mpi.comm.RankContext` and a
  VOL connector; all their I/O methods are generators to ``yield from``
  inside rank programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.check import hooks as _check_hooks
from repro.hdf5.attributes import AttributeSet
from repro.hdf5.dataspace import Hyperslab
from repro.hdf5.types import Datatype
from repro.platform.cluster import Cluster
from repro.platform.storage import FileTarget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hdf5.eventset import EventSet
    from repro.hdf5.vol import VOLConnector
    from repro.mpi.comm import RankContext

__all__ = ["Dataset", "File", "Group", "H5Library", "StoredDataset", "StoredFile"]

MiB = 1 << 20


class StoredDataset:
    """Shared state of one dataset inside a stored file."""

    __slots__ = ("path", "shape", "_whole", "dtype", "file", "data", "written",
                 "attrs", "chunks")

    def __init__(self, path: str, shape: tuple[int, ...], dtype: Datatype,
                 file: "StoredFile", materialize_limit: int,
                 chunks: Optional[tuple[int, ...]] = None):
        self.path = path
        self.attrs = AttributeSet(owner_path=path)
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise ValueError(f"negative dimension in shape {self.shape}")
        self._whole: Optional[Hyperslab] = None
        if chunks is not None:
            chunks = tuple(int(c) for c in chunks)
            if len(chunks) != len(self.shape):
                raise ValueError(
                    f"chunk rank {len(chunks)} != dataset rank {len(self.shape)}"
                )
            if any(c < 1 for c in chunks):
                raise ValueError(f"chunk dims must be >= 1, got {chunks}")
        self.chunks = chunks
        self.dtype = dtype
        self.file = file
        self.data: Optional[np.ndarray] = None
        if self.nbytes_total <= materialize_limit:
            self.data = np.zeros(self.shape, dtype=dtype.np_dtype)
        #: Hyperslabs successfully written (durable), in completion order.
        self.written: list[Hyperslab] = []

    @property
    def whole(self) -> Hyperslab:
        """The whole-dataset selection, shared by every unselected read
        and write and by :meth:`H5Library.prepopulate`.  Built on first
        use: a dataset only ever accessed through per-rank selections
        never holds one."""
        sel = self._whole
        if sel is None:
            sel = self._whole = Hyperslab.whole(self.shape)
        return sel

    @property
    def nbytes_total(self) -> int:
        """Full dataset size in bytes."""
        n = self.dtype.itemsize
        for s in self.shape:
            n *= s
        return n

    @property
    def chunk_bytes(self) -> Optional[int]:
        """Bytes of one storage chunk (None for contiguous layout)."""
        if self.chunks is None:
            return None
        n = self.dtype.itemsize
        for c in self.chunks:
            n *= c
        return n

    def request_sizes(self, selection: Hyperslab) -> list[float]:
        """Storage requests one I/O call on ``selection`` turns into.

        Contiguous layout: one request with the full selection.
        Chunked layout: one request per touched chunk (HDF5 reads and
        writes chunked data chunk-by-chunk), each paying its own
        per-request costs — small chunks on a parallel file system are
        expensive, which is why chunk-size tuning matters.
        """
        total = float(selection.nbytes(self.dtype.itemsize))
        cb = self.chunk_bytes
        if cb is None or total == 0.0:
            return [total]
        n_full, rest = divmod(total, float(cb))
        sizes = [float(cb)] * int(n_full)
        if rest > 0.0:
            sizes.append(rest)
        return sizes

    def apply_write(self, selection: Hyperslab, data: Optional[np.ndarray]) -> None:
        """Commit a completed write: extent tracking + optional payload."""
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_state(self._region_key(selection), write=True,
                        detail=self._region_detail(selection))
        self.written.append(selection)
        if self.data is not None and data is not None:
            self.data[selection.as_slices()] = np.asarray(
                data, dtype=self.dtype.np_dtype
            ).reshape(selection.count)

    def read_payload(self, selection: Hyperslab) -> Optional[np.ndarray]:
        """Materialized data for ``selection`` (None for perf-only datasets)."""
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_state(self._region_key(selection), write=False,
                        detail=self._region_detail(selection))
        if self.data is None:
            return None
        return np.array(self.data[selection.as_slices()])

    def _region_key(self, selection: Hyperslab) -> tuple:
        """Runtime-checker access key: one region of one dataset object."""
        return (id(self), selection.start, selection.count)

    def _region_detail(self, selection: Hyperslab) -> str:
        return (f"{self.file.path}:{self.path}"
                f"[{selection.start}+{selection.count}]")

    def coverage_1d(self) -> float:
        """Fraction of a 1-D dataset's extent covered by completed writes."""
        if len(self.shape) != 1:
            raise ValueError("coverage_1d only supports 1-D datasets")
        if self.shape[0] == 0:
            return 1.0
        marks = sorted((h.start[0], h.start[0] + h.count[0]) for h in self.written)
        covered = 0
        cursor = 0
        for lo, hi in marks:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StoredDataset {self.path!r} {self.shape} {self.dtype.name}>"


class StoredFile:
    """Shared state of one file in the library namespace."""

    def __init__(self, path: str, target: FileTarget):
        self.path = path
        self.target = target
        self.datasets: dict[str, StoredDataset] = {}
        self.groups: set[str] = {"/"}
        #: Per-group attribute sets, created lazily ("/" = file root).
        self._group_attrs: dict[str, AttributeSet] = {}
        #: Dataset paths in creation order (drives sequential prefetch).
        self.dataset_order: list[str] = []
        self.open_handles = 0

    def group_attrs(self, path: str) -> AttributeSet:
        """The attribute set of a group (or of the file root, "/")."""
        path = _norm(path)
        if path not in self.groups:
            raise KeyError(f"no group {path!r} in {self.path!r}")
        attrs = self._group_attrs.get(path)
        if attrs is None:
            attrs = AttributeSet(owner_path=f"{self.path}:{path}")
            self._group_attrs[path] = attrs
        return attrs

    def ensure_group(self, path: str) -> None:
        """Create (idempotently) a group and its ancestors."""
        path = _norm(path)
        parts = [p for p in path.split("/") if p]
        cursor = ""
        for part in parts:
            cursor += "/" + part
            self.groups.add(cursor)

    def ensure_dataset(self, path: str, shape: tuple[int, ...], dtype: Datatype,
                       materialize_limit: int,
                       chunks: Optional[tuple[int, ...]] = None
                       ) -> StoredDataset:
        """Create or re-open a dataset, verifying shape/dtype/layout."""
        path = _norm(path)
        existing = self.datasets.get(path)
        if existing is not None:
            if existing.shape != tuple(shape) or existing.dtype != dtype:
                raise ValueError(
                    f"dataset {path!r} exists with shape {existing.shape} "
                    f"{existing.dtype.name}, requested {tuple(shape)} {dtype.name}"
                )
            if chunks is not None and existing.chunks != tuple(chunks):
                raise ValueError(
                    f"dataset {path!r} exists with chunks {existing.chunks}, "
                    f"requested {tuple(chunks)}"
                )
            return existing
        parent = path.rsplit("/", 1)[0] or "/"
        self.ensure_group(parent)
        dset = StoredDataset(path, tuple(shape), dtype, self,
                             materialize_limit, chunks=chunks)
        self.datasets[path] = dset
        self.dataset_order.append(path)
        return dset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StoredFile {self.path!r} datasets={len(self.datasets)}>"


def _norm(path: str) -> str:
    if not path.startswith("/"):
        path = "/" + path
    while "//" in path:
        path = path.replace("//", "/")
    return path.rstrip("/") or "/"


class H5Library:
    """The HDF5 library instance for one simulation.

    Owns the file namespace (shared across jobs so a reader job can open
    a writer job's output, like BD-CATS-IO reading VPIC-IO files) and the
    materialization policy for backing arrays.
    """

    def __init__(self, cluster: Cluster, materialize_limit: int = 1 * MiB):
        self.cluster = cluster
        self.materialize_limit = int(materialize_limit)
        self.files: dict[str, StoredFile] = {}

    # -- namespace ----------------------------------------------------------
    def stored_file(self, path: str, stripe_count: Optional[int] = None
                    ) -> StoredFile:
        """Get or create the shared stored-file object for ``path``."""
        path = _norm(path)
        if path not in self.files:
            target = self.cluster.pfs.open_file(path, stripe_count=stripe_count)
            self.files[path] = StoredFile(path, target)
        return self.files[path]

    def exists(self, path: str) -> bool:
        """Whether ``path`` is in the namespace."""
        return _norm(path) in self.files

    # -- per-rank open/create -------------------------------------------------
    def create(self, ctx: "RankContext", path: str, vol: "VOLConnector",
               stripe_count: Optional[int] = None) -> Generator:
        """``H5Fcreate``: per-rank generator returning a :class:`File`."""
        stored = self.stored_file(path, stripe_count=stripe_count)
        yield from vol.file_create(ctx, stored)
        stored.open_handles += 1
        return File(self, stored, ctx, vol)

    def open(self, ctx: "RankContext", path: str, vol: "VOLConnector"
             ) -> Generator:
        """``H5Fopen``: per-rank generator returning a :class:`File`."""
        path = _norm(path)
        if path not in self.files:
            raise FileNotFoundError(f"no such HDF5 file: {path}")
        stored = self.files[path]
        yield from vol.file_open(ctx, stored)
        stored.open_handles += 1
        return File(self, stored, ctx, vol)

    def prepopulate(self, path: str, datasets: dict[str, tuple[tuple[int, ...],
                                                               Datatype]],
                    stripe_count: Optional[int] = None) -> StoredFile:
        """Instantly create a file's metadata without simulating writes.

        Used by read benchmarks (BD-CATS-IO, Cosmoflow) that need an
        existing file, standing in for data produced by an earlier
        campaign.  Every dataset is marked fully written.
        """
        stored = self.stored_file(path, stripe_count=stripe_count)
        for dpath, (shape, dtype) in datasets.items():
            dset = stored.ensure_dataset(dpath, shape, dtype,
                                         self.materialize_limit)
            dset.written.append(dset.whole)
        return stored


class Group:
    """Per-rank handle to a group (a path prefix within a file)."""

    def __init__(self, file: "File", path: str):
        self.file = file
        self.path = _norm(path)

    def create_group(self, name: str) -> "Group":
        """Create/open a child group."""
        return self.file.create_group(f"{self.path}/{name}")

    def create_dataset(self, name: str, shape: tuple[int, ...],
                       dtype: Datatype,
                       chunks: Optional[tuple[int, ...]] = None) -> "Dataset":
        """Create/open a child dataset."""
        return self.file.create_dataset(f"{self.path}/{name}", shape, dtype,
                                        chunks=chunks)

    def dataset(self, name: str) -> "Dataset":
        """Open an existing child dataset."""
        return self.file.dataset(f"{self.path}/{name}")

    @property
    def attrs(self) -> AttributeSet:
        """This group's attributes (self-describing metadata)."""
        return self.file.stored.group_attrs(self.path)


class Dataset:
    """Per-rank handle to a dataset; all I/O goes through the VOL."""

    def __init__(self, file: "File", stored: StoredDataset):
        self.file = file
        self.stored = stored

    @property
    def path(self) -> str:
        """Absolute path of the dataset inside its file."""
        return self.stored.path

    @property
    def shape(self) -> tuple[int, ...]:
        """Dataset shape."""
        return self.stored.shape

    @property
    def dtype(self) -> Datatype:
        """Dataset element type."""
        return self.stored.dtype

    @property
    def attrs(self) -> AttributeSet:
        """This dataset's attributes (units, provenance, ...)."""
        return self.stored.attrs

    def write(self, selection: Optional[Hyperslab] = None,
              data: Optional[np.ndarray] = None, phase: Optional[int] = None,
              es: Optional["EventSet"] = None, from_gpu: bool = False,
              pinned: bool = True) -> Generator:
        """``H5Dwrite`` (``H5Dwrite_async`` when ``es`` is given).

        Yields until the *blocking portion* of the operation finishes:
        the full PFS transfer for the native connector, only the
        transactional copy for the async connector.
        """
        sel = selection or self.stored.whole
        if not sel.fits_in(self.shape):
            raise ValueError(f"selection {sel} outside dataset {self.shape}")
        yield from self.file.vol.dataset_write(
            self.file.ctx, self.stored, sel, data, phase, es,
            from_gpu=from_gpu, pinned=pinned,
        )

    def read(self, selection: Optional[Hyperslab] = None,
             phase: Optional[int] = None, es: Optional["EventSet"] = None
             ) -> Generator:
        """``H5Dread``: returns the payload for materialized datasets."""
        sel = selection or self.stored.whole
        if not sel.fits_in(self.shape):
            raise ValueError(f"selection {sel} outside dataset {self.shape}")
        result = yield from self.file.vol.dataset_read(
            self.file.ctx, self.stored, sel, phase, es
        )
        return result


class File:
    """Per-rank handle to an open file."""

    def __init__(self, lib: H5Library, stored: StoredFile, ctx: "RankContext",
                 vol: "VOLConnector"):
        self.lib = lib
        self.stored = stored
        self.ctx = ctx
        self.vol = vol
        self._closed = False

    @property
    def path(self) -> str:
        """File path in the namespace."""
        return self.stored.path

    @property
    def closed(self) -> bool:
        """Whether this handle has been closed."""
        return self._closed

    def create_group(self, path: str) -> Group:
        """Create/open a group (idempotent, metadata-only)."""
        self._check_open()
        self.stored.ensure_group(path)
        return Group(self, path)

    def create_dataset(self, path: str, shape: tuple[int, ...],
                       dtype: Datatype,
                       chunks: Optional[tuple[int, ...]] = None) -> Dataset:
        """Create/open a dataset (idempotent across ranks).

        ``chunks`` selects HDF5's chunked storage layout: every I/O
        call is split into per-chunk storage requests.
        """
        self._check_open()
        stored = self.stored.ensure_dataset(
            path, shape, dtype, self.lib.materialize_limit, chunks=chunks
        )
        return Dataset(self, stored)

    def dataset(self, path: str) -> Dataset:
        """Open an existing dataset."""
        self._check_open()
        key = _norm(path)
        if key not in self.stored.datasets:
            raise KeyError(f"no dataset {key!r} in {self.path!r}")
        return Dataset(self, self.stored.datasets[key])

    def datasets(self) -> list[str]:
        """Dataset paths in creation order."""
        return list(self.stored.dataset_order)

    def groups(self) -> list[str]:
        """Group paths (sorted), including the root."""
        return sorted(self.stored.groups)

    def __contains__(self, path: str) -> bool:
        """Whether ``path`` names an existing dataset or group."""
        key = _norm(path)
        return key in self.stored.datasets or key in self.stored.groups

    def require_dataset(self, path: str, shape: tuple[int, ...],
                        dtype: Datatype) -> Dataset:
        """h5py-style: open if present (validating shape/dtype), else create."""
        return self.create_dataset(path, shape, dtype)

    @property
    def attrs(self) -> AttributeSet:
        """The file's root-group attributes."""
        return self.stored.group_attrs("/")

    def flush(self) -> Generator:
        """``H5Fflush``: connector-defined (drains async ops)."""
        self._check_open()
        yield from self.vol.file_flush(self.ctx, self.stored)

    def close(self) -> Generator:
        """``H5Fclose``: waits for this rank's outstanding async ops."""
        self._check_open()
        yield from self.vol.file_close(self.ctx, self.stored)
        self.stored.open_handles -= 1
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"file handle {self.path!r} already closed")
