"""Event sets — the ``H5ES`` API of HDF5 1.13+.

Asynchronous operations are associated with an event set at submission;
``H5ES_wait`` blocks until every operation inserted so far completes.
The paper's async workloads wait on the previous epoch's event set
before (or while) issuing the next epoch's operations.

Error accounting mirrors HDF5's: a failed operation does *not* abort
the wait — every inserted operation is drained (so staging space and
backpressured peers are not abandoned mid-flight), failures are
collected per operation (``H5ESget_err_count`` /
``H5ESget_err_info``), and only then does :meth:`EventSet.wait` raise
the first failure (suppressible with ``raise_on_error=False``).
"""

from __future__ import annotations

from typing import Generator

from repro.check import hooks as _check_hooks
from repro.sim.engine import AllOf, Engine, Interrupted, SimEvent

__all__ = ["EventSet"]

#: Least list length at which finished operations are swept out of an
#: event set (and of the async connector's per-rank outstanding list);
#: after a sweep, the next one comes when the list has doubled, so the
#: sweeps cost O(1) per insertion.
SWEEP_MIN = 64


class EventSet:
    """A set of pending asynchronous operations."""

    def __init__(self, engine: Engine, name: str = "es"):
        self.engine = engine
        self.name = name
        #: (insertion index, completion event) of ops not yet harvested.
        self._pending: list[tuple[int, SimEvent]] = []
        #: Length of ``_pending`` at which :meth:`add` next drops the
        #: finished successful ops (see :data:`SWEEP_MIN`).
        self._sweep_at = SWEEP_MIN
        #: (insertion index, exception) of every failed op seen so far.
        self._errors: list[tuple[int, BaseException]] = []
        #: Total operations ever inserted (H5ESget_op_counter analogue).
        self.op_counter = 0
        ck = _check_hooks.checker
        if ck is not None:
            ck.on_eventset(self)

    def add(self, event: SimEvent) -> None:
        """Insert one operation's completion event.

        A set that is never waited on would otherwise hold every
        completion event it was given; so every so often the ops that
        finished successfully are dropped.  Failed ones stay until a
        harvest records them (:attr:`err_count`, :meth:`get_err_info`,
        :meth:`wait`), so error accounting is unchanged.
        """
        pending = self._pending
        pending.append((self.op_counter, event))
        self.op_counter += 1
        if len(pending) >= self._sweep_at:
            pending[:] = [(idx, ev) for idx, ev in pending
                          if not ev._processed or ev._exc is not None]
            self._sweep_at = max(SWEEP_MIN, 2 * len(pending))

    @property
    def n_pending(self) -> int:
        """Operations not yet known complete (without waiting)."""
        return sum(1 for _, ev in self._pending if not ev._processed)

    @property
    def err_count(self) -> int:
        """``H5ESget_err_count``: failed operations observed so far."""
        self._harvest()
        return len(self._errors)

    def get_err_info(self) -> list[tuple[int, BaseException]]:
        """``H5ESget_err_info``: ``(op_index, exception)`` per failure,
        in insertion order.  The index is the operation's position in
        the set's lifetime insertion sequence."""
        self._harvest()
        return sorted(self._errors)

    def clear_errors(self) -> None:
        """Forget recorded failures (``H5ESfree_err_info`` analogue)."""
        self._harvest()
        self._errors.clear()

    def _harvest(self) -> list[tuple[int, SimEvent]]:
        """Move triggered events out of the pending list, recording
        failures; returns the still-pending remainder."""
        still = []
        ck = _check_hooks.checker
        for idx, ev in self._pending:
            # An event succeed()ed with a delay is *triggered* now but
            # completes (dispatches) later — it is still pending.
            if not ev._processed:
                still.append((idx, ev))
            elif ev._exc is not None:
                self._errors.append((idx, ev._exc))
                if ck is not None:
                    # The failure is now recorded in the set's error
                    # accounting — it was not silently swallowed.
                    ck.on_error_observed(ev)
        self._pending = still
        return still

    def wait(self, raise_on_error: bool = True) -> Generator:
        """``H5ESwait``: block until all inserted operations complete.

        Operations inserted *while waiting* (e.g. by a prefetcher) are
        also drained before returning.  A failure does not cut the wait
        short — every operation still runs to completion — and is
        re-raised (first failure) only once nothing is pending, unless
        ``raise_on_error=False``, in which case callers inspect
        :attr:`err_count` / :meth:`get_err_info` instead.
        """
        while True:
            still = self._harvest()
            if not still:
                break
            try:
                yield AllOf([ev for _, ev in still])
            except Interrupted:
                # A scheduler kill (walltime scancel, node failure)
                # thrown into the waiting process is not an operation
                # failure — it must terminate the rank, not be absorbed
                # into the set's error accounting.
                raise
            except Exception:  # noqa: BLE001
                # One op failed (AllOf is fail-fast).  Its error is
                # harvested on the next pass; keep waiting for the rest
                # rather than abandoning them mid-flight.
                continue
        if raise_on_error and self._errors:
            raise self._errors[0][1]
        return None
