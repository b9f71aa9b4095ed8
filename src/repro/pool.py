"""The package's one process pool, :func:`fan_out`, behind
``scale_sweep`` (figure grids), ``run_sweep`` (``repro sweep``), the
CLI's single-point commands and ``repro sched``, fig7 and fig-sched,
and ``check_paths`` (``repro check``'s per-file lint).

A leaf module on the standard library alone, so that ``repro check``
starts without loading the simulator, the harness or numpy.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from typing import Any, Callable, Optional, Sequence

__all__ = ["available_cpus", "fan_out"]

#: The job table of the running :func:`fan_out`.  Forked workers
#: inherit it, so only job indices cross the process boundary: jobs may
#: close over values that cannot be pickled.
_JOBS: list[Callable[[], Any]] = []


def available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_job(index: int) -> tuple:
    """``(index, ok, value)`` of one job, in a pool worker."""
    try:
        return index, True, _JOBS[index]()
    except Exception as exc:  # re-raised by fan_out, lowest index first
        return index, False, (exc, traceback.format_exc())


def fan_out(
    jobs: Sequence[Callable[[], Any]],
    costs: Optional[Sequence[float]] = None,
    max_workers: Optional[int] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> list:
    """Run zero-argument ``jobs``; returns their results in job order.

    The pool is ``min(available_cpus(), len(jobs), max_workers)`` wide.
    At width 1, or inside a daemonic process (a pool worker, which may
    not have children), the jobs run here one after another.  Otherwise
    a ``fork`` pool runs them, taking job indices longest first by
    ``costs`` (ties, and all jobs when ``costs`` is None, in index
    order), so the largest jobs never start last.

    ``on_result(done, result)`` is called in this process as each job
    finishes, ``done`` counting finished jobs.  A job that raises
    stops the run: once every lower-indexed job has finished, no job
    starts, and the failure with the lowest job index is re-raised, as
    the serial run would raise it, chained to the worker's traceback.
    """
    width = min(available_cpus(), len(jobs), max_workers or len(jobs))
    if width <= 1 or multiprocessing.current_process().daemon:
        results = []
        for job in jobs:
            results.append(job())
            if on_result is not None:
                on_result(len(results), results[-1])
        return results
    order = range(len(jobs)) if costs is None else sorted(
        range(len(jobs)), key=lambda i: -costs[i])
    results = [None] * len(jobs)
    pending = set(range(len(jobs)))
    failures: dict[int, tuple] = {}
    # At most two jobs per worker are queued or running.  A stop lets
    # those finish, so the pool is torn down with its workers idle (one
    # killed while it sends a result can leave a queue lock held, and
    # the teardown waits on that lock forever).
    slots = threading.Semaphore(2 * width)
    stop = False

    def submit():
        for index in order:
            slots.acquire()
            if stop:
                return
            yield index

    _JOBS[:] = jobs
    try:
        with multiprocessing.get_context("fork").Pool(width) as pool:
            try:
                for index, ok, value in pool.imap_unordered(_run_job,
                                                            submit()):
                    slots.release()
                    pending.discard(index)
                    if ok:
                        results[index] = value
                        if on_result is not None:
                            on_result(len(jobs) - len(pending), value)
                    else:
                        failures[index] = value
                    # Stop once no lower-indexed job is left to fail.
                    stop = bool(failures) and min(failures) < min(
                        pending, default=len(jobs))
            finally:
                stop = True
                slots.release()  # wakes a submit() waiting for a slot
    finally:
        _JOBS.clear()
    if failures:
        from multiprocessing.pool import RemoteTraceback

        exc, remote = failures[min(failures)]
        raise exc from RemoteTraceback(f'\n"""\n{remote}"""')
    return results
