"""Scale sweeps with repetitions across contention days.

The paper runs "each configuration at least 5 times across multiple
days" and plots "the peak measured aggregate bandwidth for all I/O
phases" (§V-A.1).  :func:`scale_sweep` runs (scale × mode × day)
experiments; :func:`best_by_config` reduces repetitions to the best
observation per (mode, scale), the paper's plotted quantity.

:func:`fan_out` is the one process pool behind every grid: it runs
:func:`scale_sweep`'s points here and
:func:`repro.harness.sweepengine.run_sweep`'s tasks.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.platform import ContentionModel
from repro.platform.spec import MachineSpec
from repro.harness.experiment import ExperimentResult, run_experiment

__all__ = [
    "SweepPoint", "available_cpus", "best_by_config", "fan_out",
    "scale_sweep",
]

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
    stops the run: the failure with the lowest job index is re-raised,
    as the serial run would raise it, chained to the worker's
    traceback, once every lower-indexed job has finished.
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
    _JOBS[:] = jobs
    try:
        with multiprocessing.get_context("fork").Pool(width) as pool:
            for index, ok, value in pool.imap_unordered(_run_job, order):
                pending.discard(index)
                if ok:
                    results[index] = value
                    if on_result is not None:
                        on_result(len(jobs) - len(pending), value)
                else:
                    failures[index] = value
                if failures and min(failures) < min(pending,
                                                    default=len(jobs)):
                    break  # no lower-indexed job is left to fail
    finally:
        _JOBS.clear()
    if failures:
        from multiprocessing.pool import RemoteTraceback

        exc, remote = failures[min(failures)]
        raise exc from RemoteTraceback(f'\n"""\n{remote}"""')
    return results


@dataclass(frozen=True)
class SweepPoint:
    """Best-of-repetitions summary at one (mode, scale) grid point."""

    mode: str
    nranks: int
    nnodes: int
    peak_bandwidth: float
    mean_app_time: float
    all_peaks: tuple[float, ...]  # per-day observations (Fig. 8 raw data)
    total_bytes: float
    n_phases: int

    @property
    def peak_gbs(self) -> float:
        """Peak aggregate bandwidth in GB/s."""
        return self.peak_bandwidth / 1e9


def scale_sweep(
    machine: MachineSpec,
    workload_name: str,
    program_factory: Callable,
    config_factory: Callable[[int], object],
    scales: Sequence[int],
    modes: Sequence[str] = ("sync", "async"),
    reps: int = 3,
    contention: Optional[ContentionModel] = None,
    prepopulate_factory: Optional[Callable] = None,
    op: str = "write",
    ranks_per_node: Optional[int] = None,
) -> list[ExperimentResult]:
    """Run the full (scale × mode × rep) grid; returns raw results.

    ``config_factory(nranks)`` builds the workload config at each scale
    (weak scaling changes sizes with ranks; strong scaling ignores the
    argument).  ``prepopulate_factory(config)`` returns the
    ``prepopulate(lib, nranks)`` hook for read workloads.

    The points fan out across the CPUs this process may use through
    :func:`fan_out`, the largest rank count first; inside a pool
    worker they run serially.  Either way the results come back in grid
    order (scale, then mode, then rep), equal to a serial run's, and a
    failing point raises what the serial run would raise.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    jobs, costs = [], []
    for nranks in scales:
        config = config_factory(nranks)
        prepopulate = (
            prepopulate_factory(config) if prepopulate_factory is not None else None
        )
        for mode in modes:
            for rep in range(reps):
                jobs.append(functools.partial(
                    run_experiment,
                    machine, workload_name, program_factory, config,
                    mode=mode, nranks=nranks, ranks_per_node=ranks_per_node,
                    day=rep, contention=contention, prepopulate=prepopulate,
                    op=op,
                ))
                costs.append(nranks)
    return fan_out(jobs, costs)


def best_by_config(results: Sequence[ExperimentResult]) -> list[SweepPoint]:
    """Reduce repetitions to the paper's plotted best-of-runs points."""
    grid: dict[tuple[str, int], list[ExperimentResult]] = {}
    for r in results:
        grid.setdefault((r.mode, r.nranks), []).append(r)
    points = []
    for (mode, nranks), runs in sorted(grid.items(), key=lambda kv: (kv[0][0],
                                                                     kv[0][1])):
        peaks = tuple(r.peak_bandwidth for r in runs)
        points.append(SweepPoint(
            mode=mode,
            nranks=nranks,
            nnodes=runs[0].nnodes,
            peak_bandwidth=max(peaks),
            mean_app_time=sum(r.app_time for r in runs) / len(runs),
            all_peaks=peaks,
            total_bytes=runs[0].total_bytes,
            n_phases=runs[0].n_phases,
        ))
    return points
