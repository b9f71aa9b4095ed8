"""Scale sweeps with repetitions across contention days.

The paper runs "each configuration at least 5 times across multiple
days" and plots "the peak measured aggregate bandwidth for all I/O
phases" (§V-A.1).  :func:`scale_sweep` runs (scale × mode × day)
experiments; :func:`best_by_config` reduces repetitions to the best
observation per (mode, scale), the paper's plotted quantity.

:func:`scale_sweep` fans its points out through
:func:`repro.pool.fan_out`, the package's one process pool.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.platform import ContentionModel
from repro.platform.spec import MachineSpec
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.pool import fan_out

__all__ = ["SweepPoint", "best_by_config", "scale_sweep"]


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
    :func:`repro.pool.fan_out`, the largest rank count first; inside a
    pool worker they run serially.  Either way the results come back in grid
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
