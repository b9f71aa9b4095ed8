"""Experiment harness: runs, sweeps, figures, reports.

This package regenerates every figure of the paper's evaluation
(§V).  Each ``fig*`` function in :mod:`repro.harness.figures` runs the
corresponding workload sweep on the simulated machine, fits the paper's
regression model to the measurements (the dotted "estimated" lines),
and returns a :class:`~repro.harness.report.FigureData` that prints the
same series the paper plots.

Scale profiles: the full paper configurations reach 12,288 ranks /
2,048 nodes; set ``REPRO_PROFILE=paper`` to run them.  The default
``quick`` profile uses truncated rank sweeps and fewer repetitions so
the entire benchmark suite completes in minutes while preserving every
qualitative shape (saturation points scale accordingly).
"""

from repro.harness.experiment import ExperimentResult, build_vol, run_experiment
from repro.harness.sweep import SweepPoint, best_by_config, scale_sweep
from repro.harness.report import FigureData
from repro.harness.recovery import (
    RecoveryResult,
    durable_progress,
    recovery_sweep,
    run_recovery,
)
from repro.harness.sched import FleetMetrics, run_fleet, sched_testbed
from repro.harness import figures

__all__ = [
    "ExperimentResult",
    "FigureData",
    "FleetMetrics",
    "RecoveryResult",
    "SweepPoint",
    "best_by_config",
    "build_vol",
    "durable_progress",
    "figures",
    "recovery_sweep",
    "run_experiment",
    "run_fleet",
    "run_recovery",
    "scale_sweep",
    "sched_testbed",
]
