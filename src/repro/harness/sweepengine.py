"""Process-parallel sweep engine: declarative grids → merged JSON.

The paper's variability claims (§V-A.1, Fig. 8) rest on many cheap,
reproducible runs — "each configuration at least 5 times across
multiple days".  :mod:`repro.harness.sweep` models one such grid
in-process; this module turns a declarative (machine × mode × scale ×
seed) grid into independent tasks, fans them across a process pool
(:func:`repro.harness.sweep.fan_out`, shared with ``scale_sweep``),
and merges the results into a JSON artifact that is
**byte-identical for every worker count** — so a 4-worker sweep can
be diffed against a 1-worker run (or yesterday's artifact) with
``cmp``.

Design rules that make that guarantee hold:

- Every task is a pure function of its :class:`SweepTask` (the
  simulator is deterministic; per-task seeds are carried explicitly in
  the task, never drawn from process-global state).
- Workers return plain dicts; the pool puts each back at its task
  index, so arrival order — the only thing worker count changes — is
  erased.
- Wall-clock timing lives only on the :class:`SweepOutcome` (for
  scaling reports), never inside the merged artifact.

Crash isolation reuses the :mod:`repro.faults` taxonomy: a task that
raises a :class:`~repro.faults.FaultError` records that class name with
family ``"fault"``; any other exception is recorded with family
``"crash"`` — morally a :class:`~repro.faults.WorkerCrashError`: the
worker died, the sweep survives, the point is marked failed.  A crash
also keeps its formatted traceback, with paths inside the ``repro``
package written relative to it so the artifact is the same in any
checkout.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from repro.faults import FaultError, portable_traceback
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.registry import WORKLOADS, machine_spec, workload
from repro.harness.sweep import (
    SweepPoint, available_cpus, best_by_config, fan_out,
)
from repro.platform import ContentionModel

__all__ = [
    "PointResult",
    "SweepOutcome",
    "SweepSpec",
    "SweepTask",
    "expand_grid",
    "merged_results",
    "merged_sweep_points",
    "run_sweep",
    "sweepable_grids",
]

#: Progress callback: ``(done_count, total, point_dict)``.
ProgressFn = Callable[[int, int, dict], None]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid.

    ``kind`` selects the task runner:

    - ``"workload"`` — one :func:`~repro.harness.experiment.
      run_experiment` per point; ``modes`` are VOL modes
      (``sync``/``async``), ``scales`` are rank counts, and each seed
      selects a contention *day* (the paper's run-to-run variability).
    - ``"sched"`` — one :func:`~repro.harness.sched.run_fleet` per
      point; ``modes`` are scheduler policies, ``scales`` are mean
      interarrival gaps (load), and each seed selects the job stream.
    """

    kind: str = "workload"
    workload: str = "vpic"
    machines: tuple[str, ...] = ("testbed",)
    modes: tuple[str, ...] = ("sync", "async")
    scales: tuple[float, ...] = (8,)
    seeds: tuple[int, ...] = (0,)
    #: Jobs per stream (``kind="sched"`` only).
    jobs: int = 12
    #: Chaos axis (``kind="sched"`` only): node-crash rates, in
    #: expected crashes per node per 1000 simulated seconds (see
    #: :func:`repro.faults.chaos_config`).  The default ``(0.0,)`` is
    #: the zero-cost-off path — no injector is built at all.
    faults: tuple[float, ...] = (0.0,)
    #: Base seed of the chaos axis, mixed with each point's stream seed
    #: so fault times decorrelate across seeds but replay identically.
    fault_seed: int = 0
    #: Whether requeued crash victims restart from durable checkpoints.
    checkpoint: bool = True
    #: Staging-cache axis (``kind="workload"`` only): each value is a
    #: :func:`~repro.harness.experiment.run_experiment` ``cache_mode``
    #: (``"none"`` maps to no subsystem — the default, zero-cost-off).
    cache: tuple[str, ...] = ("none",)

    def __post_init__(self) -> None:
        if self.kind not in ("workload", "sched"):
            raise ValueError(
                f"kind must be 'workload' or 'sched', got {self.kind!r}"
            )
        if self.kind == "workload" and any(f > 0 for f in self.faults):
            raise ValueError("the fault axis applies to kind='sched' only")
        if any(f < 0 for f in self.faults):
            raise ValueError("fault rates must be non-negative")
        valid_cache = ("none", "off", "write", "on")
        if any(c not in valid_cache for c in self.cache):
            raise ValueError(
                f"cache values must be from {valid_cache}, got {self.cache}"
            )
        if self.kind == "sched" and tuple(self.cache) != ("none",):
            raise ValueError("the cache axis applies to kind='workload' only")

    def describe(self) -> str:
        axes = (
            f"{len(self.machines)} machine(s) x {len(self.modes)} "
            f"{'policy' if self.kind == 'sched' else 'mode'}(s) x "
            f"{len(self.scales)} scale(s) x {len(self.seeds)} seed(s)"
        )
        if any(f > 0 for f in self.faults):
            axes += f" x {len(self.faults)} fault rate(s)"
        if tuple(self.cache) != ("none",):
            axes += f" x {len(self.cache)} cache mode(s)"
        return f"{self.kind}:{self.workload} {axes}"


@dataclass(frozen=True)
class SweepTask:
    """One grid point — everything a worker needs, explicitly seeded."""

    index: int
    kind: str
    workload: str
    machine: str
    mode: str
    scale: float
    seed: int
    jobs: int
    #: Chaos axis: node-crash rate, base fault seed, checkpointing
    #: on/off.  ``fault_rate == 0`` builds no injector (zero-cost off).
    fault_rate: float = 0.0
    fault_seed: int = 0
    checkpoint: bool = True
    #: Staging-cache mode of this point (``"none"`` = no subsystem).
    cache: str = "none"


@dataclass(frozen=True)
class PointResult:
    """Typed view of one merged point (see :func:`merged_results`)."""

    index: int
    ok: bool
    error: Optional[dict]
    metrics: Optional[dict]
    task: SweepTask


@dataclass(frozen=True)
class SweepOutcome:
    """A finished sweep: the mergeable artifact plus run telemetry.

    ``merged`` is the deterministic artifact (identical for every
    worker count); ``elapsed``/``workers`` describe *this* execution
    and stay out of it.
    """

    merged: dict
    elapsed: float
    workers: int

    @property
    def points_per_sec(self) -> float:
        n = len(self.merged["points"])
        return n / self.elapsed if self.elapsed > 0 else float("inf")

    def to_json(self) -> str:
        """The canonical artifact encoding (sorted keys, 2-space indent)."""
        return json.dumps(self.merged, indent=2, sort_keys=True) + "\n"


def expand_grid(spec: SweepSpec) -> list[SweepTask]:
    """Enumerate the grid in canonical (machine, mode, scale, fault,
    cache, seed) order."""
    tasks: list[SweepTask] = []
    index = 0
    for machine in spec.machines:
        for mode in spec.modes:
            for scale in spec.scales:
                for fault_rate in spec.faults:
                    for cache in spec.cache:
                        for seed in spec.seeds:
                            tasks.append(SweepTask(
                                index=index, kind=spec.kind,
                                workload=spec.workload,
                                machine=machine, mode=mode, scale=scale,
                                seed=seed, jobs=spec.jobs,
                                fault_rate=fault_rate,
                                fault_seed=spec.fault_seed,
                                checkpoint=spec.checkpoint,
                                cache=cache,
                            ))
                            index += 1
    return tasks


def _run_workload_point(task: SweepTask) -> dict:
    machine = machine_spec(task.machine)
    entry = workload(task.workload)
    config = entry.config()
    prepopulate = (entry.prepopulate(config)
                   if entry.prepopulate is not None else None)
    cache_mode = None if task.cache == "none" else task.cache
    result = run_experiment(
        machine, task.workload, entry.program, config, mode=task.mode,
        nranks=int(task.scale), day=task.seed,
        contention=ContentionModel(seed=0), prepopulate=prepopulate,
        op=entry.op,
        cache_mode=cache_mode,
    )
    return asdict(result)


def _run_sched_point(task: SweepTask) -> dict:
    from repro.faults import chaos_config
    from repro.harness.sched import run_fleet
    from repro.sched import StreamConfig

    machine = machine_spec(task.machine)
    cfg = StreamConfig(
        n_jobs=task.jobs, seed=task.seed, mean_interarrival=task.scale,
        rank_choices=(4, 8, 16),
    )
    # Mix the stream seed into the fault seed (a fixed odd prime keeps
    # the map injective) so each stream meets its own crash schedule,
    # yet the pair replays bit-identically.
    fault = chaos_config(task.fault_rate,
                         seed=task.fault_seed + 7919 * task.seed)
    metrics = run_fleet(machine, cfg, task.mode, fault_config=fault,
                        checkpoint_restart=task.checkpoint)
    return asdict(metrics)


def run_point(task: SweepTask) -> dict:
    """Run one grid point with crash isolation; never raises.

    The returned dict is JSON-ready.  Failures are recorded, not
    propagated: fault-taxonomy errors keep their class name (family
    ``"fault"``), everything else is a worker crash (family
    ``"crash"``, with its traceback).
    """
    point = {
        "index": task.index,
        "kind": task.kind,
        "workload": task.workload,
        "machine": task.machine,
        "mode": task.mode,
        "scale": task.scale,
        "seed": task.seed,
        "fault_rate": task.fault_rate,
        "cache": task.cache,
        "ok": False,
        "error": None,
        "metrics": None,
    }
    try:
        if task.kind == "sched":
            point["metrics"] = _run_sched_point(task)
        else:
            point["metrics"] = _run_workload_point(task)
        point["ok"] = True
    except FaultError as exc:
        point["error"] = {
            "family": "fault",
            "kind": type(exc).__name__,
            "message": str(exc),
        }
    except Exception as exc:
        point["error"] = {
            "family": "crash",
            "kind": type(exc).__name__,
            "message": str(exc),
            "traceback": portable_traceback(exc),
        }
    return point


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
) -> SweepOutcome:
    """Run the whole grid; returns the merged artifact plus telemetry.

    ``workers > 1`` fans points across a process pool through
    :func:`~repro.harness.sweep.fan_out`, at most one worker per CPU
    this process may use (``SweepOutcome.workers`` reports the capped
    count).  Workload points are taken largest scale first, so the
    longest points never start last; sched points keep grid order.
    The merged artifact is in task-index order, so it is byte-identical
    for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, available_cpus())
    tasks = expand_grid(spec)
    costs = [t.scale for t in tasks] if spec.kind == "workload" else None
    on_result = None if progress is None else (
        lambda done, point: progress(done, len(tasks), point))
    t0 = time.perf_counter()
    points = fan_out([functools.partial(run_point, task) for task in tasks],
                     costs, max_workers=workers, on_result=on_result)
    elapsed = time.perf_counter() - t0
    merged = {
        "schema": "repro-sweep/v1",
        "spec": asdict(spec),
        "points": points,
    }
    return SweepOutcome(merged=merged, elapsed=elapsed, workers=workers)


def merged_results(merged: dict) -> list[PointResult]:
    """Typed points from a merged artifact (or ``SweepOutcome.merged``)."""
    spec = merged["spec"]
    out = []
    for p in merged["points"]:
        out.append(PointResult(
            index=p["index"], ok=p["ok"], error=p["error"],
            metrics=p["metrics"],
            task=SweepTask(
                index=p["index"], kind=p["kind"], workload=p["workload"],
                machine=p["machine"], mode=p["mode"], scale=p["scale"],
                seed=p["seed"], jobs=spec["jobs"],
                fault_rate=p.get("fault_rate", 0.0),
                fault_seed=spec.get("fault_seed", 0),
                checkpoint=spec.get("checkpoint", True),
                cache=p.get("cache", "none"),
            ),
        ))
    return out


def merged_sweep_points(merged: dict) -> list[SweepPoint]:
    """Reduce a merged *workload* sweep to the paper's plotted points.

    Reconstructs :class:`~repro.harness.experiment.ExperimentResult`
    rows from the successful points and funnels them through the
    existing :func:`~repro.harness.sweep.best_by_config`, so downstream
    figure code consumes engine output unchanged.  Failed points are
    skipped — a crashed day simply contributes no observation, the
    same as a lost batch job.
    """
    results = []
    for p in merged["points"]:
        if p["ok"] and p["kind"] == "workload":
            results.append(ExperimentResult(**p["metrics"]))
    return best_by_config(results)


def sweepable_grids() -> list[tuple[str, str]]:
    """(name, description) of the grids ``repro sweep`` can enumerate."""
    grids = [
        (f"workload:{name}",
         f"machines x (sync|async) x ranks x seeds — {entry.description}")
        for name, entry in sorted(WORKLOADS.items())
    ]
    grids.append((
        "sched",
        "machines x (fifo|backfill|io-aware) x loads x fault rates x "
        "seeds — multi-tenant job streams, optional chaos axis",
    ))
    return grids
