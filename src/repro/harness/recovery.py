"""Checkpoint-restart under failure: goodput and the data-loss window.

The paper's evaluation measures steady-state bandwidth; this experiment
measures what checkpoints are *for* — recovering from a mid-run kill.
A job writing periodic checkpoints is killed mid-epoch; progress is
whatever reached **durable** storage by then.  The async VOL changes
the durability story in both directions:

- *Risk*: an async checkpoint is "written" (``t_unblocked``) long
  before it is durable (``t_complete``) — a kill inside that gap loses
  a checkpoint a synchronous writer would have kept.
- *Resilience*: injected storage faults are absorbed by the connector's
  retry + sync-fallback ladder, while a synchronous writer surfaces the
  same fault to the application, which dies on the spot and forfeits
  every epoch after it.

:func:`run_recovery` plays one kill-and-restart cycle and reports the
paper-style bottom line: the **data-loss window** (kill time minus the
moment the last durable checkpoint landed) and **goodput** (useful
compute seconds per wall-clock second across kill + restart).
:func:`recovery_sweep` runs the sync-vs-async comparison across fault
rates — the ``fig_faults`` figure and its ``fig-faults`` row of
``benchmarks/bench_claims.py`` sit on top of it.  Everything is
deterministic per seed: the sweep also returns each run's fault-trace
signature so CI can gate on replay-identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.sim import Engine
from repro.mpi import MPIJob
from repro.platform import Cluster
from repro.platform.spec import MachineSpec
from repro.hdf5 import FLOAT64, H5Library
from repro.faults import FaultConfig, FaultInjector
from repro.harness.experiment import build_vol
from repro.workloads.restart import RestartConfig, restart_program

__all__ = ["RecoveryResult", "durable_progress", "recovery_sweep",
           "run_recovery"]


@dataclass(frozen=True)
class RecoveryResult:
    """One kill-and-restart cycle's outcome."""

    machine: str
    mode: str
    nranks: int
    fault_rate: float
    #: Simulated time at which the first run was killed.
    t_kill: float
    #: Checkpoints the application wanted durable.
    checkpoints: int
    #: Contiguous-from-zero checkpoints durable at the kill.
    durable_checkpoints: int
    #: Checkpoints the app had *issued* by the kill that were not yet
    #: durable (the async-staging exposure).
    lost_checkpoints: int
    #: ``t_kill`` minus the completion time of the newest durable
    #: checkpoint (all progress since then is re-done after restart).
    data_loss_window: float
    #: Slowest rank's restart-read time in the second run.
    restart_seconds: float
    #: Wall time of the restart run (0 when nothing was lost).
    restart_wall: float
    #: ``t_kill + restart_wall``.
    total_wall: float
    #: Useful compute seconds per wall second across both runs.
    goodput: float
    #: Reliable-path completions in the killed run (async recovery).
    fallbacks: int
    #: Transient-fault retries in the killed run.
    retries: int
    #: Fault-trace signature of the killed run (determinism gate).
    fault_signature: tuple


def _build(machine: MachineSpec, mode: str, nranks: int,
           ranks_per_node: Optional[int],
           fault_config: Optional[FaultConfig]):
    """One engine/cluster/lib/vol/job stack, with optional injector."""
    engine = Engine()
    rpn = ranks_per_node or machine.default_ranks_per_node
    cluster = Cluster(engine, machine, math.ceil(nranks / rpn))
    injector = None
    if fault_config is not None:
        injector = FaultInjector(fault_config).attach(cluster)
    lib = H5Library(cluster)
    vol_kwargs = {}
    if mode == "async" and injector is not None:
        vol_kwargs["faults"] = injector
    vol = build_vol(mode, **vol_kwargs)
    job = MPIJob(cluster, nranks, ranks_per_node=rpn)
    return engine, lib, vol, job, injector


def _clean_wall(machine: MachineSpec, mode: str, nranks: int,
                config: RestartConfig,
                ranks_per_node: Optional[int]) -> float:
    """Wall time of a fault-free, uninterrupted run (the kill anchor)."""
    _, lib, vol, job, _ = _build(machine, mode, nranks, ranks_per_node, None)
    results = job.run(restart_program(lib, vol, config))
    return max(finish for _, finish in results)


def durable_progress(log, nranks: int, t_kill: float,
                     checkpoints: int) -> tuple[int, float, int]:
    """Scan a killed run's log for checkpoint durability.

    Returns ``(n_durable, durable_at, lost)``: the count of
    contiguous-from-zero checkpoints durable on every rank by
    ``t_kill``, the completion time of the newest one (0 when none),
    and the count of further checkpoints issued but not durable.
    Shared with the scheduler's requeue path, which replays the same
    scan over a node-failure victim's private IOLog to decide where the
    requeued job restarts.
    """
    by_phase: dict[int, list] = {}
    for r in log.records:
        if r.op == "write" and r.phase is not None and r.phase >= 0:
            by_phase.setdefault(r.phase, []).append(r)
    n_durable = 0
    durable_at = 0.0
    for k in range(checkpoints):
        recs = by_phase.get(k, [])
        done_ranks = {r.rank for r in recs
                      if math.isfinite(r.t_complete) and r.t_complete <= t_kill}
        if len(done_ranks) < nranks:
            break
        n_durable = k + 1
        durable_at = max(r.t_complete for r in recs)
    lost = sum(1 for k in by_phase if k >= n_durable)
    return n_durable, durable_at, lost


def run_recovery(
    machine: MachineSpec,
    mode: str,
    nranks: int,
    config: Optional[RestartConfig] = None,
    kill_fraction: float = 0.6,
    fault_config: Optional[FaultConfig] = None,
    ranks_per_node: Optional[int] = None,
    t_kill: Optional[float] = None,
) -> RecoveryResult:
    """Kill a checkpointing job mid-epoch, restart from the last durable
    checkpoint, and report goodput + data-loss window.

    ``t_kill`` defaults to ``kill_fraction`` of a fault-free reference
    run's wall time, so the kill lands mid-campaign for either mode.
    The killed run sees ``fault_config``'s injected faults; the restart
    runs clean (the storm has passed), which isolates the *killed* run's
    durability behaviour in the comparison.
    """
    if not 0.0 < kill_fraction < 1.0:
        raise ValueError(f"kill_fraction must be in (0,1), got {kill_fraction}")
    if config is None:
        config = RestartConfig()
    if config.restart_from is not None:
        raise ValueError("run_recovery drives restart_from itself")
    if t_kill is None:
        t_kill = kill_fraction * _clean_wall(
            machine, mode, nranks, config, ranks_per_node)

    # -- run 1: the job that dies ---------------------------------------
    engine, lib, vol, job, injector = _build(
        machine, mode, nranks, ranks_per_node, fault_config)
    procs = job.launch(restart_program(lib, vol, config))
    for proc in procs:
        # Subscribe to each rank's terminal event so a rank dying on an
        # un-retried fault (the sync path) is recorded instead of
        # aborting the engine — this experiment expects casualties.
        proc.done._wait(lambda ev: None)
    engine.run(until=t_kill)
    n_durable, durable_at, lost = durable_progress(
        vol.log, nranks, t_kill, config.checkpoints)
    data_loss_window = t_kill - durable_at

    # -- run 2: restart from the newest durable checkpoint --------------
    remaining = config.checkpoints - n_durable
    restart_seconds = 0.0
    restart_wall = 0.0
    if remaining > 0:
        _, lib2, vol2, job2, _ = _build(
            machine, mode, nranks, ranks_per_node, None)
        n_global = config.elems_per_rank * nranks
        restart_from = None
        if n_durable > 0:
            restart_from = n_durable - 1
            lib2.prepopulate(config.path, {
                config.checkpoint_name(i): ((n_global,), FLOAT64)
                for i in range(n_durable)
            })
        cfg2 = replace(config, checkpoints=remaining,
                       restart_from=restart_from)
        results = job2.run(restart_program(lib2, vol2, cfg2))
        restart_seconds = max(rs for rs, _ in results)
        restart_wall = max(finish for _, finish in results)

    total_wall = t_kill + restart_wall
    useful = config.checkpoints * config.compute_seconds
    return RecoveryResult(
        machine=machine.name,
        mode=mode,
        nranks=nranks,
        fault_rate=(fault_config.write_error_rate
                    if fault_config is not None else 0.0),
        t_kill=t_kill,
        checkpoints=config.checkpoints,
        durable_checkpoints=n_durable,
        lost_checkpoints=lost,
        data_loss_window=data_loss_window,
        restart_seconds=restart_seconds,
        restart_wall=restart_wall,
        total_wall=total_wall,
        goodput=useful / total_wall if total_wall > 0 else float("inf"),
        fallbacks=getattr(vol, "fallbacks", 0),
        retries=getattr(vol, "retries", 0),
        fault_signature=(injector.signature() if injector is not None else ()),
    )


def recovery_sweep(
    machine: MachineSpec,
    nranks: int,
    fault_rates: tuple[float, ...] = (0.0, 0.02, 0.1),
    config: Optional[RestartConfig] = None,
    kill_fraction: float = 0.6,
    seed: int = 0,
    ranks_per_node: Optional[int] = None,
) -> list[RecoveryResult]:
    """Sync-vs-async recovery across flaky-write fault rates.

    One :func:`run_recovery` per (mode, rate), all killed at the same
    time per mode: the fault-free reference run behind ``t_kill`` runs
    once per mode.  Rate 0 runs with no injector at all (the
    zero-cost-off path).  Deterministic per ``seed``.
    """
    config = config if config is not None else RestartConfig()
    results = []
    for mode in ("sync", "async"):
        t_kill = kill_fraction * _clean_wall(
            machine, mode, nranks, config, ranks_per_node)
        for rate in fault_rates:
            fc = (FaultConfig(seed=seed, write_error_rate=rate)
                  if rate > 0.0 else None)
            results.append(run_recovery(
                machine, mode, nranks, config=config,
                kill_fraction=kill_fraction, fault_config=fc,
                ranks_per_node=ranks_per_node, t_kill=t_kill,
            ))
    return results
