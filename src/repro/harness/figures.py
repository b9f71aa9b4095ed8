"""Regeneration of every figure in the paper's evaluation (§V).

Each ``fig*`` function runs the corresponding sweep on the simulated
machine, fits the Eq. 4 model for the dotted "estimated" series, and
returns a :class:`~repro.harness.report.FigureData`.

Two scale profiles exist (``REPRO_PROFILE`` or the ``profile=``
argument):

- ``quick`` (default): truncated rank sweeps / fewer repetitions; every
  qualitative shape is preserved and the whole set runs in minutes.
- ``paper``: the published configurations (up to 12,288 ranks on
  Summit, 8,192 on Cori-Haswell, 5 repetitions).
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Optional, Sequence

from repro.platform import ContentionModel, cori_haswell, summit
from repro.platform.spec import MachineSpec
from repro.analysis import fit_sweep_points, variability_stats
from repro.harness import registry
from repro.harness.experiment import run_experiment
from repro.harness.report import FigureData
from repro.harness.sched import sched_testbed
from repro.harness.sweep import best_by_config, scale_sweep
from repro.harness.sweepengine import SweepTask, execute
from repro.model import EpochCosts, app_time
from repro.model.microbench import gpu_transfer_microbench, memcpy_microbench
from repro.pool import fan_out
from repro.workloads import (
    BDCATSConfig,
    CastroConfig,
    CosmoflowConfig,
    NyxConfig,
    SW4Config,
    VPICConfig,
)

__all__ = [
    "FIGURES",
    "MICROBENCH_IDS",
    "fig3a", "fig3b", "fig3c", "fig3d",
    "fig4a", "fig4b", "fig4c", "fig4d",
    "fig5", "fig6", "fig7", "fig8",
    "fig_faults", "fig_sched",
    "microbench_memcpy", "microbench_gpu",
    "resolve_profile",
]

GB = 1e9
Mi = 1 << 20

#: Rank sweeps per (figure-machine, profile).
_SCALES = {
    ("summit", "quick"): [96, 192, 384, 768, 1536],
    ("summit", "paper"): [96, 192, 384, 768, 1536, 3072, 6144, 12288],
    ("cori", "quick"): [128, 256, 512, 1024, 2048],
    ("cori", "paper"): [128, 256, 512, 1024, 2048, 4096, 8192],
    ("summit-app", "quick"): [96, 192, 384, 768],
    ("summit-app", "paper"): [96, 192, 384, 768, 1536, 3072],
    ("cori-app", "quick"): [128, 256, 512, 1024],
    ("cori-app", "paper"): [128, 256, 512, 1024, 2048, 4096],
    # Strong-scaling sweeps whose paper plots start in the saturated
    # regime (Nyx large / EQSIM: huge fixed datasets).
    ("summit-sat", "quick"): [768, 1536, 3072],
    ("summit-sat", "paper"): [768, 1536, 3072, 6144, 12288],
}
_REPS = {"quick": 2, "paper": 5}
_STEPS = {"quick": 3, "paper": 5}


def resolve_profile(profile: Optional[str] = None) -> str:
    """Profile from argument or ``REPRO_PROFILE`` (default ``quick``)."""
    profile = profile or os.environ.get("REPRO_PROFILE", "quick")
    if profile not in ("quick", "paper"):
        raise ValueError(f"profile must be 'quick' or 'paper', got {profile!r}")
    return profile


def _contention(seed: int) -> ContentionModel:
    # Mild baseline contention so repetitions across "days" differ.
    return ContentionModel(seed=seed, median_load=0.15, sigma=0.5)


def _bandwidth_figure(
    name: str,
    title: str,
    machine: MachineSpec,
    workload: str,
    config: object,
    scales: Sequence[int],
    reps: int,
    seed: int = 0,
) -> FigureData:
    """Shared sweep → fit → table pipeline for Figs. 3-6: one
    :data:`~repro.harness.registry.WORKLOADS` entry run with ``config``
    at every scale."""
    entry = registry.workload(workload)
    results = scale_sweep(
        machine, workload, entry.program, lambda nranks: config,
        scales=scales, modes=("sync", "async"), reps=reps,
        contention=_contention(seed), prepopulate_factory=entry.prepopulate,
        op=entry.op,
    )
    points = best_by_config(results)
    fits = {mode: fit_sweep_points(points, mode) for mode in ("sync", "async")}
    fig = FigureData(
        name=name,
        title=title,
        columns=["ranks", "nodes", "sync GB/s", "est sync GB/s",
                 "async GB/s", "est async GB/s"],
        results=points,
    )
    sync_points = {p.nranks: p for p in points if p.mode == "sync"}
    async_points = {p.nranks: p for p in points if p.mode == "async"}
    for nranks in scales:
        fig.add_row(
            nranks,
            sync_points[nranks].nnodes,
            sync_points[nranks].peak_gbs,
            fits["sync"].estimate_gbs(nranks),
            async_points[nranks].peak_gbs,
            fits["async"].estimate_gbs(nranks),
        )
    fig.meta["r2 sync"] = fits["sync"].r2
    fig.meta["r2 async"] = fits["async"].r2
    fig.meta["fit sync"] = fits["sync"].transform
    fig.meta["fit async"] = fits["async"].transform
    return fig


# ---------------------------------------------------------------------------
# Fig. 3 — I/O kernels, weak scaling
# ---------------------------------------------------------------------------


def fig3a(profile: Optional[str] = None) -> FigureData:
    """VPIC-IO write bandwidth on Summit (weak scaling, sync vs async)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig3a", "VPIC-IO write aggregate bandwidth, Summit (weak scaling)",
        summit(), "vpic", VPICConfig(steps=_STEPS[p]),
        scales=_SCALES[("summit", p)], reps=_REPS[p], seed=31,
    )


def fig3b(profile: Optional[str] = None) -> FigureData:
    """VPIC-IO write bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig3b", "VPIC-IO write aggregate bandwidth, Cori-Haswell (weak scaling)",
        cori_haswell(), "vpic", VPICConfig(steps=_STEPS[p]),
        scales=_SCALES[("cori", p)], reps=_REPS[p], seed=32,
    )


def _bdcats_figure(name: str, machine: MachineSpec, scales, reps, seed,
                   profile: str) -> FigureData:
    return _bandwidth_figure(
        name, f"BD-CATS-IO read aggregate bandwidth, {machine.name} (weak scaling)",
        machine, "bdcats", BDCATSConfig(steps=_STEPS[profile]),
        scales=scales, reps=reps, seed=seed,
    )


def fig3c(profile: Optional[str] = None) -> FigureData:
    """BD-CATS-IO read bandwidth on Summit."""
    p = resolve_profile(profile)
    return _bdcats_figure("fig3c", summit(), _SCALES[("summit", p)],
                          _REPS[p], seed=33, profile=p)


def fig3d(profile: Optional[str] = None) -> FigureData:
    """BD-CATS-IO read bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bdcats_figure("fig3d", cori_haswell(), _SCALES[("cori", p)],
                          _REPS[p], seed=34, profile=p)


# ---------------------------------------------------------------------------
# Fig. 4 — Nyx and Castro, strong scaling
# ---------------------------------------------------------------------------


def fig4a(profile: Optional[str] = None) -> FigureData:
    """Nyx large (2048³) plotfile bandwidth on Summit (strong scaling)."""
    p = resolve_profile(profile)
    # Nyx runs GPU-accelerated on Summit (§V-A.3): writes include the
    # device→host transfer.
    cfg = NyxConfig.large(n_plotfiles=_STEPS[p], use_gpu=True)
    return _bandwidth_figure(
        "fig4a", "Nyx large (2048^3, GPU) write aggregate bandwidth, Summit "
                 "(strong scaling)",
        summit(), "nyx-large", cfg,
        scales=_SCALES[("summit-sat", p)], reps=_REPS[p], seed=41,
    )


def fig4b(profile: Optional[str] = None) -> FigureData:
    """Nyx small (256³) plotfile bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig4b", "Nyx small (256^3) write aggregate bandwidth, Cori-Haswell "
                 "(strong scaling)",
        cori_haswell(), "nyx-small", NyxConfig.small(n_plotfiles=_STEPS[p]),
        scales=_SCALES[("cori", p)], reps=_REPS[p], seed=42,
    )


def fig4c(profile: Optional[str] = None) -> FigureData:
    """Castro plotfile bandwidth on Summit (strong scaling)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig4c", "Castro (128^3, 6 comps, 2 particles/cell) write aggregate "
                 "bandwidth, Summit (strong scaling)",
        summit(), "castro", CastroConfig(n_plotfiles=_STEPS[p]),
        scales=_SCALES[("summit-app", p)], reps=_REPS[p], seed=43,
    )


def fig4d(profile: Optional[str] = None) -> FigureData:
    """Castro plotfile bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig4d", "Castro write aggregate bandwidth, Cori-Haswell "
                 "(strong scaling)",
        cori_haswell(), "castro", CastroConfig(n_plotfiles=_STEPS[p]),
        scales=_SCALES[("cori-app", p)], reps=_REPS[p], seed=44,
    )


# ---------------------------------------------------------------------------
# Fig. 5 — Cosmoflow, Fig. 6 — EQSIM
# ---------------------------------------------------------------------------


def fig5(profile: Optional[str] = None) -> FigureData:
    """Cosmoflow batch-read bandwidth on Summit (4 training epochs)."""
    p = resolve_profile(profile)
    cfg = CosmoflowConfig(
        epochs=2 if p == "quick" else 4,
        batches_per_rank=4 if p == "quick" else 8,
    )
    return _bandwidth_figure(
        "fig5", "Cosmoflow batch read aggregate bandwidth, Summit",
        summit(), "cosmoflow", cfg,
        scales=_SCALES[("summit-app", p)], reps=_REPS[p], seed=50,
    )


def fig6(profile: Optional[str] = None) -> FigureData:
    """EQSIM/SW4 checkpoint bandwidth on Summit (strong scaling)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig6", "EQSIM (SW4, grid 50, 30000x30000x17000) checkpoint aggregate "
                "bandwidth, Summit (strong scaling)",
        summit(), "sw4", SW4Config(n_checkpoints=_STEPS[p]),
        scales=_SCALES[("summit-sat", p)], reps=_REPS[p], seed=60,
    )


# ---------------------------------------------------------------------------
# Fig. 7 — partial overlap: time steps per computation phase
# ---------------------------------------------------------------------------


def fig7(profile: Optional[str] = None) -> FigureData:
    """Nyx on Cori: application duration vs time steps per compute phase.

    Total simulation steps stay fixed; the plotfile interval varies, so
    small intervals mean many I/O phases.  The estimated durations come
    from the Eq. 1/2 model with costs measured on the *largest*
    interval's runs (the model's history-driven workflow).
    """
    p = resolve_profile(profile)
    total_steps = 48 if p == "quick" else 192
    intervals = ([1, 2, 4, 8, 16, 48] if p == "quick"
                 else [1, 3, 6, 12, 24, 48, 96, 192])
    nranks = 128 if p == "quick" else 512
    machine = cori_haswell()
    # Short steps relative to the plotfile cost, so checkpoint frequency
    # visibly stretches the synchronous duration (the Fig. 7 regime).
    seconds_per_step = 0.1

    fig = FigureData(
        name="fig7",
        title=f"Nyx on Cori-Haswell: application duration vs time steps per "
              f"computation phase ({total_steps} total steps, {nranks} ranks)",
        columns=["steps/phase", "io phases", "sync s", "est sync s",
                 "async s", "est async s"],
    )

    grid = [(mode, interval) for interval in intervals
            for mode in ("sync", "async")]
    nyx = registry.workload("nyx-small")
    # The most I/O phases take longest: fan them out first.
    results = fan_out(
        [functools.partial(
            run_experiment, machine, "nyx-small", nyx.program,
            NyxConfig.small(plot_int=interval,
                            n_plotfiles=total_steps // interval,
                            seconds_per_step=seconds_per_step),
            mode=mode, nranks=nranks, op=nyx.op,
        ) for mode, interval in grid],
        costs=[total_steps // interval for _mode, interval in grid],
    )
    probe = dict(zip(grid, results))

    # Model costs from the largest-interval runs (one I/O phase each).
    ref = max(intervals)
    ref_sync = probe[("sync", ref)]
    ref_async = probe[("async", ref)]
    phase_bytes = ref_sync.total_bytes / ref_sync.n_phases
    t_io = phase_bytes / ref_sync.peak_bandwidth
    t_transact = phase_bytes / ref_async.peak_bandwidth

    for interval in intervals:
        n_phases = total_steps // interval
        costs = EpochCosts(
            t_comp=interval * seconds_per_step,
            t_io=t_io,
            t_transact=t_transact,
        )
        est_sync = app_time([costs] * n_phases, "sync")
        est_async = app_time([costs] * n_phases, "async",
                             include_final_drain=True)
        fig.add_row(
            interval, n_phases,
            probe[("sync", interval)].app_time, est_sync,
            probe[("async", interval)].app_time, est_async,
        )
    fig.meta["t_io (s)"] = t_io
    fig.meta["t_transact (s)"] = t_transact
    return fig


# ---------------------------------------------------------------------------
# Fig. 8 — run-to-run variability under contention
# ---------------------------------------------------------------------------


def fig8(profile: Optional[str] = None) -> FigureData:
    """VPIC-IO on Summit across days: sync varies, async stays flat."""
    p = resolve_profile(profile)
    days = 6 if p == "quick" else 10
    nranks = 768 if p == "quick" else 3072
    cfg = VPICConfig(steps=_STEPS[p])
    machine = summit()
    contention = ContentionModel(seed=80, median_load=0.6, sigma=0.8)

    fig = FigureData(
        name="fig8",
        title=f"VPIC-IO variability on Summit across {days} runs "
              f"({nranks} ranks)",
        columns=["day", "availability", "sync GB/s", "async GB/s"],
    )
    # Grid order is (mode, day): the sync days, then the async days.
    vpic = registry.workload("vpic")
    results = scale_sweep(
        machine, "vpic", vpic.program, lambda nranks: cfg,
        scales=[nranks], reps=days, contention=contention, op=vpic.op,
    )
    sync_runs, async_runs = results[:days], results[days:]
    for s_run, a_run in zip(sync_runs, async_runs):
        fig.add_row(s_run.day, s_run.availability,
                    s_run.peak_bandwidth / GB, a_run.peak_bandwidth / GB)
    s = variability_stats([r.peak_bandwidth for r in sync_runs])
    a = variability_stats([r.peak_bandwidth for r in async_runs])
    fig.meta["sync CV"] = s.cv
    fig.meta["async CV"] = a.cv
    fig.meta["sync max/min"] = s.spread_ratio
    fig.meta["async max/min"] = a.spread_ratio
    return fig


# ---------------------------------------------------------------------------
# Robustness extension — checkpoint recovery under injected faults
# ---------------------------------------------------------------------------


def fig_faults(profile: Optional[str] = None) -> FigureData:
    """Checkpoint-restart goodput and data-loss window under faults.

    Not a paper figure: the evaluation covers only the happy path.  A
    checkpointing job is killed mid-epoch at each injected flaky-write
    rate; the table compares sync vs async on durable progress, the
    data-loss window, and goodput across kill + restart (see
    :mod:`repro.harness.recovery`).  The synchronous writer surfaces
    the first fault to the application and forfeits every later epoch;
    the async VOL's retry + sync-fallback ladder absorbs the same
    faults and keeps goodput flat.
    """
    from repro.harness.recovery import recovery_sweep
    from repro.workloads.restart import RestartConfig

    p = resolve_profile(profile)
    nranks = 12 if p == "quick" else 96
    rates = (0.0, 0.05, 0.2) if p == "quick" else (0.0, 0.02, 0.05, 0.1, 0.2)
    cfg = RestartConfig(elems_per_rank=Mi, checkpoints=4, compute_seconds=5.0)
    results = recovery_sweep(summit(), nranks, fault_rates=rates,
                             config=cfg, seed=90)
    fig = FigureData(
        name="fig-faults",
        title=f"checkpoint recovery under injected faults, Summit "
              f"({nranks} ranks, kill at 60%)",
        columns=["mode", "fault rate", "durable ckpts", "lost ckpts",
                 "loss window s", "goodput", "retries", "fallbacks"],
        results=results,
    )
    for r in results:
        fig.add_row(r.mode, r.fault_rate, r.durable_checkpoints,
                    r.lost_checkpoints, r.data_loss_window, r.goodput,
                    r.retries, r.fallbacks)
    return fig


def fig_sched(profile: Optional[str] = None) -> FigureData:
    """Fleet tail latency by scheduling policy at two cluster loads.

    Not a paper figure: an extension grounded in Fig. 8's variability
    result.  A seeded multi-tenant job stream (VPIC / BD-CATS / Nyx /
    Castro / SW4 / Cosmoflow mix) is co-run on one storage-starved
    testbed under FIFO, conservative backfill, and the I/O-aware
    policy that applies the paper's sync-vs-async model at admission
    time; the table reports per-policy goodput, p50/p95/p99 queue wait
    and completion time, makespan and PFS utilization at a high and a
    moderate arrival rate.
    """
    p = resolve_profile(profile)
    n_jobs = 25 if p == "quick" else 60
    # The same fleets as ``repro sched --jobs N --seed 7``.
    tasks = [
        SweepTask(kind="sched", machine="sched-testbed", mode=policy,
                  scale=load, seed=7, jobs=n_jobs,
                  rank_choices=(8, 16, 32), size_scale=4.0)
        for load in (2.0, 4.0) for policy in ("fifo", "backfill", "io-aware")
    ]
    fleets = fan_out([functools.partial(execute, t) for t in tasks])
    fig = FigureData(
        name="fig-sched",
        title=f"multi-tenant scheduling on {sched_testbed().name} "
              f"({n_jobs} jobs/stream, loads = mean interarrival s)",
        columns=["load", "policy", "done", "async", "jobs/h",
                 "wait p95", "compl p50", "compl p95", "compl p99",
                 "makespan", "PFS util"],
        results=fleets,
    )
    for m in fleets:
        fig.add_row(
            m.mean_interarrival, m.policy, m.completed, m.n_async,
            m.goodput_jobs_per_hour, m.wait_p95, m.completion_p50,
            m.completion_p95, m.completion_p99, m.makespan,
            m.pfs_utilization,
        )
    return fig


# ---------------------------------------------------------------------------
# §III-B1 micro-benchmarks
# ---------------------------------------------------------------------------


def microbench_memcpy(profile: Optional[str] = None) -> FigureData:
    """Host memcpy bandwidth vs size on both machines (§III-B1)."""
    resolve_profile(profile)
    fig = FigureData(
        name="mb-memcpy",
        title="memcpy bandwidth vs transfer size (constant above 32 MB)",
        columns=["size MiB", "summit GB/s", "cori GB/s"],
    )
    s_samples = memcpy_microbench(summit())
    c_samples = memcpy_microbench(cori_haswell())
    for s, c in zip(s_samples, c_samples):
        fig.add_row(s.nbytes / Mi, s.bandwidth / GB, c.bandwidth / GB)
    return fig


def microbench_gpu(profile: Optional[str] = None) -> FigureData:
    """GPU↔CPU copy bandwidth vs size, pinned vs pageable (§III-B1)."""
    resolve_profile(profile)
    fig = FigureData(
        name="mb-gpu",
        title="Summit NVLink device-host copy bandwidth (amortized above "
              "10 MB; pinned near the 50 GB/s theoretical peak)",
        columns=["size MiB", "pinned GB/s", "pageable GB/s"],
    )
    pinned = gpu_transfer_microbench(summit(), pinned=True)
    pageable = gpu_transfer_microbench(summit(), pinned=False)
    for p_, q in zip(pinned, pageable):
        fig.add_row(p_.nbytes / Mi, p_.bandwidth / GB, q.bandwidth / GB)
    return fig


#: Every figure id, in ``repro figures`` order, with its maker.
FIGURES: dict[str, Callable[[Optional[str]], FigureData]] = {
    "fig3a": fig3a, "fig3b": fig3b, "fig3c": fig3c, "fig3d": fig3d,
    "fig4a": fig4a, "fig4b": fig4b, "fig4c": fig4c, "fig4d": fig4d,
    "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
    "fig-faults": fig_faults, "fig-sched": fig_sched,
    "mb-memcpy": microbench_memcpy, "mb-gpu": microbench_gpu,
}
#: The §III-B1 micro-benchmark ids among :data:`FIGURES`.
MICROBENCH_IDS = ("mb-memcpy", "mb-gpu")
