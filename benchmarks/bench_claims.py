"""The paper's figure claims, one gated artifact.

Regenerates every evaluation figure of §V, the §III-B1 micro-benchmarks,
the §V-C model-accuracy table, the ablations, the co-tenant extension,
the fault/scheduler extension tables (checkpoint recovery, scheduling
policy, scheduling under node crashes) and the staging-cache prefetch
comparison, and writes each as one row of ``BENCH_claims.json``
(``repro-bench/v1``, see ``benchlib.py``)::

    {"name": "fig3a", "params": {"title": ..., "profile": "quick"},
     "values": {"columns": [...], "rows": [[...], ...], "meta": {...},
                "wall_s": 5.9}, "gates": [...]}

``wall_s`` is the figure's wall-clock seconds, kept for reading and
gated by nothing.  Every shape the paper (or the ablation) claims is a
``true`` gate on the row it judges; :func:`gates` reads only the
artifact, so a committed file can be re-gated without re-running it.
The rows in :data:`REPLAYED` run twice and record whether the rerun
reproduced every result field for field (``replay_identical``); the
``cache-prefetch`` row's stall reduction is a floor from
``perf_budget.json``.

The figures' scale profile comes from ``REPRO_PROFILE`` alone (default
``quick``, see :mod:`repro.harness.figures`)::

    PYTHONPATH=src python benchmarks/bench_claims.py
    REPRO_PROFILE=paper PYTHONPATH=src python benchmarks/bench_claims.py \\
        --out BENCH_claims_paper.json

``--smoke`` runs the same rows at the same scales and only marks the
artifact ``smoke``: a claim checked at smaller scales would be a
different claim.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time

import benchlib
from repro.analysis import fit_sweep_points
from repro.faults import chaos_config
from repro.harness import best_by_config, figures, run_experiment, scale_sweep
from repro.harness.report import FigureData
from repro.harness.sched import run_fleet, sched_testbed
from repro.hdf5 import (
    FLOAT32,
    FLOAT64,
    AsyncVOL,
    EventSet,
    H5Library,
    NativeVOL,
    slab_1d,
)
from repro.model import (
    AdaptiveVOL,
    Advisor,
    ComputeTimeModel,
    EpochCosts,
    IORateModel,
    MeasurementHistory,
    TransactOverheadModel,
    async_epoch_time,
    sync_epoch_time,
)
from repro.mpi import MPIJob
from repro.platform import Cluster, cori_haswell, summit
from repro.platform import testbed as make_testbed
from repro.sched import StreamConfig
from repro.sim import Engine
from repro.workloads import (
    BDCATSConfig,
    CastroConfig,
    VPICConfig,
    bdcats_program,
    castro_program,
    prepopulate_vpic_file,
    vpic_program,
)

BENCH = "claims"

KiB = 1 << 10
Mi = 1 << 20


# ----------------------------------------------------------------------
# §V-C model accuracy
# ----------------------------------------------------------------------
def model_accuracy(fig3a: FigureData) -> FigureData:
    """Eq. 4 fits on fig3a's own VPIC-IO Summit sweep: r², in-sample
    error, and the error of a fit without the largest scale predicting
    it.

    The meta carries the Eq. 2a/2b epoch costs at the largest scale
    from the full-sweep fits, so the epoch ordering can be re-gated.
    """
    points = fig3a.results
    scales = fig3a.column("ranks")
    target = scales[-1]
    fig = FigureData(
        "model-acc", "Eq. 4 fit accuracy on the VPIC-IO sweep (Summit)",
        columns=["mode", "transform", "r2", "max rel err %",
                 f"predict {target} err %"],
    )
    fits = {}
    for mode in ("sync", "async"):
        fit = fits[mode] = fit_sweep_points(points, mode)
        held_out = fit_sweep_points(points, mode, max_ranks=scales[-2])
        observed = {p.nranks: p.peak_bandwidth for p in points
                    if p.mode == mode}
        rel_errs = [abs(fit.estimates[n] - observed[n]) / observed[n]
                    for n in observed]
        predict_err = (abs(held_out.estimates[target] - observed[target])
                       / observed[target])
        fig.add_row(mode, fit.transform, fit.r2, 100 * max(rel_errs),
                    100 * predict_err)
    top = next(p for p in points if p.mode == "sync" and p.nranks == target)
    phase_bytes = top.total_bytes / top.n_phases
    fig.meta["fit ranks"] = f"{scales[0]}-{scales[-2]}"
    # fig3a runs VPIC-IO's default compute phase.
    fig.meta["t_comp s"] = VPICConfig().compute_seconds
    fig.meta["t_io s"] = phase_bytes / fits["sync"].estimates[target]
    fig.meta["t_transact s"] = phase_bytes / fits["async"].estimates[target]
    return fig


# ----------------------------------------------------------------------
# Ablations and the co-tenant extension
# ----------------------------------------------------------------------
ADVISOR_SCHEDULE = [6.0] * 8 + [1e-4] * 24  # long compute, then I/O-bound


def _advisor_run(policy: str) -> float:
    cluster = Cluster(Engine(), make_testbed(nodes=2, ranks_per_node=4), 2)
    lib = H5Library(cluster)
    if policy == "sync":
        vol = NativeVOL()
    elif policy == "async":
        vol = AsyncVOL(init_time=0.0)
    else:
        advisor = Advisor(
            ComputeTimeModel(decay=0.7),
            IORateModel(MeasurementHistory(), mode="sync", min_samples=3),
            TransactOverheadModel.from_memcpy_spec(cluster.machine.node.memcpy),
        )
        vol = AdaptiveVOL(NativeVOL(), AsyncVOL(init_time=0.0), advisor,
                          nranks=8)
    elems = 4 * Mi  # 32 MiB float64 per rank per epoch

    def program(ctx):
        f = yield from lib.create(ctx, "/abl.h5", vol)
        for epoch, compute in enumerate(ADVISOR_SCHEDULE):
            yield ctx.compute(compute)
            d = f.create_dataset(f"/e{epoch}/x", shape=(elems * ctx.size,),
                                 dtype=FLOAT64)
            yield from d.write(slab_1d(ctx.rank, elems), phase=epoch)
        yield from f.close()
        return ctx.now

    return max(MPIJob(cluster, 8).run(program))


def ablation_advisor() -> FigureData:
    """Adaptive mode switching (Fig. 2) vs fixed sync / fixed async on a
    workload whose compute phases shrink across the Fig. 1c boundary."""
    fig = FigureData(
        "ablation-advisor",
        "Mixed-regime workload: fixed sync, fixed async, adaptive (Fig. 2)",
        columns=["policy", "app time s"],
    )
    for policy in ("sync", "async", "adaptive"):
        fig.add_row(policy, _advisor_run(policy))
    return fig


CHUNK_RANKS = 96
CHUNK_ELEMS = [Mi // 4, Mi, 4 * Mi, 8 * Mi, None]  # x4 bytes; None: contiguous


def _chunking_run(chunk_elems) -> float:
    cluster = Cluster(Engine(), summit(), CHUNK_RANKS // 6)
    lib = H5Library(cluster)
    vol = NativeVOL()
    per_rank = 8 * Mi  # 32 MiB per rank per dataset

    def program(ctx):
        f = yield from lib.create(ctx, "/chunked.h5", vol)
        es = EventSet(ctx.engine)
        for step in range(2):
            yield ctx.compute(5.0)
            yield from ctx.barrier()
            for prop in range(8):
                d = f.create_dataset(
                    f"/Step#{step}/p{prop}", shape=(per_rank * ctx.size,),
                    dtype=FLOAT32,
                    chunks=None if chunk_elems is None else (chunk_elems,),
                )
                yield from d.write(slab_1d(ctx.rank, per_rank), phase=step,
                                   es=es)
        yield from es.wait()
        yield from f.close()

    MPIJob(cluster, CHUNK_RANKS).run(program)
    return vol.log.peak_bandwidth(op="write")


def ablation_chunking() -> FigureData:
    """HDF5 chunk size: tiny chunks pay per-request costs, large ones
    approach contiguous bandwidth."""
    fig = FigureData(
        "ablation-chunking",
        f"VPIC-IO sync write on Summit ({CHUNK_RANKS} ranks, 32 MiB/rank/"
        f"dataset) vs HDF5 chunk size",
        columns=["chunk MiB", "peak GB/s"],
    )
    for c in CHUNK_ELEMS:
        fig.add_row("contiguous" if c is None else c * 4 / Mi,
                    _chunking_run(c) / 1e9)
    return fig


COLLECTIVE_RANKS = 768  # 128 nodes: deep in the Fig. 4c collapse


def _collective_run(collective: bool, naggregators: int = 1) -> float:
    cluster = Cluster(Engine(), summit(), COLLECTIVE_RANKS // 6)
    vol = NativeVOL(collective=collective, naggregators=naggregators)
    MPIJob(cluster, COLLECTIVE_RANKS).run(
        castro_program(H5Library(cluster), vol, CastroConfig(n_plotfiles=2)))
    return vol.log.peak_bandwidth(op="write")


def ablation_collective() -> FigureData:
    """Two-phase collective buffering rebuilds the large requests that
    strong-scaled Castro writes lose."""
    nnodes = COLLECTIVE_RANKS // 6
    fig = FigureData(
        "ablation-collective",
        f"Castro sync write on Summit ({COLLECTIVE_RANKS} ranks): "
        f"independent vs two-phase collective buffering",
        columns=["strategy", "peak GB/s"],
    )
    fig.add_row("independent", _collective_run(False) / 1e9)
    fig.add_row("collective x16", _collective_run(True, 16) / 1e9)
    fig.add_row(f"collective x{nnodes}", _collective_run(True, nnodes) / 1e9)
    return fig


EFFICIENCY_SCALES = [96, 192, 384, 768]


def _castro_sync_sweep(machine):
    cfg = CastroConfig(n_plotfiles=2)
    points = best_by_config(scale_sweep(
        machine, "castro", castro_program, lambda n: cfg,
        scales=EFFICIENCY_SCALES, modes=("sync",), reps=1,
    ))
    return {p.nranks: p.peak_gbs for p in points}


def ablation_efficiency() -> FigureData:
    """Size-dependent client efficiency (DESIGN.md §5.2) is what drives
    Fig. 4c's strong-scaling decrease: without it the decrease is gone."""
    base = summit()
    without = dataclasses.replace(base, filesystem=dataclasses.replace(
        base.filesystem, efficiency_s0=1.0, client_latency_penalty=0.0))
    w, wo = _castro_sync_sweep(base), _castro_sync_sweep(without)
    fig = FigureData(
        "ablation-efficiency",
        "Castro sync write on Summit: with vs without size-dependent "
        "client efficiency (strong scaling)",
        columns=["ranks", "with eff GB/s", "without eff GB/s"],
    )
    for n in EFFICIENCY_SCALES:
        fig.add_row(n, w[n], wo[n])
    return fig


MERGE_RANKS = 128
MERGE_DATASETS = 24


def _merging_run(merge: bool) -> tuple[float, float]:
    cluster = Cluster(Engine(), cori_haswell(), MERGE_RANKS // 32)
    lib = H5Library(cluster)
    vol = AsyncVOL(init_time=0.0, merge_writes=merge)
    elems = 64 * KiB  # 512 KiB per rank per dataset: request-cost-bound

    def program(ctx):
        f = yield from lib.create(ctx, "/m.h5", vol)
        es = EventSet(ctx.engine)
        for i in range(MERGE_DATASETS):
            # Back-to-back submissions: the staging copies outpace the
            # per-request drain costs, so the background queue backs up.
            d = f.create_dataset(f"/d{i}", shape=(elems * ctx.size,),
                                 dtype=FLOAT64)
            yield from d.write(slab_1d(ctx.rank, elems), phase=i, es=es)
        yield from es.wait()
        yield from f.close()
        return ctx.now

    app_time = max(MPIJob(cluster, MERGE_RANKS).run(program))
    return app_time, vol.log.peak_bandwidth(op="write")


def ablation_merging() -> FigureData:
    """Coalescing queued async writes takes the per-request cost of a
    drain-limited workload (the Fig. 4b regime) off the critical path."""
    fig = FigureData(
        "ablation-merging",
        f"Async write merging on Cori ({MERGE_RANKS} ranks, {MERGE_DATASETS}"
        f" x 512 KiB/rank datasets, back-to-back, drain-limited)",
        columns=["merging", "app time s", "peak blocking GB/s"],
    )
    for label, merge in (("off", False), ("on", True)):
        app_time, peak = _merging_run(merge)
        fig.add_row(label, app_time, peak / 1e9)
    return fig


SHORT_INIT_TIME = 1.0  # heavy connector setup (buffers, threads, descriptors)
SHORT_COMPUTE = 0.2
SHORT_EPOCHS = [1, 2, 4, 8, 16, 32]


def _short_job_run(mode: str, epochs: int) -> float:
    cluster = Cluster(Engine(), make_testbed(nodes=2, ranks_per_node=4), 2)
    lib = H5Library(cluster)
    vol = (NativeVOL() if mode == "sync"
           else AsyncVOL(init_time=SHORT_INIT_TIME))
    elems = 32 * Mi  # 256 MiB float64 per rank per epoch

    def program(ctx):
        f = yield from lib.create(ctx, "/short.h5", vol)
        es = EventSet(ctx.engine)
        for epoch in range(epochs):
            yield ctx.compute(SHORT_COMPUTE)
            d = f.create_dataset(f"/e{epoch}", shape=(elems * ctx.size,),
                                 dtype=FLOAT64)
            yield from d.write(slab_1d(ctx.rank, elems), phase=epoch, es=es)
        yield from es.wait()
        yield from f.close()
        return ctx.now

    return max(MPIJob(cluster, 8).run(program))


def ablation_short_jobs() -> FigureData:
    """The async VOL's initialization cost (Eq. 1's ``t_init``) is only
    amortized by long enough jobs."""
    fig = FigureData(
        "ablation-short-jobs",
        f"Async t_init={SHORT_INIT_TIME}s amortization vs job length "
        f"(8 ranks, {SHORT_COMPUTE}s compute/epoch)",
        columns=["epochs", "sync s", "async s", "async wins"],
    )
    crossover = None
    for n in SHORT_EPOCHS:
        sync_t, async_t = _short_job_run("sync", n), _short_job_run("async", n)
        wins = async_t < sync_t
        if wins and crossover is None:
            crossover = n
        fig.add_row(n, sync_t, async_t, str(wins))
    fig.meta["crossover epochs"] = crossover
    return fig


STAGING_RANKS = 384


def ablation_staging() -> FigureData:
    """Async staging to node DRAM vs node-local SSD (§II-C)."""
    fig = FigureData(
        "ablation-staging",
        f"VPIC-IO async on Summit ({STAGING_RANKS} ranks): staging to DRAM "
        f"vs node-local SSD",
        columns=["staging", "peak GB/s", "app time s"],
    )
    for staging in ("dram", "ssd"):
        res = run_experiment(
            summit(), "vpic-io", vpic_program, VPICConfig(steps=3),
            mode="async", nranks=STAGING_RANKS, op="write",
            vol_kwargs={"staging": staging},
        )
        fig.add_row(staging, res.peak_gbs, res.app_time)
    return fig


STRIPE_RANKS = 1024
STRIPES = [1, 8, 72, 248]


def _striping_run(stripe_count: int) -> float:
    cluster = Cluster(Engine(), cori_haswell(), STRIPE_RANKS // 32)
    lib = H5Library(cluster)
    vol = NativeVOL()
    cfg = VPICConfig(steps=2, compute_seconds=5.0)

    def program(ctx):
        f = yield from lib.create(ctx, f"/s{stripe_count}.h5", vol,
                                  stripe_count=stripe_count)
        es = EventSet(ctx.engine)
        n_global = cfg.particles_per_rank * ctx.size
        for step in range(cfg.steps):
            yield ctx.compute(cfg.compute_seconds)
            for prop in range(cfg.n_properties):
                d = f.create_dataset(f"/Step#{step}/p{prop}",
                                     shape=(n_global,), dtype=FLOAT32)
                yield from d.write(slab_1d(ctx.rank, cfg.particles_per_rank),
                                   phase=step, es=es)
        yield from es.wait()
        yield from f.close()

    MPIJob(cluster, STRIPE_RANKS).run(program)
    return vol.log.peak_bandwidth(op="write")


def ablation_striping() -> FigureData:
    """Lustre stripe count: a file's sync ceiling is
    ``stripe_count x ost_bandwidth`` until injection limits take over."""
    ost_bw = cori_haswell().filesystem.ost_bandwidth
    fig = FigureData(
        "ablation-striping",
        f"VPIC-IO sync write on Cori ({STRIPE_RANKS} ranks) vs Lustre "
        f"stripe count",
        columns=["stripe count", "peak GB/s", "stripe ceiling GB/s"],
    )
    for s in STRIPES:
        fig.add_row(s, _striping_run(s) / 1e9, s * ost_bw / 1e9)
    return fig


COTENANT_RANKS = 768  # victim job size (128 nodes): backend-bound on GPFS


def _cotenant_run(mode: str, with_aggressor: bool) -> tuple[float, int]:
    """The victim's mean write bandwidth and how many of its ranks were
    still running when the engine drained."""
    engine = Engine()
    cluster = Cluster(engine, summit(), (COTENANT_RANKS // 6) * 2)
    lib = H5Library(cluster)
    victim_vol = NativeVOL() if mode == "sync" else AsyncVOL(init_time=0.0)
    victim = MPIJob(cluster, COTENANT_RANKS, name="victim")
    procs = victim.launch(vpic_program(
        lib, victim_vol, VPICConfig(steps=3, path="/victim.h5")))
    if with_aggressor:
        # One gigantic checkpoint (56 GiB per rank per property, ~344 TB
        # total) that keeps the shared GPFS backend busy past the
        # victim's last I/O phase, from the other half of the allocation.
        aggressor_cfg = VPICConfig(steps=1, compute_seconds=0.0,
                                   particles_per_rank=14 * (1 << 30),
                                   path="/aggressor.h5")
        aggressor = MPIJob(cluster, COTENANT_RANKS, name="aggressor",
                           node_offset=COTENANT_RANKS // 6)
        aggressor.launch(vpic_program(lib, NativeVOL(), aggressor_cfg))
    engine.run()
    return (victim_vol.log.mean_bandwidth(op="write"),
            sum(proc.alive for proc in procs))


def cotenant() -> FigureData:
    """Mechanistic co-tenant contention (the Fig. 8 conclusion from real
    bandwidth sharing): a second job on the same GPFS backend costs the
    victim's sync writes, not its node-local async staging."""
    fig = FigureData(
        "cotenant",
        f"VPIC-IO victim job on Summit ({COTENANT_RANKS} ranks) with a "
        f"co-tenant writer sharing the GPFS backend",
        columns=["mode", "alone mean GB/s", "contended mean GB/s",
                 "retained %"],
    )
    alive = 0
    for mode in ("sync", "async"):
        alone, alive_alone = _cotenant_run(mode, False)
        contended, alive_contended = _cotenant_run(mode, True)
        alive += alive_alone + alive_contended
        fig.add_row(mode, alone / 1e9, contended / 1e9,
                    100.0 * contended / alone)
    fig.meta["victim ranks left running"] = alive
    return fig


# ----------------------------------------------------------------------
# Scheduling under node crashes, and deadline prefetch
# ----------------------------------------------------------------------
CHAOS_RATE = 10.0  # expected node crashes per node per 1000 sim-seconds
CHAOS_FAULT_SEED = 3
CHAOS_SEEDS = (0, 1, 2)


def _chaos_fleet(seed, checkpoint_restart=True, **stream):
    """One FIFO fleet under ``seed``'s crash schedule (decorrelated
    across stream seeds)."""
    return run_fleet(
        sched_testbed(), StreamConfig(seed=seed, **stream), "fifo",
        fault_config=chaos_config(CHAOS_RATE,
                                  seed=CHAOS_FAULT_SEED + 7919 * seed),
        checkpoint_restart=checkpoint_restart)


def sched_chaos() -> FigureData:
    """Fleets under rate-based node crashes: restarting crash victims
    from durable checkpoints beats restarting them from scratch, and
    async checkpointing loses less work than sync.

    Two fleet shapes, chosen so crashes reliably hit running jobs:
    compute-heavy streams (long phases, a big crash cross-section) for
    the checkpoint-vs-scratch comparison, and I/O-heavy streams whose
    checkpoint writes cost seconds, so sync durability (blocks until
    landed) trails async (lands during the next compute phase) at kill
    time, for the sync-vs-async one.
    """
    fig = FigureData(
        "sched-chaos",
        f"FIFO fleets on {sched_testbed().name} under {CHAOS_RATE:g} node "
        f"crashes per node per 1000 s",
        columns=["section", "variant", "seed", "done", "node kills",
                 "requeues", "lost work s", "jobs/h", "fault signature"],
    )
    fleets = [("checkpoint", variant, seed, _chaos_fleet(
        seed, variant == "checkpoint", n_jobs=12, mean_interarrival=5.0,
        compute_scale=6.0))
        for seed in CHAOS_SEEDS for variant in ("checkpoint", "scratch")]
    fleets += [("ckpt-mode", mode, seed, _chaos_fleet(
        seed, n_jobs=10, mean_interarrival=6.0, compute_scale=4.0,
        size_scale=12.0, mode_mix=((mode, 1.0),)))
        for seed in CHAOS_SEEDS for mode in ("sync", "async")]
    for section, variant, seed, m in fleets:
        fig.add_row(section, variant, seed, m.completed, m.node_kills,
                    m.requeues, m.lost_work_seconds, m.goodput_jobs_per_hour,
                    m.fault_signature)
        fig.results.append(m)
    return fig


PREFETCH_RANKS = 16


def cache_prefetch() -> FigureData:
    """Deadline prefetch cuts the BD-CATS-IO read stall at equal bytes
    read.  The async VOL's own heuristic prefetcher is off on both
    sides, so the deadline planner is the only read-ahead in play."""
    cfg = BDCATSConfig(particles_per_rank=Mi, n_properties=8, steps=3,
                       compute_seconds=30.0)
    machine = make_testbed(nodes=PREFETCH_RANKS // 4, ranks_per_node=4)
    fig = FigureData(
        "cache-prefetch",
        f"BD-CATS-IO async read on a {PREFETCH_RANKS}-rank testbed: "
        f"staging cache off vs deadline prefetch on",
        columns=["cache", "app time s", "read stall s", "bytes read"],
    )
    for cache_mode in ("off", "on"):
        res = run_experiment(
            machine, "bdcats", bdcats_program, cfg, mode="async",
            nranks=PREFETCH_RANKS, op="read",
            prepopulate=lambda lib, n: prepopulate_vpic_file(lib, cfg, n),
            vol_kwargs={"prefetcher": None}, cache_mode=cache_mode,
        )
        fig.add_row(cache_mode, res.app_time, res.read_stall_seconds,
                    res.total_bytes)
    off, on = fig.column("read stall s")
    fig.meta["stall reduction"] = 1.0 - on / off
    fig.meta["cache hits"] = res.cache_stats["hits"]
    fig.meta["on-time ratio"] = res.cache_stats["on_time_ratio"]
    return fig


#: The rows after ``figures.FIGURES`` and model-acc, in artifact order:
#: the figure makers take the profile, model-acc fits fig3a's sweep, and
#: these take nothing.
EXTENSIONS = [
    ablation_advisor, ablation_chunking, ablation_collective,
    ablation_efficiency, ablation_merging, ablation_short_jobs,
    ablation_staging, ablation_striping, cotenant, sched_chaos,
    cache_prefetch,
]
#: Rows whose every result a same-seed rerun must reproduce.
REPLAYED = ("fig-faults", "fig-sched", "sched-chaos")


def _dump(results) -> str:
    """Every field of every result, nested records included."""
    return json.dumps([dataclasses.asdict(r) for r in results],
                      sort_keys=True)


def _row(make, params):
    """``(figure, artifact row)`` of one call to ``make``."""
    start = time.perf_counter()
    fig = make()
    values = {"columns": fig.columns, "rows": fig.rows, "meta": fig.meta,
              "wall_s": round(time.perf_counter() - start, 3)}
    if fig.name in REPLAYED:
        values["replay_identical"] = _dump(make().results) == _dump(
            fig.results)
    if fig.name == "fig-sched":
        # What the table leaves out of each fleet's terminal states.
        values["ledger"] = [
            {"load": m.mean_interarrival, "policy": m.policy,
             "submitted": m.n_jobs, "timeouts": m.timeouts,
             "failed": m.failed, "rejected": m.rejected}
            for m in fig.results]
    return fig, benchlib.row(fig.name, {"title": fig.title, **params}, values)


def run_bench(smoke):
    # ``smoke`` runs the same rows: a smaller claim is a different claim.
    profile = figures.resolve_profile()
    made = [_row(functools.partial(make, profile), {"profile": profile})
            for make in figures.FIGURES.values()]
    fig3a = next(fig for fig, _row in made if fig.name == "fig3a")
    made.append(_row(functools.partial(model_accuracy, fig3a),
                     {"profile": profile}))
    made += [_row(make, {}) for make in EXTENSIONS]
    return [row for _fig, row in made]


# ----------------------------------------------------------------------
# Gates: one ``true`` gate per claim, reading only the artifact
# ----------------------------------------------------------------------
class _Table:
    """One row's table: ``t["sync GB/s"]`` is a column, ``t.meta`` the
    figure's scalars."""

    def __init__(self, r):
        self.values = r["values"]
        self.columns = self.values["columns"]
        self.rows = self.values["rows"]
        self.meta = self.values["meta"]

    def __getitem__(self, column):
        i = self.columns.index(column)
        return [row[i] for row in self.rows]

    def by(self, key, column):
        """``column`` keyed by the values of ``key``."""
        return dict(zip(self[key], self[column]))

    def growth(self, column):
        """Last over first value of ``column``."""
        values = self[column]
        return values[-1] / values[0]


def _pairs(t, low, high):
    return zip(t[low], t[high])


def _approx(actual, expected, rel):
    """``pytest.approx`` with its default 1e-12 absolute floor."""
    return abs(actual - expected) <= max(rel * abs(expected), 1e-12)


def _async_runs(t, faulted=True):
    """``(async run, sync run)`` of fig-faults at every fault rate > 0,
    or at every rate unless ``faulted``; each run maps column to value."""
    runs = {(row[0], row[1]): dict(zip(t.columns, row)) for row in t.rows}
    return [(run, runs["sync", rate]) for (mode, rate), run in runs.items()
            if mode == "async" and (rate > 0 or not faulted)]


def _fleets(t, column):
    """fig-sched's ``column`` keyed by ``(load, policy)``."""
    return dict(zip(zip(t["load"], t["policy"]), t[column]))


def _io_aware_beats_fifo(t, column, better):
    return all(better(_fleets(t, column)[load, "io-aware"],
                      _fleets(t, column)[load, "fifo"])
               for load in set(t["load"]))


def _chaos(t, variant, column):
    """sched-chaos's ``column`` of the ``variant`` fleets, keyed by seed."""
    return {seed: value for v, seed, value
            in zip(t["variant"], t["seed"], t[column]) if v == variant}


def _chaos_total(t, variant, column):
    return sum(_chaos(t, variant, column).values())


def _epoch_costs(t):
    return EpochCosts(t_comp=t.meta["t_comp s"], t_io=t.meta["t_io s"],
                      t_transact=t.meta["t_transact s"])


#: Figs. 3a/3b: async scales linearly, sync saturates, §V-C r² bands.
WRITE_SCALING = [
    ("async_linear", "async grows > 0.9x as fast as ranks",
     lambda t: t.growth("async GB/s") > 0.9 * t.growth("ranks")),
    ("sync_saturates", "sync grows < 0.75x as fast as ranks",
     lambda t: t.growth("sync GB/s") < 0.75 * t.growth("ranks")),
    ("async_beats_sync_2x_at_top", "async > 2x sync at the largest scale",
     lambda t: t["async GB/s"][-1] > 2 * t["sync GB/s"][-1]),
    ("r2_sync_band", "r2 sync > 0.8", lambda t: t.meta["r2 sync"] > 0.8),
    ("r2_async_band", "r2 async > 0.9", lambda t: t.meta["r2 async"] > 0.9),
    ("fit_async_linear", "fit async is linear",
     lambda t: t.meta["fit async"] == "linear"),
]
#: Figs. 3c/3d: prefetch-served async reads dwarf blocking reads.
READ_SCALING = [
    ("async_beats_sync_2x_everywhere", "async > 2x sync at every scale",
     lambda t: all(a > 2 * s for s, a in _pairs(t, "sync GB/s",
                                                "async GB/s"))),
    ("async_beats_sync_5x_at_top", "async > 5x sync at the largest scale",
     lambda t: t["async GB/s"][-1] > 5 * t["sync GB/s"][-1]),
    ("r2_async_band", "r2 async > 0.9", lambda t: t.meta["r2 async"] > 0.9),
]

#: Row name -> its claims: ``(gate name, claim, holds(table))``.
CLAIMS = {
    "fig3a": WRITE_SCALING + [
        ("fit_sync_linear_log", "fit sync is linear-log",
         lambda t: t.meta["fit sync"] == "linear-log"),
        ("sync_under_gpfs_ceiling", "sync <= the 2500 GB/s GPFS ceiling",
         lambda t: max(t["sync GB/s"]) <= 2500.0),
    ],
    "fig3b": WRITE_SCALING + [
        ("sync_under_stripe_ceiling", "sync <= the 72-OST stripe ceiling",
         lambda t: max(t["sync GB/s"]) <= 72 * 2.9 * 1.02),
    ],
    "fig3c": READ_SCALING,
    "fig3d": READ_SCALING,
    "fig4a": [
        ("sync_marginal_gain", "sync rises <= 1.45x",
         lambda t: t["sync GB/s"][-1] <= t["sync GB/s"][0] * 1.45),
        ("sync_sublinear", "sync grows < 0.5x as fast as ranks",
         lambda t: t.growth("sync GB/s") < 0.5 * t.growth("ranks")),
        ("async_grows", "async grows > 1.5x",
         lambda t: t["async GB/s"][-1] > 1.5 * t["async GB/s"][0]),
        ("async_beats_sync_2x_at_top", "async > 2x sync at the largest scale",
         lambda t: t["async GB/s"][-1] > 2 * t["sync GB/s"][-1]),
    ],
    "fig4b": [
        ("sync_poor_everywhere", "sync < 0.8x the 209 GB/s stripe ceiling",
         lambda t: max(t["sync GB/s"]) < 0.8 * 209.0),
        ("async_sublinear", "async grows < 0.85x as fast as ranks",
         lambda t: t.growth("async GB/s") < 0.85 * t.growth("ranks")),
    ],
    "fig4c": [
        ("sync_decreases", "sync falls with scale",
         lambda t: t["sync GB/s"][-1] < t["sync GB/s"][0]),
        ("async_grows", "async grows with scale",
         lambda t: t["async GB/s"][-1] > t["async GB/s"][0]),
        ("async_beats_sync_at_top", "async > sync at the largest scale",
         lambda t: t["async GB/s"][-1] > t["sync GB/s"][-1]),
    ],
    "fig4d": [
        ("sync_grows_first", "sync rises above its smallest scale",
         lambda t: max(t["sync GB/s"]) > t["sync GB/s"][0]),
        ("sync_tail_flat", "sync tail < 1.5x its midpoint",
         lambda t: t["sync GB/s"][-1] < 1.5 * t["sync GB/s"][len(t.rows) // 2]),
        ("async_grows", "async grows with scale",
         lambda t: t["async GB/s"][-1] > t["async GB/s"][0]),
    ],
    "fig5": [
        ("sync_sublinear", "sync grows slower than ranks",
         lambda t: t.growth("sync GB/s") < t.growth("ranks")),
        ("async_beats_sync_everywhere", "async > sync at every scale",
         lambda t: all(a > s for s, a in _pairs(t, "sync GB/s",
                                                "async GB/s"))),
        ("async_beats_sync_1_5x_at_top", "async > 1.5x sync at the largest "
         "scale", lambda t: t["async GB/s"][-1] > 1.5 * t["sync GB/s"][-1]),
    ],
    "fig6": [
        ("sync_decreases", "sync falls with scale",
         lambda t: t["sync GB/s"][-1] < t["sync GB/s"][0]),
        ("async_steady", "async keeps >= 90 % of its smallest scale",
         lambda t: t["async GB/s"][-1] >= t["async GB/s"][0] * 0.9),
        ("async_beats_sync_at_top", "async > sync at the largest scale",
         lambda t: t["async GB/s"][-1] > t["sync GB/s"][-1]),
        ("est_sync_within_50pct", "the Eq. 4 sync estimate is within 50 %",
         lambda t: all(abs(e - m) / m < 0.5 for m, e in
                       _pairs(t, "sync GB/s", "est sync GB/s"))),
        ("r2_async_band", "r2 async > 0.9", lambda t: t.meta["r2 async"] > 0.9),
    ],
    "fig7": [
        ("most_frequent_first", "the first row has 1 step/phase",
         lambda t: t["steps/phase"][0] == 1),
        ("sync_stretches", "sync at 1 step/phase > 1.2x the longest phase",
         lambda t: t["sync s"][0] > 1.2 * t["sync s"][-1]),
        ("async_flatter", "async stretches less than sync",
         lambda t: t["async s"][0] / t["async s"][-1]
         < t["sync s"][0] / t["sync s"][-1]),
        ("async_never_slower", "async <= 1.05x sync at every interval",
         lambda t: all(a <= s * 1.05 for s, a in _pairs(t, "sync s",
                                                        "async s"))),
        ("est_sync_within_15pct", "the Eq. 1/2 sync estimate is within 15 %",
         lambda t: all(abs(m - e) / m < 0.15 for m, e in
                       _pairs(t, "sync s", "est sync s"))),
        ("est_async_within_15pct", "the Eq. 1/2 async estimate is within "
         "15 %", lambda t: all(abs(m - e) / m < 0.15 for m, e in
                               _pairs(t, "async s", "est async s"))),
    ],
    "fig8": [
        ("days_differ", "availability differs across days",
         lambda t: max(t["availability"]) > min(t["availability"])),
        ("sync_cv_5x_async_cv", "sync CV > 5x async CV",
         lambda t: t.meta["sync CV"] > 5 * t.meta["async CV"]),
        ("sync_varies", "sync max/min > 1.2",
         lambda t: t.meta["sync max/min"] > 1.2),
        ("async_flat", "async max/min < 1.02",
         lambda t: t.meta["async max/min"] < 1.02),
        ("async_beats_sync_every_day", "async > sync on every day",
         lambda t: all(a > s for s, a in _pairs(t, "sync GB/s",
                                                "async GB/s"))),
    ],
    "fig-faults": [
        ("async_loses_no_checkpoint", "async loses no checkpoint to faults",
         lambda t: all(a["lost ckpts"] == 0 for a, _s in _async_runs(t))),
        ("async_durable_vs_sync", "async keeps >= sync's durable checkpoints "
         "at every fault rate", lambda t: all(
             a["durable ckpts"] >= s["durable ckpts"]
             for a, s in _async_runs(t, faulted=False))),
        ("faults_absorbed", "async retries or falls back at every fault "
         "rate > 0", lambda t: all(a["retries"] + a["fallbacks"] > 0
                                   for a, _s in _async_runs(t))),
        ("replay_identical", "a same-seed rerun reproduces every recovery "
         "run and its fault trace", lambda t: t.values["replay_identical"]),
    ],
    "fig-sched": [
        ("io_aware_beats_fifo_p95", "io-aware beats FIFO on p95 completion "
         "at every load", lambda t: _io_aware_beats_fifo(
             t, "compl p95", lambda io, fifo: io < fifo)),
        # The advisor must win by switching modes, not by accident.
        ("more_async_than_fifo", "io-aware runs more jobs async than FIFO "
         "at every load", lambda t: _io_aware_beats_fifo(
             t, "async", lambda io, fifo: io > fifo)),
        ("all_terminal", "every submission of every fleet completes, times "
         "out or fails", lambda t: all(
             _fleets(t, "done")[f["load"], f["policy"]] + f["timeouts"]
             + f["failed"] == f["submitted"] for f in t.values["ledger"])),
        ("none_rejected", "no fleet rejects a submission",
         lambda t: all(f["rejected"] == 0 for f in t.values["ledger"])),
        ("replay_identical", "a same-seed rerun reproduces every fleet and "
         "its per-job records", lambda t: t.values["replay_identical"]),
    ],
    "mb-memcpy": [
        ("memcpy_flat_above_32mib", "memcpy 512 MiB < 1.06x 32 MiB",
         lambda t: all(t.by("size MiB", m)[512.0] / t.by("size MiB", m)[32.0]
                       < 1.06 for m in ("summit GB/s", "cori GB/s"))),
        ("small_copies_penalized", "memcpy 1 MiB < 0.6x 512 MiB",
         lambda t: all(t.by("size MiB", m)[1.0] < 0.6 * t.by("size MiB", m)[
             512.0] for m in ("summit GB/s", "cori GB/s"))),
    ],
    "mb-gpu": [
        ("pinned_amortized_above_16mib", "pinned 512 MiB < 1.1x 16 MiB",
         lambda t: t.by("size MiB", "pinned GB/s")[512.0]
         / t.by("size MiB", "pinned GB/s")[16.0] < 1.1),
        ("pinned_near_nvlink_peak", "pinned 512 MiB > 45 GB/s",
         lambda t: t.by("size MiB", "pinned GB/s")[512.0] > 45.0),
        ("pageable_slower_everywhere", "pageable < pinned at every size",
         lambda t: all(q < p for p, q in _pairs(t, "pinned GB/s",
                                                "pageable GB/s"))),
    ],
    "model-acc": [
        ("r2_sync_band", "r2 sync > 0.8",
         lambda t: t.by("mode", "r2")["sync"] > 0.8),
        ("r2_async_band", "r2 async > 0.9",
         lambda t: t.by("mode", "r2")["async"] > 0.9),
        ("fit_sync_linear_log", "fit sync is linear-log",
         lambda t: t.by("mode", "transform")["sync"] == "linear-log"),
        ("fit_async_linear", "fit async is linear",
         lambda t: t.by("mode", "transform")["async"] == "linear"),
        ("eq2_async_epoch_shorter", "the Eq. 2b async epoch is shorter than "
         "Eq. 2a sync", lambda t: async_epoch_time(_epoch_costs(t))
         < sync_epoch_time(_epoch_costs(t))),
        # Out of sample, within fig6's est-vs-measured bound in
        # EXPERIMENTS.md: the fit on the smaller scales predicts the
        # largest one.
        ("predict_sync_within_10pct", "the sync prediction is within 10 %",
         lambda t: t.by("mode", t.columns[-1])["sync"] <= 10.0),
        ("predict_async_within_10pct", "the async prediction is within 10 %",
         lambda t: t.by("mode", t.columns[-1])["async"] <= 10.0),
    ],
    "ablation-advisor": [
        ("adaptive_within_5pct_of_best_fixed", "adaptive <= 1.05x the best "
         "fixed mode", lambda t: t.by("policy", "app time s")["adaptive"]
         <= min(t.by("policy", "app time s")["sync"],
                t.by("policy", "app time s")["async"]) * 1.05),
    ],
    "ablation-chunking": [
        ("monotone_toward_contiguous", "bandwidth never drops > 1 % as "
         "chunks grow", lambda t: all(a <= b * 1.01 for a, b in zip(
             t["peak GB/s"], t["peak GB/s"][1:]))),
        ("tiny_chunks_4x_slower", "contiguous > 4x the smallest chunks",
         lambda t: t["peak GB/s"][-1] > 4 * t["peak GB/s"][0]),
        ("one_chunk_per_request_is_contiguous", "32 MiB chunks == contiguous",
         lambda t: t.by("chunk MiB", "peak GB/s")[32.0]
         == t.by("chunk MiB", "peak GB/s")["contiguous"]),
    ],
    "ablation-collective": [
        # Rows: independent, 16 aggregators, one aggregator per node.
        ("aggregation_recovers_1_5x", "one aggregator per node > 1.5x "
         "independent", lambda t: t["peak GB/s"][2] > 1.5 * t["peak GB/s"][0]),
        ("more_aggregators_win", "one aggregator per node > 16 aggregators",
         lambda t: t["peak GB/s"][2] > t["peak GB/s"][1]),
    ],
    "ablation-efficiency": [
        ("with_eff_decreases", "with efficiency, sync falls with scale",
         lambda t: t["with eff GB/s"][-1] < t["with eff GB/s"][0]),
        ("without_eff_flat", "without efficiency, sync keeps >= 95 %",
         lambda t: t["without eff GB/s"][-1] >= t["without eff GB/s"][0] * 0.95),
        ("without_eff_2x_at_top", "without > 2x with efficiency at the "
         "largest scale", lambda t: t["without eff GB/s"][-1]
         > 2 * t["with eff GB/s"][-1]),
    ],
    "ablation-merging": [
        ("merging_cuts_app_time", "merged app time < 0.75x unmerged",
         lambda t: t.by("merging", "app time s")["on"]
         < 0.75 * t.by("merging", "app time s")["off"]),
        ("blocking_bandwidth_unchanged", "blocking bandwidth within 5 %",
         lambda t: _approx(t.by("merging", "peak blocking GB/s")["on"],
                           t.by("merging", "peak blocking GB/s")["off"],
                           rel=0.05)),
    ],
    "ablation-short-jobs": [
        ("one_epoch_cannot_amortize", "async > sync for one epoch",
         lambda t: t.by("epochs", "async s")[1] > t.by("epochs", "sync s")[1]),
        ("long_job_amortizes", "async < sync for the longest job",
         lambda t: t["async s"][-1] < t["sync s"][-1]),
        ("crossover_inside_sweep", "the crossover lies in (1, longest job]",
         lambda t: t.meta["crossover epochs"] is not None
         and 1 < t.meta["crossover epochs"] <= t["epochs"][-1]),
    ],
    "ablation-staging": [
        ("dram_2x_ssd_bandwidth", "DRAM staging > 2x SSD bandwidth",
         lambda t: t.by("staging", "peak GB/s")["dram"]
         > 2 * t.by("staging", "peak GB/s")["ssd"]),
        ("ssd_pays_in_app_time", "SSD app time > DRAM app time",
         lambda t: t.by("staging", "app time s")["ssd"]
         > t.by("staging", "app time s")["dram"]),
    ],
    "ablation-striping": [
        ("8_stripes_4x_1", "8 stripes > 4x 1 stripe",
         lambda t: t.by("stripe count", "peak GB/s")[8]
         > 4 * t.by("stripe count", "peak GB/s")[1]),
        ("72_stripes_4x_8", "72 stripes > 4x 8 stripes",
         lambda t: t.by("stripe count", "peak GB/s")[72]
         > 4 * t.by("stripe count", "peak GB/s")[8]),
        ("under_stripe_ceiling", "every stripe count <= 1.02x its ceiling",
         lambda t: all(p <= c * 1.02 for p, c in _pairs(
             t, "peak GB/s", "stripe ceiling GB/s"))),
        ("248_stripes_injection_limited", "248 stripes < half their ceiling",
         lambda t: t["peak GB/s"][-1] < t["stripe ceiling GB/s"][-1] * 0.5),
    ],
    "sched-chaos": [
        ("fault_signature", "every chaos fleet carries a fault signature",
         lambda t: all(t["fault signature"])),
        ("checkpoint_beats_scratch", "checkpoint restart beats scratch "
         "restart on summed goodput and lost work", lambda t:
         _chaos_total(t, "checkpoint", "jobs/h")
         > _chaos_total(t, "scratch", "jobs/h")
         and _chaos_total(t, "checkpoint", "lost work s")
         < _chaos_total(t, "scratch", "lost work s")),
        ("async_loses_less_than_sync", "async checkpointing loses no more "
         "work than sync on any seed and less in total", lambda t: all(
             lost <= _chaos(t, "sync", "lost work s")[seed] + 1e-9
             for seed, lost in _chaos(t, "async", "lost work s").items())
         and _chaos_total(t, "async", "lost work s")
         < _chaos_total(t, "sync", "lost work s")),
        ("node_kills", "the chaos fleets saw node kills",
         lambda t: sum(t["node kills"]) > 0),
        ("requeues", "the chaos fleets requeued jobs",
         lambda t: sum(t["requeues"]) > 0),
        ("replay_identical", "a same-seed rerun reproduces every chaos "
         "fleet", lambda t: t.values["replay_identical"]),
    ],
    "cache-prefetch": [
        ("equal_bytes", "prefetch on reads exactly the bytes prefetch off "
         "reads", lambda t: t.by("cache", "bytes read")["on"]
         == t.by("cache", "bytes read")["off"]),
        ("on_time", "every declared read lands by its deadline",
         lambda t: t.meta["on-time ratio"] >= 1.0),
        ("hits", "the prefetch-on run serves cache hits",
         lambda t: t.meta["cache hits"] > 0),
    ],
    "cotenant": [
        ("victims_finish", "every victim rank finishes",
         lambda t: t.meta["victim ranks left running"] == 0),
        ("sync_loses_to_aggressor", "contended sync < 0.8x alone",
         lambda t: t.by("mode", "contended mean GB/s")["sync"]
         < 0.8 * t.by("mode", "alone mean GB/s")["sync"]),
        ("async_unaffected", "contended async within 1 % of alone",
         lambda t: _approx(t.by("mode", "contended mean GB/s")["async"],
                           t.by("mode", "alone mean GB/s")["async"],
                           rel=0.01)),
    ],
}


def gates(artifact):
    g = benchlib.Gates(artifact)
    for name, claims in CLAIMS.items():
        r = benchlib.find(artifact["rows"], name)
        t = _Table(r)
        for gate, claim, holds in claims:
            g.require(r, gate, holds(t), f"{claim}: does not hold")
    r = benchlib.find(artifact["rows"], "cache-prefetch")
    g.floor(r, "cache_stall_reduction", _Table(r).meta["stall reduction"])
    return g.failures()


def main(argv=None):
    return benchlib.main(BENCH, run_bench, gates, argv)


if __name__ == "__main__":
    raise SystemExit(main())
