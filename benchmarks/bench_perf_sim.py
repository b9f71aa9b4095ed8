"""Simulator fast-path performance regression harness.

Times the optimized flow-class allocator (:mod:`repro.sim.network`)
against the frozen per-flow reference (:mod:`repro.sim.network_ref`) on
the traffic shapes from :mod:`repro.sim.traffic`:

- ``identical_flows`` — N identical flows, the single-class best case;
- ``mixed_classes`` — K heterogeneous classes sharing a backend;
- ``fig3a`` — the VPIC-IO-shaped weak-scaling write phase at 1536 and
  4096 ranks, the shape every fig3–fig8 sweep is built from;
- ``class_churn`` — waves of short-lived flows with rotating
  (links, cap) keys: every wave installs fresh flow classes and drains
  the last wave's, the allocator's class install/uninstall worst case
  (few tiny classes, many filling rounds).  The class allocator runs in
  plain Python, like the reference, so it must beat it here too;
- ``many_links`` — long paths striped across a wide link pool,
  stressing the per-link class sets and saturation propagation.

Every scenario also cross-checks that both allocators produce
**bit-identical** completion times and final rates — a perf number from
a diverged simulation would be meaningless.

Each scenario's best-of-repeats speedup is gated against the stored
floor in ``benchmarks/perf_budget.json``; a run below budget exits
non-zero, so CI fails on perf regressions, not just correctness ones.
Budgets are set well under locally measured ratios to absorb
shared-runner noise.

A ``fleet_faults_off`` row proves the fault-tolerance hooks are
zero-cost when disabled: one fleet run with **no** injector against
the same fleet with a zero-fault injector *attached* (callbacks
registered, no events scheduled).  The two must produce byte-identical
metrics and per-job records, and the attached side must not be
measurably slower (same perf-budget gate as the allocator scenarios).
A ``cache_off`` row applies the same treatment to the staging cache:
one BD-CATS async run with an inert :class:`~repro.cache.CacheSubsystem`
attached against the bare run.

A ``scale_sweep_fanout`` row times a fig3a-shaped
:func:`repro.harness.sweep.scale_sweep` (VPIC-IO writes on Summit,
sync and async, up to 768 ranks in smoke mode and 1536 in full),
which fans its points across the host's CPUs longest first, against
the plain grid-order loop of
:func:`~repro.harness.experiment.run_experiment` calls it replaces.  The two result lists must be equal and the speedup is
gated like the allocator scenarios' (a one-CPU host runs both sides
serially, so the row needs at least two CPUs to pass its floor).

A ``vpic_async_gc_on`` row times one async VPIC-IO point on Summit
through :func:`~repro.harness.experiment.run_experiment` (384 ranks in
smoke mode, 6144 in full) with the cyclic collector **on**, so unlike
every ``benchlib.timed`` row it pays for whatever the run leaves to the
collector.  Its seconds are gated by an absolute ceiling, and a second
run of the same point with the collector off and saving what it finds
must leave no ``Flow`` or ``SimEvent`` in a reference cycle.

A ``vpic_async_point`` row times one async VPIC-IO point on Summit
(``steps=1``) with the cyclic collector **off**, at the paper's top
weak-scaling width in full mode (12,288 ranks on 2,048 nodes) and 1,536
ranks in smoke mode: the width where the network's per-rebalance
passes used to dominate.  Its seconds are gated by an absolute
ceiling.  The row also reports, from one more (untimed) run, how many
allocations ran and how many of them needed class-level rounds
(``Network.class_passes``: what the first round over link sets and
rate groups left unsettled).  ``fig3a_4096`` carries a seconds ceiling beside its speedup
floor, so the absolute time of the shape is gated too.

A ``sweep_scaling`` row runs the same declarative grid through
:func:`repro.harness.sweepengine.run_sweep` at one worker and at the
host's width (``max(2, nproc)``), gates the merged artifacts
byte-identical and records points/sec for both.  Its throughput is
reported, not gated: which side wins depends on the host.

Results land in ``BENCH_sim.json`` (``repro-bench/v1``, see
``benchlib.py``) at the repository root: wall seconds per side and
their repeats, speedup, the :class:`repro.sim.engine.EngineStats`
counters, and every gate verdict.

Run standalone (full mode, best-of-3 timings)::

    PYTHONPATH=src python benchmarks/bench_perf_sim.py

or in CI smoke mode (small shapes, single timing, same schema)::

    PYTHONPATH=src python benchmarks/bench_perf_sim.py --smoke

Also collectable via pytest (runs the smoke shapes through the same
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_sim.py
"""

from __future__ import annotations

import gc
import json
import time

import benchlib
from repro.sim import SimEvent, network, network_ref
from repro.sim.traffic import (
    class_churn,
    fig3a_phase,
    identical_flows,
    many_links,
    mixed_classes,
)

BENCH = "sim"


def _scenarios(smoke: bool):
    """(name, builder, builder-kwargs) triples for the selected mode."""
    if smoke:
        return [
            ("identical_flows", identical_flows, dict(n=2000)),
            ("mixed_classes", mixed_classes,
             dict(n_classes=16, flows_per_class=8)),
            ("fig3a_384", fig3a_phase,
             dict(ranks=384, timesteps=1, datasets=2)),
            ("class_churn", class_churn,
             dict(waves=30, flows_per_wave=6)),
            ("many_links", many_links,
             dict(nflows=150, nlinks=32, path_len=5)),
        ]
    return [
        ("identical_flows", identical_flows, dict(n=20000)),
        ("mixed_classes", mixed_classes,
         dict(n_classes=64, flows_per_class=32)),
        ("fig3a_1536", fig3a_phase,
         dict(ranks=1536, timesteps=2, datasets=8)),
        ("fig3a_4096", fig3a_phase,
         dict(ranks=4096, timesteps=2, datasets=8)),
        ("class_churn", class_churn,
         dict(waves=150, flows_per_wave=8)),
        ("many_links", many_links,
         dict(nflows=600, nlinks=96, path_len=6)),
    ]


def speedup_row(name, params, fast, ref, repeats, wire):
    """Time ``fast`` against ``ref``, alternating, ``repeats`` times each.

    The row's ``speedup`` is best-of ``ref`` over best-of ``fast``, and
    ``identical`` compares ``wire`` of each side's last result.
    Returns the row and the fast side's last result.
    """
    samples = {"fast_s": [], "ref_s": []}
    last = {}
    for _ in range(repeats):
        for leg, fn in (("fast_s", fast), ("ref_s", ref)):
            seconds, last[leg] = benchlib.timed(fn)
            samples[leg].append(seconds)
    fast_s, ref_s = min(samples["fast_s"]), min(samples["ref_s"])
    values = {"fast_s": round(fast_s, 4), "ref_s": round(ref_s, 4),
              "speedup": round(ref_s / fast_s, 2),
              "identical": wire(last["fast_s"]) == wire(last["ref_s"])}
    return benchlib.row(name, params, values, samples), last["fast_s"]


def _simulate(net_mod, builder, kwargs):
    def run():
        engine, _net, flows = builder(net_mod, **kwargs)
        engine.run()
        return engine, flows
    return run


def _trace(result):
    _engine, flows = result
    return [(f.started_at, f.finished_at, f.rate) for f in flows]


def scenario_row(name, builder, kwargs, repeats):
    """Fast allocator vs reference on one traffic shape."""
    r, (engine, _flows) = speedup_row(
        name, kwargs, _simulate(network, builder, kwargs),
        _simulate(network_ref, builder, kwargs), repeats, wire=_trace)
    stats = engine.stats.snapshot()
    for counter in ("events", "fastpath_events", "rebalances",
                    "rebalances_skipped", "allocator_rounds"):
        r["values"][counter] = stats[counter]
    return r


def _parity_row(name, params, with_hooks, bare, payload, drop, repeats):
    """Zero-cost-off row: the hooked side (``fast``) against the bare
    run (``ref``); their ``payload`` dicts must agree byte-for-byte once
    the hooked side's own bookkeeping field ``drop`` is removed."""
    def wire(result):
        return json.dumps({k: v for k, v in payload(result).items()
                           if k != drop}, sort_keys=True)

    bare()  # warmup: imports and allocator caches off the clock
    return speedup_row(name, params, with_hooks, bare, repeats,
                                wire)[0]


def faults_off_row(smoke, repeats):
    """Fault hooks must cost nothing when no faults are configured:
    :func:`~repro.harness.sched.run_fleet` bare against the same fleet
    with an all-zero :class:`~repro.faults.FaultConfig` attached (the
    ledger callbacks are registered, the degraded-admission check runs,
    but no fault events exist)."""
    from repro.faults import FaultConfig
    from repro.harness.sched import run_fleet, sched_testbed
    from repro.sched import StreamConfig

    machine = sched_testbed()
    cfg = StreamConfig(n_jobs=6 if smoke else 12, seed=7,
                       mean_interarrival=4.0)

    def fleet(fault_config):
        return lambda: run_fleet(machine, cfg, "fifo",
                                 fault_config=fault_config)

    return _parity_row("fleet_faults_off",
                       {"n_jobs": cfg.n_jobs, "seed": cfg.seed},
                       fleet(FaultConfig()), fleet(None),
                       lambda m: m.to_dict(), "fault_signature", repeats)


def cache_off_row(smoke, repeats):
    """The staging-cache hooks must cost nothing when the cache is off:
    one BD-CATS async run bare (no subsystem built) against the same run
    with ``cache_mode="off"`` (an inert
    :class:`~repro.cache.CacheSubsystem` that every VOL / drain hook
    consults, with all behavior flags down)."""
    from dataclasses import asdict

    from repro.harness import run_experiment
    from repro.platform import testbed as make_testbed
    from repro.workloads import (
        BDCATSConfig, bdcats_program, prepopulate_vpic_file,
    )

    cfg = BDCATSConfig(
        particles_per_rank=(1 << 18) if smoke else (1 << 20),
        n_properties=4, steps=3 if smoke else 5, compute_seconds=10.0,
    )
    nranks = 16 if smoke else 32
    machine = make_testbed(nodes=nranks // 4, ranks_per_node=4)

    def experiment(cache_mode):
        return lambda: run_experiment(
            machine, "bdcats", bdcats_program, cfg, mode="async",
            nranks=nranks, op="read",
            prepopulate=lambda lib, n: prepopulate_vpic_file(lib, cfg, n),
            cache_mode=cache_mode,
        )

    # One run is a few milliseconds; a single timing would gate on
    # scheduler noise, so take best-of-3 even in smoke mode.
    return _parity_row("cache_off",
                       {"nranks": nranks,
                        "particles_per_rank": cfg.particles_per_rank},
                       experiment("off"), experiment(None), asdict,
                       "cache_stats", max(repeats, 3))


def scale_sweep_fanout_row(smoke, repeats):
    """``scale_sweep``'s fan-out against the serial grid-order loop."""
    from repro.harness import run_experiment
    from repro.harness.sweep import scale_sweep
    from repro.platform import ContentionModel, summit
    from repro.pool import available_cpus
    from repro.workloads import VPICConfig, vpic_program

    machine, config = summit(), VPICConfig(steps=1)
    scales = (96, 192, 384, 768) if smoke else (96, 192, 384, 768, 1536)
    modes = ("sync", "async")
    contention = ContentionModel(seed=31, median_load=0.15, sigma=0.5)

    def fanned():
        return scale_sweep(machine, "vpic-io", vpic_program,
                           lambda nranks: config, scales=scales,
                           modes=modes, reps=1, contention=contention)

    def serial():
        return [run_experiment(machine, "vpic-io", vpic_program, config,
                               mode=mode, nranks=nranks,
                               contention=contention)
                for nranks in scales for mode in modes]

    # Freshly forked workers can start on the parent's CPU and spread
    # only after some hundreds of milliseconds, so the smoke grid keeps
    # the 768-rank points (about 1 s serial) and takes best-of-3.
    return speedup_row(
        "scale_sweep_fanout",
        {"scales": list(scales), "modes": list(modes), "reps": 1,
         "cpus": available_cpus()},
        fanned, serial, max(repeats, 3), wire=list)[0]


def gc_on_row(smoke, repeats):
    """One async VPIC-IO point timed with the collector on (best of
    ``repeats``), and the count of ``SimEvent`` objects (a ``Flow`` is
    one) that only the collector could free after one more run of it."""
    from repro.harness import run_experiment
    from repro.platform import summit
    from repro.workloads import VPICConfig, vpic_program

    nranks = 384 if smoke else 6144

    def point():
        run_experiment(summit(), "vpic-io", vpic_program,
                       VPICConfig(steps=1), mode="async", nranks=nranks)

    samples = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        point()
        samples.append(time.perf_counter() - start)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        point()
        gc.collect()
        cyclic = sum(isinstance(obj, SimEvent) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return benchlib.row(
        "vpic_async_gc_on",
        {"nranks": nranks, "mode": "async", "steps": 1},
        {"gc_on_s": round(min(samples), 4), "cyclic_flow_events": cyclic},
        {"gc_on_s": samples},
    )


def vpic_point_row(smoke, repeats):
    """One async VPIC-IO point on Summit, collector off (best of
    ``repeats``), with the allocations and class-level passes of one
    more run."""
    from repro.harness import run_experiment
    from repro.sim import network
    from repro.platform import summit
    from repro.workloads import VPICConfig, vpic_program

    nranks = 1536 if smoke else 12288
    samples = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = run_experiment(summit(), "vpic-io", vpic_program,
                                    VPICConfig(steps=1), mode="async",
                                    nranks=nranks)
            samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
    counts = {"allocations": 0, "class_passes": 0}
    allocate = network.Network._allocate

    def counting(net):
        before = net.class_passes
        allocate(net)
        counts["allocations"] += 1
        counts["class_passes"] += net.class_passes - before

    network.Network._allocate = counting
    try:
        run_experiment(summit(), "vpic-io", vpic_program,
                       VPICConfig(steps=1), mode="async", nranks=nranks)
    finally:
        network.Network._allocate = allocate
    return benchlib.row(
        "vpic_async_point",
        {"nranks": nranks, "mode": "async", "steps": 1, "gc": "off"},
        {"seconds": round(min(samples), 4),
         "app_time": result.app_time, **counts},
        {"seconds": samples},
    )


def sweep_scaling_row(smoke, repeats):
    """Sweep-engine throughput at 1 worker and at the host's width, each
    the best of ``repeats`` alternating runs.

    The grid is the paper's (mode × scale × seed) variability sweep; in
    full mode it is 64 points.  The merged artifacts must be
    byte-identical, and in full mode the fan-out must beat the serial
    run: parallel over serial points/s at or above the ``sweep_fanout``
    floor.  The 8-point smoke grid finishes in tens of milliseconds,
    too short for the pool to win, so it gates identity only.
    """
    from repro.harness.sweepengine import SweepSpec, run_sweep

    if smoke:
        spec = SweepSpec(
            kind="workload", workload="vpic", machines=("testbed",),
            modes=("sync", "async"), scales=(4.0,), seeds=(0, 1, 2, 3),
        )
    else:
        spec = SweepSpec(
            kind="workload", workload="vpic", machines=("testbed",),
            modes=("sync", "async"), scales=(8.0, 16.0),
            seeds=tuple(range(16)),
        )
    workers = benchlib.host_workers()
    # The 64-point grid takes about half a second serially, short enough
    # that one run's fan-out win can vanish in the host's noise.
    runs = {1: [], workers: []}
    for _ in range(repeats):
        for w, outcomes in runs.items():
            outcomes.append(run_sweep(spec, workers=w))
    serial, parallel = (min(outcomes, key=lambda o: o.elapsed)
                        for outcomes in runs.values())
    return benchlib.row(
        "sweep_scaling",
        {"grid": spec.describe(), "workers": workers},
        {"grid_points": len(serial.merged["points"]),
         "identical_across_workers": len(
             {o.to_json() for outcomes in runs.values() for o in outcomes})
         == 1,
         "serial_points_per_sec": round(serial.points_per_sec, 2),
         "parallel_points_per_sec": round(parallel.points_per_sec, 2)},
        {"serial_s": [o.elapsed for o in runs[1]],
         "parallel_s": [o.elapsed for o in runs[workers]]},
    )


def run_bench(smoke=False):
    repeats = 1 if smoke else 3
    rows = [scenario_row(name, builder, kwargs, repeats)
            for name, builder, kwargs in _scenarios(smoke)]
    rows += [faults_off_row(smoke, repeats), cache_off_row(smoke, repeats),
             scale_sweep_fanout_row(smoke, repeats)]
    for r in rows:
        v = r["values"]
        print(f"{r['name']:>16}: fast {v['fast_s']:.3f}s "
              f"ref {v['ref_s']:.3f}s  {v['speedup']:.2f}x  "
              f"identical={v['identical']}")
    point = vpic_point_row(smoke, repeats)
    v = point["values"]
    print(f"{'vpic_async_point':>16}: {point['params']['nranks']} ranks "
          f"{v['seconds']:.3f}s with the collector off, "
          f"{v['class_passes']} of {v['allocations']} allocations "
          f"ran class-level rounds")
    gc_on = gc_on_row(smoke, repeats)
    v = gc_on["values"]
    print(f"{'vpic_async_gc_on':>16}: {gc_on['params']['nranks']} ranks "
          f"{v['gc_on_s']:.3f}s with the collector on  "
          f"cyclic Flow/SimEvent={v['cyclic_flow_events']}")
    sweep = sweep_scaling_row(smoke, repeats)
    v = sweep["values"]
    print(f"{'sweep_scaling':>16}: {v['grid_points']} points  "
          f"1w {v['serial_points_per_sec']:.1f} pt/s, "
          f"{sweep['params']['workers']}w "
          f"{v['parallel_points_per_sec']:.1f} pt/s  "
          f"identical={v['identical_across_workers']}")
    return rows + [point, gc_on, sweep]


def gates(artifact):
    """Every gate of ``BENCH_sim.json``; returns the failures."""
    g = benchlib.Gates(artifact)
    for r in artifact["rows"]:
        v = r["values"]
        if r["name"] == "sweep_scaling":
            g.require(r, "identical_across_workers",
                      v["identical_across_workers"],
                      "sweep merged artifact differs across worker counts")
            if artifact["mode"] == "full":
                g.floor(r, "sweep_fanout",
                        round(v["parallel_points_per_sec"]
                              / v["serial_points_per_sec"], 3))
            continue
        if r["name"] == "vpic_async_point":
            g.ceiling(r, r["name"], v["seconds"])
            continue
        if r["name"] == "vpic_async_gc_on":
            g.require(r, "no_cyclic_flow_events",
                      v["cyclic_flow_events"] == 0,
                      f"{v['cyclic_flow_events']} Flow/SimEvent objects "
                      f"left in reference cycles")
            g.ceiling(r, r["name"], v["gc_on_s"])
            continue
        g.require(r, "identical", v["identical"],
                  "fast/reference results diverged")
        g.floor(r, r["name"], v["speedup"])
        if r["name"] == "fig3a_4096":
            g.ceiling(r, "fig3a_4096_s", v["fast_s"])
    return g.failures()


def test_sim_gates(tmp_path):
    artifact = benchlib.run(BENCH, run_bench, gates, smoke=True,
                            out=tmp_path / "BENCH_sim.json")
    assert artifact["ok"], "; ".join(artifact["failures"])


def main(argv=None):
    return benchlib.main(BENCH, run_bench, gates, argv)


if __name__ == "__main__":
    raise SystemExit(main())
