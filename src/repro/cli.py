"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures [IDS...]``
    Regenerate paper figures (all by default) and print their tables.
    ``--profile quick|paper`` selects the scale profile; ``--out DIR``
    also writes each table to ``DIR/<id>.txt``.

``list``
    List available figures, workloads and micro-benchmarks with
    one-line descriptions.

``microbench``
    Run the §III-B1 memcpy / GPU-copy micro-benchmarks.

``run``
    Run a single workload experiment and print its metrics, e.g.::

        python -m repro run --workload vpic --machine summit \\
            --mode async --ranks 768

``profile``
    Run a workload and print a Darshan-style I/O profile (per-rank
    blocked fractions, request-size histogram, per-phase table).
    ``--stats`` appends the simulator's opt-in EngineStats counters.

``sched``
    Run a seeded multi-tenant job stream through the scheduler under
    one or all policies and print the fleet metrics, e.g.::

        python -m repro sched --policy all --jobs 25 --load 2 4

    ``--seeds`` runs each (load, policy) under several streams; the
    (load × policy × seed) fleets fan out across the CPUs.  Its streams
    draw ranks from (8, 16, 32) at ``--size-scale`` (default 4.0), where
    a ``sweep --kind sched`` point draws from (4, 8, 16) at 1.0.

``sweep``
    The one way to run a grid of repeated experiments.  Fans a
    declarative (machine × mode × scale × cache × seed) grid across
    the CPUs and writes one merged JSON artifact — byte identical for
    any number of CPUs (``taskset -c 0`` runs it serially)::

        python -m repro sweep --workload vpic --scales 8 16 \\
            --seeds 0 1 2 3 --out sweep.json
        python -m repro sweep --workload bdcats --machines summit \\
            --modes async --scales 8 --seeds 0 1 2 --cache off on

    Every command runs its points as ``SweepTask`` records through one
    executor, ``sweepengine.execute``.  A sweep point keeps each
    field's default: workload points sample contention day = seed and
    keep the async VOL's heuristic prefetcher on.  ``run``, ``profile``
    and ``cache`` set ``contention=False`` (day 0), ``cache`` also
    ``prefetcher=False`` and ``tiers``, and ``sched`` sets
    ``rank_choices`` and ``size_scale``.

``cache``
    Run one read workload through the tiered staging cache (async VOL
    + :mod:`repro.cache`, the VOL's heuristic prefetcher off) and print
    hit/deadline/bytes-per-tier metrics; seed grids over the cache axis
    go through ``sweep --cache``::

        python -m repro cache --workload bdcats --ranks 8 --prefetch on

``check``
    Static analysis + optional runtime checking (the repo's own
    invariants: determinism, typed errors, hygiene)::

        python -m repro check                 # lint src/ and tests/
        python -m repro check --list-rules
        python -m repro check --runtime smoke # race/leak detector gate
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
from typing import Optional, Sequence

from repro.harness import registry
from repro.harness.figures import FIGURES, MICROBENCH_IDS
from repro.harness.sweepengine import (
    SweepSpec, SweepTask, execute, expand_grid, merged_sweep_points,
    run_sweep, sweepable_grids,
)
from repro.pool import fan_out

__all__ = ["main"]


def _execute(command: str, tasks: Sequence[SweepTask], **kwargs) -> list:
    """Results of ``tasks``, in order, fanned across the CPUs.

    Bad arguments exit with a one-line ``repro <command>: ...`` usage
    error instead of a traceback.
    """
    try:
        return fan_out([functools.partial(execute, task, **kwargs)
                        for task in tasks])
    except ValueError as err:
        raise SystemExit(f"repro {command}: {err}") from None


def _workload_task(args, **fields) -> SweepTask:
    """The one point of ``run``/``profile``/``cache``: day 0, no
    contention model."""
    return SweepTask(kind="workload", workload=args.workload,
                     machine=args.machine, scale=args.ranks,
                     contention=False, **fields)


def _cmd_list(_args) -> int:
    width = 11
    print("figures:")
    for fid, make in FIGURES.items():
        if fid not in MICROBENCH_IDS:
            doc = (make.__doc__ or "").strip().splitlines()[0]
            print(f"  {fid:{width}s}  {doc}")
    print()
    print("workloads (for 'run', 'profile', 'cache' and 'sweep'):")
    for name, entry in sorted(registry.WORKLOADS.items()):
        print(f"  {name:{width}s}  {entry.description} [{entry.op}]")
    print()
    print("micro-benchmarks:")
    for fid in MICROBENCH_IDS:
        doc = (FIGURES[fid].__doc__ or "").strip().splitlines()[0]
        print(f"  {fid:{width}s}  {doc}")
    print()
    print("sweepable grids (for 'sweep'; workload grids also take a "
          "--cache none|off|write|on axis):")
    for name, desc in sweepable_grids():
        print(f"  {name:{width}s}  {desc}")
    print()
    print("tier presets (staging-cache stacks for 'cache' --tiers; "
          "'auto' derives from the run machine):")
    from repro.cache import tier_presets
    width_t = max(len(n) for n, _ in tier_presets())
    for name, desc in tier_presets():
        print(f"  {name:{width_t}s}  {desc}")
    return 0


def _cmd_figures(args) -> int:
    ids = args.ids or list(FIGURES)
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        raise SystemExit(f"unknown figure ids: {unknown}; try 'list'")
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for fid in ids:
        fig = FIGURES[fid](args.profile)
        text = fig.to_text()
        if getattr(args, "plot", False):
            from repro.analysis import render_figure
            text = text + "\n\n" + render_figure(fig)
        print(text)
        print()
        if out_dir:
            (out_dir / f"{fid}.txt").write_text(text + "\n")
    return 0


def _cmd_microbench(args) -> int:
    return _cmd_figures(argparse.Namespace(
        ids=list(MICROBENCH_IDS), profile=args.profile, out=args.out,
        plot=getattr(args, "plot", False),
    ))


def _cmd_profile(args) -> int:
    from repro.sim import Engine
    from repro.trace import IOLog, profile_log

    log, engine = IOLog(), Engine()
    (result,) = _execute("profile", [_workload_task(args, mode=args.mode)],
                         log=log, engine=engine)
    print(f"{args.workload} ({args.mode}) on {args.machine}, "
          f"{args.ranks} ranks")
    print(profile_log(log, result.app_time).to_text())
    if args.stats:
        print()
        print("engine stats:")
        for key, value in engine.stats.snapshot().items():
            print(f"  {key:20s} {value}")
    return 0


def _sweep_progress(done: int, total: int, point: dict) -> None:
    status = ("ok" if point["ok"]
              else f"FAILED[{point['error']['kind']}]")
    print(f"  [{done}/{total}] {point['machine']}/{point['mode']}/"
          f"{point['scale']:g} seed={point['seed']} {status}",
          file=sys.stderr)


def _cmd_sched(args) -> int:
    from repro.harness.report import FigureData

    policies = (["fifo", "backfill", "io-aware"] if args.policy == "all"
                else [args.policy])
    seeds = args.seeds if args.seeds else [args.seed]
    fleets = _execute("sched", [
        SweepTask(kind="sched", machine=args.machine, mode=policy,
                  scale=load, seed=seed, jobs=args.jobs,
                  fault_rate=args.fault_rate, fault_seed=args.fault_seed,
                  checkpoint=not args.no_checkpoint,
                  rank_choices=(8, 16, 32), size_scale=args.size_scale)
        for load in args.load for policy in policies for seed in seeds
    ])
    chaos = args.fault_rate > 0.0
    title = (f"{args.jobs} jobs/stream on "
             f"{registry.machine_spec(args.machine).name}, "
             f"seeds {seeds} (loads = mean interarrival s)")
    columns = ["load", "policy", "seed", "done", "t/o", "async", "jobs/h",
               "wait p95", "compl p50", "compl p95", "compl p99",
               "makespan", "PFS util"]
    if chaos:
        title += (f"; chaos rate {args.fault_rate:g} crash/node/1000s, "
                  f"fault seed {args.fault_seed}, checkpoint-restart "
                  f"{'off' if args.no_checkpoint else 'on'}")
        columns += ["kills", "requeue", "lost s"]
    fig = FigureData(name="sched", title=title, columns=columns)
    for m in fleets:
        row = [
            m.mean_interarrival, m.policy, m.seed, m.completed, m.timeouts,
            m.n_async, m.goodput_jobs_per_hour, m.wait_p95,
            m.completion_p50, m.completion_p95, m.completion_p99,
            m.makespan, m.pfs_utilization,
        ]
        if chaos:
            row += [m.node_kills, m.requeues, m.lost_work_seconds]
        fig.add_row(*row)
    print(fig.to_text())
    return 0


def _cmd_sweep(args) -> int:
    if args.kind == "sched":
        modes = tuple(args.policies)
        scales = tuple(args.loads)
    else:
        modes = tuple(args.modes)
        scales = tuple(float(s) for s in args.scales)
    try:
        if args.kind == "workload":
            registry.workload(args.workload)  # validate early
        spec = SweepSpec(
            kind=args.kind, workload=args.workload,
            machines=tuple(args.machines), modes=modes, scales=scales,
            seeds=tuple(args.seeds), jobs=args.jobs,
            faults=tuple(args.faults), fault_seed=args.fault_seed,
            checkpoint=not args.no_checkpoint, cache=tuple(args.cache),
        )
        print(f"sweep: {spec.describe()} = {len(expand_grid(spec))} points",
              file=sys.stderr)
        outcome = run_sweep(
            spec, progress=_sweep_progress if not args.quiet else None)
    except ValueError as err:
        raise SystemExit(f"repro sweep: {err}") from None
    points = outcome.merged["points"]
    failed = [p for p in points if not p["ok"]]
    print(f"{len(points)} points in {outcome.elapsed:.2f}s "
          f"({outcome.points_per_sec:.2f} points/s, "
          f"{outcome.workers} worker(s)); {len(failed)} failed")
    for p in failed:
        print(f"  FAILED point {p['index']} "
              f"({p['machine']}/{p['mode']}/{p['scale']:g} seed={p['seed']}): "
              f"[{p['error']['family']}] {p['error']['kind']}: "
              f"{p['error']['message']}")
    if args.kind == "workload":
        # Reduce each cache mode on its own: best-of-seeds must not pick
        # across cache modes.
        for cache in spec.cache:
            label = "" if cache == "none" else f"cache={cache:5s} "
            subset = {"points": [p for p in points if p["cache"] == cache]}
            for sp in merged_sweep_points(subset):
                print(f"  {sp.mode:6s} ranks={sp.nranks:<6d} {label}"
                      f"peak={sp.peak_gbs:.2f} GB/s over "
                      f"{len(sp.all_peaks)} seed(s)")
    if args.out:
        pathlib.Path(args.out).write_text(outcome.to_json())
        print(f"merged artifact -> {args.out}")
    return 1 if failed else 0


def _runtime_smoke_text() -> str:
    """A small async VPIC-IO run rendered as a full-resolution trace.

    Used by ``check --runtime smoke``: the gate runs this twice (bare,
    then under the installed checker) and requires byte-identical text —
    proving the checker is strictly observational — plus zero findings.
    """
    from repro.trace import IOLog

    log = IOLog()
    result = execute(SweepTask(kind="workload", workload="vpic",
                               machine="testbed", mode="async", scale=4,
                               contention=False), log=log)
    lines = [f"app_time {result.app_time!r}"]
    for r in log.records:
        lines.append(
            f"{r.op} r{r.rank} ph{r.phase} {r.dataset} {r.nbytes!r} "
            f"submit={r.t_submit!r} unblocked={r.t_unblocked!r} "
            f"complete={r.t_complete!r}"
        )
    return "\n".join(lines)


def _cmd_check(args) -> int:
    from repro.check import (
        all_rules,
        check_paths,
        findings_to_json,
        findings_to_sarif,
        render_findings,
        suppression_stats,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.scope:4s}|{rule.tier:4s}]  "
                  f"{rule.title}")
            print(f"       fix: {rule.hint}")
        return 0

    paths = args.paths or [p for p in ("src", "tests")
                           if pathlib.Path(p).exists()]
    if not paths:
        raise SystemExit("no paths to check (run from the repo root, or "
                         "pass files/directories explicitly)")
    try:
        if args.stats:
            stats = suppression_stats(paths)
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        result = check_paths(paths, flow=args.flow, inter=args.inter,
                             cache_dir=args.cache_dir,
                             concurrency=args.concurrency)
    except (FileNotFoundError, ValueError) as err:
        raise SystemExit(f"repro check: {err}")
    findings = result.diff_findings() if args.diff else result.findings
    if args.format == "text":
        mode = "tree-hit" if result.tree_hit else (
            f"{result.stats['analyzed']}/{result.stats['files']} "
            f"files re-analyzed")
        print(f"{result.tier} tier: {mode}", file=sys.stderr)

    if args.update_baseline:
        payload = {
            "tool": "repro check",
            "fingerprints": sorted({f.fingerprint for f in findings}),
        }
        pathlib.Path(args.update_baseline).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"baseline: {len(payload['fingerprints'])} fingerprint(s) "
              f"recorded in {args.update_baseline}", file=sys.stderr)
        return 0
    if args.baseline:
        try:
            known = set(json.loads(
                pathlib.Path(args.baseline).read_text(encoding="utf-8")
            ).get("fingerprints", []))
        except (OSError, ValueError) as err:
            raise SystemExit(f"--baseline: cannot read {args.baseline}: "
                             f"{err}")
        suppressed = sum(1 for f in findings if f.fingerprint in known)
        findings = [f for f in findings if f.fingerprint not in known]
        if args.format == "text":
            print(f"baseline: {suppressed} known finding(s) suppressed, "
                  f"{len(findings)} regression(s)", file=sys.stderr)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        print(findings_to_sarif(findings))
    else:
        print(render_findings(findings))
    exit_code = 1 if findings else 0

    if args.runtime:
        from repro.check import RuntimeChecker

        if args.runtime == "fig3a":
            def make() -> str:
                return FIGURES["fig3a"]("quick").to_text()
        else:
            make = _runtime_smoke_text
        print(f"runtime gate ({args.runtime}): baseline run ...")
        baseline = make()
        print(f"runtime gate ({args.runtime}): checked run ...")
        checker = RuntimeChecker()
        with checker.installed():
            checked = make()
        rt_findings = checker.report()
        identical = baseline == checked
        print(f"runtime gate: output byte-identical with checker "
              f"installed: {'yes' if identical else 'NO'}")
        if rt_findings:
            for f in rt_findings:
                print(f"  {f.format()}")
        print(f"runtime gate: {len(rt_findings)} finding"
              f"{'s' if len(rt_findings) != 1 else ''}")
        if rt_findings or not identical:
            exit_code = 1
    return exit_code


def _cmd_cache(args) -> int:
    # The VOL's own heuristic prefetcher is disabled so the planner's
    # declared-read schedule is the only read-ahead in play.
    (result,) = _execute("cache", [_workload_task(
        args, mode="async", cache=args.prefetch, prefetcher=False,
        tiers=args.tiers)])
    stats = result.cache_stats or {}
    print(f"workload        {result.workload} "
          f"({registry.workload(args.workload).op})")
    print(f"machine         {result.machine}")
    print(f"tiers           {args.tiers}")
    print(f"prefetch        {args.prefetch}")
    print(f"ranks / nodes   {result.nranks} / {result.nnodes}")
    print(f"app time        {result.app_time:.2f} s (simulated)")
    print(f"read stall      {result.read_stall_seconds:.3f} s "
          f"(slowest rank)")
    print(f"hit ratio       {stats.get('hit_ratio', 0.0):.2f} "
          f"({stats.get('hits', 0)} hits / {stats.get('misses', 0)} misses)")
    print(f"on-time ratio   {stats.get('on_time_ratio', 1.0):.2f} "
          f"({stats.get('prefetch_late', 0)} late, "
          f"{stats.get('prefetch_rejected', 0)} rejected)")
    for tier, nbytes in sorted(stats.get("bytes_to_tier", {}).items()):
        print(f"bytes -> {tier:6s} {nbytes / 1e9:.3f} GB")
    return 0


def _cmd_run(args) -> int:
    (result,) = _execute("run", [_workload_task(args, mode=args.mode)])
    print(f"workload        {result.workload} "
          f"({registry.workload(args.workload).op})")
    print(f"machine         {result.machine}")
    print(f"mode            {result.mode}")
    print(f"ranks / nodes   {result.nranks} / {result.nnodes}")
    print(f"I/O phases      {result.n_phases}")
    print(f"total bytes     {result.total_bytes / 1e9:.2f} GB")
    print(f"peak bandwidth  {result.peak_gbs:.2f} GB/s")
    print(f"mean bandwidth  {result.mean_bandwidth / 1e9:.2f} GB/s")
    print(f"app time        {result.app_time:.2f} s (simulated)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Evaluating Asynchronous Parallel I/O "
                    "on HPC Systems' (IPDPS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", help="list figures, workloads and micro-benchmarks"
    )
    p_list.set_defaults(func=_cmd_list)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="*", help="figure ids (default: all)")
    p_fig.add_argument("--profile", choices=["quick", "paper"], default=None)
    p_fig.add_argument("--out", help="directory to write tables into")
    p_fig.add_argument("--plot", action="store_true",
                       help="also render an ASCII chart per figure")
    p_fig.set_defaults(func=_cmd_figures)

    p_mb = sub.add_parser("microbench", help="run §III-B1 micro-benchmarks")
    p_mb.add_argument("--profile", choices=["quick", "paper"], default=None)
    p_mb.add_argument("--out", default=None)
    p_mb.set_defaults(func=_cmd_microbench)

    p_run = sub.add_parser("run", help="run one workload experiment")
    p_run.add_argument("--workload", required=True,
                       help="vpic | bdcats | nyx-small | nyx-large | castro "
                            "| sw4 | cosmoflow")
    p_run.add_argument("--machine", choices=sorted(registry.MACHINES), default="summit")
    p_run.add_argument("--mode", choices=["sync", "async"], default="sync")
    p_run.add_argument("--ranks", type=int, default=96)
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser("profile",
                            help="run a workload and print an I/O profile")
    p_prof.add_argument("--workload", required=True)
    p_prof.add_argument("--machine", choices=sorted(registry.MACHINES),
                        default="summit")
    p_prof.add_argument("--mode", choices=["sync", "async"], default="sync")
    p_prof.add_argument("--ranks", type=int, default=96)
    p_prof.add_argument("--stats", action="store_true",
                        help="also print the simulator's EngineStats counters")
    p_prof.set_defaults(func=_cmd_profile)

    p_sched = sub.add_parser(
        "sched", help="run a multi-tenant job stream through the scheduler"
    )
    p_sched.add_argument("--policy",
                         choices=["fifo", "backfill", "io-aware", "all"],
                         default="all")
    p_sched.add_argument("--machine", choices=sorted(registry.MACHINES),
                         default="sched-testbed")
    p_sched.add_argument("--jobs", type=int, default=25,
                         help="jobs per stream")
    p_sched.add_argument("--seed", type=int, default=7)
    p_sched.add_argument("--load", type=float, nargs="+", default=[2.0, 4.0],
                         help="mean interarrival gap(s) in seconds")
    p_sched.add_argument("--size-scale", type=float, default=4.0,
                         help="job I/O size multiplier")
    p_sched.add_argument("--seeds", type=int, nargs="+", default=None,
                         help="run every (policy, load) under each seed "
                              "(overrides --seed)")
    p_sched.add_argument("--fault-rate", type=float, default=0.0,
                         help="chaos axis: expected node crashes per node "
                              "per 1000 sim-seconds (0 = off)")
    p_sched.add_argument("--fault-seed", type=int, default=0,
                         help="base seed of the crash schedule")
    p_sched.add_argument("--no-checkpoint", action="store_true",
                         help="requeued crash victims restart from scratch "
                              "instead of their last durable checkpoint")
    p_sched.set_defaults(func=_cmd_sched)

    p_sweep = sub.add_parser(
        "sweep",
        help="fan a (machine x mode x scale x seed) grid across the "
             "CPUs; merged JSON is byte-identical for any CPU count",
    )
    p_sweep.add_argument("--kind", choices=["workload", "sched"],
                         default="workload")
    p_sweep.add_argument("--workload", default="vpic",
                         help="workload name (kind=workload); see 'list'")
    p_sweep.add_argument("--machines", nargs="+", default=["testbed"],
                         help="machine names (sched-testbed allowed for "
                              "kind=sched)")
    p_sweep.add_argument("--modes", nargs="+", default=["sync", "async"],
                         help="VOL modes (kind=workload)")
    p_sweep.add_argument("--policies", nargs="+",
                         default=["fifo", "backfill", "io-aware"],
                         help="scheduler policies (kind=sched)")
    p_sweep.add_argument("--scales", type=float, nargs="+", default=[8],
                         help="rank counts (kind=workload)")
    p_sweep.add_argument("--loads", type=float, nargs="+", default=[2.0],
                         help="mean interarrival gaps (kind=sched)")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=[0],
                         help="per-point seeds (contention day / job "
                              "stream)")
    p_sweep.add_argument("--jobs", type=int, default=12,
                         help="jobs per stream (kind=sched)")
    p_sweep.add_argument("--faults", type=float, nargs="+", default=[0.0],
                         help="chaos axis (kind=sched): node-crash rates "
                              "per node per 1000 sim-seconds (0 = off)")
    p_sweep.add_argument("--fault-seed", type=int, default=0,
                         help="base seed of the crash schedules")
    p_sweep.add_argument("--no-checkpoint", action="store_true",
                         help="requeued crash victims restart from scratch")
    p_sweep.add_argument("--cache", nargs="+",
                         choices=["none", "off", "write", "on"],
                         default=["none"],
                         help="staging-cache axis (kind=workload): none = "
                              "no cache subsystem, off = inert, write = "
                              "write-through, on = also deadline prefetch")
    p_sweep.add_argument("--out", default=None,
                         help="write the merged JSON artifact here")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-point progress on stderr")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cache = sub.add_parser(
        "cache",
        help="run a workload through the tiered staging cache and print "
             "hit/deadline metrics (seed grids: 'sweep --cache')",
    )
    p_cache.add_argument("--workload", default="bdcats",
                         help="workload name (read workloads benefit; "
                              "see 'list')")
    p_cache.add_argument("--machine", choices=sorted(registry.MACHINES),
                         default="summit")
    p_cache.add_argument("--ranks", type=int, default=8)
    p_cache.add_argument("--tiers", default="auto",
                         help="'auto' (derive from --machine) or a tier "
                              "preset name from 'list'")
    p_cache.add_argument("--prefetch", choices=["on", "off"], default="on",
                         help="deadline-declared read prefetch (off = "
                              "inert-cache baseline)")
    p_cache.set_defaults(func=_cmd_cache)

    p_check = sub.add_parser(
        "check",
        help="static analysis (determinism/error/hygiene rules) and the "
             "opt-in runtime race/leak detector",
    )
    p_check.add_argument("paths", nargs="*",
                         help="files or directories (default: src tests)")
    p_check.add_argument("--list-rules", action="store_true",
                         help="list registered rules and exit")
    p_check.add_argument("--flow", action="store_true",
                         help="also run the flow-sensitive tier (RC4xx "
                              "async-API typestate, RC5xx unit "
                              "consistency): CFG + fixpoint per function")
    p_check.add_argument("--inter", action="store_true",
                         help="also run the interprocedural tier (implies "
                              "--flow): call graph + function summaries "
                              "sharpen RC4xx/RC5xx and enable "
                              "RC405/RC110/RC111")
    p_check.add_argument("--concurrency", action="store_true",
                         help="also run the static concurrency tier "
                              "(implies --inter): RC601 deadlock cycles, "
                              "RC602 lost wakeups, RC603 unsynchronized "
                              "region writes, RC604 claim/release "
                              "imbalance over the project-wide "
                              "acquisition graph")
    p_check.add_argument("--baseline", default=None, metavar="FILE",
                         help="suppress findings whose fingerprint is "
                              "recorded in FILE (JSON written by "
                              "--update-baseline); only regressions are "
                              "reported and gate the exit code")
    p_check.add_argument("--update-baseline", default=None, metavar="FILE",
                         help="write the current findings' fingerprints "
                              "to FILE and exit 0 (adopt-incrementally "
                              "mode for a new subsystem)")
    p_check.add_argument("--diff", action="store_true",
                         help="report findings only for files "
                              "re-analyzed this run (changed files plus, "
                              "with --inter, everything the reverse call "
                              "graph invalidated)")
    p_check.add_argument("--cache-dir", default=".repro-check-cache",
                         help="incremental cache directory, one section "
                              "per tier (default: .repro-check-cache)")
    p_check.add_argument("--stats", action="store_true",
                         help="print the suppression audit (every "
                              "in-source suppression with its rules, "
                              "justification and validity) as JSON and "
                              "exit")
    p_check.add_argument("--format", choices=["text", "json", "sarif"],
                         default="text",
                         help="findings output format (json/sarif for CI "
                              "machine consumption)")
    p_check.add_argument("--runtime", choices=["smoke", "fig3a"],
                         default=None,
                         help="also run the runtime checker gate: the "
                              "pipeline must stay byte-identical under "
                              "instrumentation with zero race/leak findings")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
