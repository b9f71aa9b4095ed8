"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (``vpic_write_scaling``, ``bdcats_read_cache``,
``fleet_chaos_sweep``, ``check_corpus``, or ``all`` for each in turn)
as a closed loop with one client: one pass of the workload at a time,
repeated until ``--seconds`` are spent, never more than ``nproc``
worker processes.  The program under test is ``src/`` of the checkout
this file sits in; it is imported, not installed.

``--trace 0`` prints the end-to-end metrics (medians over passes):

- ``wall_s``: host seconds of the timed region of one pass;
- ``setup_s``: host seconds from process start to the start of the
  timed region (imports, machine specs, corpus extraction), the median
  of five fresh interpreters;
- ``peak_rss_mb``: peak resident set of this process and its children.

``--trace 1`` runs untraced passes, then installs the outside-in
tracer (``tracer.py``) and runs traced passes; it prints the per-layer
metrics and ``trace.overhead_s``, the traced minus the untraced
``wall_s``.

Every pass's output digest must equal the one pinned in ``pins.json``
for the workload's input variant; ``--pin`` recomputes those pins with
one worker.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
SETUP_PROBES = 5


def metric_units(group: str) -> dict:
    """``{name: unit}`` of one metric group (``end_to_end`` or
    ``per_layer``) as ``BENCHMARK.json`` declares it, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


#: Per-layer metrics a workload's own output carries (not its spans).
_FROM_OUTPUT = (
    "cache.hit_ratio", "cache.on_time_ratio", "cache.prefetch_rejected",
    "sched.requeues", "harness.sweep.failed_points",
    "check.incremental.files_analyzed", "check.incremental.units_recomputed",
)

_clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; 'tiny' is for the self-test")
    ap.add_argument("--pin", action="store_true",
                    help="recompute the pinned output digests and exit")
    ap.add_argument("--probe-setup", type=float, default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_sha(root: pathlib.Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set (MiB) of this process or any waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(args) -> float:
    """Median set-up seconds over fresh interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--probe-setup", repr(_clock())]
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_passes(wl, budget: float, before=lambda: None) -> list:
    """Passes until ``budget`` seconds are spent (at least one).

    A pass that raises ends the loop and is recorded as failed.
    """
    from workloads import Pass

    passes: list = []
    start = _clock()
    while True:
        before()
        # Every pass starts from the same collector state: earlier
        # passes' survivors are neither collected nor scanned in it.
        gc.collect()
        gc.freeze()
        t0 = _clock()
        try:
            passes.append(wl.run_pass())
        except Exception:  # a boundary: report the failure, keep going
            traceback.print_exc(file=sys.stderr)
            units = passes[-1].attempted if passes else 1
            passes.append(Pass({}, "raised", attempted=units, failed=units))
            return passes
        last = _clock() - t0
        if _clock() - start + last > budget:
            return passes


def median_of(passes: list, key: str) -> float:
    values = [p.times[key] for p in passes if key in p.times]
    return statistics.median(values) if values else 0.0


def layer_metrics(snapshot, extras: dict, workers: int, names) -> dict:
    """Per-layer values of one traced pass, for each metric in ``names``."""
    from tracer import layer_times

    spans, calls, engine = snapshot
    times = layer_times(spans)

    def s(name):
        return times.get(name, {}).get("s", 0.0)

    def self_s(name):
        return times.get(name, {}).get("self_s", 0.0)

    def count(name):
        return calls.get(name, 0)

    events = engine.get("events", 0)
    sweep = s("harness.sweep")
    points = s("harness.point")
    files = extras.get("check.files", 0)
    functions = extras.get("check.functions", 0)
    out = {
        "sim.engine_run.self_s": self_s("sim.engine_run"),
        "sim.ns_per_event": (self_s("sim.engine_run") * 1e9 / events
                             if events else 0.0),
        "sim.events": events,
        "sim.fastpath_events": engine.get("fastpath_events", 0),
        "sim.rebalances": engine.get("rebalances", 0),
        "sim.allocator_rounds": engine.get("allocator_rounds", 0),
        "mpi.job_run.self_s": self_s("mpi.job_run"),
        "platform.pfs_io.self_s": self_s("platform.pfs_io"),
        "hdf5.finalize.s": s("hdf5.finalize"),
        "workloads.summarize.s": s("workloads.summarize"),
        "analysis.fit.s": s("analysis.fit"),
        "sched.plan.self_s": self_s("sched.plan"),
        "faults.attach.s": s("faults.attach"),
        "harness.sweep.pool_overhead_s": (workers * sweep - points
                                          if sweep else 0.0),
        "harness.sweep.parallel_efficiency": (points / (workers * sweep)
                                              if sweep else 0.0),
        "check.parse.per_file": (count("check.parse") / files
                                 if files else 0.0),
        "check.index.s": s("check.index"),
        "check.callgraph.s": s("check.callgraph"),
        "check.summaries.self_s": self_s("check.summaries"),
        "check.cfg.per_function": (count("check.cfg") / functions
                                   if functions else 0.0),
        "check.conc_index.s": s("check.conc_index"),
        "check.driver.self_s": self_s("check.driver"),
    }
    for name in names:
        if name in out:
            continue
        if name.endswith(".calls"):
            out[name] = count(name[:-len(".calls")])
        elif name.endswith(".s") and name[:-2] in times:
            out[name] = s(name[:-2])
        elif name in _FROM_OUTPUT:
            out[name] = extras.get(name, 0)
        elif name.endswith(".s"):
            out[name] = 0.0
    return out


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def pin(args, workdir: pathlib.Path) -> int:
    """Recompute pinned digests, one worker, one pass per input."""
    from workloads import VARIANTS, WORKLOADS

    pins = load_pins()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for size in ("full", "tiny"):
            variants = range(VARIANTS) if WORKLOADS[name].seeded_output \
                else [0]
            for variant in variants:
                wl = WORKLOADS[name](variant, size, workdir)
                wl.workers = 1
                p = wl.run_pass()
                if p.failed:
                    print(f"{name} {size} {variant}: {p.failed} failed units",
                          file=sys.stderr)
                    return 1
                pins.setdefault(name, {}).setdefault(size, {})[
                    wl.pin_key()] = p.digest
                print(f"{name} {size} {wl.pin_key()} {p.digest}", flush=True)
                PINS.write_text(json.dumps(pins, indent=2, sort_keys=True)
                                + "\n", encoding="utf-8")
    return 0


def measure(args, workdir: pathlib.Path) -> int:
    import numpy

    from workloads import WORKLOADS, nproc

    setup_s = probe_setup(args) if args.trace == 0 else None
    wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(wl, budget)
    traced: list = []
    snapshots: list = []
    if args.trace:
        from tracer import Tracer, install, write_spans

        tracer = Tracer(workdir / "spill")
        install(tracer)
        wl.after_wall = lambda: snapshots.append(tracer.collect())
        traced = run_passes(wl, budget, before=tracer.reset)

    passes = untraced + traced
    digests = sorted({p.digest for p in passes})
    expected = load_pins().get(wl.name, {}).get(args.size, {}).get(
        wl.pin_key())
    correct = digests == [expected]
    attempted = sum(p.attempted for p in passes)
    failed = attempted if not correct else sum(p.failed for p in passes)

    wall = median_of(untraced, "wall_s")
    if args.trace:
        units = metric_units("per_layer")
        per_pass = [layer_metrics(snap, p.extras,
                                  min(wl.workers, p.attempted), units)
                    for snap, p in zip(snapshots, traced)]
        # median_low keeps counts whole: it returns one pass's value.
        values = {name: statistics.median_low(m[name] for m in per_pass)
                  for name in per_pass[0]} if per_pass else {}
        values.update({
            "warm_s": median_of(untraced, "warm_s"),
            "incremental_s": median_of(untraced, "incremental_s"),
            "error_rate": failed / attempted,
            "trace.overhead_s": median_of(traced, "wall_s") - wall,
        })
        if snapshots:
            write_spans(snapshots[-1][0], ROOT / ".bench_out" /
                        f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        values = {"wall_s": wall, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        units = metric_units("end_to_end")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": wl.name, "seed": args.seed, "variant": wl.variant,
        "size": args.size, "trace": args.trace, "workers": wl.workers,
        "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(ROOT),
        "expected_digest": expected,
        "untraced_digests": sorted({p.digest for p in untraced}),
        "traced_digests": sorted({p.digest for p in traced}),
        "untraced_passes": [p.times for p in untraced],
        "traced_passes": [p.times for p in traced],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=2) + "\n",
        encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        # Further end-to-end figures.  They stay out of the JSON line,
        # whose metrics must never read 0 and must apply to every
        # workload; the traced run reports them per layer.
        print(f"{'error_rate':40s} {failed / attempted:>16.6g} ratio")
        for key in ("warm_s", "incremental_s"):
            if any(key in p.times for p in untraced):
                print(f"{key:40s} {median_of(untraced, key):>16.6g} s")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.pin:
        return run_all(args)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                            dir=scratch))
    try:
        if args.probe_setup is not None:
            WORKLOADS[args.workload](args.seed, args.size, workdir)
            print(repr(_clock() - args.probe_setup))
            return 0
        if args.pin:
            return pin(args, workdir)
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
