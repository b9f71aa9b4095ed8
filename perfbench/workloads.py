"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up) and runs one *pass* of the timed region in :meth:`run_pass`.
A pass returns a :class:`Pass`: its host timings, a digest of its
output, the units it attempted and failed, and any per-layer figures
the workload's own output carries (cache ratios, requeues, ...).

The seed picks one of :data:`VARIANTS` input variants, so that every
input the benchmark can generate has a pinned output digest.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pathlib
import random
import shutil
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "corpus.tar.gz"
VARIANTS = 16

_clock = time.perf_counter


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """One run of a workload's timed region."""

    times: Dict[str, float]
    digest: str
    attempted: int
    failed: int
    extras: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: Whether the output depends on the seed (else one pin covers all).
    seeded_output = True

    def __init__(self, seed: int, size: str, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.variant = seed % VARIANTS
        self.size = size
        self.workdir = workdir
        self.workers = 1
        #: Called where the region ``wall_s`` measures ends (the traced
        #: run snapshots its spans there).
        self.after_wall = lambda: None

    def pin_key(self) -> str:
        return str(self.variant) if self.seeded_output else "any"

    def run_pass(self) -> Pass:
        raise NotImplementedError


class VpicWriteScaling(Workload):
    """The fig3a pipeline: VPIC-IO writes on Summit, sync and async."""

    name = "vpic_write_scaling"
    SCALES = {"full": (96, 192, 384, 768, 1536), "tiny": (6, 12, 24)}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        from repro.platform import summit
        from repro.workloads import VPICConfig

        self.machine = summit()
        self.config = VPICConfig(steps=1)
        self.scales = self.SCALES[size]

    def run_pass(self) -> Pass:
        from repro.analysis import fit_sweep_points
        from repro.harness.report import FigureData
        from repro.harness.sweep import best_by_config, scale_sweep
        from repro.platform import ContentionModel
        from repro.workloads import vpic_program

        t0 = _clock()
        config = self.config
        results = scale_sweep(
            self.machine, "vpic-io", vpic_program, lambda nranks: config,
            scales=self.scales, modes=("sync", "async"), reps=1,
            contention=ContentionModel(seed=self.variant, median_load=0.15,
                                       sigma=0.5),
            op="write",
        )
        points = best_by_config(results)
        fits = {m: fit_sweep_points(points, m) for m in ("sync", "async")}
        fig = FigureData(
            name="vpic_write_scaling",
            title="VPIC-IO write aggregate bandwidth, Summit (weak scaling)",
            columns=["ranks", "nodes", "sync GB/s", "est sync GB/s",
                     "async GB/s", "est async GB/s"],
        )
        by_mode = {(p.mode, p.nranks): p for p in points}
        for nranks in self.scales:
            fig.add_row(
                nranks, by_mode[("sync", nranks)].nnodes,
                by_mode[("sync", nranks)].peak_gbs,
                fits["sync"].estimate_gbs(nranks),
                by_mode[("async", nranks)].peak_gbs,
                fits["async"].estimate_gbs(nranks),
            )
        for mode in ("sync", "async"):
            fig.meta[f"r2 {mode}"] = fits[mode].r2
            fig.meta[f"fit {mode}"] = fits[mode].transform
        text = fig.to_text()
        wall = _clock() - t0
        self.after_wall()
        return Pass({"wall_s": wall}, sha256(text),
                    attempted=len(results), failed=0)


class _SweepWorkload(Workload):
    """A ``run_sweep`` grid; the digest is ``SweepOutcome.to_json()``."""

    def spec(self):
        raise NotImplementedError

    def extras(self, points: List[dict]) -> Dict[str, float]:
        return {}

    def run_pass(self) -> Pass:
        from repro.harness.sweepengine import run_sweep

        spec = self.spec()
        t0 = _clock()
        outcome = run_sweep(spec, workers=self.workers)
        text = outcome.to_json()
        wall = _clock() - t0
        self.after_wall()
        points = outcome.merged["points"]
        failed = sum(1 for p in points if not p["ok"])
        extras = {"harness.sweep.failed_points": failed}
        extras.update(self.extras(points))
        return Pass({"wall_s": wall}, sha256(text), attempted=len(points),
                    failed=failed, extras=extras)


class BdcatsReadCache(_SweepWorkload):
    """BD-CATS-IO reads on Summit, async, staging cache off and on."""

    name = "bdcats_read_cache"
    SCALES = {"full": (96, 192, 384), "tiny": (6, 12)}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        import repro.cache  # noqa: F401  (set-up: imports)
        import repro.cli  # noqa: F401

    def spec(self):
        from repro.harness.sweepengine import SweepSpec

        return SweepSpec(
            kind="workload", workload="bdcats", machines=("summit",),
            modes=("async",), scales=self.SCALES[self.size],
            seeds=(self.variant,), cache=("none", "on"),
        )

    def extras(self, points):
        totals = dict.fromkeys(
            ("hits", "misses", "prefetch_on_time", "prefetch_late",
             "prefetch_failed", "prefetch_rejected"), 0)
        for p in points:
            stats = (p["metrics"] or {}).get("cache_stats")
            for key in totals:
                totals[key] += (stats or {}).get(key, 0)
        lookups = totals["hits"] + totals["misses"]
        done = (totals["prefetch_on_time"] + totals["prefetch_late"]
                + totals["prefetch_failed"])
        return {
            "cache.hit_ratio": totals["hits"] / lookups if lookups else 0.0,
            "cache.on_time_ratio": (totals["prefetch_on_time"] / done
                                    if done else 0.0),
            "cache.prefetch_rejected": totals["prefetch_rejected"],
        }


class FleetChaosSweep(_SweepWorkload):
    """Scheduler fleets under three policies, two loads, with and
    without node crashes, fanned across ``nproc`` workers."""

    name = "fleet_chaos_sweep"
    JOBS = {"full": 100, "tiny": 8}
    LOADS = {"full": (20.0, 60.0), "tiny": (20.0,)}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        import repro.faults  # noqa: F401  (set-up: imports)
        import repro.harness.sched  # noqa: F401

        self.workers = nproc()

    def spec(self):
        from repro.harness.sweepengine import SweepSpec

        return SweepSpec(
            kind="sched", machines=("sched-testbed",),
            modes=("fifo", "backfill", "io-aware"),
            # 10 crashes per node per 1000 simulated seconds: the lowest
            # rate at which most streams see jobs killed and requeued.
            scales=self.LOADS[self.size], faults=(0.0, 10.0),
            # The seed drives the crash schedule, not the job stream:
            # streams differ in total work by more than run-to-run
            # noise, crash schedules do not.
            seeds=(0,), fault_seed=self.variant, jobs=self.JOBS[self.size],
        )

    def extras(self, points):
        return {"sched.requeues": sum(
            p["metrics"]["requeues"] for p in points if p["ok"])}


class CheckCorpus(Workload):
    """``repro check`` over the frozen corpus: cold, warm, then after a
    seeded one-file edit that changes the file's hash, not its findings."""

    name = "check_corpus"
    seeded_output = False
    PATHS = {"full": ("src/repro/check", "src/repro/sim",
                      "src/repro/analysis"),
             "tiny": ("src/repro/sim", "src/repro/analysis")}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        import repro.check.driver  # noqa: F401  (set-up: imports)

        self.workers = nproc()
        self.corpus = workdir / "corpus"
        with tarfile.open(CORPUS, "r:gz") as tar:
            tar.extractall(self.corpus, filter="data")
        self.paths = self.PATHS[size]
        self.files = sorted(
            path.relative_to(self.corpus).as_posix()
            for top in self.paths
            for path in (self.corpus / top).rglob("*.py"))
        self.functions = 0
        for rel in self.files:
            tree = ast.parse((self.corpus / rel).read_text(encoding="utf-8"))
            self.functions += sum(
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(tree))
        self.edited = random.Random(seed).choice(self.files)

    def _check(self, cache_dir: str):
        from repro.check.driver import check_paths

        return check_paths(list(self.paths), flow=True, inter=True,
                           concurrency=True, workers=self.workers,
                           cache_dir=cache_dir)

    def run_pass(self) -> Pass:
        from repro.check.lint import findings_to_json

        edited = self.corpus / self.edited
        original = edited.read_text(encoding="utf-8")
        cache_dir = tempfile.mkdtemp(prefix="check-cache-", dir=self.workdir)
        cwd = os.getcwd()
        os.chdir(self.corpus)
        try:
            t0 = _clock()
            cold = self._check(cache_dir)
            t1 = _clock()
            self.after_wall()
            warm = self._check(cache_dir)
            t2 = _clock()
            edited.write_text(original + "# benchmark edit\n",
                              encoding="utf-8")
            t3 = _clock()
            incremental = self._check(cache_dir)
            t4 = _clock()
        finally:
            edited.write_text(original, encoding="utf-8")
            os.chdir(cwd)
            shutil.rmtree(cache_dir, ignore_errors=True)
        outputs = [findings_to_json(r.findings)
                   for r in (cold, warm, incremental)]
        unparsed = {f.path for f in cold.findings if f.rule_id == "RC000"}
        if not warm.tree_hit:
            outputs.append("warm rerun missed the tree cache")
        return Pass(
            {"wall_s": t1 - t0, "warm_s": t2 - t1, "incremental_s": t4 - t3},
            sha256("\n".join(outputs)),
            attempted=len(self.files), failed=len(unparsed),
            extras={
                "check.files": len(self.files),
                "check.functions": self.functions,
                "check.incremental.files_analyzed":
                    incremental.stats["analyzed"],
                "check.incremental.units_recomputed":
                    incremental.stats["units_recomputed"],
            },
        )


WORKLOADS = {w.name: w for w in (
    VpicWriteScaling, BdcatsReadCache, FleetChaosSweep, CheckCorpus)}
