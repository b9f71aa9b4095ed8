"""Outside-in layer tracer for the benchmark.

The tracer wraps the public entry points of each ``repro`` layer from
the outside: it replaces class attributes and every module binding of a
function with a timing wrapper.  Nothing in ``src/`` knows about it.

Each call into a wrapped function records a span ``[name, start, end,
parent, outer]`` in memory.  ``outer`` is false when a span of the same
name is already open, so recursion and ``super()`` chains count once in
inclusive time.  Self time is a span's duration minus its child spans.

Generator functions (the VOL operations, the cache copy engine) are
driven one step at a time: each ``send``/``throw`` into the wrapped
generator is its own span, so only host time spent inside the generator
counts, not the simulated waits between steps.

Pool workers inherit the installed wrappers through ``fork``.  A worker
spills its spans to ``<spill_dir>/<pid>.jsonl`` whenever its outermost
wrapped call returns (the end of each task); :meth:`Tracer.collect`
folds those files back into the parent's view.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter
_STAT_FIELDS = ("events", "fastpath_events", "rebalances", "allocator_rounds")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, spill_dir: pathlib.Path) -> None:
        self.spill_dir = pathlib.Path(spill_dir)
        self.owner = os.getpid()
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.stack: List[int] = []
        self.open: Counter = Counter()
        #: EngineStats objects seen by ``Engine.run``, keyed by identity
        #: (kept alive so identities are never reused within a pass).
        self.engine_stats: Dict[int, object] = {}

    # -- span bookkeeping ----------------------------------------------
    def enter(self, name: str, count: bool = True) -> int:
        outer = self.open[name] == 0
        if outer and count:
            self.calls[name] += 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _clock(), 0.0, parent, outer])
        self.stack.append(idx)
        self.open[name] += 1
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = _clock()
        self.stack.pop()
        self.open[span[0]] -= 1
        if not self.stack and os.getpid() != self.owner:
            self._spill()

    def reset(self) -> None:
        """Forget every span and count (start of a traced pass)."""
        self._forget()
        for path in self.spill_dir.glob("*.jsonl"):
            path.unlink()

    def _forget(self) -> None:
        self.spans = []
        self.calls = Counter()
        self.stack = []
        self.open = Counter()
        self.engine_stats = {}

    def _engine_counts(self) -> Counter:
        counts: Counter = Counter()
        for stats in self.engine_stats.values():
            for field in _STAT_FIELDS:
                counts[field] += getattr(stats, field)
        return counts

    def _spill(self) -> None:
        record = {
            "spans": self.spans,
            "calls": dict(self.calls),
            "engine": dict(self._engine_counts()),
        }
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.calls = Counter()
        self.engine_stats = {}

    def collect(self) -> tuple:
        """Merge worker spills into this process's spans.

        Returns ``(spans, calls, engine_counts)`` for the pass so far.
        """
        spans = list(self.spans)
        calls = Counter(self.calls)
        engine = self._engine_counts()
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                base = len(spans)
                for name, start, end, parent, outer in record["spans"]:
                    spans.append([name, start, end,
                                  parent + base if parent >= 0 else -1,
                                  outer])
                calls.update(record["calls"])
                engine.update(record["engine"])
        return spans, calls, engine

    # -- wrappers --------------------------------------------------------
    def plain(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(idx)

        return wrapper

    def stepped(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            value = None
            error: Optional[BaseException] = None
            while True:
                idx = tracer.enter(name, count=first)
                first = False
                try:
                    if error is None:
                        item = gen.send(value)
                    else:
                        item = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.exit(idx)
                error = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    value = None
                    error = exc

        return wrapper

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self.stepped(name, fn)
        return self.plain(name, fn)


def _import_all_repro() -> None:
    """Import every ``repro`` module so every binding can be patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _patch_function(tracer: Tracer, name: str, fn: Callable) -> None:
    """Replace ``fn`` in every loaded module that binds it."""
    wrapped = tracer.wrap(name, fn)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is fn:
                setattr(module, attr, wrapped)


def _patch_method(tracer: Tracer, name: str, cls: type, attr: str) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Must run before any worker pool forks, so workers inherit the
    wrappers.  A forked worker starts with an empty span store: the
    parent's open spans are not its own.
    """
    os.register_at_fork(after_in_child=tracer._forget)
    _import_all_repro()
    from repro.analysis.fitting import fit_sweep_points
    from repro.cache.agent import NodeAgent
    from repro.cache.engine import CopyEngine
    from repro.cache.planner import PrefetchPlanner
    from repro.check.callgraph import build_call_graph, build_index
    from repro.check.cfg import build_cfg
    from repro.check.concurrency import analyze_function, build_conc_index
    from repro.check.dataflow import solve
    from repro.check.driver import check_paths
    from repro.check.lint import lint_source
    from repro.check.summaries import compute_summaries
    from repro.faults.injector import FaultInjector
    from repro.harness.sweepengine import run_point, run_sweep
    from repro.hdf5.async_vol import AsyncVOL
    from repro.hdf5.native_vol import NativeVOL
    from repro.hdf5.vol import VOLConnector
    from repro.mpi.job import MPIJob
    from repro.platform.cluster import Cluster
    from repro.platform.storage import ParallelFileSystem
    from repro.sched import policies
    from repro.sched.scheduler import Scheduler
    from repro.sched.service import AdvisorService
    from repro.sim.engine import Engine
    from repro.sim.network import Network
    from repro.workloads.base import summarize_run

    functions = {
        "workloads.summarize": summarize_run,
        "analysis.fit": fit_sweep_points,
        "harness.point": run_point,
        "harness.sweep": run_sweep,
        "check.index": build_index,
        "check.callgraph": build_call_graph,
        "check.summaries": compute_summaries,
        "check.cfg": build_cfg,
        "check.solve": solve,
        "check.conc_analyze": analyze_function,
        "check.conc_index": build_conc_index,
        "check.lint": lint_source,
        "check.driver": check_paths,
    }
    for name, fn in functions.items():
        _patch_function(tracer, name, fn)
    ast.parse = tracer.wrap("check.parse", ast.parse)

    methods = [
        ("sim.transfer", Network, "transfer"),
        ("mpi.job_run", MPIJob, "run"),
        ("platform.cluster_build", Cluster, "__init__"),
        ("platform.pfs_io", ParallelFileSystem, "write"),
        ("platform.pfs_io", ParallelFileSystem, "read"),
        ("hdf5.dataset_write", AsyncVOL, "dataset_write"),
        ("hdf5.dataset_write", NativeVOL, "dataset_write"),
        ("hdf5.dataset_read", AsyncVOL, "dataset_read"),
        ("hdf5.dataset_read", NativeVOL, "dataset_read"),
        ("hdf5.finalize", AsyncVOL, "finalize"),
        ("hdf5.finalize", VOLConnector, "finalize"),
        ("cache.copy", CopyEngine, "copy"),
        ("cache.prefetch_submit", PrefetchPlanner, "submit"),
        ("cache.lookup", NodeAgent, "lookup"),
        ("cache.admit", NodeAgent, "admit"),
        ("sched.advisor_decide", AdvisorService, "decide"),
        ("sched.advisor_observe", AdvisorService, "observe"),
        ("sched.submit", Scheduler, "submit"),
        ("faults.attach", FaultInjector, "attach"),
    ]
    for value in vars(policies).values():
        if inspect.isclass(value) and "plan" in value.__dict__:
            methods.append(("sched.plan", value, "plan"))
    for name, cls, attr in methods:
        _patch_method(tracer, name, cls, attr)

    timed_run = tracer.plain("sim.engine_run", Engine.run)

    @functools.wraps(Engine.run)
    def engine_run(self, *args, **kwargs):
        tracer.engine_stats[id(self.stats)] = self.stats
        return timed_run(self, *args, **kwargs)

    Engine.run = engine_run


def layer_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Inclusive (``s``) and self (``self_s``) seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _outer in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _parent, outer) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
        entry["self_s"] += (end - start) - child[i]
        if outer:
            entry["s"] += end - start
    return out


def write_spans(spans: List[list], path: pathlib.Path) -> None:
    """Write spans once, as JSON lines ``[name, start, end, parent]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, _outer in spans:
            fh.write(json.dumps([name, round(start, 9), round(end, 9),
                                 parent]) + "\n")
