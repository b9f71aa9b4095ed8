"""Static-analyzer driver benchmark: cold vs warm vs ``--diff``.

Copies the analyzer's slice of the repository into a scratch tree and
runs :func:`repro.check.driver.check_paths` (the engine behind
``repro check --flow --inter [--concurrency]``) as two rows:

- **check_full** — the flow + inter tiers (``--flow --inter``);
- **check_concurrency** — the same plus the whole-project concurrency
  tier (``--concurrency``), which adds the lock-set dataflow and the
  acquisition-order/wait-trigger index on top of the summary pass.

Each row measures four legs:

- **cold, 1 worker** and **cold, N workers** — empty caches, full
  summary computation, fanned-out lint; N is the host's width,
  ``max(2, nproc)``, recorded in each row's ``params``.  In full mode
  each is the best of five alternating runs, so the fan-out ratio
  stands clear of the host's run-to-run noise;
- **warm** — unchanged tree, which must short-circuit on the tree key
  without parsing a single file;
- **diff** — one helper file touched, which must re-analyze only that
  file plus whatever the reverse call graph invalidates.

The first cold 1-worker run also counts, through wrappers on every
module binding, how often ``ast.parse``, ``build_cfg`` and
``ast.iter_child_nodes`` run: ``parse_per_file``, ``cfg_per_function``
and ``child_iter_per_node`` are exact counts, independent of the
machine.  A cold run parses each file once, builds each function's CFG
once and walks each tree once (``ast.walk`` calls ``iter_child_nodes``
once per node, so one walk is 1.0 per node).  Every timed leg goes
through ``benchlib.timed``: a full ``gc.collect()`` first and the
collector off while the clock runs, so no leg pays for the previous
one's garbage.

Gates (per row):

- zero findings (the repo-wide clean gate, same as CI);
- every leg's findings byte-identical (worker count and cache state
  must not change output);
- the warm leg hits the whole-tree cache key, and the diff leg
  re-analyzes fewer files than the tree holds;
- warm speedup (cold / warm wall time) at or above that row's floor in
  ``benchmarks/perf_budget.json`` — for ``check_concurrency`` this is
  the budget gate on the tier's warm-cache overhead: a slow warm rerun
  (i.e. the conc index failing to ride the tree key) sinks the ratio;
- in full mode, the lint fan-out beats the serial run: cold 1-worker
  over cold N-worker wall time at or above the ``check_fanout`` floor
  (the smoke tree is too small for the win to stand clear of noise);
- ``parse_per_file``, ``cfg_per_function`` and ``child_iter_per_node``
  at or below the ``check_parse_per_file`` / ``check_cfg_per_function``
  / ``check_child_iter_per_node`` ceilings there.

Results land in ``BENCH_check.json`` (``repro-bench/v1``, see
``benchlib.py``) at the repository root.  ``--before OLD.json`` copies
the cold and warm legs of an earlier run (say, of the parent revision
on the same machine) into each row's ``values["before"]``.

Run standalone (full tree)::

    PYTHONPATH=src python benchmarks/bench_check.py

or in CI smoke mode (the analyzer's own packages only, same schema)::

    PYTHONPATH=src python benchmarks/bench_check.py --smoke

Also collectable via pytest (runs the smoke shape through the same
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_check.py
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import shutil
import tempfile

import benchlib

BENCH = "check"

#: Copied into the scratch tree.  Smoke keeps the bench inside the
#: analyzer's own packages; full is the whole repo-wide gate.
SMOKE_GLOBS = (
    "src/repro/check/**/*.py",
    "tests/test_check*.py",
)
FULL_GLOBS = (
    "src/**/*.py",
    "tests/**/*.py",
)
#: Touched for the ``--diff`` leg (must exist in both shapes).
TOUCH_FILE = "src/repro/check/callgraph.py"

#: Benchmark rows: budget key -> extra check_paths() kwargs.
ROWS = (
    ("check_full", {}),
    ("check_concurrency", {"concurrency": True}),
)


def _materialize(globs, scratch: pathlib.Path) -> int:
    copied = 0
    for pattern in globs:
        for src in sorted(benchlib.REPO_ROOT.glob(pattern)):
            dst = scratch / src.relative_to(benchlib.REPO_ROOT)
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(src, dst)
            copied += 1
    return copied


def _wire(findings) -> str:
    return json.dumps([(f.rule_id, f.path, f.line, f.col, f.message)
                       for f in findings], sort_keys=True)


def _tree_counts(paths):
    """``(functions, AST nodes)`` over every file under ``paths``."""
    from repro.check.lint import _iter_python_files

    functions = nodes = 0
    for path in _iter_python_files(paths).values():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            nodes += 1
            functions += isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
    return functions, nodes


def _leg(paths, **kwargs):
    from repro.check.driver import check_paths

    return benchlib.timed(lambda: check_paths(paths, **kwargs))


def _cold_and_warm(paths, name, extra, params, repeats):
    """Cold/warm legs for one row (the diff leg is added later); returns
    the row and the cold leg's findings.  The cold legs are the best of
    ``repeats`` alternating runs; the call counts come from the first
    1-worker run."""
    # Import the whole analyzer first: a module first imported inside
    # ``count_calls`` would bind the counting wrapper for good.
    import repro.check.driver  # noqa: F401
    from repro.check.callcount import count_calls
    from repro.check.cfg import build_cfg

    workers = params["workers"]
    with count_calls(ast.parse, build_cfg,
                     ast.iter_child_nodes) as (parses, cfgs, child_iters):
        s, cold_1w = _leg(paths, workers=1, cache_dir=f".{name}.c1",
                          **extra)
    samples_1w, samples_nw = [s], []
    for i in range(repeats):
        if i:
            samples_1w.append(_leg(paths, workers=1, use_cache=False,
                                   cache_dir=f".{name}.c1", **extra)[0])
        s, cold_nw = _leg(paths, workers=workers, use_cache=False,
                          cache_dir=f".{name}.cn", **extra)
        samples_nw.append(s)
    cold_1w_s, cold_nw_s = min(samples_1w), min(samples_nw)
    warm_s, warm = _leg(paths, workers=workers,
                        cache_dir=f".{name}.cn", **extra)
    values = {
        "cold_1w_s": round(cold_1w_s, 4),
        "cold_nw_s": round(cold_nw_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_nw_s / warm_s, 2),
        "warm_tree_hit": warm.tree_hit,
        "parse_per_file": round(len(parses) / params["files"], 4),
        "cfg_per_function": round(len(cfgs) / params["functions"], 4),
        "child_iter_per_node": round(len(child_iters) / params["nodes"], 4),
        "findings": len(cold_nw.findings),
        "identical_cold_1w_vs_cold_nw":
            _wire(cold_1w.findings) == _wire(cold_nw.findings),
        "identical_cold_vs_warm":
            _wire(cold_nw.findings) == _wire(warm.findings),
    }
    return benchlib.row(name, {**params, **extra}, values,
                        {"cold_1w_s": samples_1w, "cold_nw_s": samples_nw,
                         "warm_s": [warm_s]}), _wire(cold_nw.findings)


def run_bench(smoke=False, before=None):
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-check-"))
    prev_cwd = os.getcwd()
    try:
        files = _materialize(SMOKE_GLOBS if smoke else FULL_GLOBS, scratch)
        os.chdir(scratch)  # relative paths -> CLI-identical module names
        paths = ["src", "tests"]
        functions, nodes = _tree_counts(paths)
        params = {"files": files, "functions": functions, "nodes": nodes,
                  "workers": benchlib.host_workers()}
        repeats = 1 if smoke else 5
        rows, cold_wires = zip(*(_cold_and_warm(paths, name, extra, params,
                                                repeats)
                                 for name, extra in ROWS))

        # One shared touch serves every row's diff leg: the warm caches
        # above were built against the pristine tree.
        touched = scratch / TOUCH_FILE
        touched.write_text(touched.read_text(encoding="utf-8")
                           + "\n# bench-check diff probe\n",
                           encoding="utf-8")
        for r, cold_wire, (name, extra) in zip(rows, cold_wires, ROWS):
            diff_s, diff = _leg(paths, workers=params["workers"],
                                cache_dir=f".{name}.cn", **extra)
            r["values"]["diff_s"] = round(diff_s, 4)
            r["values"]["diff_reanalyzed"] = len(diff.analyzed)
            r["values"]["identical_cold_vs_diff"] = (
                cold_wire == _wire(diff.findings))
            r["repeats"]["diff_s"] = benchlib.spread([diff_s])
    finally:
        os.chdir(prev_cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    if before is not None:
        old = json.loads(pathlib.Path(before).read_text())["rows"]
        for r in rows:
            for prev in old:
                if prev["name"] == r["name"]:
                    r["values"]["before"] = {
                        leg: prev["values"][leg]
                        for leg in ("cold_1w_s", "cold_nw_s", "warm_s")}
    for r in rows:
        v = r["values"]
        print(f"check bench [{r['name']}] ({files} files): "
              f"cold 1w {v['cold_1w_s']:.2f}s  "
              f"cold {params['workers']}w {v['cold_nw_s']:.2f}s  "
              f"warm {v['warm_s']:.3f}s  diff {v['diff_s']:.2f}s")
        print(f"  warm speedup {v['warm_speedup']:.1f}x, "
              f"diff re-analyzed {v['diff_reanalyzed']} file(s), "
              f"parse/file {v['parse_per_file']:.2f}, "
              f"cfg/function {v['cfg_per_function']:.2f}, "
              f"child iter/node {v['child_iter_per_node']:.2f}")
    return list(rows)


def gates(artifact):
    """Every gate of ``BENCH_check.json``; returns the failures."""
    g = benchlib.Gates(artifact)
    for r in artifact["rows"]:
        v = r["values"]
        g.require(r, "zero_findings", v["findings"] == 0,
                  f"reported {v['findings']} finding(s); the repo-wide "
                  f"gate requires zero")
        for legs in ("cold_1w_vs_cold_nw", "cold_vs_warm", "cold_vs_diff"):
            g.require(r, f"identical_{legs}", v[f"identical_{legs}"],
                      f"output differs across {legs}")
        g.require(r, "warm_tree_hit", v["warm_tree_hit"],
                  "warm rerun missed the whole-tree cache key")
        g.require(r, "incremental_diff",
                  v["diff_reanalyzed"] < r["params"]["files"],
                  f"diff leg re-analyzed every file "
                  f"({v['diff_reanalyzed']}/{r['params']['files']}): "
                  f"invalidation is not incremental")
        g.floor(r, r["name"], v["warm_speedup"])
        if artifact["mode"] == "full":
            g.floor(r, "check_fanout",
                    round(v["cold_1w_s"] / v["cold_nw_s"], 3))
        for metric in ("parse_per_file", "cfg_per_function",
                       "child_iter_per_node"):
            g.ceiling(r, f"check_{metric}", v[metric])
    return g.failures()


def test_check_gates(tmp_path):
    artifact = benchlib.run(BENCH, run_bench, gates, smoke=True,
                            out=tmp_path / "BENCH_check.json")
    assert artifact["ok"], "; ".join(artifact["failures"])


def main(argv=None):
    return benchlib.main(
        BENCH, run_bench, gates, argv,
        options={"before": "an earlier BENCH_check.json whose cold and "
                           "warm legs are stored under each row's "
                           "values['before']"})


if __name__ == "__main__":
    raise SystemExit(main())
