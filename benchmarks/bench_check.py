"""Static-analyzer driver benchmark: cold vs warm vs ``--diff``.

Copies the analyzer's slice of the repository into a scratch tree and
runs :func:`repro.check.driver.check_paths` (the engine behind
``repro check --flow --inter [--concurrency]``) as two rows:

- **check_full** — the flow + inter tiers (``--flow --inter``);
- **check_concurrency** — the same plus the whole-project concurrency
  tier (``--concurrency``), which adds the lock-set dataflow and the
  acquisition-order/wait-trigger index on top of the summary pass.

Each row measures four legs:

- **cold, 1 worker** and **cold, 4 workers** — empty caches, full
  summary computation, fanned-out lint;
- **warm** — unchanged tree, which must short-circuit on the tree key
  without parsing a single file;
- **diff** — one helper file touched, which must re-analyze only that
  file plus whatever the reverse call graph invalidates.

The cold 1-worker leg also counts, through wrappers on every module
binding, how often ``ast.parse``, ``build_cfg`` and
``ast.iter_child_nodes`` run: ``parse_per_file``, ``cfg_per_function``
and ``child_iter_per_node`` are exact counts, independent of the
machine.  A cold run parses each file once, builds each function's CFG
once and walks each tree once (``ast.walk`` calls ``iter_child_nodes``
once per node, so one walk is 1.0 per node).  Every timed leg starts
after a full ``gc.collect()``, so no leg pays for the previous one's
garbage.

Gates (per row):

- zero findings (the repo-wide clean gate, same as CI);
- every leg's findings byte-identical (worker count and cache state
  must not change output);
- warm speedup (cold / warm wall time) at or above that row's floor in
  ``benchmarks/perf_budget.json`` — for ``check_concurrency`` this is
  the budget gate on the tier's warm-cache overhead: a slow warm rerun
  (i.e. the conc index failing to ride the tree key) sinks the ratio;
- ``parse_per_file``, ``cfg_per_function`` and ``child_iter_per_node``
  at or below the ``check_parse_per_file`` / ``check_cfg_per_function``
  / ``check_child_iter_per_node`` ceilings there.

Results land in ``BENCH_check.json`` at the repository root.
``--before OLD.json`` copies the cold and warm legs of an earlier run
(say, of the parent revision on the same machine) into each row's
``before``.

Run standalone (full tree)::

    PYTHONPATH=src python benchmarks/bench_check.py

or in CI smoke mode (the analyzer's own packages only, same schema)::

    PYTHONPATH=src python benchmarks/bench_check.py --smoke

Also collectable via pytest (runs the smoke shape and asserts the
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_check.py
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import pathlib
import platform
import shutil
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_check.json"
BUDGET_PATH = pathlib.Path(__file__).resolve().parent / "perf_budget.json"

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
        for src in sorted(REPO_ROOT.glob(pattern)):
            rel = src.relative_to(REPO_ROOT)
            dst = scratch / rel
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


def _timed(paths, **kwargs):
    from repro.check.driver import check_paths

    gc.collect()
    start = time.perf_counter()
    result = check_paths(paths, **kwargs)
    return time.perf_counter() - start, result


def load_floor(mode: str, row: str) -> float:
    budgets = json.loads(BUDGET_PATH.read_text())
    return budgets[mode][row]


def _run_row(paths, row: str, mode: str, extra, n_files: int,
             n_functions: int, n_nodes: int) -> dict:
    """Cold/warm legs for one row (the diff leg is added later)."""
    # Import the whole analyzer first: a module first imported inside
    # ``count_calls`` would bind the counting wrapper for good.
    import repro.check.driver  # noqa: F401
    from repro.check.callcount import count_calls
    from repro.check.cfg import build_cfg

    with count_calls(ast.parse, build_cfg,
                     ast.iter_child_nodes) as (parses, cfgs, child_iters):
        cold_1w_s, cold_1w = _timed(paths, workers=1,
                                    cache_dir=f".{row}.c1", **extra)
    parse_per_file = len(parses) / n_files
    cfg_per_function = len(cfgs) / n_functions
    child_iter_per_node = len(child_iters) / n_nodes
    cold_4w_s, cold_4w = _timed(paths, workers=4,
                                cache_dir=f".{row}.c4", **extra)
    warm_s, warm = _timed(paths, workers=4,
                          cache_dir=f".{row}.c4", **extra)
    warm_speedup = cold_4w_s / warm_s if warm_s > 0 else float("inf")
    return {
        "cold_1w_s": round(cold_1w_s, 4),
        "cold_4w_s": round(cold_4w_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 2),
        "warm_speedup_floor": load_floor(mode, row),
        "warm_tree_hit": warm.tree_hit,
        "parse_per_file": round(parse_per_file, 4),
        "parse_per_file_ceiling": load_floor(mode, "check_parse_per_file"),
        "cfg_per_function": round(cfg_per_function, 4),
        "cfg_per_function_ceiling": load_floor(mode,
                                               "check_cfg_per_function"),
        "child_iter_per_node": round(child_iter_per_node, 4),
        "child_iter_per_node_ceiling": load_floor(
            mode, "check_child_iter_per_node"),
        "findings": len(cold_4w.findings),
        "identical": {
            "cold_1w_vs_cold_4w":
                _wire(cold_1w.findings) == _wire(cold_4w.findings),
            "cold_vs_warm":
                _wire(cold_4w.findings) == _wire(warm.findings),
        },
        "_cold_wire": _wire(cold_4w.findings),
    }


def run_bench(smoke=False, out=DEFAULT_OUT, before=None):
    mode = "smoke" if smoke else "full"
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-check-"))
    prev_cwd = os.getcwd()
    try:
        n_files = _materialize(SMOKE_GLOBS if smoke else FULL_GLOBS,
                               scratch)
        os.chdir(scratch)  # relative paths -> CLI-identical module names
        paths = ["src", "tests"]
        n_functions, n_nodes = _tree_counts(paths)

        rows = {row: _run_row(paths, row, mode, extra, n_files,
                              n_functions, n_nodes)
                for row, extra in ROWS}

        # One shared touch serves every row's diff leg: the warm caches
        # above were built against the pristine tree.
        touched = scratch / TOUCH_FILE
        touched.write_text(touched.read_text(encoding="utf-8")
                           + "\n# bench-check diff probe\n",
                           encoding="utf-8")
        for row, extra in ROWS:
            diff_s, diff = _timed(paths, workers=4,
                                  cache_dir=f".{row}.c4", **extra)
            rows[row]["diff_s"] = round(diff_s, 4)
            rows[row]["diff_reanalyzed"] = len(diff.analyzed)
            rows[row]["identical"]["cold_vs_diff"] = (
                rows[row].pop("_cold_wire") == _wire(diff.findings))
    finally:
        os.chdir(prev_cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    if before is not None:
        old_rows = json.loads(pathlib.Path(before).read_text())["rows"]
        for row, stats in rows.items():
            if row in old_rows:
                stats["before"] = {leg: old_rows[row][leg]
                                   for leg in ("cold_1w_s", "cold_4w_s", "warm_s")}
    payload = {"mode": mode, "files": n_files, "functions": n_functions,
               "nodes": n_nodes,
               "host": {"nproc": os.cpu_count(),
                        "python": platform.python_version()},
               "rows": rows}
    for row, stats in rows.items():
        print(f"check bench [{row}] ({mode}, {n_files} files): "
              f"cold 1w {stats['cold_1w_s']:.2f}s  "
              f"cold 4w {stats['cold_4w_s']:.2f}s  "
              f"warm {stats['warm_s']:.3f}s  diff {stats['diff_s']:.2f}s")
        print(f"  warm speedup {stats['warm_speedup']:.1f}x "
              f"(floor {stats['warm_speedup_floor']:.1f}x), "
              f"diff re-analyzed {stats['diff_reanalyzed']} file(s), "
              f"parse/file {stats['parse_per_file']:.2f}, "
              f"cfg/function {stats['cfg_per_function']:.2f}, "
              f"child iter/node {stats['child_iter_per_node']:.2f}")
    out = pathlib.Path(out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {out}]")
    return payload


def check_gate(payload):
    """Human-readable gate failures; empty means pass."""
    failures = []
    for row, stats in payload["rows"].items():
        if stats["findings"] != 0:
            failures.append(
                f"[{row}] reported {stats['findings']} finding(s); "
                f"the repo-wide gate requires zero")
        for leg, same in stats["identical"].items():
            if not same:
                failures.append(f"[{row}] output differs across {leg}")
        if not stats["warm_tree_hit"]:
            failures.append(
                f"[{row}] warm rerun missed the whole-tree cache key")
        if stats["warm_speedup"] < stats["warm_speedup_floor"]:
            failures.append(
                f"[{row}] warm speedup {stats['warm_speedup']:.1f}x is "
                f"below the {stats['warm_speedup_floor']:.1f}x floor "
                f"(cold {stats['cold_4w_s']:.2f}s, "
                f"warm {stats['warm_s']:.3f}s)")
        for metric in ("parse_per_file", "cfg_per_function",
                       "child_iter_per_node"):
            if stats[metric] > stats[f"{metric}_ceiling"]:
                failures.append(
                    f"[{row}] {metric} {stats[metric]:.2f} exceeds the "
                    f"{stats[f'{metric}_ceiling']:.2f} ceiling: a cold "
                    f"run re-parses files, rebuilds CFGs or re-walks "
                    f"trees")
        if stats["diff_reanalyzed"] >= payload["files"]:
            failures.append(
                f"[{row}] diff leg re-analyzed every file "
                f"({stats['diff_reanalyzed']}/{payload['files']}): "
                f"invalidation is not incremental")
    return failures


# ----------------------------------------------------------------------
# pytest entry point (smoke shape: cheap enough for CI)
# ----------------------------------------------------------------------
def test_incremental_driver_budget(tmp_path):
    payload = run_bench(smoke=True, out=tmp_path / "BENCH_check.json")
    failures = check_gate(payload)
    assert not failures, "; ".join(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="analyzer packages only (CI mode), same JSON schema",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT),
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--before", default=None,
        help="an earlier BENCH_check.json whose cold and warm legs are "
             "stored under each row's 'before'",
    )
    args = parser.parse_args(argv)
    payload = run_bench(smoke=args.smoke, out=args.out, before=args.before)
    failures = check_gate(payload)
    for line in failures:
        print(f"GATE FAIL: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
