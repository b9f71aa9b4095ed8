"""One contract for the gated benchmark scripts.

``bench_perf_sim.py``, ``bench_check.py`` and ``bench_claims.py`` each
build rows, declare their gates in one ``gates(artifact) -> list[str]``
function and hand both to :func:`main` (the CLI) or :func:`run` (their
pytest entry, where they have one), so the command line and pytest
enforce the same gates.  Every script
writes one ``repro-bench/v1`` artifact::

    {"schema": "repro-bench/v1", "bench": "sim", "mode": "smoke"|"full",
     "env": {"python": ..., "platform": ..., "nproc": ...},
     "rows": [{"name": ..., "params": {...}, "values": {...},
               "repeats": {leg: {"s": [...], "best", "median", "iqr"}},
               "gates": [{"name", "kind", "value", "limit", "ok"}]}],
     "failures": [...], "ok": true}

``values`` holds the statistic each gate reads (best-of-repeats for
the speedup floors, exact counts for the ceilings); ``repeats`` keeps
the raw per-repeat seconds with their median and interquartile range.

A gate is one of three kinds:

- ``true`` — an invariant (identity, determinism, an ordering between
  rows); ``value`` is the verdict and ``limit`` is ``null``;
- ``floor`` / ``ceiling`` — a bound whose ``name`` is its key in
  ``benchmarks/perf_budget.json``; :func:`check_budget` fills in
  ``limit`` from the artifact's mode, and a key missing from the
  budget fails, so renaming a row cannot drop its bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import pathlib
import platform
import statistics
import time

from repro.pool import available_cpus

SCHEMA = "repro-bench/v1"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUDGET_PATH = BENCH_DIR / "perf_budget.json"

_BOUNDS = {"floor": operator.ge, "ceiling": operator.le}


def host_workers() -> int:
    """Width of every N-worker leg: every CPU the pool may use, at least
    two."""
    return max(2, available_cpus())


def timed(fn):
    """``(seconds, result)`` of one call to ``fn``.

    A full collection runs first and the collector stays off while the
    clock runs, so no call pays for an earlier call's garbage.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def spread(samples) -> dict:
    """Raw per-repeat seconds with their best, median and IQR."""
    ordered = sorted(samples)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"s": [round(s, 4) for s in samples], "best": round(ordered[0], 4),
            "median": round(median, 4), "iqr": round(q3 - q1, 4)}


def row(name, params=None, values=None, repeats=None) -> dict:
    """One artifact row; :class:`Gates` fills in its ``gates``."""
    return {"name": name, "params": params or {}, "values": values or {},
            "repeats": {leg: spread(s) for leg, s in (repeats or {}).items()},
            "gates": []}


def load_budget(mode: str) -> dict:
    return json.loads(BUDGET_PATH.read_text())[mode]


def check_budget(rows, mode: str) -> list[str]:
    """Resolve every floor and ceiling gate on ``rows`` against the
    ``mode`` section of the budget file; returns the failures."""
    budget = load_budget(mode)
    failures = []
    for r in rows:
        for gate in r["gates"]:
            if gate["kind"] not in _BOUNDS:
                continue
            gate["limit"] = budget.get(gate["name"])
            if gate["limit"] is None:
                gate["ok"] = False
                failures.append(f"[{r['name']}] {gate['name']}: no "
                                f"{gate['kind']} in the {mode} budget")
                continue
            gate["ok"] = _BOUNDS[gate["kind"]](gate["value"], gate["limit"])
            if not gate["ok"]:
                failures.append(
                    f"[{r['name']}] {gate['name']} {gate['value']:.4g} is "
                    f"{'below' if gate['kind'] == 'floor' else 'above'} "
                    f"the {gate['limit']:.4g} {gate['kind']}")
    return failures


class Gates:
    """Gate verdicts for one artifact, recorded on the rows they judge."""

    def __init__(self, artifact):
        self._artifact = artifact
        self._failures = []
        for r in artifact["rows"]:
            r["gates"] = []

    def require(self, r, name, ok, message):
        """An invariant: fails with ``message`` unless ``ok``."""
        ok = bool(ok)
        r["gates"].append({"name": name, "kind": "true", "value": ok,
                           "limit": None, "ok": ok})
        if not ok:
            self._failures.append(f"[{r['name']}] {message}")

    def floor(self, r, key, value):
        self._bound(r, "floor", key, value)

    def ceiling(self, r, key, value):
        self._bound(r, "ceiling", key, value)

    def _bound(self, r, kind, key, value):
        r["gates"].append({"name": key, "kind": kind, "value": value,
                           "limit": None, "ok": None})

    def failures(self) -> list[str]:
        return self._failures + check_budget(self._artifact["rows"],
                                             self._artifact["mode"])


def find(rows, name):
    """The row called ``name``."""
    for r in rows:
        if r["name"] == name:
            return r
    raise KeyError(name)


def run(bench, run_bench, gates, smoke=False, out=None, **options):
    """Build, gate and (when ``out`` is set) write one artifact."""
    mode = "smoke" if smoke else "full"
    artifact = {
        "schema": SCHEMA, "bench": bench, "mode": mode,
        "env": {"python": platform.python_version(),
                "platform": f"{platform.system()}-{platform.machine()}",
                "nproc": available_cpus()},
        "rows": run_bench(smoke, **options),
    }
    artifact["failures"] = gates(artifact)
    artifact["ok"] = not artifact["failures"]
    if out is not None:
        out = pathlib.Path(out)
        out.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"[saved to {out}]")
    return artifact


def main(bench, run_bench, gates, argv=None, options=None):
    """CLI: ``--smoke``, ``--out`` and any ``options`` (flag -> help),
    whose values are passed to ``run_bench``; returns the exit status,
    non-zero on any failed gate."""
    default_out = REPO_ROOT / f"BENCH_{bench}.json"
    parser = argparse.ArgumentParser(
        description=f"Regenerate BENCH_{bench}.json and gate it.")
    parser.add_argument("--smoke", action="store_true",
                        help="small shapes (CI mode), same schema")
    parser.add_argument("--out", default=str(default_out),
                        help=f"output JSON path (default: {default_out})")
    for flag, text in (options or {}).items():
        parser.add_argument(f"--{flag}", default=None, help=text)
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    if not out.parent.is_dir():
        parser.error(f"--out directory does not exist: {out.parent}")
    artifact = run(bench, run_bench, gates, smoke=args.smoke, out=out,
                   **{flag: getattr(args, flag) for flag in options or {}})
    for line in artifact["failures"]:
        print(f"FAIL: {line}")
    return 0 if artifact["ok"] else 1
