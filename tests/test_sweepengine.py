"""Sweep engine: determinism across worker counts, crash isolation, edges.

The merged artifact of :func:`repro.harness.sweepengine.run_sweep` must
be **byte-identical** for every worker count — that is the whole
contract that lets a 4-worker sweep be ``cmp``-ed against a 1-worker
run or yesterday's artifact.  These tests exercise that contract on a
real (small) grid, plus the failure paths: a point that dies is
recorded in place with the :mod:`repro.faults` taxonomy while its
siblings succeed, and degenerate grids (empty, single point) still
produce well-formed artifacts.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.faults import FlakyWriteError
from repro.harness import sweepengine
from repro.pool import available_cpus
from repro.harness.sweepengine import (
    SweepSpec,
    expand_grid,
    merged_sweep_points,
    run_point,
    run_sweep,
    sweepable_grids,
)


SMALL = SweepSpec(
    kind="workload", workload="vpic", machines=("testbed",),
    modes=("sync", "async"), scales=(4.0,), seeds=(0, 1),
)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


def test_expand_grid_canonical_order_and_indices():
    tasks = expand_grid(SMALL)
    assert [t.index for t in tasks] == [0, 1, 2, 3]
    # Canonical nesting: machine, mode, scale, seed (seed innermost).
    assert [(t.mode, t.seed) for t in tasks] == [
        ("sync", 0), ("sync", 1), ("async", 0), ("async", 1),
    ]
    # Tasks carry everything a worker needs — no global state.
    assert all(t.workload == "vpic" and t.machine == "testbed"
               for t in tasks)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        SweepSpec(kind="nonsense")


def test_run_sweep_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers"):
        run_sweep(SMALL, workers=0)


# ---------------------------------------------------------------------------
# Worker-count determinism (the headline contract)
# ---------------------------------------------------------------------------


def test_merged_json_byte_identical_1_vs_4_workers():
    serial = run_sweep(SMALL, workers=1)
    parallel = run_sweep(SMALL, workers=4)
    assert serial.to_json() == parallel.to_json()
    # And the artifact itself is sane.
    merged = serial.merged
    assert merged["schema"] == "repro-sweep/v1"
    assert [p["index"] for p in merged["points"]] == [0, 1, 2, 3]
    assert all(p["ok"] for p in merged["points"])
    # Telemetry stays out of the artifact.
    assert "elapsed" not in merged and "workers" not in merged
    assert serial.workers == 1
    assert parallel.workers == min(4, available_cpus())


def test_workers_are_capped_at_the_available_cpus():
    serial = run_sweep(SMALL, workers=1)
    wide = run_sweep(SMALL, workers=64)
    assert wide.workers <= available_cpus()
    assert wide.to_json() == serial.to_json()


def test_merged_json_round_trips_and_reduces():
    outcome = run_sweep(SMALL, workers=1)
    merged = json.loads(outcome.to_json())
    assert [p["index"] for p in merged["points"]] == [0, 1, 2, 3]
    points = merged_sweep_points(merged)
    # One best-of point per (mode, nranks) config.
    assert {(p.mode, p.nranks) for p in points} == {
        ("sync", 4), ("async", 4),
    }
    for p in points:
        assert p.peak_bandwidth > 0


# ---------------------------------------------------------------------------
# Crash isolation
# ---------------------------------------------------------------------------


def test_crashed_point_is_isolated():
    # An unknown machine makes its points raise inside the worker; the
    # testbed points must be unaffected.  This exercises the real
    # cross-process path (no monkeypatching survives a fork).
    spec = SweepSpec(
        kind="workload", workload="vpic", machines=("testbed", "no-such"),
        modes=("sync",), scales=(4.0,), seeds=(0,),
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert serial.to_json() == parallel.to_json()
    ok_point, bad_point = serial.merged["points"]
    assert ok_point["ok"] and ok_point["error"] is None
    assert not bad_point["ok"] and bad_point["metrics"] is None
    assert bad_point["error"]["family"] == "crash"
    assert bad_point["error"]["kind"] == "ValueError"
    assert "no-such" in bad_point["error"]["message"]
    # Failed points contribute no observations downstream.
    points = merged_sweep_points(serial.merged)
    assert len(points) == 1


def test_unknown_workload_is_a_crashed_point_not_an_exit():
    outcome = run_sweep(SweepSpec(workload="nope", modes=("sync",)),
                        workers=1)
    (point,) = outcome.merged["points"]
    assert not point["ok"] and point["metrics"] is None
    assert point["error"]["family"] == "crash"
    assert point["error"]["kind"] == "ValueError"
    assert "unknown workload 'nope'" in point["error"]["message"]


def test_crashed_point_keeps_a_portable_traceback(monkeypatch):
    def exploding_point(task):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(sweepengine, "execute", exploding_point)
    point = run_point(expand_grid(SMALL)[0])
    error = point["error"]
    assert error["family"] == "crash" and error["kind"] == "RuntimeError"
    trace = error["traceback"]
    assert "in exploding_point" in trace
    assert trace.rstrip().endswith("RuntimeError: kaboom")
    # Package paths are relative, so the artifact is checkout-independent.
    assert 'File "repro/harness/sweepengine.py"' in trace
    assert str(pathlib.Path(sweepengine.__file__).parent) not in trace


def test_fault_taxonomy_errors_keep_their_class(monkeypatch):
    def boom(task):
        raise FlakyWriteError("injected EIO")

    monkeypatch.setattr(sweepengine, "execute", boom)
    point = run_point(expand_grid(SMALL)[0])
    assert not point["ok"]
    assert point["error"] == {
        "family": "fault",
        "kind": "FlakyWriteError",
        "message": "injected EIO",
    }


# ---------------------------------------------------------------------------
# Degenerate grids
# ---------------------------------------------------------------------------


def test_empty_grid():
    spec = SweepSpec(kind="workload", seeds=())
    outcome = run_sweep(spec, workers=4)
    assert outcome.merged["points"] == []
    assert merged_sweep_points(outcome.merged) == []
    # to_json still yields a parseable, schema-tagged artifact.
    assert json.loads(outcome.to_json())["schema"] == "repro-sweep/v1"


def test_one_point_grid_runs_serially_even_with_workers():
    spec = SweepSpec(
        kind="workload", workload="vpic", machines=("testbed",),
        modes=("sync",), scales=(4.0,), seeds=(0,),
    )
    outcome = run_sweep(spec, workers=4)
    assert len(outcome.merged["points"]) == 1
    assert outcome.merged["points"][0]["ok"]


# ---------------------------------------------------------------------------
# Sched-kind sweeps and progress reporting
# ---------------------------------------------------------------------------


def test_sched_sweep_1_vs_2_workers_identical():
    spec = SweepSpec(
        kind="sched", machines=("sched-testbed",),
        modes=("fifo", "io-aware"), scales=(2.0,), seeds=(0,), jobs=4,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert serial.to_json() == parallel.to_json()
    for p in serial.merged["points"]:
        assert p["ok"]
        assert p["metrics"]["n_jobs"] == 4


def test_progress_callback_sees_every_point():
    seen = []
    run_sweep(SMALL, workers=1,
              progress=lambda done, total, point: seen.append((done, total)))
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


def test_sweepable_grids_lists_workloads_and_sched():
    names = [name for name, _desc in sweepable_grids()]
    assert "workload:vpic" in names
    assert "sched" in names


# ---------------------------------------------------------------------------
# Layering: sweep workers never need the CLI
# ---------------------------------------------------------------------------


def test_sweep_points_run_without_importing_the_cli():
    script = textwrap.dedent("""
        import sys
        from repro.harness.sweepengine import SweepSpec, run_sweep

        for spec in (
            SweepSpec(workload="vpic", modes=("sync",), scales=(4.0,)),
            SweepSpec(kind="sched", machines=("sched-testbed",),
                      modes=("fifo",), scales=(2.0,), jobs=2),
        ):
            assert all(p["ok"] for p in run_sweep(spec).merged["points"])
        assert "repro.cli" not in sys.modules, "repro.cli was imported"
    """)
    src = pathlib.Path(sweepengine.__file__).resolve().parents[2]
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
