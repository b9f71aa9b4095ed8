"""Tests for the experiment harness, sweeps, fitting and reporting."""

import math
import multiprocessing
import os
from multiprocessing.pool import RemoteTraceback
from types import SimpleNamespace

import pytest

from repro.platform import ContentionModel
from repro.platform import testbed as make_testbed
from repro.analysis import fit_sweep_points, variability_stats
from repro.harness import (
    FigureData,
    best_by_config,
    build_vol,
    run_experiment,
    scale_sweep,
)
from repro.harness.figures import resolve_profile
from repro import pool
from repro.workloads import VPICConfig, vpic_program

Mi = 1 << 20

MACHINE = make_testbed(nodes=16, ranks_per_node=4, pfs_peak=30e9, nic=8e9)
SMALL = VPICConfig(particles_per_rank=Mi, steps=2, compute_seconds=5.0)


def test_build_vol_modes():
    assert build_vol("sync").mode == "sync"
    assert build_vol("async").mode == "async"
    with pytest.raises(ValueError):
        build_vol("adaptive")


def test_run_experiment_result_fields():
    r = run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                       nranks=8, op="write")
    assert r.machine == "testbed"
    assert r.workload == "vpic"
    assert r.nranks == 8
    assert r.nnodes == 2
    assert r.n_phases == 2
    assert r.total_bytes == pytest.approx(SMALL.total_bytes(8))
    assert r.peak_bandwidth > 0
    assert r.app_time > 2 * 5.0
    assert r.availability == 1.0
    assert r.peak_gbs == pytest.approx(r.peak_bandwidth / 1e9)


def test_run_experiment_contention_applied():
    cm = ContentionModel(seed=5, median_load=2.0)
    # enough ranks that the (scaled) shared PFS backend is the bottleneck
    r = run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                       nranks=32, day=1, contention=cm, op="write")
    assert r.availability < 1.0
    clean = run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                           nranks=32, op="write")
    assert r.peak_bandwidth < clean.peak_bandwidth


def test_scale_sweep_grid_complete():
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[4, 8], modes=("sync", "async"), reps=2,
    )
    assert len(results) == 2 * 2 * 2
    assert {(r.mode, r.nranks, r.day) for r in results} == {
        (m, n, d) for m in ("sync", "async") for n in (4, 8) for d in (0, 1)
    }
    with pytest.raises(ValueError):
        scale_sweep(MACHINE, "w", vpic_program, lambda n: SMALL, scales=[4],
                    reps=0)


# ---------------------------------------------------------------------------
# scale_sweep fan-out: the pool must be unobservable in what it returns
# ---------------------------------------------------------------------------

GRID = dict(scales=[4, 8, 16], modes=("sync", "async"), reps=2)
DAYS = ContentionModel(seed=3, median_load=0.5)


def _grid_sweep():
    return scale_sweep(MACHINE, "vpic", vpic_program, lambda n: SMALL,
                       contention=DAYS, **GRID)


def _grid_reference():
    """The same grid as plain ``run_experiment`` calls in grid order."""
    return [
        run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode=mode,
                       nranks=nranks, day=rep, contention=DAYS, op="write")
        for nranks in GRID["scales"] for mode in GRID["modes"]
        for rep in range(GRID["reps"])
    ]


def _no_pool(*args, **kwargs):
    raise AssertionError("a serial sweep must not build a pool")


def test_scale_sweep_equals_grid_order_run_experiment():
    assert _grid_sweep() == _grid_reference()


def test_scale_sweep_on_one_cpu_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(pool.multiprocessing, "get_context", _no_pool)
    assert _grid_sweep() == _grid_reference()


def _sweep_in_pool_worker(_):
    return multiprocessing.current_process().daemon, _grid_sweep()


def test_scale_sweep_inside_a_pool_worker_runs_serially():
    with multiprocessing.get_context("fork").Pool(1) as worker:
        daemon, results = worker.apply(_sweep_in_pool_worker, (None,))
    assert daemon
    assert results == _grid_reference()


class ScaleEightFailure(RuntimeError):
    pass


class ScaleSixteenFailure(ValueError):
    pass


def _failing_program(lib, vol, cfg):
    # The config carries its scale in compute_seconds (see below).
    if cfg.compute_seconds == 8:
        raise ScaleEightFailure("the scale-8 points fail")
    if cfg.compute_seconds == 16:
        raise ScaleSixteenFailure("the scale-16 points fail")
    return vpic_program(lib, vol, cfg)


def _failing_sweep():
    return scale_sweep(
        MACHINE, "vpic", _failing_program,
        lambda n: VPICConfig(particles_per_rank=Mi, steps=1,
                             compute_seconds=float(n)),
        scales=[4, 8, 16], modes=("sync", "async"), reps=1,
    )


def test_failing_point_raises_the_same_error_serial_and_parallel(
        monkeypatch):
    # Longest first, the scale-16 points fail first in a pool; the
    # scale-8 failure comes first in grid order, so both paths raise it.
    with pytest.raises(ScaleEightFailure) as parallel:
        _failing_sweep()
    if pool.available_cpus() > 1:
        assert isinstance(parallel.value.__cause__, RemoteTraceback)
        assert "_failing_program" in str(parallel.value.__cause__)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ScaleEightFailure):
        _failing_sweep()


def test_fan_out_returns_results_in_job_order():
    jobs = [lambda i=i: i * i for i in range(7)]
    done = []
    results = pool.fan_out(jobs, costs=[1, 5, 5, 2, 9, 1, 3],
                            on_result=lambda n, result: done.append(n))
    assert results == [i * i for i in range(7)]
    assert sorted(done) == list(range(1, 8))
    assert pool.fan_out([]) == []


class _InProcessPool:
    """Stands in for the fork pool: runs each index here, in the order
    it is submitted, and records that order."""

    submitted: list = []

    def __init__(self, width):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def imap_unordered(self, fn, order):
        for index in order:
            self.submitted.append(index)
            yield fn(index)


def test_fan_out_submits_longest_first_and_stops_after_lowest_failure(
        monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(pool.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=_InProcessPool))
    monkeypatch.setattr(_InProcessPool, "submitted", [])
    costs = [1, 5, 5, 2, 9, 1, 3]
    assert pool.fan_out([lambda i=i: i for i in range(7)], costs) == list(
        range(7))
    # Descending cost; equal costs keep index order.
    assert _InProcessPool.submitted == [4, 1, 2, 6, 3, 0, 5]

    def fail():
        raise ScaleEightFailure("job 1")

    monkeypatch.setattr(_InProcessPool, "submitted", [])
    jobs = [lambda i=i: i for i in range(7)]
    jobs[1] = fail
    with pytest.raises(ScaleEightFailure):
        pool.fan_out(jobs, costs)
    # Once job 0 is in, nothing left can fail lower than job 1.
    assert _InProcessPool.submitted == [4, 1, 2, 6, 3, 0]


def test_best_by_config_takes_max():
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[4, 8], modes=("sync",), reps=2,
        contention=ContentionModel(seed=2, median_load=1.0),
    )
    points = best_by_config(results)
    assert len(points) == 2
    for p in points:
        assert p.peak_bandwidth == max(p.all_peaks)
        assert len(p.all_peaks) == 2


def test_sweep_weak_scaling_shapes():
    """On the testbed, async grows linearly while sync saturates."""
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[8, 16, 32, 64], modes=("sync", "async"), reps=1,
    )
    points = best_by_config(results)
    sync = {p.nranks: p.peak_bandwidth for p in points if p.mode == "sync"}
    async_ = {p.nranks: p.peak_bandwidth for p in points if p.mode == "async"}
    # async linear: doubling ranks doubles bandwidth
    assert async_[64] / async_[8] == pytest.approx(8.0, rel=0.05)
    # sync saturates at the PFS ceiling (30 GB/s)
    assert sync[64] < 30e9 * 1.01
    assert sync[64] / sync[8] < 8.0
    # async beats sync at scale
    assert async_[64] > 2 * sync[64]


def test_fit_sweep_points_model_quality():
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[8, 16, 32, 64], modes=("sync", "async"), reps=1,
    )
    points = best_by_config(results)
    fit_async = fit_sweep_points(points, "async")
    assert fit_async.r2 > 0.9  # paper: async r2 above 90%
    assert fit_async.transform == "linear"
    fit_sync = fit_sweep_points(points, "sync")
    assert fit_sync.r2 > 0.8  # paper: sync r2 above 80%
    # estimates exist for every swept scale
    assert set(fit_async.estimates) == {8, 16, 32, 64}
    assert fit_async.estimate_gbs(64) == pytest.approx(
        fit_async.estimates[64] / 1e9
    )
    with pytest.raises(ValueError):
        fit_sweep_points([p for p in points if p.mode == "sync"], "async")


def test_variability_stats():
    v = variability_stats([1.0, 2.0, 3.0])
    assert v.mean == pytest.approx(2.0)
    assert v.cv == pytest.approx(v.std / 2.0)
    assert v.spread_ratio == pytest.approx(3.0)
    assert variability_stats([5.0]).cv == 0.0
    with pytest.raises(ValueError):
        variability_stats([])


def test_figure_data_table():
    fig = FigureData("figX", "a title", columns=["a", "b"])
    fig.add_row(1, 2.5)
    fig.add_row(10, 1e7)
    fig.meta["note"] = 0.93
    text = fig.to_text()
    assert "figX" in text and "a title" in text
    assert "note: 0.93" in text
    assert fig.column("a") == [1, 10]
    with pytest.raises(ValueError):
        fig.add_row(1)


def test_resolve_profile():
    assert resolve_profile("quick") == "quick"
    assert resolve_profile("paper") == "paper"
    with pytest.raises(ValueError):
        resolve_profile("fast")


def test_recovery_sweep_runs_one_clean_reference_per_mode(monkeypatch):
    from repro.faults import FaultConfig
    from repro.harness import recovery
    from repro.workloads.restart import RestartConfig

    clean_runs = []
    real = recovery._clean_wall

    def counted(machine, mode, *args):
        clean_runs.append(mode)
        return real(machine, mode, *args)

    monkeypatch.setattr(recovery, "_clean_wall", counted)
    cfg = RestartConfig(elems_per_rank=Mi // 16, checkpoints=3,
                        compute_seconds=5.0)
    results = recovery.recovery_sweep(MACHINE, 8, fault_rates=(0.0, 0.1, 0.2),
                                      config=cfg, seed=90)
    assert clean_runs == ["sync", "async"]
    # The same results as one run_recovery per point, each with its own
    # reference run.
    assert results == [recovery.run_recovery(
        MACHINE, r.mode, 8, config=cfg,
        fault_config=(FaultConfig(seed=90, write_error_rate=r.fault_rate)
                      if r.fault_rate else None)) for r in results]


def test_profile_scales_consistent():
    """Every paper-profile sweep extends its quick counterpart."""
    from repro.harness.figures import _SCALES, _REPS, _STEPS
    keys = {k[0] for k in _SCALES}
    for key in keys:
        quick = _SCALES[(key, "quick")]
        paper = _SCALES[(key, "paper")]
        assert quick == sorted(quick)
        assert paper == sorted(paper)
        assert set(quick) <= set(paper)
    assert _REPS["paper"] >= 5  # "at least 5 times across multiple days"
    assert _REPS["quick"] >= 2
    assert _STEPS["paper"] >= _STEPS["quick"]


def test_fit_uses_every_days_observation():
    """The regression sees all repetitions, not just the best-of points."""
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[8, 16, 32], modes=("sync",), reps=3,
        contention=ContentionModel(seed=11, median_load=1.0),
    )
    points = best_by_config(results)
    for p in points:
        assert len(p.all_peaks) == 3
    fit = fit_sweep_points(points, "sync")
    # 3 scales x 3 days = 9 samples behind the fit
    assert 0.0 <= fit.r2 <= 1.0
