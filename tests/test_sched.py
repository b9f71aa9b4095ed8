"""Tests for the multi-tenant scheduler and cluster service layer."""

import dataclasses
import json
import math

import pytest

from repro.sim import Engine, Interrupted
from repro.platform import Cluster, ContentionModel, ContentionTimeline
from repro.platform import testbed as _testbed
from repro.sched import (
    AdvisorService,
    BackfillPolicy,
    FIFOPolicy,
    IOAwarePolicy,
    JobRecord,
    JobSpec,
    JobState,
    JobStream,
    Placement,
    Scheduler,
    StreamConfig,
    make_job,
    make_policy,
)
from repro.trace import Span, SpanLog, records_to_json

GB = 1e9


def sched_spec(nodes=8):
    return _testbed(nodes=nodes, ranks_per_node=4, pfs_peak=3.0 * GB,
                    nic=2.0 * GB)


def build_sched(policy_name="fifo", nodes=8, **policy_kwargs):
    spec = sched_spec(nodes)
    engine = Engine()
    cluster = Cluster(engine, spec, spec.total_nodes)
    service = AdvisorService(spec)
    policy = make_policy(
        policy_name, spec.default_ranks_per_node,
        service=service if policy_name == "io-aware" else None,
        **policy_kwargs,
    )
    sched = Scheduler(engine, cluster, policy, service=service)
    return spec, engine, cluster, sched


# ---------------------------------------------------------------------------
# JobSpec / JobRecord
# ---------------------------------------------------------------------------


def test_job_spec_validation():
    spec = sched_spec()
    job = make_job("vpic", spec, "j0", nranks=8)
    assert job.mode == "auto"
    assert job.phase_bytes > 0 and job.n_phases >= 1
    assert math.isfinite(job.walltime)
    with pytest.raises(ValueError):
        dataclasses.replace(job, mode="turbo")
    with pytest.raises(ValueError):
        dataclasses.replace(job, nranks=0)
    with pytest.raises(ValueError):
        dataclasses.replace(job, walltime=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(job, n_phases=0)
    with pytest.raises(ValueError):
        make_job("doom3", spec, "j0", nranks=8)


def test_job_spec_nnodes_rounds_up():
    job = make_job("vpic", sched_spec(), "j0", nranks=9)
    assert job.nnodes(default_rpn=4) == 3
    assert job.nnodes(default_rpn=8) == 2


def test_job_record_metrics():
    job = make_job("vpic", sched_spec(), "j0", nranks=4)
    rec = JobRecord(job, job_id=3, submit_time=10.0)
    assert rec.state is JobState.PENDING and not rec.finished
    rec.start_time, rec.finish_time = 12.0, 20.0
    rec.state = JobState.COMPLETED
    assert rec.wait_time == pytest.approx(2.0)
    assert rec.run_time == pytest.approx(8.0)
    assert rec.completion_time == pytest.approx(10.0)
    assert rec.finished
    summary = rec.summary()
    assert summary["job_id"] == 3 and summary["state"] == "completed"


# ---------------------------------------------------------------------------
# Stream determinism
# ---------------------------------------------------------------------------


def test_stream_same_seed_identical():
    spec = sched_spec()
    cfg = StreamConfig(n_jobs=12, seed=5)
    assert (JobStream(spec, cfg).fingerprint()
            == JobStream(spec, cfg).fingerprint())


def test_stream_different_seed_differs():
    spec = sched_spec()
    a = JobStream(spec, StreamConfig(n_jobs=12, seed=5)).fingerprint()
    b = JobStream(spec, StreamConfig(n_jobs=12, seed=6)).fingerprint()
    assert a != b


def test_stream_unique_paths_and_monotone_arrivals():
    spec = sched_spec()
    arrivals = JobStream(spec, StreamConfig(n_jobs=15, seed=2)).arrivals()
    times = [t for t, _s in arrivals]
    assert times == sorted(times)
    paths = [getattr(s.config, "path", None)
             or getattr(s.config, "path_prefix") for _t, s in arrivals]
    assert len(set(paths)) == len(paths)


def test_stream_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(n_jobs=0)
    with pytest.raises(ValueError):
        StreamConfig(mean_interarrival=0.0)
    with pytest.raises(ValueError):
        StreamConfig(workload_mix=(("doom", 1.0),))
    with pytest.raises(ValueError):
        StreamConfig(mode_mix=(("auto", -1.0),))
    with pytest.raises(ValueError):
        StreamConfig(rank_choices=())


# ---------------------------------------------------------------------------
# Cluster node ledger
# ---------------------------------------------------------------------------


def test_node_ledger_allocate_release():
    engine = Engine()
    cluster = Cluster(engine, sched_spec(), 8)
    assert cluster.free_node_count == 8
    taken = cluster.allocate_nodes(3, owner=1)
    assert taken == (0, 1, 2)
    assert cluster.free_node_count == 5 and cluster.busy_node_count == 3
    more = cluster.allocate_nodes(2, owner=2)
    assert more == (3, 4)
    cluster.release_owner(1)
    assert cluster.free_node_count == 6
    assert cluster.free_node_indices() == (0, 1, 2, 5, 6, 7)
    # Next allocation reuses the lowest free indices (fragmentation).
    assert cluster.allocate_nodes(4) == (0, 1, 2, 5)


def test_node_ledger_errors():
    engine = Engine()
    cluster = Cluster(engine, sched_spec(), 4)
    cluster.allocate_nodes(4)
    with pytest.raises(ValueError):
        cluster.allocate_nodes(1)
    with pytest.raises(ValueError):
        cluster.allocate_nodes(0)
    cluster.release_nodes((0, 1))
    with pytest.raises(ValueError):
        cluster.release_nodes((1,))  # double release
    with pytest.raises(ValueError):
        cluster.release_nodes((99,))
    cluster.release_owner(42)  # unknown owner is a no-op


# ---------------------------------------------------------------------------
# Policies (pure planning)
# ---------------------------------------------------------------------------


def _pending(spec, shapes):
    """JobRecords for (nranks, walltime) shapes, submitted at t=0."""
    records = []
    for i, (nranks, walltime) in enumerate(shapes):
        job = make_job("vpic", spec, f"j{i}", nranks=nranks)
        job = dataclasses.replace(job, walltime=walltime)
        records.append(JobRecord(job, i, 0.0))
    return records


def test_fifo_head_of_line_blocks():
    spec = sched_spec()
    policy = FIFOPolicy(default_ranks_per_node=4)
    # Head needs 8 nodes, only 4 free; the small job behind must wait.
    pending = _pending(spec, [(32, 100.0), (4, 100.0)])
    assert policy.plan(0.0, pending, free_nodes=4, running=[]) == []


def test_fifo_starts_in_order_while_fitting():
    spec = sched_spec()
    policy = FIFOPolicy(default_ranks_per_node=4)
    pending = _pending(spec, [(8, 100.0), (8, 100.0), (32, 100.0)])
    plan = policy.plan(0.0, pending, free_nodes=4, running=[])
    assert [p.record.job_id for p in plan] == [0, 1]
    assert all(p.mode == "sync" for p in plan)  # 'auto' defaults to sync


def test_backfill_lets_short_job_jump():
    spec = sched_spec()
    policy = BackfillPolicy(default_ranks_per_node=4)
    # One running job holds 4 nodes for 50 more seconds.
    running = _pending(spec, [(16, 50.0)])[:1]
    running[0].start_time = 0.0
    running[0].nodes = (0, 1, 2, 3)
    # Head needs 8 nodes (must wait for the release at t=50); the short
    # job behind fits in the 4 free nodes and ends before t=50.
    pending = _pending(spec, [(32, 100.0), (8, 20.0)])
    plan = policy.plan(0.0, pending, free_nodes=4, running=running)
    assert [p.record.job_id for p in plan] == [1]


def test_backfill_blocks_reservation_violators():
    spec = sched_spec()
    policy = BackfillPolicy(default_ranks_per_node=4)
    running = _pending(spec, [(16, 50.0)])[:1]
    running[0].start_time = 0.0
    running[0].nodes = (0, 1, 2, 3)
    # The trailing job would outlive the shadow time AND needs nodes
    # the head's reservation will use: it must stay queued.
    pending = _pending(spec, [(32, 100.0), (8, 500.0)])
    plan = policy.plan(0.0, pending, free_nodes=4, running=running)
    assert plan == []


def test_io_aware_resolves_auto_to_async():
    spec = sched_spec()
    service = AdvisorService(spec)
    policy = IOAwarePolicy(default_ranks_per_node=4, service=service)
    pending = _pending(spec, [(8, 100.0)])
    plan = policy.plan(0.0, pending, free_nodes=8, running=[])
    assert len(plan) == 1
    assert plan[0].mode == "async"
    assert pending[0].decision is not None


def test_io_aware_staggers_colliding_sync_bursts():
    spec = sched_spec()
    service = AdvisorService(spec)
    policy = IOAwarePolicy(default_ranks_per_node=4, service=service,
                           max_stagger=10.0)
    records = _pending(spec, [(8, 100.0), (8, 100.0)])
    for rec in records:  # force both jobs synchronous
        object.__setattr__(rec.spec, "mode", "sync")
    plan = policy.plan(0.0, records, free_nodes=8, running=[])
    delays = sorted(p.start_delay for p in plan)
    assert delays[0] == 0.0
    assert delays[1] > 0.0  # second sync burst slides out of the first
    # Async jobs are never staggered.
    async_rec = _pending(spec, [(8, 100.0)])
    object.__setattr__(async_rec[0].spec, "mode", "async")
    plan2 = policy.plan(0.0, async_rec, free_nodes=8, running=[])
    assert plan2[0].start_delay == 0.0


def test_placement_validation():
    spec = sched_spec()
    rec = _pending(spec, [(8, 100.0)])[0]
    with pytest.raises(ValueError):
        Placement(rec, nnodes=0, mode="sync")
    with pytest.raises(ValueError):
        Placement(rec, nnodes=1, mode="auto")
    with pytest.raises(ValueError):
        Placement(rec, nnodes=1, mode="sync", start_delay=-1.0)


def test_make_policy_factory():
    assert isinstance(make_policy("fifo", 4), FIFOPolicy)
    assert isinstance(make_policy("backfill", 4), BackfillPolicy)
    service = AdvisorService(sched_spec())
    assert isinstance(make_policy("io-aware", 4, service=service),
                      IOAwarePolicy)
    with pytest.raises(ValueError):
        make_policy("io-aware", 4)  # needs a service
    with pytest.raises(ValueError):
        make_policy("sjf", 4)


# ---------------------------------------------------------------------------
# Advisor service
# ---------------------------------------------------------------------------


def test_advisor_service_ready_from_prior():
    spec = sched_spec()
    service = AdvisorService(spec)
    decision = service.decide("vpic", phase_bytes=1 * GB, nranks=8,
                              compute_seconds=2.0)
    assert decision.mode.value in ("sync", "async")
    assert math.isfinite(decision.est_sync_epoch)
    assert service.tenants() == ["vpic"]


def test_advisor_service_prior_disabled_falls_back_to_sync():
    service = AdvisorService(sched_spec(), prior_weight=0)
    decision = service.decide("cold", phase_bytes=1 * GB, nranks=8,
                              compute_seconds=2.0)
    assert decision.mode.value == "sync"  # no history, advisor not ready
    assert math.isnan(decision.est_sync_epoch)


def test_advisor_service_histories_are_per_tenant():
    service = AdvisorService(sched_spec())
    h_a = service.history_for("a")
    h_b = service.history_for("b")
    assert h_a is not h_b
    assert service.history_for("a") is h_a
    n_before = len(h_a)
    h_a.record(data_size=1e9, nranks=8, io_rate=1e9)
    assert len(h_a) == n_before + 1
    assert len(h_b) == n_before


def test_advisor_service_estimate_sync_time_positive():
    service = AdvisorService(sched_spec())
    t = service.estimate_sync_io_time("vpic", phase_bytes=1 * GB, nranks=8)
    assert t > 0 and math.isfinite(t)


# ---------------------------------------------------------------------------
# Scheduler end-to-end
# ---------------------------------------------------------------------------


def test_scheduler_runs_fleet_to_completion():
    spec, engine, cluster, sched = build_sched("fifo")
    arrivals = JobStream(
        spec, StreamConfig(n_jobs=8, seed=1, mean_interarrival=5.0)
    ).arrivals()
    records = sched.run_stream(arrivals)
    assert len(records) == 8
    assert all(r.state is JobState.COMPLETED for r in records)
    assert cluster.free_node_count == len(cluster.nodes)  # all released
    for rec in records:
        assert rec.bytes_moved() > 0
        assert rec.completion_time >= rec.wait_time >= 0.0
        assert rec.stats_delta["events"] > 0


def test_scheduler_spans_and_timeline():
    spec, engine, cluster, sched = build_sched("fifo")
    arrivals = JobStream(
        spec, StreamConfig(n_jobs=6, seed=3, mean_interarrival=2.0)
    ).arrivals()
    records = sched.run_stream(arrivals)
    table = {row["job_id"]: row for row in sched.spans.tenant_table()}
    assert sorted(table) == [r.job_id for r in records]
    for rec in records:
        row = table[rec.job_id]
        assert row["queued_s"] == pytest.approx(rec.wait_time)
        assert row["run_s"] == pytest.approx(rec.run_time)
        assert row["events"] == rec.stats_delta["events"]
    timeline = sched.timeline
    assert timeline.live_jobs == 0
    assert timeline.peak_live_jobs() >= 1
    assert timeline.busy_node_seconds() > 0
    assert len(timeline.events) == 2 * len(records)


def test_scheduler_walltime_timeout_kills_and_releases():
    spec, engine, cluster, sched = build_sched("fifo")
    job = make_job("vpic", spec, "killme", nranks=4)
    job = dataclasses.replace(job, walltime=2.0)  # well under its runtime
    sched.submit(job)
    engine.run()
    rec = sched.records[0]
    assert rec.state is JobState.TIMEOUT
    assert rec.run_time == pytest.approx(2.0)
    assert cluster.free_node_count == len(cluster.nodes)
    # Killed jobs never feed the advisor's measurement history.
    assert len(sched.service.history_for("vpic")) == len(
        AdvisorService(spec).history_for("vpic")
    )


def test_scheduler_rejects_oversized_job():
    spec, engine, cluster, sched = build_sched("fifo")
    job = make_job("vpic", spec, "huge", nranks=4096)
    rec = sched.submit(job)
    assert rec.state is JobState.REJECTED
    assert "nodes" in rec.reject_reason
    engine.run()
    assert rec.finished


def test_scheduler_same_seed_replay_identical():
    def run_once():
        spec, engine, cluster, sched = build_sched("io-aware")
        arrivals = JobStream(
            spec, StreamConfig(n_jobs=10, seed=4, mean_interarrival=3.0)
        ).arrivals()
        records = sched.run_stream(arrivals)
        return [(r.job_id, r.mode, r.nodes, r.start_time, r.finish_time)
                for r in records]

    assert run_once() == run_once()


def test_io_aware_beats_fifo_under_load():
    from repro.harness.sched import run_fleet, sched_testbed

    cfg = StreamConfig(n_jobs=15, seed=7, mean_interarrival=2.0,
                       rank_choices=(8, 16, 32), size_scale=4.0)
    machine = sched_testbed()
    fifo = run_fleet(machine, cfg, "fifo")
    io_aware = run_fleet(machine, cfg, "io-aware")
    assert io_aware.completion_p95 < fifo.completion_p95
    assert io_aware.n_async > fifo.n_async
    assert fifo.completed == io_aware.completed == 15


def test_run_fleet_metrics_consistent():
    from repro.harness.sched import percentile, run_fleet, sched_testbed

    cfg = StreamConfig(n_jobs=8, seed=1, mean_interarrival=4.0)
    m = run_fleet(sched_testbed(), cfg, "backfill")
    assert m.completed + m.timeouts + m.failed + m.rejected == m.n_jobs
    assert m.completion_p50 <= m.completion_p95 <= m.completion_p99
    assert m.makespan > 0 and 0 <= m.pfs_utilization <= 1
    assert len(m.jobs) == m.n_jobs
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([3, 1, 2], 100) == 3
    assert math.isnan(percentile([], 50))
    with pytest.raises(ValueError):
        percentile([1], 0)


# ---------------------------------------------------------------------------
# ContentionTimeline
# ---------------------------------------------------------------------------


def test_timeline_bookkeeping_and_errors():
    engine = Engine()
    timeline = ContentionTimeline(engine)
    timeline.job_started(1, nodes=4)
    timeline.job_started(2, nodes=2)
    assert timeline.live_jobs == 2 and timeline.busy_nodes == 6
    with pytest.raises(ValueError):
        timeline.job_started(1, nodes=1)
    timeline.job_finished(1)
    with pytest.raises(ValueError):
        timeline.job_finished(1)
    assert timeline.availability() == 1.0  # no external model


def test_timeline_external_model_scales_with_live_jobs():
    engine = Engine()
    spec = sched_spec()
    cluster = Cluster(engine, spec, 2)
    model = ContentionModel(seed=3, median_load=0.3)
    timeline = ContentionTimeline(engine, cluster.pfs, model=model, day=1,
                                  external_per_job=0.5)
    base = timeline.availability()
    assert base == pytest.approx(model.availability(1))
    timeline.job_started(1, nodes=1)
    assert timeline.availability() < base
    timeline.job_finished(1)
    assert timeline.availability() == pytest.approx(base)


# ---------------------------------------------------------------------------
# Spans and trace export
# ---------------------------------------------------------------------------


def test_span_validation_and_log():
    log = SpanLog()
    log.record(1, "queued", 0.0, 2.0)
    log.record(1, "run", 2.0, 5.0, mode="async")
    log.record(2, "queued", 1.0, 1.0)
    assert len(log) == 3
    assert log.total(1) == pytest.approx(5.0)
    assert log.total(1, "run") == pytest.approx(3.0)
    assert log.job_ids() == [1, 2]
    assert [s.name for s in log.for_job(1)] == ["queued", "run"]
    rows = log.tenant_table()
    assert rows[0]["mode"] == "async"
    parsed = json.loads(log.to_json())
    assert len(parsed) == 3 and parsed[1]["meta"] == {"mode": "async"}
    with pytest.raises(ValueError):
        Span(1, "bad", 5.0, 4.0)


def test_records_to_json_engine_stats_opt_in():
    from repro.sim import EngineStats

    legacy = json.loads(records_to_json([]))
    assert legacy == []
    stats = EngineStats()
    stats.events = 42
    tagged = json.loads(records_to_json([], engine_stats=stats))
    assert tagged["records"] == []
    assert tagged["engine_stats"]["events"] == 42
    plain = json.loads(records_to_json([], engine_stats={"events": 7}))
    assert plain["engine_stats"] == {"events": 7}


# ---------------------------------------------------------------------------
# Engine interrupt (the kill primitive)
# ---------------------------------------------------------------------------


def test_interrupt_waiting_process():
    engine = Engine()
    seen = []

    def sleeper():
        try:
            yield engine.timeout(100.0)
        except Interrupted as exc:
            seen.append(exc.cause)
        return "done"

    proc = engine.process(sleeper())

    def killer():
        yield engine.timeout(1.0)
        assert proc.interrupt("scancel")

    engine.process(killer())
    engine.run()
    assert seen == ["scancel"]
    assert engine.now == pytest.approx(100.0)  # dangling timeout still fires
    assert proc.value == "done"


def test_interrupt_finished_process_is_noop():
    engine = Engine()

    def instant():
        return "ok"
        yield  # pragma: no cover - makes this a generator

    proc = engine.process(instant())
    engine.run()
    assert proc.interrupt("late") is False


def test_interrupted_process_ignores_stale_event():
    engine = Engine()
    trace = []

    def waits_twice():
        try:
            yield engine.timeout(10.0)
            trace.append("first")
        except Interrupted:
            trace.append("interrupted")
        yield engine.timeout(50.0)
        trace.append("second")

    proc = engine.process(waits_twice())

    def killer():
        yield engine.timeout(1.0)
        proc.interrupt()

    engine.process(killer())
    engine.run()
    # The stale 10 s timeout firing at t=10 must NOT resume the process
    # a second time; only the post-interrupt 50 s wait completes it.
    assert trace == ["interrupted", "second"]
    assert engine.now == pytest.approx(51.0)


# ---------------------------------------------------------------------------
# MPIJob explicit placement
# ---------------------------------------------------------------------------


def test_mpijob_node_indices_placement():
    from repro.mpi import MPIJob

    engine = Engine()
    cluster = Cluster(engine, sched_spec(), 8)
    job = MPIJob(cluster, 8, ranks_per_node=4, node_indices=(5, 2))
    assert job.node_indices == (5, 2)
    assert job.contexts[0].node.index == 5
    assert job.contexts[3].node.index == 5
    assert job.contexts[4].node.index == 2
    with pytest.raises(ValueError):
        MPIJob(cluster, 8, ranks_per_node=4, node_indices=(5,))
    with pytest.raises(ValueError):
        MPIJob(cluster, 4, ranks_per_node=4, node_indices=(9,))
    with pytest.raises(ValueError):
        MPIJob(cluster, 4, ranks_per_node=4, node_indices=(1,), node_offset=2)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list_includes_workloads_and_microbenchmarks(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "workloads" in out and "micro-benchmarks" in out
    for name in ("vpic", "bdcats", "cosmoflow", "fig-sched", "mb-gpu"):
        assert name in out


def test_cli_sched_command(capsys):
    from repro.cli import main

    code = main(["sched", "--policy", "io-aware", "--jobs", "6",
                 "--load", "4", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "io-aware" in out and "compl p95" in out


def test_cli_sched_seed_grid_rows_match_run_fleet(capsys):
    """``sched --seeds`` prints one row per (load, policy, seed), each
    equal to ``run_fleet`` under the CLI's own stream settings."""
    from dataclasses import asdict

    from repro.cli import main
    from repro.faults import chaos_config
    from repro.harness.report import FigureData
    from repro.harness.sched import run_fleet, sched_testbed

    assert main(["sched", "--policy", "all", "--jobs", "4", "--load", "5",
                 "--seeds", "0", "1", "--size-scale", "2",
                 "--fault-rate", "10", "--fault-seed", "3"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[1:]

    keys = ["completed", "timeouts", "n_async", "goodput_jobs_per_hour",
            "wait_p95", "completion_p50", "completion_p95",
            "completion_p99", "makespan", "pfs_utilization", "node_kills",
            "requeues", "lost_work_seconds"]
    expected = FigureData(name="sched", title="",
                          columns=printed[0].replace(" ", "").split("|"))
    for policy in ("fifo", "backfill", "io-aware"):
        for seed in (0, 1):
            cfg = StreamConfig(n_jobs=4, seed=seed, mean_interarrival=5.0,
                               rank_choices=(8, 16, 32), size_scale=2.0)
            m = asdict(run_fleet(
                sched_testbed(), cfg, policy,
                fault_config=chaos_config(10.0, seed=3 + 7919 * seed)))
            expected.add_row(5.0, policy, seed, *(m[k] for k in keys))

    def cells(lines):
        return [[c.strip() for c in line.split("|")] for line in lines]

    assert cells(printed[2:]) == cells(expected.to_text().splitlines()[3:])


def test_cli_sched_has_no_workers_flag(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["sched", "--seeds", "0", "1", "--workers", "2"])
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cli_profile_stats_flag(capsys):
    from repro.cli import main

    code = main(["profile", "--workload", "vpic", "--machine", "testbed",
                 "--mode", "sync", "--ranks", "8", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine stats:" in out
    assert "fastpath_events" in out
