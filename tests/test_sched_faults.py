"""Fleet-level fault tolerance: node ledger, kill/requeue, checkpoints.

Covers the scheduler's reactions to node-level faults end to end:

* the :class:`~repro.platform.Cluster` node-state ledger
  (UP/DOWN/DRAINING transitions, free-set and owner accounting),
* crash → kill → seeded-backoff requeue → checkpoint restart,
* the per-job retry budget and terminal FAILED state,
* the sibling-rank-failure regression (nodes released at the failure
  instant, kill reason and fault signature recorded),
* degraded admission while the shared PFS is inside an outage window,
* advisor quarantine of fault-tainted fleet measurements, and
* same-seed chaos replay determinism, including sweep-engine
  worker-count invariance.

Timings asserted exactly below come from the deterministic testbed: a
``compute_scale=2`` VPIC job runs 3 phases of 3 s compute + one ~70 ms
write each, finishing at ~9.2 s, so a crash at t=4.5 lands mid-phase-2
with exactly one checkpoint durable.
"""

import dataclasses
import json
import math
import pathlib

import pytest

from repro.faults import FaultConfig, FaultInjector, OutageWindow
from repro.faults.scenarios import chaos_config
from repro.harness import run_fleet, sched_testbed
from repro.harness.sweepengine import SweepSpec, run_sweep
from repro.platform import Cluster, NodeState, testbed as _testbed
from repro.sched import (
    AdvisorService,
    JobSpec,
    JobState,
    Scheduler,
    StreamConfig,
    make_job,
    make_policy,
)
from repro.sched import scheduler
from repro.sim import Engine

GB = 1e9


def sched_spec(nodes=8):
    return _testbed(nodes=nodes, ranks_per_node=4, pfs_peak=3.0 * GB,
                    nic=2.0 * GB)


def build_chaos(fault_config=None, policy_name="fifo", nodes=8,
                checkpoint_restart=True, **sched_kwargs):
    """A scheduler wired to a fault injector (None = no chaos)."""
    spec = sched_spec(nodes)
    engine = Engine()
    cluster = Cluster(engine, spec, spec.total_nodes)
    injector = (FaultInjector(fault_config).attach(cluster)
                if fault_config is not None else None)
    service = AdvisorService(spec)
    policy = make_policy(
        policy_name, spec.default_ranks_per_node,
        service=service if policy_name == "io-aware" else None,
    )
    sched = Scheduler(engine, cluster, policy, service=service,
                      injector=injector,
                      checkpoint_restart=checkpoint_restart, **sched_kwargs)
    return spec, engine, cluster, sched, service


def crash_job(spec, max_restarts=2):
    """The calibrated single-node VPIC job the timing notes describe."""
    job = make_job("vpic", spec, "victim", nranks=4, mode="sync",
                   compute_scale=2.0)
    return dataclasses.replace(job, max_restarts=max_restarts)


# ---------------------------------------------------------------------------
# Cluster node-state ledger
# ---------------------------------------------------------------------------


def test_node_state_machine_transitions():
    spec = sched_spec()
    cluster = Cluster(Engine(), spec, spec.total_nodes)
    assert cluster.free_node_count == 8
    assert all(cluster.node_state(i) is NodeState.UP for i in range(8))

    cluster.fail_node(0)
    assert cluster.node_state(0) is NodeState.DOWN
    assert cluster.free_node_count == 7
    assert cluster.down_node_count == 1
    assert 0 not in cluster.free_node_indices()
    with pytest.raises(ValueError):
        cluster.fail_node(0)          # already down
    with pytest.raises(ValueError):
        cluster.drain_node(0)         # cannot drain a dead node
    cluster.revive_node(0)
    assert cluster.node_state(0) is NodeState.UP
    assert cluster.free_node_count == 8
    with pytest.raises(ValueError):
        cluster.revive_node(0)        # already up

    cluster.drain_node(1)
    assert cluster.node_state(1) is NodeState.DRAINING
    assert cluster.free_node_count == 7
    cluster.fail_node(1)              # draining node may still crash
    assert cluster.node_state(1) is NodeState.DOWN
    cluster.revive_node(1)
    assert cluster.free_node_count == 8

    with pytest.raises(ValueError):
        cluster.fail_node(99)


def test_down_node_stays_on_owner_books_until_release():
    spec = sched_spec()
    cluster = Cluster(Engine(), spec, spec.total_nodes)
    seen = []
    cluster.on_node_down.append(lambda i, kind: seen.append((i, kind)))

    taken = cluster.allocate_nodes(2, owner=7)
    assert taken == (0, 1)
    assert cluster.busy_node_count == 2

    assert cluster.fail_node(0) == 7          # returns the owner job id
    assert cluster.owner_of(0) == 7           # still on the owner's books
    assert seen == [(0, "crash")]
    assert cluster.free_node_count == 6       # busy node: free set unchanged

    cluster.release_owner(7)                  # the scheduler's reap path
    assert cluster.owner_of(0) is None
    assert cluster.free_node_indices() == (1, 2, 3, 4, 5, 6, 7)
    cluster.revive_node(0)                    # repaired -> placeable again
    assert cluster.free_node_count == 8


def test_allocation_skips_down_and_draining_nodes():
    spec = sched_spec()
    cluster = Cluster(Engine(), spec, spec.total_nodes)
    cluster.fail_node(0)
    cluster.drain_node(1)
    assert cluster.allocate_nodes(3) == (2, 3, 4)
    with pytest.raises(ValueError):
        cluster.allocate_nodes(4)             # only 5, 6, 7 left


# ---------------------------------------------------------------------------
# Crash -> kill -> requeue -> checkpoint restart
# ---------------------------------------------------------------------------


def test_node_crash_requeues_and_restarts_from_checkpoint():
    fc = FaultConfig(seed=0, node_crashes=((0, 4.5),))
    spec, engine, cluster, sched, _svc = build_chaos(fc)
    record = sched.run_stream([(0.0, crash_job(spec))])[0]

    assert record.state is JobState.COMPLETED
    assert record.attempts == 2
    assert sched.node_failures == 1
    assert sched.node_kills == 1
    assert sched.requeues == 1
    # Phase 1 was durable at the kill instant; only the partial phase 2
    # compute (1.5 s of it) is re-done.
    assert record.durable_phases >= 1
    assert record.lost_work_seconds == pytest.approx(1.5)
    [attempt] = record.attempt_history
    assert attempt["reason"] == "node 0 failed"
    assert attempt["nodes"] == [0]
    assert attempt["finish"] == pytest.approx(4.5)
    # The dead node never repairs, so the restart lands elsewhere.
    assert 0 not in record.nodes
    assert cluster.node_state(0) is NodeState.DOWN
    # Clean lifecycle on the final attempt: kill bookkeeping was reset.
    assert record.kill_reason is None and record.fault is None
    # Every surviving node is back in the free set.
    assert cluster.free_node_count == 7


def test_retry_budget_exhaustion_fails_the_job():
    fc = FaultConfig(seed=0, node_crashes=((0, 4.5),))
    spec, engine, cluster, sched, _svc = build_chaos(fc)
    record = sched.run_stream([(0.0, crash_job(spec, max_restarts=0))])[0]

    assert record.state is JobState.FAILED
    assert record.attempts == 1
    assert sched.requeues == 0
    assert record.kill_reason == "node 0 failed"
    assert record.fault == {"kind": "NodeFailureError", "node": 0}
    assert record.finish_time == pytest.approx(4.5)
    assert len(record.attempt_history) == 1


def test_checkpoint_restart_shrinks_lost_work():
    def run(checkpoint):
        fc = FaultConfig(seed=0, node_crashes=((0, 4.5),))
        spec, _e, _c, sched, _s = build_chaos(
            fc, checkpoint_restart=checkpoint)
        return sched.run_stream([(0.0, crash_job(spec))])[0]

    with_ckpt = run(True)
    scratch = run(False)
    assert with_ckpt.state is JobState.COMPLETED
    assert scratch.state is JobState.COMPLETED
    assert with_ckpt.durable_phases >= 1 and scratch.durable_phases == 0
    assert with_ckpt.lost_work_seconds < scratch.lost_work_seconds
    assert with_ckpt.finish_time < scratch.finish_time


def test_crash_on_idle_node_kills_nobody():
    fc = FaultConfig(seed=0, node_crashes=((7, 1.0),))
    spec, engine, cluster, sched, _svc = build_chaos(fc)
    record = sched.run_stream([(0.0, crash_job(spec))])[0]
    assert record.state is JobState.COMPLETED
    assert record.attempts == 1
    assert sched.node_failures == 1 and sched.node_kills == 0


# ---------------------------------------------------------------------------
# Sibling-rank failure (regression: release nodes at the failure instant)
# ---------------------------------------------------------------------------


def boom_factory(lib, vol, config):
    def program(ctx):
        if ctx.rank == 1:
            yield ctx.compute(1.0)
            raise ValueError("rank 1 exploded")
        yield ctx.compute(60.0)
        return ctx.now
    return program


def test_sibling_rank_failure_releases_nodes_immediately():
    spec, engine, cluster, sched, _svc = build_chaos(nodes=2)
    boom = JobSpec(name="boom", tenant="t0", workload="custom", nranks=8,
                   mode="sync", program_factory=boom_factory, config=None,
                   walltime=500.0)
    follower = make_job("vpic", spec, "follower", nranks=8, mode="sync")
    records = sched.run_stream([(0.0, boom), (0.0, follower)])

    dead, after = records
    assert dead.state is JobState.FAILED
    assert dead.kill_reason == "sibling rank failed"
    assert set(dead.fault) == {"kind", "message", "traceback"}
    assert (dead.fault["kind"], dead.fault["message"]) == \
        ("ValueError", "rank 1 exploded")
    # Survivor ranks were reaped with the failure, not left to run the
    # full 60 s compute: the job ends at the failure instant ...
    assert dead.finish_time == pytest.approx(1.0)
    # ... and its whole allocation is released at that same instant, so
    # the queued job starts right then instead of after 60 s.
    assert after.start_time == pytest.approx(1.0)
    assert after.state is JobState.COMPLETED
    assert cluster.free_node_count == 2


def test_sibling_rank_failure_records_a_portable_traceback():
    spec, engine, cluster, sched, _svc = build_chaos(nodes=2)
    boom = JobSpec(name="boom", tenant="t0", workload="custom", nranks=8,
                   mode="sync", program_factory=boom_factory, config=None,
                   walltime=500.0)
    [dead] = sched.run_stream([(0.0, boom)])
    trace = dead.fault["traceback"]
    assert "in program" in trace
    assert trace.rstrip().endswith("ValueError: rank 1 exploded")
    # Package paths are relative, so the record is checkout-independent.
    assert 'File "repro/' in trace
    assert str(pathlib.Path(scheduler.__file__).parent) not in trace


# ---------------------------------------------------------------------------
# Degraded admission during a PFS outage
# ---------------------------------------------------------------------------


#: The shared PFS rejects requests during [30s, 75s).
PFS_OUTAGE = FaultConfig(seed=0, pfs_outages=(
    OutageWindow(start=30.0, duration=45.0),))


def test_degraded_admission_holds_queue_until_outage_ends():
    fc = PFS_OUTAGE
    spec, engine, cluster, sched, _svc = build_chaos(fc)
    record = sched.run_stream([(40.0, crash_job(spec))])[0]

    assert record.state is JobState.COMPLETED
    assert record.start_time == pytest.approx(75.0)
    assert sched.degraded_seconds == pytest.approx(35.0)
    assert record.wait_time == pytest.approx(35.0)


def test_no_degradation_without_pending_work():
    fc = PFS_OUTAGE
    spec, engine, cluster, sched, _svc = build_chaos(fc)
    record = sched.run_stream([(80.0, crash_job(spec))])[0]
    assert record.state is JobState.COMPLETED
    assert sched.degraded_seconds == 0.0
    assert record.start_time == pytest.approx(80.0)


# ---------------------------------------------------------------------------
# Fleet metrics, quarantine and chaos replay determinism
# ---------------------------------------------------------------------------

#: The calibrated chaos shape the sched-chaos claims row uses: long
#: compute phases and a busy queue make node crashes land on resident
#: jobs.
CHAOS_STREAM = dict(n_jobs=12, mean_interarrival=5.0, compute_scale=6.0)


def chaos_fleet(checkpoint=True, seed=0):
    return run_fleet(
        sched_testbed(), StreamConfig(seed=seed, **CHAOS_STREAM),
        "io-aware",
        fault_config=chaos_config(10.0, seed=3 + 7919 * seed),
        checkpoint_restart=checkpoint,
    )


def test_chaos_fleet_metrics_and_quarantine():
    metrics = chaos_fleet()
    assert metrics.node_failures > 0
    assert metrics.node_kills > 0
    assert metrics.requeues > 0
    assert metrics.lost_work_seconds > 0.0
    # Wasted node-seconds charge each lost second once per held node.
    assert metrics.wasted_node_seconds >= metrics.lost_work_seconds
    assert metrics.fault_signature != ""
    # Fault-tainted completions never reach the advisor's history.
    assert metrics.quarantined > 0
    # Makespan covers the last job even though fault events outlast it.
    finishes = [j["finish_time"] for j in metrics.jobs
                if not math.isnan(j["finish_time"])]
    assert metrics.makespan == pytest.approx(max(finishes))
    for job in metrics.jobs:
        assert job["state"] in ("completed", "timeout", "failed")


def test_chaos_same_seed_replay_is_byte_identical():
    one = chaos_fleet()
    two = chaos_fleet()
    assert one.fault_signature == two.fault_signature
    assert (json.dumps(one.to_dict(), sort_keys=True)
            == json.dumps(two.to_dict(), sort_keys=True))


def test_zero_rate_chaos_is_disabled():
    assert chaos_config(0.0) is None
    with pytest.raises(ValueError, match="invalid chaos axis"):
        chaos_config(-1.0)


def test_chaos_sweep_worker_count_is_unobservable():
    spec = SweepSpec(kind="sched", machines=("sched-testbed",),
                     modes=("fifo",), scales=(5,), seeds=(0,), jobs=8,
                     faults=(10.0,), fault_seed=3)
    serial = run_sweep(spec, workers=1)
    threaded = run_sweep(spec, workers=2)
    assert serial.to_json() == threaded.to_json()
    point = serial.merged["points"][0]
    assert point["fault_rate"] == 10.0
    assert point["metrics"]["fault_signature"] != ""
