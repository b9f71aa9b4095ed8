"""Fleet experiments: run one job stream under each scheduling policy.

:func:`run_fleet` is the scheduler-layer analogue of
:func:`~repro.harness.experiment.run_experiment`: one seeded
:class:`~repro.sched.stream.JobStream`, one machine, one policy, one
co-run simulation — summarized into a :class:`FleetMetrics` carrying
the facility-level numbers (goodput, p50/p95/p99 queue wait and
completion time, makespan, PFS utilization).  Percentiles use the
deterministic nearest-rank definition so two same-seed runs produce
bit-identical metrics — the benchmark's replay gate depends on it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Engine
from repro.faults import FaultConfig, FaultInjector
from repro.platform import Cluster, ContentionTimeline
from repro.platform.spec import MachineSpec
from repro.sched import (
    AdvisorService,
    JobState,
    JobStream,
    Scheduler,
    StreamConfig,
    make_policy,
)

__all__ = ["FleetMetrics", "percentile", "run_fleet", "sched_testbed"]

GB = 1e9


def sched_testbed() -> MachineSpec:
    """The fleet experiments' machine: a small, PFS-bound testbed.

    Deliberately storage-starved relative to :func:`~repro.platform.
    machines.testbed` (3 GB/s shared PFS against 8 nodes × 2 GB/s NICs)
    so that co-running jobs genuinely contend on the file system —
    the regime where scheduling policy moves tail latency.
    """
    from repro.platform import testbed
    return testbed(nodes=8, ranks_per_node=4, pfs_peak=3.0 * GB,
                   nic=2.0 * GB)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class FleetMetrics:
    """Facility-level summary of one scheduled fleet run."""

    policy: str
    machine: str
    n_jobs: int
    seed: int
    mean_interarrival: float
    completed: int
    timeouts: int
    failed: int
    rejected: int
    n_async: int
    n_sync: int
    makespan: float
    #: Completed jobs per simulated hour.
    goodput_jobs_per_hour: float
    #: Bytes moved by completed jobs / (makespan * PFS peak).
    pfs_utilization: float
    wait_p50: float
    wait_p95: float
    wait_p99: float
    completion_p50: float
    completion_p95: float
    completion_p99: float
    peak_live_jobs: int
    busy_node_seconds: float
    # -- fault-tolerance ledger (all zero when no faults injected) ----
    #: Node crash events observed via the cluster ledger.
    node_failures: int = 0
    #: Jobs killed by a node crash (a job can be a victim repeatedly).
    node_kills: int = 0
    #: Requeues performed after node-failure kills.
    requeues: int = 0
    #: Compute-seconds destroyed by kills (work past the last durable
    #: checkpoint, summed over every killed attempt).
    lost_work_seconds: float = 0.0
    #: Lost work weighted by each attempt's node count — the facility's
    #: view of the same waste.
    wasted_node_seconds: float = 0.0
    #: Simulated seconds admission spent paused in degraded mode.
    degraded_seconds: float = 0.0
    #: Completed-job records whose measurements the advisor quarantined
    #: because the run saw injected faults.
    quarantined: int = 0
    #: Whether requeued jobs restarted from durable checkpoints.
    checkpoint_restart: bool = True
    #: sha256 of the injector's fault-trace signature ("" = no faults)
    #: — the chaos determinism gate compares this across replays.
    fault_signature: str = ""
    #: Per-job rows (JobRecord.summary()) for drill-down / JSON.
    jobs: tuple = field(default_factory=tuple, repr=False)

    def to_dict(self, with_jobs: bool = True) -> dict:
        """Plain dict for benchmark JSON."""
        out = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__ if k != "jobs"
        }
        if with_jobs:
            out["jobs"] = list(self.jobs)
        return out


def run_fleet(
    spec: MachineSpec,
    stream_config: StreamConfig,
    policy_name: str,
    max_stagger: float = 10.0,
    external_contention=None,
    day: int = 0,
    fault_config: Optional[FaultConfig] = None,
    checkpoint_restart: bool = True,
) -> FleetMetrics:
    """Run one seeded job stream to completion under one policy.

    Builds a fresh engine + cluster, streams the
    :class:`~repro.sched.stream.JobStream` submissions through a
    :class:`~repro.sched.scheduler.Scheduler`, and reduces the records.
    ``external_contention`` (a :class:`~repro.platform.contention.
    ContentionModel`) optionally layers a day-sampled availability
    factor for traffic outside the fleet on top of the mechanistic
    co-run contention.  ``fault_config`` attaches a
    :class:`~repro.faults.FaultInjector` to the cluster (the chaos
    axis: node crashes, drains, PFS outages); ``checkpoint_restart``
    controls whether requeued victims restart from durable checkpoints
    or from scratch.
    """
    engine = Engine()
    cluster = Cluster(engine, spec, spec.total_nodes)
    injector = (FaultInjector(fault_config).attach(cluster)
                if fault_config is not None else None)
    service = AdvisorService(spec)
    kwargs = {"max_stagger": max_stagger} if policy_name == "io-aware" else {}
    policy = make_policy(
        policy_name, spec.default_ranks_per_node,
        service=service if policy_name == "io-aware" else None, **kwargs
    )
    timeline = ContentionTimeline(
        engine, cluster.pfs, model=external_contention, day=day,
    )
    scheduler = Scheduler(
        engine, cluster, policy, service=service, timeline=timeline,
        injector=injector, checkpoint_restart=checkpoint_restart,
    )
    records = scheduler.run_stream(JobStream(spec, stream_config).arrivals())

    done = [r for r in records if r.state is JobState.COMPLETED]
    waits = [r.wait_time for r in done]
    completions = [r.completion_time for r in done]
    # Scheduled fault windows (repairs, planned crashes on idle nodes)
    # can outlast the last job, so engine.now is only the fallback:
    # the fleet's makespan is the last job-finish instant.
    finishes = [r.finish_time for r in records
                if not math.isnan(r.finish_time)]
    makespan = max(finishes) if finishes else engine.now
    moved = sum(r.bytes_moved() for r in done)
    wasted = sum(
        row["lost_work_seconds"] * len(row["nodes"])
        for r in records for row in r.attempt_history
    )
    fault_signature = ""
    if injector is not None:
        fault_signature = hashlib.sha256(
            repr(injector.signature()).encode()
        ).hexdigest()
    return FleetMetrics(
        policy=policy_name,
        machine=spec.name,
        n_jobs=len(records),
        seed=stream_config.seed,
        mean_interarrival=stream_config.mean_interarrival,
        completed=len(done),
        timeouts=sum(1 for r in records if r.state is JobState.TIMEOUT),
        failed=sum(1 for r in records if r.state is JobState.FAILED),
        rejected=sum(1 for r in records if r.state is JobState.REJECTED),
        n_async=sum(1 for r in records if r.mode == "async"),
        n_sync=sum(1 for r in records if r.mode == "sync"),
        makespan=makespan,
        goodput_jobs_per_hour=(
            len(done) / makespan * 3600.0 if makespan > 0 else 0.0
        ),
        pfs_utilization=(
            moved / (makespan * spec.filesystem.peak_bandwidth)
            if makespan > 0 else 0.0
        ),
        wait_p50=percentile(waits, 50),
        wait_p95=percentile(waits, 95),
        wait_p99=percentile(waits, 99),
        completion_p50=percentile(completions, 50),
        completion_p95=percentile(completions, 95),
        completion_p99=percentile(completions, 99),
        peak_live_jobs=timeline.peak_live_jobs(),
        busy_node_seconds=timeline.busy_node_seconds(),
        node_failures=scheduler.node_failures,
        node_kills=scheduler.node_kills,
        requeues=scheduler.requeues,
        lost_work_seconds=sum(r.lost_work_seconds for r in records),
        wasted_node_seconds=wasted,
        degraded_seconds=scheduler.degraded_seconds,
        quarantined=service.quarantined,
        checkpoint_restart=checkpoint_restart,
        fault_signature=fault_signature,
        jobs=tuple(r.summary() for r in records),
    )
