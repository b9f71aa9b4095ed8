"""Multi-tenant scheduler benchmark: policy vs fleet tail latency.

Drives :func:`repro.harness.sched.run_fleet` — one seeded job stream
(VPIC / BD-CATS / Nyx / Castro / SW4 / Cosmoflow mix) co-run on a
storage-starved testbed — under FIFO, conservative backfill, and the
I/O-aware policy that applies the paper's sync-vs-async model at
admission time, at two cluster loads.  Two invariants are gated on
every run:

- **determinism**: every (load, policy) fleet is replayed with the
  same seed, and every job's (start, finish, mode, nodes) plus every
  headline metric must match bit-for-bit — a scheduler whose replays
  diverge cannot be debugged or compared;
- **the model pays at the facility level**: the I/O-aware policy must
  beat FIFO on p95 job completion time at *every* benchmarked load —
  the fleet-scale analogue of the paper's per-application async win
  (and its Fig. 8 variability shield) — and must win by switching
  modes, not by accident: it runs more jobs async than FIFO, every
  submission reaches a terminal state (completed + timeouts + failed
  == ``n_jobs``) and none is rejected.

A third section runs the same fleets **under chaos** (rate-based node
crashes via :func:`repro.faults.chaos_config`) and checks the
fault-tolerance story end to end:

- **checkpointing pays**: restarting crash victims from durable
  checkpoints yields strictly more goodput and strictly less lost
  work than restarting from scratch, summed over the chaos seeds;
- **async checkpointing shrinks lost work**: an all-async fleet loses
  no more work per seed — and strictly less in aggregate — than the
  same all-sync fleet under the same crash schedule, because async
  phases land on the PFS while the next compute phase runs;
- **chaos replay is deterministic**: a same-seed faulted fleet replays
  to byte-identical metrics JSON and an identical fault-trace
  signature;
- **the fault path ran**: the chaos fleets saw node kills and
  requeues, and every chaos fleet carries a fault signature.

Results land in ``BENCH_sched.json`` (``repro-bench/v1``, see
``benchlib.py``) at the repository root: one row per (policy, load)
fleet with its metrics and per-job records, one per chaos fleet, and a
``chaos`` row with the chaos totals and the replay check.

Run standalone (full mode)::

    PYTHONPATH=src python benchmarks/bench_sched.py

or in CI smoke mode (fewer jobs, same schema)::

    PYTHONPATH=src python benchmarks/bench_sched.py --smoke

Also collectable via pytest (runs the smoke fleet through the same
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sched.py
"""

from __future__ import annotations

import json

import benchlib
from repro.faults import chaos_config
from repro.harness.sched import run_fleet, sched_testbed
from repro.sched import StreamConfig

BENCH = "sched"

SEED = 7
POLICIES = ("fifo", "backfill", "io-aware")
LOADS = (2.0, 4.0)  # mean interarrival seconds: high and moderate load

# Chaos section: expected crashes per node per 1000 sim-seconds, the
# base fault seed, and the stream seeds each crash schedule meets.
CHAOS_RATE = 10.0
CHAOS_FAULT_SEED = 3
CHAOS_SEEDS = (0, 1, 2)


def _n_jobs(smoke: bool) -> int:
    return 15 if smoke else 25


def _stream(n_jobs: int, load: float) -> StreamConfig:
    return StreamConfig(
        n_jobs=n_jobs, seed=SEED, mean_interarrival=load,
        rank_choices=(8, 16, 32), size_scale=4.0,
    )


def _replay_signature(metrics) -> list:
    """Everything a same-seed replay must reproduce exactly."""
    per_job = [
        (j["job_id"], j["start_time"], j["finish_time"], j["mode"],
         tuple(j["nodes"]), j["state"])
        for j in metrics.jobs
    ]
    return [metrics.makespan, metrics.completion_p95, metrics.wait_p95,
            metrics.goodput_jobs_per_hour, per_job]


def _name(policy: str, load: float) -> str:
    return f"{policy}@{load:g}"


def fleet_rows(machine, smoke) -> list:
    """Every (load, policy) fleet, each replayed with the same seed."""
    n_jobs = _n_jobs(smoke)
    rows = []
    for load in LOADS:
        cfg = _stream(n_jobs, load)
        for policy in POLICIES:
            metrics = run_fleet(machine, cfg, policy)
            replay = run_fleet(machine, cfg, policy)
            same = _replay_signature(metrics) == _replay_signature(replay)
            rows.append(benchlib.row(
                _name(policy, load),
                {"policy": policy, "load": load, "n_jobs": n_jobs,
                 "seed": SEED},
                {**metrics.to_dict(), "replay_identical": same}))
            print(
                f"load={load:<4g} {policy:9s} done={metrics.completed:2d} "
                f"async={metrics.n_async:2d} "
                f"wait_p95={metrics.wait_p95:7.2f} "
                f"compl_p95={metrics.completion_p95:7.2f} "
                f"makespan={metrics.makespan:7.1f} replay_ok={same}"
            )
    return rows


# ----------------------------------------------------------------------
# Chaos section: the same fleets under rate-based node crashes
# ----------------------------------------------------------------------
def _chaos_fc(seed: int):
    """One seed's crash schedule (decorrelated across stream seeds)."""
    return chaos_config(CHAOS_RATE, seed=CHAOS_FAULT_SEED + 7919 * seed)


def _chaos_row(metrics, section, variant, seed):
    print(f"chaos {section}={variant:10s} seed={seed} "
          f"done={metrics.completed:2d} kills={metrics.node_kills} "
          f"requeues={metrics.requeues} "
          f"lost={metrics.lost_work_seconds:7.2f} "
          f"goodput={metrics.goodput_jobs_per_hour:6.1f}")
    return benchlib.row(
        f"{section}/{variant}/{seed}",
        {"section": section, "variant": variant, "chaos_seed": seed},
        metrics.to_dict(with_jobs=False))


def _chaos_totals(rows) -> dict:
    """Goodput and lost work summed per chaos variant, plus the node
    kills and requeues summed over every chaos fleet."""
    totals = {"node_kills": 0, "requeues": 0}
    for r in rows:
        variant, v = r["params"]["variant"], r["values"]
        for field in ("goodput_jobs_per_hour", "lost_work_seconds"):
            key = f"{variant}_{field}"
            totals[key] = totals.get(key, 0.0) + v[field]
        totals["node_kills"] += v["node_kills"]
        totals["requeues"] += v["requeues"]
    return totals


def chaos_rows(machine) -> list:
    """The faulted section: checkpointing value, async value, replay.

    Two fleet shapes, chosen so crashes reliably hit running jobs:
    compute-heavy streams (long phases → big crash cross-section) for
    the checkpoint-vs-scratch comparison, I/O-heavy streams (phase
    writes cost seconds → sync durability lags measurably) for the
    sync-vs-async comparison.
    """
    rows = []
    for seed in CHAOS_SEEDS:
        # (a) checkpoint restart vs scratch restart, same crash schedule.
        cfg = StreamConfig(n_jobs=12, seed=seed, mean_interarrival=5.0,
                           compute_scale=6.0)
        for variant in ("checkpoint", "scratch"):
            m = run_fleet(machine, cfg, "fifo", fault_config=_chaos_fc(seed),
                          checkpoint_restart=variant == "checkpoint")
            rows.append(_chaos_row(m, "checkpoint", variant, seed))
    for seed in CHAOS_SEEDS:
        # (b) all-sync vs all-async checkpointing, same crash schedule.
        # I/O-heavy phases: each checkpoint write costs seconds, so sync
        # durability (blocks until landed) trails async (lands during
        # the next compute phase) by a measurable margin at kill time.
        for mode in ("sync", "async"):
            cfg = StreamConfig(n_jobs=10, seed=seed, mean_interarrival=6.0,
                               compute_scale=4.0, size_scale=12.0,
                               mode_mix=((mode, 1.0),))
            m = run_fleet(machine, cfg, "fifo", fault_config=_chaos_fc(seed),
                          checkpoint_restart=True)
            rows.append(_chaos_row(m, "ckpt-mode", mode, seed))

    # (c) same-seed chaos replay: byte-identical metrics + signature.
    cfg = StreamConfig(n_jobs=12, seed=CHAOS_SEEDS[0],
                       mean_interarrival=5.0, compute_scale=6.0)
    first, again = (run_fleet(machine, cfg, "fifo",
                              fault_config=_chaos_fc(CHAOS_SEEDS[0]))
                    for _ in range(2))
    replay_identical = (
        json.dumps(first.to_dict(), sort_keys=True)
        == json.dumps(again.to_dict(), sort_keys=True)
        and first.fault_signature == again.fault_signature
        and first.fault_signature != ""
    )
    print(f"chaos: same-seed replay byte-identical: {replay_identical}")
    return rows + [benchlib.row(
        "chaos",
        {"rate": CHAOS_RATE, "fault_seed": CHAOS_FAULT_SEED,
         "seeds": list(CHAOS_SEEDS)},
        {**_chaos_totals(rows), "replay_identical": replay_identical,
         "fault_signature": first.fault_signature})]


def run_bench(smoke=False):
    machine = sched_testbed()
    return fleet_rows(machine, smoke) + chaos_rows(machine)


def gates(artifact):
    """Every gate of ``BENCH_sched.json``; returns the failures."""
    g = benchlib.Gates(artifact)
    rows = artifact["rows"]
    fleets = [r for r in rows if "policy" in r["params"]]
    for r in fleets:
        g.require(r, "replay_identical", r["values"]["replay_identical"],
                  "same-seed fleet replay diverged")
    for r in fleets:
        if r["params"]["policy"] != "io-aware":
            continue
        io, load = r["values"], r["params"]["load"]
        fifo = benchlib.find(rows, _name("fifo", load))["values"]
        g.require(r, "p95_beats_fifo",
                  io["completion_p95"] < fifo["completion_p95"],
                  f"p95 completion {io['completion_p95']:.2f} does not "
                  f"beat FIFO's {fifo['completion_p95']:.2f}")
        # The advisor must actually be switching modes, not winning by
        # accident: most 'auto' submissions should resolve to async.
        g.require(r, "more_async_than_fifo", io["n_async"] > fifo["n_async"],
                  f"{io['n_async']} async jobs, FIFO ran {fifo['n_async']}")
        terminal = io["completed"] + io["timeouts"] + io["failed"]
        g.require(r, "all_terminal", terminal == r["params"]["n_jobs"],
                  f"{terminal} of {r['params']['n_jobs']} submissions "
                  f"reached a terminal state")
        g.require(r, "none_rejected", io["rejected"] == 0,
                  f"{io['rejected']} submission(s) rejected")

    chaos = [r for r in rows if "variant" in r["params"]]
    for r in chaos:
        g.require(r, "fault_signature", r["values"]["fault_signature"],
                  "chaos fleet carries no fault signature")
    t = _chaos_totals(chaos)
    summary = benchlib.find(rows, "chaos")
    g.require(summary, "checkpoint_beats_scratch",
              t["checkpoint_goodput_jobs_per_hour"]
              > t["scratch_goodput_jobs_per_hour"]
              and t["checkpoint_lost_work_seconds"]
              < t["scratch_lost_work_seconds"],
              "checkpoint restart did not beat scratch restart: goodput "
              f"{t['checkpoint_goodput_jobs_per_hour']:.1f} vs "
              f"{t['scratch_goodput_jobs_per_hour']:.1f}, lost work "
              f"{t['checkpoint_lost_work_seconds']:.1f} vs "
              f"{t['scratch_lost_work_seconds']:.1f}")
    lost = {(r["params"]["variant"], r["params"]["chaos_seed"]):
            r["values"]["lost_work_seconds"] for r in chaos}
    never_worse = all(lost["async", seed] <= lost["sync", seed] + 1e-9
                      for seed in summary["params"]["seeds"])
    g.require(summary, "async_loses_less_than_sync",
              never_worse and t["async_lost_work_seconds"]
              < t["sync_lost_work_seconds"],
              "async checkpointing did not lose less work than sync: "
              f"{t['async_lost_work_seconds']:.1f} vs "
              f"{t['sync_lost_work_seconds']:.1f}")
    g.require(summary, "node_kills", t["node_kills"] > 0,
              "chaos fleets saw no node kills")
    g.require(summary, "requeues", t["requeues"] > 0,
              "chaos fleets requeued no job")
    g.require(summary, "replay_identical",
              summary["values"]["replay_identical"],
              "same-seed chaos replay diverged")
    return g.failures()


# ----------------------------------------------------------------------
# pytest entry points (smoke fleet: cheap enough for CI)
# ----------------------------------------------------------------------
def test_sched_gates(tmp_path):
    artifact = benchlib.run(BENCH, run_bench, gates, smoke=True,
                            out=tmp_path / "BENCH_sched.json")
    assert artifact["ok"], "; ".join(artifact["failures"])


def main(argv=None):
    return benchlib.main(BENCH, run_bench, gates, argv)


if __name__ == "__main__":
    raise SystemExit(main())
