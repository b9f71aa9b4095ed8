"""Fault-injection recovery benchmark: goodput and the data-loss window.

Drives :func:`repro.harness.recovery.recovery_sweep` — a checkpointing
job is killed mid-epoch under injected storage faults and restarted
from its last *durable* checkpoint — comparing the sync VOL against
the async VOL's retry + sync-fallback ladder across flaky-write fault
rates.  Two invariants are gated on every run:

- **determinism**: the whole sweep is replayed with the same seed and
  every run's fault-trace signature (and headline numbers) must match
  bit-for-bit — a chaos layer that cannot replay a failure is useless
  for debugging one;
- **no data loss with faults absorbed**: at every injected fault rate
  the async connector must keep at least as many checkpoints durable
  as the sync connector, whose un-retried ranks die at the first fault;
  at every rate above zero it must have retried or fallen back at
  least once and lost no checkpoint.

Results land in ``BENCH_faults.json`` (``repro-bench/v1``, see
``benchlib.py``) at the repository root: one row per (mode, fault
rate) with goodput, data-loss window, durable/lost checkpoint counts,
retry/fallback totals and whether its replay matched.

Run standalone (full mode)::

    PYTHONPATH=src python benchmarks/bench_faults.py

or in CI smoke mode (fewer ranks/rates, same schema)::

    PYTHONPATH=src python benchmarks/bench_faults.py --smoke

Also collectable via pytest (runs the smoke sweep through the same
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py
"""

from __future__ import annotations

import benchlib
from repro.harness.recovery import recovery_sweep
from repro.platform.machines import summit
from repro.workloads.restart import RestartConfig

BENCH = "faults"

Mi = 1 << 20
SEED = 90


def _shape(smoke: bool):
    """(nranks, fault_rates, config) for the selected mode."""
    if smoke:
        return 12, (0.0, 0.05, 0.2), RestartConfig(
            elems_per_rank=Mi, checkpoints=4, compute_seconds=5.0)
    return 48, (0.0, 0.02, 0.05, 0.2), RestartConfig(
        elems_per_rank=4 * Mi, checkpoints=6, compute_seconds=10.0)


def _name(mode: str, rate: float) -> str:
    return f"{mode}@{rate:g}"


def _row(res, replay):
    return benchlib.row(
        _name(res.mode, res.fault_rate),
        {"mode": res.mode, "fault_rate": res.fault_rate,
         "nranks": res.nranks, "seed": SEED},
        {
            "t_kill": round(res.t_kill, 6),
            "durable_checkpoints": res.durable_checkpoints,
            "lost_checkpoints": res.lost_checkpoints,
            "data_loss_window_s": round(res.data_loss_window, 6),
            "restart_wall_s": round(res.restart_wall, 6),
            "goodput": round(res.goodput, 6),
            "retries": res.retries,
            "fallbacks": res.fallbacks,
            "fault_signature": [list(ev) for ev in res.fault_signature],
            # An identically-seeded replay must reproduce the fault
            # trace and every headline number exactly.
            "replay_identical": (
                res.fault_signature == replay.fault_signature
                and res.goodput == replay.goodput
                and res.data_loss_window == replay.data_loss_window
                and res.durable_checkpoints == replay.durable_checkpoints),
        })


def run_bench(smoke=False):
    nranks, rates, cfg = _shape(smoke)
    machine = summit()
    sweep, replay = (recovery_sweep(machine, nranks, fault_rates=rates,
                                    config=cfg, seed=SEED)
                     for _ in range(2))
    rows = [_row(a, b) for a, b in zip(sweep, replay)]
    for r in rows:
        v = r["values"]
        print(
            f"{r['params']['mode']:>5} rate={r['params']['fault_rate']:<5g} "
            f"durable={v['durable_checkpoints']} "
            f"lost={v['lost_checkpoints']} "
            f"loss_window={v['data_loss_window_s']:.2f}s "
            f"goodput={v['goodput']:.3f} "
            f"retries={v['retries']} fallbacks={v['fallbacks']} "
            f"replay_ok={v['replay_identical']}"
        )
    return rows


def gates(artifact):
    """Every gate of ``BENCH_faults.json``; returns the failures."""
    g = benchlib.Gates(artifact)
    rows = artifact["rows"]
    for r in rows:
        g.require(r, "replay_identical", r["values"]["replay_identical"],
                  "same-seed replay diverged")
    for r in rows:
        if r["params"]["mode"] != "async":
            continue
        rate = r["params"]["fault_rate"]
        # The async retry/fallback ladder must never do worse than the
        # un-retried sync path, and must absorb every injected fault.
        v = r["values"]
        sync = benchlib.find(rows, _name("sync", rate))["values"]
        g.require(r, "durable_vs_sync",
                  v["durable_checkpoints"] >= sync["durable_checkpoints"],
                  f"{v['durable_checkpoints']} durable checkpoints, sync "
                  f"kept {sync['durable_checkpoints']}")
        if rate > 0:
            g.require(r, "faults_absorbed", v["retries"] + v["fallbacks"] > 0,
                      "no retry or fallback under injected faults")
            g.require(r, "no_lost_checkpoints", v["lost_checkpoints"] == 0,
                      f"{v['lost_checkpoints']} checkpoint(s) lost")
    return g.failures()


# ----------------------------------------------------------------------
# pytest entry points (smoke sweep: cheap enough for CI)
# ----------------------------------------------------------------------
def test_faults_gates(tmp_path):
    artifact = benchlib.run(BENCH, run_bench, gates, smoke=True,
                            out=tmp_path / "BENCH_faults.json")
    assert artifact["ok"], "; ".join(artifact["failures"])


def main(argv=None):
    return benchlib.main(BENCH, run_bench, gates, argv)


if __name__ == "__main__":
    raise SystemExit(main())
