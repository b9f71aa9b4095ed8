"""Staging-cache prefetch benchmark: BD-CATS read stall, off vs on.

Runs the BD-CATS-IO analysis kernel twice through
:func:`~repro.harness.experiment.run_experiment` on the same machine,
ranks and seed — once with an inert cache subsystem (``cache_mode=
"off"``) and once with deadline prefetch enabled (``"on"``) — and
gates that prefetch actually buys something:

- both sides read exactly the same bytes (``total_bytes`` equal);
- the prefetch-on side's read stall (slowest rank's summed read
  blocking time) is below the off side's by at least the
  ``cache_stall_reduction`` floor in ``benchmarks/perf_budget.json``;
- every declared read landed by its deadline (``on_time_ratio == 1``)
  on the uncontended testbed shape, and the cache served hits.

The async VOL's own heuristic prefetcher is disabled on *both* sides,
so the deadline planner is the only read-ahead in play and the
comparison isolates the subsystem under test.

Results land in ``BENCH_cache.json`` (``repro-bench/v1``, see
``benchlib.py``) at the repository root: one row per side.

Run standalone (full shape)::

    PYTHONPATH=src python benchmarks/bench_cache.py

or in CI smoke mode (smaller shape, same schema)::

    PYTHONPATH=src python benchmarks/bench_cache.py --smoke

Also collectable via pytest (runs the smoke shape through the same
gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cache.py
"""

from __future__ import annotations

import benchlib
from repro.harness import run_experiment
from repro.platform import testbed as make_testbed
from repro.workloads import BDCATSConfig, bdcats_program, prepopulate_vpic_file

BENCH = "cache"


def _shape(smoke: bool):
    cfg = BDCATSConfig(
        particles_per_rank=(1 << 18) if smoke else (1 << 20),
        n_properties=4 if smoke else 8,
        steps=3,
        compute_seconds=10.0 if smoke else 30.0,
    )
    nranks = 8 if smoke else 16
    machine = make_testbed(nodes=nranks // 4, ranks_per_node=4)
    return machine, cfg, nranks


def side_row(machine, cfg, nranks, cache_mode):
    result = run_experiment(
        machine, "bdcats", bdcats_program, cfg, mode="async",
        nranks=nranks, op="read",
        prepopulate=lambda lib, n: prepopulate_vpic_file(lib, cfg, n),
        vol_kwargs={"prefetcher": None},
        cache_mode=cache_mode,
    )
    params = {"cache_mode": cache_mode, "nranks": nranks,
              "particles_per_rank": cfg.particles_per_rank,
              "n_properties": cfg.n_properties, "steps": cfg.steps}
    return benchlib.row(f"prefetch_{cache_mode}", params, {
        "app_time_s": result.app_time,
        "read_stall_s": result.read_stall_seconds,
        "total_bytes": result.total_bytes,
        "cache_stats": result.cache_stats,
    })


def run_bench(smoke=False):
    shape = _shape(smoke)
    off, on = (side_row(*shape, mode) for mode in ("off", "on"))
    on["values"]["stall_reduction"] = round(
        1.0 - on["values"]["read_stall_s"] / off["values"]["read_stall_s"], 4)
    for side in (off, on):
        print(f"{side['name']:>9}: app {side['values']['app_time_s']:.3f}s  "
              f"read stall {side['values']['read_stall_s']:.4f}s")
    print(f"stall reduction: {on['values']['stall_reduction']:.1%}")
    return [off, on]


def gates(artifact):
    """Every gate of ``BENCH_cache.json``; returns the failures."""
    g = benchlib.Gates(artifact)
    off = benchlib.find(artifact["rows"], "prefetch_off")["values"]
    on_row = benchlib.find(artifact["rows"], "prefetch_on")
    on = on_row["values"]
    g.require(on_row, "equal_bytes", on["total_bytes"] == off["total_bytes"],
              f"byte mismatch: on read {on['total_bytes']:.6g}B, "
              f"off read {off['total_bytes']:.6g}B")
    g.floor(on_row, "cache_stall_reduction", on["stall_reduction"])
    stats = on["cache_stats"]
    g.require(on_row, "on_time", stats["on_time_ratio"] >= 1.0,
              f"prefetches missed deadlines on the uncontended shape "
              f"(on_time_ratio {stats['on_time_ratio']:.3f})")
    g.require(on_row, "hits", stats["hits"] > 0,
              "prefetch-on run served zero cache hits")
    return g.failures()


def test_cache_gates(tmp_path):
    artifact = benchlib.run(BENCH, run_bench, gates, smoke=True,
                            out=tmp_path / "BENCH_cache.json")
    assert artifact["ok"], "; ".join(artifact["failures"])


def main(argv=None):
    return benchlib.main(BENCH, run_bench, gates, argv)


if __name__ == "__main__":
    raise SystemExit(main())
