"""The ``repro-bench/v1`` contract of the three gated benchmark scripts.

Nothing here times anything: the committed ``BENCH_*.json`` artifacts
are checked against the schema and their own gates, then doctored
copies show that each script's ``gates()`` reports a broken invariant.
"""

import copy
import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))  # the scripts import benchlib

import benchlib  # noqa: E402

SCRIPTS = {
    "sim": "bench_perf_sim",
    "check": "bench_check",
    "claims": "bench_claims",
}


def _script(bench):
    name = SCRIPTS[bench]
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _artifact(bench):
    return json.loads((ROOT / f"BENCH_{bench}.json").read_text())


@pytest.mark.parametrize("bench", SCRIPTS)
def test_committed_artifact_is_v1_and_passes_its_gates(bench):
    artifact = _artifact(bench)
    assert artifact["schema"] == benchlib.SCHEMA
    assert (artifact["bench"], artifact["mode"]) == (bench, "full")
    assert set(artifact["env"]) == {"python", "platform", "nproc"}
    assert artifact["ok"] is True and artifact["failures"] == []
    for row in artifact["rows"]:
        assert set(row) == {"name", "params", "values", "repeats", "gates"}
        for gate in row["gates"]:
            assert set(gate) == {"name", "kind", "value", "limit", "ok"}
            assert gate["ok"] is True
        for spread in row["repeats"].values():
            assert set(spread) == {"s", "best", "median", "iqr"}
    # Re-gating the committed values reproduces the committed verdicts.
    regated = copy.deepcopy(artifact)
    assert _script(bench).gates(regated) == []
    assert regated["rows"] == artifact["rows"]


def test_every_full_budget_key_gates_a_committed_row():
    gated = {gate["name"] for bench in SCRIPTS
             for row in _artifact(bench)["rows"] for gate in row["gates"]
             if gate["kind"] in ("floor", "ceiling")}
    assert gated == set(benchlib.load_budget("full"))


def _bound(key, kind, value):
    return {"name": f"{kind}:{key}", "params": {}, "values": {},
            "repeats": {}, "gates": [{"name": key, "kind": kind,
                                      "value": value, "limit": None,
                                      "ok": None}]}


def test_check_budget_reports_floor_ceiling_and_missing_key():
    budget = benchlib.load_budget("full")
    rows = [
        _bound("fig3a_1536", "floor", budget["fig3a_1536"] - 0.01),
        _bound("check_parse_per_file", "ceiling", 1.01),
        _bound("fig3a_9999", "floor", 1e9),
        _bound("many_links", "floor", budget["many_links"]),
        _bound("check_cfg_per_function", "ceiling", 1.0),
    ]
    failures = benchlib.check_budget(rows, "full")
    assert len(failures) == 3
    assert "fig3a_1536" in failures[0] and "below" in failures[0]
    assert "check_parse_per_file" in failures[1] and "above" in failures[1]
    assert "fig3a_9999" in failures[2] and "no floor" in failures[2]
    assert [row["gates"][0]["ok"] for row in rows] == [
        False, False, False, True, True]
    assert rows[0]["gates"][0]["limit"] == budget["fig3a_1536"]
    assert rows[2]["gates"][0]["limit"] is None


def test_main_writes_the_artifact_and_exits_non_zero_on_a_failed_gate(
        tmp_path):
    def run_bench(smoke):
        return [benchlib.row("only", {"smoke": smoke}, {"x": 1})]

    def gates(artifact):
        g = benchlib.Gates(artifact)
        r = artifact["rows"][0]
        g.require(r, "x_is_two", r["values"]["x"] == 2, "x is not 2")
        g.floor(r, "fig3a_384", r["values"]["x"])
        return g.failures()

    out = tmp_path / "BENCH_x.json"
    assert benchlib.main("x", run_bench, gates,
                         ["--smoke", "--out", str(out)]) == 1
    artifact = json.loads(out.read_text())
    assert (artifact["bench"], artifact["mode"]) == ("x", "smoke")
    assert artifact["ok"] is False
    floor = benchlib.load_budget("smoke")["fig3a_384"]
    assert artifact["failures"] == [
        "[only] x is not 2", f"[only] fig3a_384 1 is below the {floor:.4g} "
        f"floor"]
    assert [g["ok"] for g in artifact["rows"][0]["gates"]] == [False, False]


def _set(name, **values):
    """Doctor: overwrite ``values`` on the row called ``name``."""
    def doctor(artifact):
        benchlib.find(artifact["rows"], name)["values"].update(values)
    return doctor


def _cell(name, key, column, change):
    """Doctor: apply ``change`` to ``column`` of the table rows of claims
    row ``name`` whose leading cells are ``key`` (every row for ``()``)."""
    def doctor(artifact):
        values = benchlib.find(artifact["rows"], name)["values"]
        i = values["columns"].index(column)
        for row in values["rows"]:
            if tuple(row[:len(key)]) == key:
                row[i] = change(row[i])
    return doctor


def _set_meta(name, key, value):
    """Doctor: overwrite one figure-level scalar of a claims row."""
    def doctor(artifact):
        benchlib.find(artifact["rows"], name)["values"]["meta"][key] = value
    return doctor


def _async_cv_as_sync(artifact):
    meta = benchlib.find(artifact["rows"], "fig8")["values"]["meta"]
    meta["async CV"] = meta["sync CV"]


def _ledger(load, policy, **values):
    """Doctor: overwrite ``values`` on one fleet of fig-sched's ledger."""
    def doctor(artifact):
        for fleet in benchlib.find(artifact["rows"],
                                   "fig-sched")["values"]["ledger"]:
            if (fleet["load"], fleet["policy"]) == (load, policy):
                fleet.update(values)
    return doctor


DOCTORED = {
    # bench_claims: the paper's figure shapes.
    "claims-fig8-cv": ("claims", _async_cv_as_sync, "sync CV > 5x async CV"),
    "claims-fig3a-fit": ("claims", _set_meta("fig3a", "fit sync", "linear"),
                         "fit sync is linear-log"),
    # fig-sched: fleet determinism and the io-aware invariants.
    "sched-replay": ("claims", _set("fig-sched", replay_identical=False),
                     "reproduces every fleet"),
    "sched-p95": ("claims", _cell("fig-sched", (4.0, "io-aware"),
                                  "compl p95", lambda _: 1e9),
                  "io-aware beats FIFO on p95"),
    "sched-n-async": ("claims", _cell("fig-sched", (2.0, "io-aware"),
                                      "async", lambda _: 0),
                      "more jobs async than FIFO"),
    "sched-terminal": ("claims", _cell("fig-sched", (4.0, "io-aware"),
                                       "done", lambda done: done - 1),
                       "every submission of every fleet"),
    "sched-rejected": ("claims", _ledger(2.0, "io-aware", rejected=1),
                       "rejects a submission"),
    # all_terminal covers every policy, not only io-aware.
    "sched-terminal-backfill": ("claims", _cell("fig-sched",
                                                (2.0, "backfill"), "done",
                                                lambda done: done - 1),
                                "every submission of every fleet"),
    # sched-chaos: the fleets under node crashes.
    "sched-node-kills": ("claims", _cell("sched-chaos", (), "node kills",
                                         lambda _: 0), "saw node kills"),
    "sched-requeues": ("claims", _cell("sched-chaos", (), "requeues",
                                       lambda _: 0), "requeued jobs"),
    "sched-signature": ("claims", _cell("sched-chaos",
                                        ("checkpoint", "scratch", 1),
                                        "fault signature", lambda _: ""),
                        "carries a fault signature"),
    "sched-checkpoint": ("claims", _cell("sched-chaos",
                                         ("checkpoint", "checkpoint", 0),
                                         "jobs/h", lambda _: 0.0),
                         "checkpoint restart beats scratch"),
    "sched-async-lost": ("claims", _cell("sched-chaos",
                                         ("ckpt-mode", "async", 1),
                                         "lost work s", lambda s: s + 1e6),
                         "loses no more work than sync"),
    "sched-chaos-replay": ("claims", _set("sched-chaos",
                                          replay_identical=False),
                           "reproduces every chaos fleet"),
    # fig-faults: determinism and the async recovery ladder.
    "faults-replay": ("claims", _set("fig-faults", replay_identical=False),
                      "reproduces every recovery run"),
    "faults-durable": ("claims", _cell("fig-faults", ("sync", 0),
                                       "durable ckpts", lambda d: d + 1),
                       "durable checkpoints at every fault rate"),
    "faults-absorbed": ("claims", _cell("fig-faults", ("async", 0.2),
                                        "retries", lambda _: 0),
                        "retries or falls back"),
    "faults-lost": ("claims", _cell("fig-faults", ("async", 0.05),
                                    "lost ckpts", lambda _: 1),
                    "loses no checkpoint"),
    # cache-prefetch: equal bytes, stall floor, deadlines, hits.
    "cache-bytes": ("claims", _cell("cache-prefetch", ("on",), "bytes read",
                                    lambda b: b + 1.0),
                    "reads exactly the bytes"),
    "cache-stall": ("claims", _set_meta("cache-prefetch", "stall reduction",
                                        0.1),
                    "cache_stall_reduction 0.1 is below"),
    "cache-on-time": ("claims", _set_meta("cache-prefetch", "on-time ratio",
                                          0.9), "lands by its deadline"),
    "cache-hits": ("claims", _set_meta("cache-prefetch", "cache hits", 0),
                   "serves cache hits"),
    # bench_check: clean tree, identity, cache, incrementality, budget.
    "check-findings": ("check", _set("check_full", findings=2),
                       "2 finding(s)"),
    "check-identity": ("check", _set("check_concurrency",
                                     identical_cold_vs_warm=False),
                       "differs across cold_vs_warm"),
    "check-tree-hit": ("check", _set("check_full", warm_tree_hit=False),
                       "whole-tree cache key"),
    "check-diff": ("check", lambda a: _set(
        "check_full", diff_reanalyzed=a["rows"][0]["params"]["files"])(a),
        "not incremental"),
    "check-warm-floor": ("check", _set("check_concurrency", warm_speedup=1.0),
                         "check_concurrency 1 is below"),
    "check-parse-ceiling": ("check", _set("check_full", parse_per_file=2.0),
                            "check_parse_per_file 2 is above"),
    # A lint fan-out that loses to the serial run fails its floor.
    "check-fanout": ("check", lambda a: _set(
        "check_concurrency",
        cold_nw_s=benchlib.find(a["rows"], "check_concurrency")["values"][
            "cold_1w_s"] * 2)(a), "check_fanout 0.5 is below"),
    # bench_perf_sim: bit-identity, the speedup floors, sweep identity.
    "sim-identity": ("sim", _set("fig3a_4096", identical=False),
                     "diverged"),
    "sim-floor": ("sim", _set("fleet_faults_off", speedup=0.1),
                  "fleet_faults_off 0.1 is below"),
    "sim-sweep": ("sim", _set("sweep_scaling",
                              identical_across_workers=False),
                  "differs across worker counts"),
    # A sweep fan-out that loses to the serial run fails its floor.
    "sim-sweep-fanout": ("sim", lambda a: _set(
        "sweep_scaling",
        parallel_points_per_sec=benchlib.find(a["rows"], "sweep_scaling")[
            "values"]["serial_points_per_sec"] / 2)(a),
        "sweep_fanout 0.5 is below"),
    "sim-cycles": ("sim", _set("vpic_async_gc_on", cyclic_flow_events=3),
                   "3 Flow/SimEvent objects left in reference cycles"),
    "sim-gc-ceiling": ("sim", _set("vpic_async_gc_on", gc_on_s=60.0),
                       "vpic_async_gc_on 60 is above"),
    "sim-point-ceiling": ("sim", _set("vpic_async_point", seconds=60.0),
                          "vpic_async_point 60 is above"),
    "sim-fig3a-seconds": ("sim", _set("fig3a_4096", fast_s=60.0),
                          "fig3a_4096_s 60 is above"),
}


@pytest.mark.parametrize("case", DOCTORED)
def test_gates_report_a_doctored_artifact(case):
    bench, doctor, expected = DOCTORED[case]
    artifact = _artifact(bench)
    doctor(artifact)
    failures = _script(bench).gates(artifact)
    assert len(failures) == 1, failures
    assert expected in failures[0], failures
    failed = [gate for row in artifact["rows"] for gate in row["gates"]
              if not gate["ok"]]
    assert len(failed) == 1
