"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at its tiny size, untraced and traced, and checks
that:

- every metric ``BENCHMARK.json`` names is printed with its unit
  (end-to-end ones untraced, per-layer ones traced);
- each run's output digest matches its pin, and the traced passes'
  digests equal the untraced passes';
- nothing failed, so ``error_rate`` is 0.

Exits 0 when every check holds and prints one line per failure
otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        check=True, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines
                             if line.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


def check_workload(workload: str) -> list:
    problems = []
    expected_digest = None
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run(workload, trace)
        where = f"{workload} trace={trace}"
        for metric in SPEC[group]:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                problems.append(f"{where}: {metric['name']} missing or "
                                f"not in {metric['unit']}: {got}")
        if not result["correct"]:
            problems.append(f"{where}: output digest does not match its pin")
        if result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{where}: {result['failed']} of "
                            f"{result['attempted']} units failed")
        digests = record["untraced_digests"] + record["traced_digests"]
        if expected_digest is None:
            expected_digest = record["expected_digest"]
        if set(digests) != {expected_digest}:
            problems.append(f"{where}: digests {digests} differ")
        if trace and result["metrics"]["error_rate"]["value"] != 0:
            problems.append(f"{where}: error_rate is not 0")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
