"""Smoke test of the benchmark: every workload at its smallest size, both modes.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Checks that each run exits 0, passes its correctness checks and prints
every metric that BENCHMARK.json names, with its unit.  It is kept out of
the repository's default test collection because each run spawns fresh
interpreters to time set-up.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int) -> None:
    bench = _declared()
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (workload, trace, got)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def test_workloads_print_every_metric():
    for w in _declared()["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace)


if __name__ == "__main__":
    test_workloads_print_every_metric()
    print("perfbench smoke: ok")
