"""The benchmark workloads: their spec files, per-op seeds and output checks.

Every workload is M/M/n+M with mu = 1, patience rate theta = 1 and
horizon T = 10, driven through one `httq` subcommand.  The spec file is
written once at set-up; op i reruns the same file with its own seed, so
no two ops repeat their inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HORIZON = 10.0
LIMIT_GRID_STEP = HORIZON / 1024.0
LIMIT_TOL = 1e-10
GAP_NAMES = ("coupling_gap", "little_gap", "neg_part_sup")

EXP1 = {"family": "exponential", "rate": 1.0}
PATIENCE = {"mode": "no_scaling", "distribution": EXP1}


def _mmn_config(n: int, alpha: float, beta: float) -> dict:
    return {"n": n, "alpha": alpha, "mu": 1.0, "beta": beta,
            "arrival": EXP1, "service": EXP1, "patience": PATIENCE,
            "horizon": HORIZON, "xi": 0.0, "abandon": True}


def _sweep_spec(alpha: float, beta: float, n_values, replications: int) -> dict:
    return {"command": "sweep", "config": _mmn_config(n_values[0], alpha, beta),
            "n_values": list(n_values), "replications": replications,
            "checkpoints": [HORIZON]}


def _limit_spec(reps: int) -> dict:
    return {"command": "limit", "case": "ii", "xi": 0.0, "beta": -1.0, "mu": 1.0,
            "ca2": 1.0, "patience": PATIENCE, "service": EXP1, "horizon": HORIZON,
            "grid_step": LIMIT_GRID_STEP, "reps": reps, "tol": LIMIT_TOL}


def _finite_nonneg(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0


def check_sweep(rundir: Path, spec: dict) -> list[str]:
    """Every n has finite non-negative gap summaries and KS in [0, 1]."""
    problems = []
    if not (rundir / "report.csv").is_file():
        problems.append("report.csv missing")
    doc = json.loads((rundir / "report.json").read_text())
    for n in spec["n_values"]:
        for name in GAP_NAMES:
            summary = doc["summaries"].get(name, {}).get(str(n))
            if summary is None:
                problems.append(f"{name} at n={n} missing")
                continue
            for key in ("median", "iqr"):
                if not _finite_nonneg(summary.get(key)):
                    problems.append(f"{name} {key} at n={n} is {summary.get(key)!r}")
        for t in spec["checkpoints"]:
            ks = doc["ks"].get(str(n), {}).get(f"{t:g}")
            if not (_finite_nonneg(ks) and ks <= 1.0):
                problems.append(f"ks@{t:g} at n={n} is {ks!r}")
    return problems


def check_limit(rundir: Path, spec: dict) -> list[str]:
    """limit.csv holds one finite row per grid point and one column per path."""
    points = round(spec["horizon"] / spec["grid_step"]) + 1
    reps = spec["reps"]
    lines = (rundir / "limit.csv").read_text().splitlines()
    header = ",".join(["t"] + [f"x_r{r}" for r in range(reps)])
    if len(lines) < 2 or not lines[0].startswith("# httq") or lines[1] != header:
        return ["limit.csv header is malformed"]
    rows = lines[2:]
    if len(rows) != points:
        return [f"limit.csv has {len(rows)} rows, expected {points}"]
    for k, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != reps + 1 or not all(math.isfinite(float(c)) for c in cells):
            return [f"limit.csv row {k} is not {reps + 1} finite numbers"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    full: dict
    smoke: dict
    artifacts: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]

    def spec(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full

    def prepare(self, workdir: Path, smoke: bool) -> Path:
        """Write the spec file the ops run from."""
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(self.spec(smoke), indent=1, sort_keys=True))
        return path

    def argv(self, spec_path: Path, seed: int, out: Path) -> list[str]:
        return [self.command, str(spec_path), "--seed", str(seed),
                "--workers", "1", "--out", str(out)]

    def digest(self, rundir: Path) -> str:
        h = hashlib.sha256()
        for name in self.artifacts:
            h.update(name.encode() + b"\0")
            h.update((rundir / name).read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("sweep-critical", "sweep",
             full=_sweep_spec(1.0, -1.0, (25, 100, 400), 40),
             smoke=_sweep_spec(1.0, -1.0, (25, 100), 4),
             artifacts=("report.csv", "report.json"), check=check_sweep),
    Workload("sweep-nds", "sweep",
             full=_sweep_spec(0.5, 0.0, (100, 400, 1600), 10),
             smoke=_sweep_spec(0.5, 0.0, (100, 400), 2),
             artifacts=("report.csv", "report.json"), check=check_sweep),
    Workload("limit-critical", "limit",
             full=_limit_spec(12), smoke=_limit_spec(2),
             artifacts=("limit.csv",), check=check_limit),
)}


def op_seed(seed: int, op: int) -> int:
    """Seed of op `op` (-1 is the warm-up) in a run started with `seed`."""
    blob = hashlib.sha256(f"{seed}:{op}".encode()).digest()
    return int.from_bytes(blob[:4], "big") >> 1
