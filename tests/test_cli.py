"""CLI contract: spec files, hashes, headers, determinism, exit codes."""

import argparse
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import httq.cli
import httq.limits
import httq.maps
import httq.validation
from httq.cli import _workers, _write_csv, main
from httq.distributions import DistributionSpec
from httq.paths import uniform_grid
from httq.patience import PatienceSpec
from httq.renewal import compute_renewal_function
from httq.simulator import SystemConfig
from httq.streams import PURPOSES

from oracles import openblas_mapped, per_replication_limit


def mmn_dict(n=16, horizon=3.0, alpha=1.0, beta=-1.0, xi=0.0):
    return {
        "n": n, "alpha": alpha, "mu": 1.0, "beta": beta,
        "arrival": {"family": "exponential", "rate": 1.0},
        "service": {"family": "exponential", "rate": 1.0},
        "patience": {"mode": "no_scaling",
                     "distribution": {"family": "exponential", "rate": 1.0}},
        "horizon": horizon, "xi": xi, "abandon": True,
    }


def write_spec(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_dirs(out):
    return sorted(d for d in out.iterdir() if d.is_dir())


# ---------------------------------------------------------------------------
# renewal


def test_renewal_flag_form(tmp_path):
    out = tmp_path / "runs"
    rc = main(["renewal", "--service", "exp:rate=1", "--T", "10",
               "--out", str(out), "--workers", "1"])
    assert rc == 0
    (rundir,) = run_dirs(out)
    lines = (rundir / "renewal.csv").read_text().splitlines()
    assert lines[0].startswith("# httq v")
    assert f"spec={rundir.name}" in lines[0]
    assert lines[1] == "t,M"
    worst = max(abs(float(r.split(",")[1]) - float(r.split(",")[0]))
                for r in lines[2:])
    assert worst <= 1e-4
    schema = json.loads((rundir / "schema.json").read_text())
    assert schema["meta"]["spec_hash"] == rundir.name
    assert "renewal.csv" in schema["files"]


def test_renewal_spec_file(tmp_path):
    spec = write_spec(tmp_path, "r.json", {
        "command": "renewal",
        "service": {"family": "deterministic", "value": 1.0},
        "horizon": 3.0, "step": 0.01,
    })
    out = tmp_path / "runs"
    assert main(["renewal", spec, "--out", str(out)]) == 0
    (rundir,) = run_dirs(out)
    doc = json.loads((rundir / "summary.json").read_text())
    assert doc["step"] == 0.01
    assert doc["rate"] == 1.0


def test_renewal_grid_step_overrides_spec_file(tmp_path):
    spec = write_spec(tmp_path, "r.json", {
        "command": "renewal", "service": {"family": "exponential", "rate": 1.0},
        "horizon": 2.0, "step": 0.01,
    })
    out = tmp_path / "runs"
    assert main(["renewal", spec, "--out", str(out), "--grid-step", "0.005"]) == 0
    (rundir,) = run_dirs(out)
    doc = json.loads((rundir / "summary.json").read_text())
    assert doc["step"] == doc["spec"]["step"] == 0.005
    assert doc["points"] == 401


def test_renewal_flag_conflicts(tmp_path, capsys):
    spec = write_spec(tmp_path, "r.json", {"service": {"family": "exponential",
                                                       "rate": 1.0}, "horizon": 1.0})
    assert main(["renewal", spec, "--service", "exp:rate=1",
                 "--out", str(tmp_path / "a")]) == 2
    assert main(["renewal", "--out", str(tmp_path / "b")]) == 2
    assert main(["renewal", "--service", "exp:rate=1",
                 "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "not both" in err and "--T" in err


def test_bad_distribution_flag(tmp_path):
    assert main(["renewal", "--service", "exp:rate", "--T", "2",
                 "--out", str(tmp_path)]) == 2
    assert main(["renewal", "--service", "weibull:k=2", "--T", "2",
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_artifacts_content(tmp_path):
    spec = write_spec(tmp_path, "sim.json", {
        "command": "simulate", "config": mmn_dict(n=9, horizon=2.0), "seed": 1,
    })
    out = tmp_path / "runs"
    assert main(["simulate", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["meta"]["spec_hash"] == rundir.name
    assert summary["meta"]["seed"] == 1
    rep = summary["per_replication"][0]
    assert rep["customers"] > 0
    assert rep["balance_gap"] == 0.0
    events = (rundir / "events_r0.csv").read_text().splitlines()
    assert events[1] == "time,kind,customer"
    kinds = {line.split(",")[1] for line in events[2:]}
    assert kinds <= {"arrival", "service-start", "service-end", "abandonment"}
    scaled = (rundir / "scaled_r0.csv").read_text().splitlines()
    assert scaled[1] == "t,X,Q,E,S,G,G_hat,omega"
    assert len(scaled) == 2 + 201  # default grid: horizon/200


def test_simulate_seed_and_grid_step_change_hash(tmp_path):
    spec = write_spec(tmp_path, "sim.json", {
        "command": "simulate", "config": mmn_dict(n=4, horizon=1.0), "seed": 0,
    })
    out = tmp_path / "runs"
    assert main(["simulate", spec, "--out", str(out), "--workers", "1"]) == 0
    assert main(["simulate", spec, "--out", str(out), "--seed", "7",
                 "--workers", "1"]) == 0
    assert main(["simulate", spec, "--out", str(out), "--grid-step", "0.5",
                 "--workers", "1"]) == 0
    assert len(run_dirs(out)) == 3


# ---------------------------------------------------------------------------
# validation failures


def test_unknown_top_level_key(tmp_path, capsys):
    spec = write_spec(tmp_path, "bad.json", {
        "command": "simulate", "config": mmn_dict(), "replciations": 3,
    })
    assert main(["simulate", spec, "--out", str(tmp_path / "r")]) == 2
    assert "replciations" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = mmn_dict()
    cfg["serviec"] = cfg["service"]
    spec = write_spec(tmp_path, "bad.json", {"command": "simulate", "config": cfg})
    assert main(["simulate", spec, "--out", str(tmp_path / "r")]) == 2
    assert "serviec" in capsys.readouterr().err


def test_command_mismatch(tmp_path, capsys):
    spec = write_spec(tmp_path, "sim.json",
                      {"command": "simulate", "config": mmn_dict()})
    assert main(["sweep", spec, "--out", str(tmp_path / "r")]) == 2
    assert "invoked as" in capsys.readouterr().err


@pytest.mark.parametrize("where,doc,drop", [
    ("config", mmn_dict(), "horizon"),
    ("erlang distribution", {"family": "erlang", "shape": 2, "rate": 2.0}, "rate"),
    ("patience spec", {"mode": "no_scaling",
                       "distribution": {"family": "exponential", "rate": 1.0}}, None),
    ("limit spec", {"command": "limit", "seed": 3, "case": "i"}, None),
])
def test_one_key_rule_for_every_spec_reader(tmp_path, where, doc, drop):
    def cli_spec(d):
        args = argparse.Namespace(spec=write_spec(tmp_path, "limit.json", d), seed=None)
        return httq.cli._read_spec(args, "limit", {"case"})

    read = {"config": SystemConfig.from_dict, "erlang distribution": DistributionSpec.from_dict,
            "patience spec": PatienceSpec.from_dict, "limit spec": cli_spec}[where]
    read(doc)
    with pytest.raises(ValueError, match=f"^unknown keys in {where}: extra, zeta$"):
        read({**doc, "zeta": 1, "extra": 2})
    if drop is not None:
        with pytest.raises(ValueError, match=f"^missing keys in {where}: {drop}$"):
            read({k: v for k, v in doc.items() if k != drop})


def test_missing_file_and_bad_json(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r")]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "not found" in err and "not valid JSON" in err


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture()
def sweep_doc():
    return {
        "command": "sweep",
        "config": mmn_dict(n=16, horizon=2.0, alpha=0.5, xi=0.5),
        "n_values": [16, 64],
        "replications": 6,
        "seed": 3,
    }


def test_sweep_artifacts_and_check_pass(tmp_path, sweep_doc):
    sweep_doc["thresholds"] = {"ratio_max": [{"statistic": "coupling_gap",
                                              "max": 100.0}]}
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    out = tmp_path / "runs"
    rc = main(["sweep", spec, "--out", str(out), "--check", "--workers", "1"])
    assert rc == 0
    (rundir,) = run_dirs(out)
    report = json.loads((rundir / "report.json").read_text())
    assert report["meta"]["spec_hash"] == rundir.name
    assert report["n_values"] == [16, 64]
    assert set(report["summaries"]) == {"coupling_gap", "little_gap", "neg_part_sup"}
    lines = (rundir / "report.csv").read_text().splitlines()
    assert lines[0].startswith("# httq v")
    assert lines[1] == "n,statistic,replication,value"
    # per n: 3 gap statistics x 6 replications, plus 3 default KS checkpoints
    assert len(lines) == 2 + 2 * (3 * 6 + 3)
    assert all(float(line.split(",")[-1]) >= 0.0 for line in lines[2:])


def test_sweep_check_failure_exits_3(tmp_path, sweep_doc, capsys):
    sweep_doc["thresholds"] = {"ks_max": [{"n": 64, "checkpoint": 2.0, "max": 0.0}]}
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    rc = main(["sweep", spec, "--out", str(tmp_path / "runs"), "--check",
               "--workers", "1"])
    assert rc == 3
    assert "check failed" in capsys.readouterr().err


def test_sweep_ratio_max_failure_names_both_medians(tmp_path, sweep_doc, capsys):
    sweep_doc["thresholds"] = {"ratio_max": [{"statistic": "coupling_gap", "max": -1.0}]}
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    rc = main(["sweep", spec, "--out", str(tmp_path / "runs"), "--check",
               "--workers", "1"])
    assert rc == 3
    assert re.search(r"coupling_gap: median \S+ at n=64 exceeds -1\.0 x \S+ at n=16",
                     capsys.readouterr().err)


def test_sweep_threshold_validation(tmp_path, sweep_doc, capsys):
    sweep_doc["thresholds"] = {"decreasing": ["no_such_statistic"]}
    spec = write_spec(tmp_path, "s1.json", sweep_doc)
    assert main(["sweep", spec, "--out", str(tmp_path / "r1"), "--workers", "1"]) == 2
    sweep_doc["thresholds"] = {"increasing": []}
    spec = write_spec(tmp_path, "s2.json", sweep_doc)
    assert main(["sweep", spec, "--out", str(tmp_path / "r2"), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert "no_such_statistic" in err and "increasing" in err


@pytest.mark.parametrize("thresholds", [
    {"decreasing": ["coupling_gapp"]},
    {"decreasing": ["ks@7"]},
    {"ratio_max": [{"statistic": "ks@2", "max": 1.0}]},
    {"ks_max": [{"n": 32, "checkpoint": 2.0, "max": 0.5}]},
    {"ks_max": [{"n": 64, "checkpoint": 1.5, "max": 0.5}]},
    {"ks_max": [{"n": 64, "max": 0.5}]},
    {"ratio_max": [{"statistic": "little_gap", "max": 1.0, "min": 0.0}]},
])
def test_sweep_thresholds_rejected_before_compute(tmp_path, sweep_doc, monkeypatch,
                                                  capsys, thresholds):
    def no_compute(*args, **kwargs):
        raise AssertionError("convergence_sweep ran before the thresholds were checked")

    monkeypatch.setattr(httq.cli, "convergence_sweep", no_compute)
    sweep_doc["thresholds"] = thresholds
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    out = tmp_path / "runs"
    assert main(["sweep", spec, "--out", str(out), "--workers", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid_points", [0, -4])
def test_sweep_grid_points_rejected_before_compute(tmp_path, sweep_doc, monkeypatch,
                                                  capsys, grid_points):
    def no_compute(*args, **kwargs):
        raise AssertionError("convergence_sweep ran before grid_points was checked")

    monkeypatch.setattr(httq.cli, "convergence_sweep", no_compute)
    sweep_doc["grid_points"] = grid_points
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    out = tmp_path / "runs"
    assert main(["sweep", spec, "--out", str(out), "--workers", "1"]) == 2
    assert "grid_points must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_grid_step_must_divide_horizon(tmp_path, sweep_doc, monkeypatch, capsys):
    class Reached(Exception):
        pass

    def stop(*args, grid_points, **kwargs):
        raise Reached(grid_points)

    monkeypatch.setattr(httq.cli, "convergence_sweep", stop)
    sweep_doc["config"] = mmn_dict(n=16, horizon=10.0, alpha=0.5, xi=0.5)
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    out = tmp_path / "runs"
    assert main(["sweep", spec, "--out", str(out), "--grid-step", "0.3"]) == 2
    assert "horizon" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(Reached, match="^20$"):
        main(["sweep", spec, "--out", str(out), "--grid-step", "0.5"])


def test_workers_default_follows_cpu_affinity(monkeypatch):
    args = httq.cli._build_parser().parse_args(["sweep", "s.json"])
    monkeypatch.delenv("HTTQ_WORKERS", raising=False)
    monkeypatch.setattr(httq.cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(httq.cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _workers(args) == 1
    monkeypatch.delattr(httq.cli.os, "sched_getaffinity")
    assert _workers(args) == 8


def test_sweep_env_workers_match_serial(tmp_path, sweep_doc, monkeypatch):
    sweep_doc["config"] = mmn_dict(n=4, horizon=1.5, alpha=0.5, xi=0.5)
    sweep_doc["n_values"] = [4, 16]
    sweep_doc["replications"] = 4
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    out = tmp_path / "runs"
    assert main(["sweep", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    serial = (rundir / "report.json").read_bytes()
    monkeypatch.setenv("HTTQ_WORKERS", "2")
    assert main(["sweep", spec, "--out", str(out)]) == 0
    assert (rundir / "report.json").read_bytes() == serial


def test_bad_workers_env(tmp_path, sweep_doc, monkeypatch):
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    monkeypatch.setenv("HTTQ_WORKERS", "many")
    assert main(["sweep", spec, "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("flag,env", [(["--workers", "0"], None), ([], "0")],
                         ids=["flag", "env"])
def test_workers_below_one_rejected_before_compute(tmp_path, sweep_doc, monkeypatch,
                                                   capsys, flag, env):
    def no_compute(*args, **kwargs):
        raise AssertionError("convergence_sweep ran before the worker count was checked")

    monkeypatch.setattr(httq.cli, "convergence_sweep", no_compute)
    if env is None:
        monkeypatch.delenv("HTTQ_WORKERS", raising=False)
    else:
        monkeypatch.setenv("HTTQ_WORKERS", env)
    spec = write_spec(tmp_path, "sweep.json", sweep_doc)
    out = tmp_path / "runs"
    assert main(["sweep", spec, "--out", str(out), *flag]) == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# compare


def test_compare_all_hold(tmp_path):
    spec = write_spec(tmp_path, "cmp.json", {
        "command": "compare", "config": mmn_dict(n=5, horizon=2.0),
        "seeds": 2, "replications": 2,
    })
    out = tmp_path / "runs"
    rc = main(["compare", spec, "--out", str(out), "--check", "--workers", "1"])
    assert rc == 0
    (rundir,) = run_dirs(out)
    doc = json.loads((rundir / "compare.json").read_text())
    assert doc["all_hold"] is True
    assert len(doc["verdicts"]) == 4
    assert {v["seed"] for v in doc["verdicts"]} == {0, 1}


def test_compare_spreads_over_workers_with_identical_output(tmp_path, monkeypatch):
    calls = []
    run_jobs = httq.cli.run_jobs

    def recording(fn, jobs, workers):
        calls.append((len(jobs), workers))
        return run_jobs(fn, jobs, workers)

    monkeypatch.setattr(httq.cli, "run_jobs", recording)
    doc, _ = _RERUN_SPECS["compare"]
    spec = write_spec(tmp_path, "cmp.json", {"command": "compare", **doc})
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"runs{workers}"
        assert main(["compare", spec, "--out", str(out), "--workers", workers]) == 0
        (rundir,) = run_dirs(out)
        written.append((rundir / "compare.json").read_bytes())
    assert calls == [(2, 1), (2, 2)]
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# limit


def test_limit_case_ii(tmp_path):
    spec = write_spec(tmp_path, "limit.json", {
        "command": "limit", "case": "ii", "xi": -0.5, "beta": -1.0, "mu": 1.0,
        "ca2": 1.0, "patience": {"mode": "no_scaling",
                                 "distribution": {"family": "exponential", "rate": 1.0}},
        "service": {"family": "exponential", "rate": 1.0},
        "horizon": 4.0, "grid_step": 0.01, "reps": 2, "seed": 5,
    })
    out = tmp_path / "runs"
    assert main(["limit", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    lines = (rundir / "limit.csv").read_text().splitlines()
    assert lines[1] == "t,x_r0,x_r1"
    assert len(lines) == 2 + 401
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -0.5
    summary = json.loads((rundir / "limit_summary.json").read_text())
    for rep in summary["per_replication"]:
        assert rep["residual"] <= 0.1  # 10 x grid step


@pytest.mark.parametrize("command, doc", [
    ("limit", {"case": "ii", "xi": -0.5, "beta": -1.0, "mu": 1.0, "reps": 2,
               "patience": {"mode": "no_scaling",
                            "distribution": {"family": "exponential", "rate": 1.0}}}),
    ("maps", {"map": "phi_Mg", "y": {"brownian": {"variance_rate": 2.0}}, "g": {"slope": 0.5}}),
    ("maps", {"map": "phi_M", "y": {"brownian": {"variance_rate": 2.0}}}),
])
def test_critical_routes_run_on_their_default_grid_at_the_paper_horizon(tmp_path, command, doc):
    # the default grid step T / 512 = 0.0195 is over the renewal table's cap
    # of 0.01, so the table is built at half the grid step
    spec = write_spec(tmp_path, f"{command}.json", {
        "command": command, **doc, "service": {"family": "exponential", "rate": 1.0},
        "horizon": 10.0, "seed": 5})
    out = tmp_path / "runs"
    assert main([command, spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    csv = "limit.csv" if command == "limit" else "solution.csv"
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in (rundir / csv).read_text().splitlines()[2:]])
    np.testing.assert_array_equal(rows[:, 0], uniform_grid(10.0, 10.0 / 512))
    assert np.all(np.isfinite(rows))


_LINEAR_PATIENCE = {"mode": "no_scaling",
                    "distribution": {"family": "exponential", "rate": 0.7}}


# ---------------------------------------------------------------------------
# BLAS threads: a command runs on one, and the caller's counts come back


def blas_thread_counts():
    return [get() for _, get in httq.cli._openblas_thread_controls()]


def small_limit_spec(tmp_path):
    return write_spec(tmp_path, "limit.json", {
        "command": "limit", "case": "ii", "xi": -0.5, "beta": -1.0, "mu": 1.0,
        "patience": _LINEAR_PATIENCE, "service": {"family": "exponential", "rate": 1.0},
        "horizon": 2.0, "grid_step": 0.01, "reps": 2, "seed": 5,
    })


needs_openblas = pytest.mark.skipif(not openblas_mapped(), reason="no OpenBLAS loaded")


@needs_openblas
def test_main_restores_each_openblas_thread_count(tmp_path, monkeypatch):
    spec = small_limit_spec(tmp_path)
    bad = write_spec(tmp_path, "bad.json", {"command": "limit", "case": "iii"})
    argv = ["limit", spec, "--out", str(tmp_path / "runs"), "--workers", "1"]
    with httq.cli._blas_threads(2):
        before = blas_thread_counts()
        assert before and all(n == 2 for n in before)
        assert main(argv) == 0
        assert blas_thread_counts() == before
        assert main(["limit", bad, "--out", str(tmp_path / "runs")]) == 2
        assert blas_thread_counts() == before

        def fails(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(httq.cli.LimitModel, "solve", fails)
        with pytest.raises(RuntimeError, match="solver failed"):
            main(argv)
        assert blas_thread_counts() == before


@needs_openblas
def test_limit_command_runs_on_one_blas_thread(tmp_path, monkeypatch):
    seen = []
    solve = httq.cli.LimitModel.solve

    def recording(*args, **kwargs):
        seen.append(blas_thread_counts())
        return solve(*args, **kwargs)

    monkeypatch.setattr(httq.cli.LimitModel, "solve", recording)
    with httq.cli._blas_threads(2):
        assert main(["limit", small_limit_spec(tmp_path), "--out", str(tmp_path / "runs"),
                     "--workers", "1"]) == 0
    assert len(seen) == 1 and seen[0] and all(n == 1 for n in seen[0])


def test_blas_threads_reuse_the_scan_until_a_module_is_imported(monkeypatch):
    scans = _counting(monkeypatch, httq.cli, "_openblas_thread_controls")
    httq.cli._scanned_thread_controls.cache_clear()
    try:
        for _ in range(3):
            with httq.cli._blas_threads(1):
                pass
        assert len(scans) == 1
        monkeypatch.setitem(sys.modules, "httq_scan_probe", types.ModuleType("httq_scan_probe"))
        with httq.cli._blas_threads(1):
            pass
        assert len(scans) == 2
    finally:
        httq.cli._scanned_thread_controls.cache_clear()


@pytest.mark.parametrize("maps", [None, "7f00-7f01 r-xp 0 0:0 0 /nowhere/libopenblas.so\n"],
                         ids=["unreadable", "not-loaded"])
def test_limit_runs_where_the_scan_finds_no_openblas(tmp_path, monkeypatch, maps):
    def fake_open(path, *args, **kwargs):
        if path != "/proc/self/maps":
            return open(path, *args, **kwargs)
        if maps is None:
            raise OSError("no /proc here")
        return io.StringIO(maps)

    monkeypatch.setattr(httq.cli, "open", fake_open, raising=False)
    # main reuses the last scan, so clear it: main must scan through the fake
    # open too, and no later test may find this test's empty scan
    httq.cli._scanned_thread_controls.cache_clear()
    try:
        assert httq.cli._openblas_thread_controls() == []
        assert main(["limit", small_limit_spec(tmp_path), "--out", str(tmp_path / "runs"),
                     "--workers", "1"]) == 0
    finally:
        httq.cli._scanned_thread_controls.cache_clear()


@pytest.mark.parametrize("case,xi", [("i", 0.0), ("i", 0.5), ("ii", -0.5),
                                     ("ii", 0.0), ("ii", 0.5)])
@pytest.mark.parametrize("patience", [_LINEAR_PATIENCE, None], ids=["linear", "none"])
def test_limit_batch_matches_per_replication_loop(tmp_path, case, xi, patience):
    # one batched solve over all replications against one solve per replication
    T, step, tol, reps, seed = 4.0, 0.01, 1e-10, 3, 11
    service = {"family": "exponential", "rate": 1.0} if case == "ii" else None
    spec = write_spec(tmp_path, "limit.json", {
        "command": "limit", "case": case, "xi": xi, "beta": -0.4, "mu": 1.0,
        "ca2": 1.0, "patience": patience, "service": service, "horizon": T,
        "grid_step": step, "reps": reps, "seed": seed, "tol": tol if case == "ii" else None,
    })
    out = tmp_path / "runs"
    assert main(["limit", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    got = np.loadtxt(rundir / "limit.csv", delimiter=",", skiprows=2)
    summary = json.loads((rundir / "limit_summary.json").read_text())["per_replication"]

    grid = uniform_grid(T, step)
    H = None if service is None else DistributionSpec.from_dict(service)
    table = None if H is None else compute_renewal_function(H, T, step=step)
    f = None if patience is None else PatienceSpec.from_dict(patience).limit_function()
    paths, expected = per_replication_limit(case, xi, -0.4, 1.0, 1.0, f, grid, seed,
                                            reps, table, tol)
    np.testing.assert_array_equal(got[:, 0], grid)
    assert np.max(np.abs(got[:, 1:] - np.array(paths).T)) <= 10 * tol
    assert [rep["replication"] for rep in summary] == list(range(reps))
    for rep, ref in zip(summary, expected):
        assert abs(rep["residual"] - ref["residual"]) <= 10 * tol
        assert rep["jitter"] == ref["jitter"]
        if case == "ii":
            assert 0.0 <= rep["closure"] < tol
        else:
            assert rep["closure"] is None
    # each residual is its own row's, not one maximum over the batch
    ref_residuals = [ref["residual"] for ref in expected]
    if max(ref_residuals) - min(ref_residuals) > 100 * tol:
        assert len({rep["residual"] for rep in summary}) == reps
    schema = json.loads((rundir / "schema.json").read_text())
    assert "per_replication[].closure" in schema["files"]["limit_summary.json"]


def test_limit_case_i_rejects_service_table(tmp_path, capsys):
    spec = write_spec(tmp_path, "limit.json", {
        "command": "limit", "case": "i", "xi": 0.0, "beta": 0.5, "mu": 1.0,
        "service": {"family": "exponential", "rate": 1.0}, "horizon": 2.0,
    })
    assert main(["limit", spec, "--out", str(tmp_path / "r")]) == 2
    assert "does not use" in capsys.readouterr().err


def test_limit_case_i_runs(tmp_path):
    spec = write_spec(tmp_path, "limit.json", {
        "command": "limit", "case": "i", "xi": 0.0, "beta": 0.5, "mu": 2.0,
        "patience": {"mode": "no_scaling",
                     "distribution": {"family": "exponential", "rate": 1.0}},
        "horizon": 2.0, "reps": 1,
    })
    out = tmp_path / "runs"
    assert main(["limit", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    rows = (rundir / "limit.csv").read_text().splitlines()[2:]
    xs = [float(r.split(",")[1]) for r in rows]
    assert min(xs) >= 0.0  # reflected regime stays nonnegative


# ---------------------------------------------------------------------------
# maps


def test_maps_skorokhod(tmp_path):
    spec = write_spec(tmp_path, "maps.json", {
        "command": "maps", "map": "skorokhod_g",
        "y": {"times": [0.0, 1.0, 2.0], "values": [0.0, -1.0, 0.5],
              "kind": "linear"},
        "horizon": 2.0, "grid_step": 0.01,
    })
    out = tmp_path / "runs"
    assert main(["maps", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    lines = (rundir / "solution.csv").read_text().splitlines()
    assert lines[0].startswith("# httq v")
    assert lines[1] == "t,x,ell"
    xs = [float(r.split(",")[1]) for r in lines[2:]]
    ells = [float(r.split(",")[2]) for r in lines[2:]]
    assert min(xs) >= 0.0
    assert ells == sorted(ells) and ells[-1] > 0.9
    summary = json.loads((rundir / "solution_summary.json").read_text())
    assert summary["variant"] == "skorokhod_g"


def test_maps_requirements(tmp_path, capsys):
    base = {"command": "maps", "y": {"brownian": {"variance_rate": 1.0}},
            "horizon": 1.0}
    spec = write_spec(tmp_path, "m1.json", {**base, "map": "phi_M"})
    assert main(["maps", spec, "--out", str(tmp_path / "r1")]) == 2
    spec = write_spec(tmp_path, "m2.json", {
        **base, "map": "skorokhod_g",
        "service": {"family": "exponential", "rate": 1.0}})
    assert main(["maps", spec, "--out", str(tmp_path / "r2")]) == 2
    spec = write_spec(tmp_path, "m3.json", {**base, "map": "phi_n_g"})
    assert main(["maps", spec, "--out", str(tmp_path / "r3")]) == 2
    spec = write_spec(tmp_path, "m4.json", {**base, "map": "newton"})
    assert main(["maps", spec, "--out", str(tmp_path / "r4")]) == 2
    err = capsys.readouterr().err
    assert "renewal table" in err and "mu_n" in err and "unknown map 'newton'" in err


def test_maps_phi_mg_brownian_input(tmp_path):
    spec = write_spec(tmp_path, "maps.json", {
        "command": "maps", "map": "phi_Mg",
        "y": {"brownian": {"variance_rate": 2.0}},
        "g": {"slope": 0.5},
        "service": {"family": "exponential", "rate": 1.0},
        "horizon": 2.0, "grid_step": 0.01, "seed": 9,
    })
    out = tmp_path / "runs"
    assert main(["maps", spec, "--out", str(out), "--workers", "1"]) == 0
    (rundir,) = run_dirs(out)
    summary = json.loads((rundir / "solution_summary.json").read_text())
    assert summary["residual"] < 1e-8
    assert summary["iterations"] >= 1
    # phi_Mg has no regulator, so neither the header nor the schema has ell
    schema = json.loads((rundir / "schema.json").read_text())
    header = (rundir / "solution.csv").read_text().splitlines()[1]
    assert header == "t,x"
    assert sorted(schema["files"]["solution.csv"]) == ["t", "x"]


def test_maps_rejects_initial_guess(tmp_path, capsys):
    spec = write_spec(tmp_path, "maps.json", {
        "command": "maps", "map": "phi_Mg", "y": {"brownian": {"variance_rate": 2.0}},
        "g": {"slope": 0.5}, "service": {"family": "exponential", "rate": 1.0},
        "horizon": 2.0, "initial_guess": "zero",
    })
    assert main(["maps", spec, "--out", str(tmp_path / "runs")]) == 2
    assert "unknown keys in maps spec: initial_guess" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reruns and schemas, every subcommand


_RERUN_SPECS = {
    "simulate": ({"config": mmn_dict(), "replications": 2, "seed": 4, "grid_step": 0.25},
                 {"events_r0.csv", "events_r1.csv", "scaled_r0.csv", "scaled_r1.csv",
                  "summary.json", "schema.json"}),
    "limit": ({"case": "ii", "xi": -0.5, "beta": -1.0, "mu": 1.0,
               "service": {"family": "exponential", "rate": 1.0},
               "horizon": 2.0, "grid_step": 0.01, "reps": 2, "seed": 5},
              {"limit.csv", "limit_summary.json", "schema.json"}),
    "renewal": ({"service": {"family": "erlang", "shape": 2, "rate": 2.0},
                 "horizon": 3.0, "step": 0.01},
                {"renewal.csv", "summary.json", "schema.json"}),
    "sweep": ({"config": mmn_dict(n=4, horizon=1.5, alpha=0.5, xi=0.5),
               "n_values": [4, 16], "replications": 4, "seed": 3},
              {"report.csv", "report.json", "schema.json"}),
    "compare": ({"config": mmn_dict(n=5, horizon=2.0), "seeds": 2, "replications": 1},
                {"compare.json"}),
    "maps": ({"map": "skorokhod_g",
              "y": {"times": [0.0, 1.0, 2.0], "values": [0.0, -1.0, 0.5], "kind": "linear"},
              "horizon": 2.0, "grid_step": 0.01},
             {"solution.csv", "solution_summary.json", "schema.json"}),
}


def key_matches(key: str, name: str) -> bool:
    """Whether a schema key names `name`, reading `<k>` as an integer."""
    return re.fullmatch(re.escape(key).replace("<k>", r"\d+"), name) is not None


def schema_entry(entries: dict, name: str):
    """The entry whose key matches `name`."""
    return next((entry for key, entry in entries.items() if key_matches(key, name)), None)


@pytest.mark.parametrize("command", list(_RERUN_SPECS))
def test_rerun_is_byte_identical(tmp_path, command):
    doc, files = _RERUN_SPECS[command]
    spec = write_spec(tmp_path, f"{command}.json", {"command": command, **doc})
    argv = [command, spec, "--out", str(tmp_path / "runs"), "--workers", "1"]
    assert main(argv) == 0
    (rundir,) = run_dirs(tmp_path / "runs")
    first = {p.name: p.read_bytes() for p in sorted(rundir.iterdir())}
    assert set(first) == files
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in sorted(rundir.iterdir())}
    assert first == second
    # every CSV column is documented in the run's own schema.json, and every
    # column the schema documents for a written CSV is in its header
    csvs = [name for name in first if name.endswith(".csv")]
    schema = json.loads(first["schema.json"])["files"] if csvs else {}
    for name in csvs:
        entry = schema_entry(schema, name)
        assert entry is not None, f"{name} has no schema.json entry"
        header = first[name].decode().splitlines()[1].split(",")
        for column in header:
            assert schema_entry(entry, column) is not None, \
                f"{name} column {column!r} is not in schema.json"
        for key in entry:
            assert any(key_matches(key, column) for column in header), \
                f"schema.json documents {key!r}, which is not a {name} column"


# one run's settings in their checked form, with that form's run directory,
# and other spellings of the same settings: ints for floats, explicit nulls,
# no y kind and empty threshold lists
_EXP1 = {"family": "exponential", "rate": 1.0}
_LIMIT_SPELLED = {"case": "ii", "xi": 0.0, "beta": -1.0, "mu": 1.0, "service": _EXP1,
                  "patience": {"mode": "no_scaling", "distribution": _EXP1},
                  "horizon": 2.0, "grid_step": 0.01, "reps": 1}
_MAPS_SPELLED = {"map": "phi_n_g", "g": {"slope": 1.0}, "mu_n": 2.0, "horizon": 1.0,
                 "y": {"times": [0.0, 1.0], "values": [0.0, -1.0], "kind": "linear"},
                 "grid_step": 0.01}
_SWEEP_SPELLED = {"config": mmn_dict(n=4, horizon=1.0, alpha=1.0, beta=0.0),
                  "n_values": [4], "replications": 2, "checkpoints": [1.0]}
_DECREASING = {"decreasing": ["coupling_gap"]}
_SPELLINGS = {
    "limit-patience": ("limit", _LIMIT_SPELLED, "325442a028fb", [
        {"patience": {"mode": "no_scaling",
                      "distribution": {"family": "exponential", "rate": 1}}},
        {"patience": {"mode": "no_scaling", "distribution": _EXP1, "f": None}}]),
    "maps-g-mu_n-y": ("maps", _MAPS_SPELLED, "eeaf48a6b79d", [
        {"g": {"slope": 1}, "mu_n": 2},
        {"y": {"times": [0, 1], "values": [0, -1]}},
        {"y": {"times": [0.0, 1.0], "values": [0.0, -1.0], "kind": None}}]),
    "sweep-checkpoints": ("sweep", _SWEEP_SPELLED, "eb2f2df4ea8b", [
        {"checkpoints": [1]}, {"thresholds": None}, {"thresholds": {"decreasing": None}}]),
    # two n values, as a decreasing threshold compares the smallest n with the largest
    "sweep-thresholds": ("sweep", {**_SWEEP_SPELLED, "n_values": [4, 16],
                                   "thresholds": _DECREASING}, "8dbc007eaa69", [
        {"thresholds": {**_DECREASING, "ks_max": []}},
        {"thresholds": {**_DECREASING, "ks_max": None, "ratio_max": []}}]),
}


@pytest.mark.parametrize("command,doc,rundir,spellings", _SPELLINGS.values(),
                         ids=list(_SPELLINGS))
def test_one_run_directory_however_the_settings_are_spelled(tmp_path, command, doc,
                                                            rundir, spellings):
    # the run directory hashes the checked settings, not the file's text; the
    # checked form keeps the directory it had when the file was hashed raw
    out = tmp_path / "runs"
    written = []
    for k, patch in enumerate([{}, *spellings]):
        spec = write_spec(tmp_path, f"{k}.json", {"command": command, **doc, **patch})
        assert main([command, spec, "--out", str(out), "--workers", "1"]) == 0
        (written_dir,) = run_dirs(out)
        written.append({p.name: p.read_bytes() for p in written_dir.iterdir()})
    assert written_dir.name == rundir
    assert all(files == written[0] for files in written)


def test_summary_records_the_checked_settings(tmp_path):
    spec = write_spec(tmp_path, "limit.json", {
        "command": "limit", **_LIMIT_SPELLED,
        "patience": {"mode": "no_scaling", "distribution": {"family": "exponential", "rate": 1}},
        "reps": 1.0})
    assert main(["limit", spec, "--out", str(tmp_path / "r1"), "--workers", "1"]) == 0
    (rundir,) = run_dirs(tmp_path / "r1")
    recorded = json.loads((rundir / "limit_summary.json").read_text())["spec"]
    rate = recorded["patience"]["distribution"]["rate"]
    assert type(rate) is float and rate == 1.0
    assert type(recorded["reps"]) is int
    spec = write_spec(tmp_path, "maps.json", {
        "command": "maps", **_MAPS_SPELLED, "y": {"times": [0, 1], "values": [0, -1]}})
    assert main(["maps", spec, "--out", str(tmp_path / "r2"), "--workers", "1"]) == 0
    (rundir,) = run_dirs(tmp_path / "r2")
    recorded = json.loads((rundir / "solution_summary.json").read_text())["spec"]
    assert recorded["y"] == {"times": [0.0, 1.0], "values": [0.0, -1.0], "kind": "linear"}
    assert all(type(v) is float for v in recorded["y"]["times"] + recorded["y"]["values"])
    assert recorded["g"] == {"slope": 1.0} and recorded["mu_n"] == 2.0


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_artifacts_do_not_depend_on_workers(tmp_path, command):
    # at --workers 2 the records (simulate) and the gap statistics (sweep)
    # cross a process pool; every artifact is byte-identical to the serial run
    doc, _ = _RERUN_SPECS[command]
    spec = write_spec(tmp_path, f"{command}.json", {"command": command, **doc})
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"runs{workers}"
        assert main([command, spec, "--out", str(out), "--workers", workers]) == 0
        (rundir,) = run_dirs(out)
        written.append((rundir.name, {p.name: p.read_bytes() for p in rundir.iterdir()}))
    assert written[0] == written[1]


@pytest.mark.parametrize("command", ["limit", "renewal", "compare", "maps"])
def test_workers_below_one_rejected_everywhere(tmp_path, capsys, command):
    doc, _ = _RERUN_SPECS[command]
    spec = write_spec(tmp_path, f"{command}.json", {"command": command, **doc})
    out = tmp_path / "runs"
    assert main([command, spec, "--out", str(out), "--workers", "0"]) == 2
    assert "must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


# the library's own checks reject these after the spec is read, before any write
_REJECTED_BY_COMPUTE = [
    ("limit", {"tol": 0}, "tol must be positive"),
    ("limit", {"case": "i", "service": None, "xi": -1.0}, "xi must be nonnegative"),
    ("limit", {"mu": -1.0}, "variance rate must be nonnegative"),
    ("maps", {"y": [1, 2]}, "y must be an object"),
    ("maps", {"g": {"slope": -1}}, "g must be nondecreasing"),
    ("sweep", {"config": mmn_dict(n=4, horizon=10.0, alpha=0.5, xi=0.5),
               "checkpoints": [0.3]}, "does not lie on the limit grid"),
    ("limit", {"mu": 2.0}, "case 'ii' requires service mean 1/mu = 0.5, got 1.0"),
    ("limit", {"mu": -1.0, "ca2": -1.0}, "mu must be positive and ca2 nonnegative"),
    ("limit", {"case": "i", "service": None, "mu": 0.0}, "mu must be positive"),
]


@pytest.mark.parametrize("command,patch,message", _REJECTED_BY_COMPUTE)
def test_rejected_spec_leaves_no_run_directory(tmp_path, capsys, command, patch, message):
    doc, _ = _RERUN_SPECS[command]
    spec = write_spec(tmp_path, f"{command}.json", {"command": command, **doc, **patch})
    out = tmp_path / "runs"
    assert main([command, spec, "--out", str(out), "--workers", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [mmn_dict(n=10**9), mmn_dict(horizon=1e9),
                                    mmn_dict(n=100, xi=1e12)],
                         ids=["huge-n", "huge-horizon", "huge-xi"])
def test_simulate_refuses_an_oversized_system_before_any_draw(tmp_path, capsys, monkeypatch,
                                                              config):
    # each was accepted, and simulate began to draw 1e9 or more entries
    monkeypatch.setattr(httq.cli, "simulate", lambda *a, **k: pytest.fail("simulated"))
    spec = write_spec(tmp_path, "simulate.json", {"command": "simulate", "config": config})
    out = tmp_path / "runs"
    assert main(["simulate", spec, "--out", str(out), "--workers", "1"]) == 2
    assert "each must be at most 16777216" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_an_overflowing_xi(tmp_path, capsys, monkeypatch):
    # sqrt(16) * -1e308 is -inf: the command ended in an OverflowError traceback
    monkeypatch.setattr(httq.cli, "simulate", lambda *a, **k: pytest.fail("simulated"))
    spec = write_spec(tmp_path, "simulate.json",
                      {"command": "simulate", "config": mmn_dict(xi=-1e308)})
    out = tmp_path / "runs"
    assert main(["simulate", spec, "--out", str(out), "--workers", "1"]) == 2
    assert "sqrt(n) * xi must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["i", "ii"])
def test_limit_refuses_a_draw_over_max_cells_before_any_stream(tmp_path, capsys, monkeypatch,
                                                                case):
    # 10**6 replications on 201 grid points: each was drawn, 3.2 GB of noise in all
    monkeypatch.setattr(httq.cli, "make_rng", lambda *a, **k: pytest.fail("built a stream"))
    spec = write_spec(tmp_path, "limit.json", {
        "command": "limit", "case": case, "xi": 0.0, "beta": -1.0, "mu": 1.0,
        "service": {"family": "exponential", "rate": 1.0} if case == "ii" else None,
        "horizon": 2.0, "grid_step": 0.01, "reps": 10**6})
    out = tmp_path / "runs"
    assert main(["limit", spec, "--out", str(out), "--workers", "1"]) == 2
    assert "a noise draw of 1000000 rows on 201 grid points exceeds 16777216 cells" in \
        capsys.readouterr().err
    assert not out.exists()


_RENEWAL_FLAGS = ["--service", "exp:rate=1", "--T", "2"]

# bad scalars of a spec, a config, a distribution or patience spec, or a flag,
# as (command, patch of the command's rerun spec or None for the flag form,
# flags, message): every one is refused, none coerced
_BAD_SPEC_VALUES = {
    "str-rate": ("renewal", {"service": {"family": "exponential", "rate": "2"}}, [],
                 "exponential rate must be a finite number, got '2'"),
    "bool-rate": ("renewal", {"service": {"family": "exponential", "rate": True}}, [],
                  "exponential rate must be a finite number, got True"),
    "nan-rate": ("renewal", {"service": {"family": "exponential", "rate": float("nan")}}, [],
                 "exponential rate must be a finite number, got nan"),
    "unknown-form-key": ("limit", {"patience": {"mode": "hazard_rate", "hazard": {
        "kind": "constant", "theta": 1, "x": 2}}}, [], "unknown keys in constant hazard: x"),
    "str-abandon": ("simulate", {"config": {**mmn_dict(), "abandon": "false"}}, [],
                    "abandon must be true or false, got 'false'"),
    "fraction-n": ("simulate", {"config": mmn_dict(n=16.7)}, [],
                   "n must be an integer, got 16.7"),
    "bool-horizon": ("simulate", {"config": mmn_dict(horizon=True)}, [],
                     "horizon must be a finite number, got True"),
    "bool-tol": ("limit", {"tol": True}, [], "limit spec tol must be a finite number, got True"),
    "nan-xi": ("limit", {"xi": float("nan")}, [], "limit spec xi must be a finite number, got nan"),
    "fraction-reps": ("limit", {"reps": 2.9}, [], "limit spec reps must be an integer, got 2.9"),
    "huge-reps": ("limit", {"reps": 10**400}, [],
                  "limit spec reps must be a finite number, got 1000"),
    "bool-replications": ("simulate", {"replications": True}, [],
                          "simulate spec replications must be a finite number, got True"),
    "fraction-seed": ("simulate", {"seed": 1.5}, [],
                      "simulate spec seed must be an integer, got 1.5"),
    "fraction-seeds": ("compare", {"seeds": 2.5}, [],
                       "compare spec seeds must be an integer, got 2.5"),
    "fraction-n-values": ("sweep", {"n_values": [16.9, "64"]}, [],
                          "n_values entry must be an integer, got 16.9"),
    "str-grid-points": ("sweep", {"grid_points": "32"}, [],
                        "grid_points must be a finite number, got '32'"),
    "str-checkpoint": ("sweep", {"checkpoints": ["5"]}, [],
                       "checkpoint must be a finite number, got '5'"),
    "fraction-threshold-n": ("sweep", {"thresholds": {"ks_max": [
        {"n": 16.5, "checkpoint": 1.5, "max": 0.5}]}}, [],
        "ks_max entry n must be an integer, got 16.5"),
    "str-decreasing": ("sweep", {"thresholds": {"decreasing": "coupling_gap"}}, [],
                       "thresholds decreasing must be a list, got 'coupling_gap'"),
    "str-y-time": ("maps", {"y": {"times": ["0", 1.0, 2.0], "values": [0.0, -1.0, 0.5]}}, [],
                   "y times entry must be a finite number, got '0'"),
    "bool-y-value": ("maps", {"y": {"times": [0.0, 1.0, 2.0], "values": [True, -1.0, 0.5]}},
                     [], "y values entry must be a finite number, got True"),
    "nan-y-value": ("maps", {"y": {"times": [0.0, 1.0, 2.0], "values": [0.0, float("nan"), 0.5]}},
                    [], "y values entry must be a finite number, got nan"),
    "number-y-values": ("maps", {"y": {"times": [0.0, 1.0, 2.0], "values": 0.5}}, [],
                        "y values must be a list of numbers, got 0.5"),
    "str-variance-rate": ("maps", {"map": "phi_n_g", "mu_n": 1.0,
                                   "y": {"brownian": {"variance_rate": "1"}}}, [],
                          "y.brownian variance_rate must be a finite number, got '1'"),
    "number-config": ("simulate", {"config": 5}, [], "config must be an object, got 5"),
    "number-threshold-entry": ("sweep", {"thresholds": {"ks_max": [5]}}, [],
                               "ks_max entry must be an object, got 5"),
    "inf-T-flag": ("renewal", None, [*_RENEWAL_FLAGS[:-1], "inf"],
                   "argument --T: value must be a finite number, got inf"),
    "negative-seed-flag": ("renewal", None, [*_RENEWAL_FLAGS, "--seed", "-3"],
                           "argument --seed: value must be >= 0, got -3"),
    "nan-grid-step-flag": ("simulate", {}, ["--grid-step", "nan"],
                           "argument --grid-step: value must be a finite number, got nan"),
    "huge-limit-horizon": ("limit", {"horizon": 1e308, "grid_step": 0.01}, [],
                           "horizon / step gives inf cells"),
    "huge-grid-points": ("sweep", {"grid_points": 2**25}, [],
                         "grid_points must be at most 16777216, got 33554432"),
    "huge-T-flag": ("renewal", None, [*_RENEWAL_FLAGS[:-1], "1e308"],
                    "horizon / step gives inf cells"),
    "repeated-n": ("sweep", {"n_values": [16, 4, 16]}, [],
                   "n values must be distinct, got [16, 4, 16]"),
    "repeated-checkpoints": ("sweep", {"checkpoints": [0.75, 0.75]}, [],
                             "checkpoints must be distinct, got [0.75, 0.75]"),
    # both compare the smallest n with the largest, so one n is refused before the compute
    "one-n-decreasing": ("sweep", {"n_values": [4],
                                   "thresholds": {"decreasing": ["coupling_gap"]}}, [],
                         "thresholds decreasing compares the smallest n with the largest; "
                         "the sweep has one n value [4]"),
    "one-n-ratio-max": ("sweep", {"n_values": [4], "thresholds": {"ratio_max": [
        {"statistic": "coupling_gap", "max": 2}]}}, ["--check"],
        "thresholds ratio_max compares the smallest n with the largest"),
    # a key the chosen map or case does not read would only move the run's hash
    "phi-M-unread-keys": ("maps", {"map": "phi_M", "service": {"family": "exponential",
                                                              "rate": 1.0},
                                   "g": {"slope": 5}, "tol": 1e-3, "g_sign": -1}, [],
                          "map phi_M does not use g, g_sign, tol"),
    "skorokhod-unread-keys": ("maps", {"tol": 5, "g_sign": 7}, [],
                              "map skorokhod_g does not use g_sign, tol"),
    "case-i-unread-tol": ("limit", {"case": "i", "xi": 0.0, "service": None, "tol": 1e-3}, [],
                          "case 'i' does not use tol"),
    # an input Y that overflows is refused before the solve, naming xi, beta and mu
    "huge-beta-case-i": ("limit", {"case": "i", "xi": 0.0, "service": None, "beta": 1e308,
                                   "horizon": 10.0}, [],
                         "the limit input Y is not finite at xi=0.0, beta=1e+308, mu=1.0"),
    "huge-negative-beta": ("limit", {"beta": -1e308, "horizon": 10.0}, [],
                           "the limit input Y is not finite at xi=-0.5, beta=-1e+308, mu=1.0"),
    "huge-xi-and-beta": ("limit", {"xi": 1e308, "beta": 1e308, "horizon": 1.0}, [],
                         "the limit input Y is not finite at xi=1e+308, beta=1e+308, mu=1.0"),
    # a case or map that is not a string is refused, not hashed
    "list-case": ("limit", {"case": []}, [], "case must be 'i' or 'ii', got []"),
    "object-case": ("limit", {"case": {}}, [], "case must be 'i' or 'ii', got {}"),
    "number-list-case": ("limit", {"case": [1.0]}, [], "case must be 'i' or 'ii', got [1.0]"),
    "list-map": ("maps", {"map": []}, [], "unknown map []"),
    "object-map": ("maps", {"map": {}}, [], "unknown map {}"),
    "number-list-map": ("maps", {"map": [1.0]}, [], "unknown map [1.0]"),
    # a renewal step is refused before it divides
    "zero-step": ("renewal", {"step": 0}, [], "step must be positive and at most 16777216 "
                                              "stability caps (1.678e+05), got 0.0"),
    "huge-step": ("renewal", {"step": 1e308}, [], "step must be positive and at most "
                                                  "16777216 stability caps (1.678e+05), got 1e+308"),
    "huge-negative-step": ("renewal", {"step": -1e308}, [], "step must be positive"),
    "zero-grid-step-flag": ("renewal", None, [*_RENEWAL_FLAGS, "--grid-step", "0"],
                            "step must be positive and at most 16777216 stability caps"),
    "huge-grid-step-flag": ("renewal", None, [*_RENEWAL_FLAGS, "--grid-step", "1e308"],
                            "step must be positive and at most 16777216 stability caps"),
    # job counts and Erlang stages are capped before any job list or cdf loop
    "huge-replications": ("simulate", {"replications": 1e308}, [],
                          "simulate spec replications exceeds the 1048576 jobs a run may queue"),
    "int64-replications": ("simulate", {"replications": 2**63}, [],
                           "simulate spec replications exceeds the 1048576 jobs"),
    "huge-compare-replications": ("compare", {"replications": 1e308}, [],
                                  "compare spec seeds x replications exceeds the 1048576 jobs"),
    "int64-seeds": ("compare", {"seeds": 2**63}, [],
                    "compare spec seeds x replications exceeds the 1048576 jobs"),
    "huge-erlang-shape": ("renewal", {"service": {"family": "erlang", "shape": 1e308,
                                                  "rate": 2.0}}, [],
                          "erlang shape must be at most 10000"),
    "int64-erlang-shape": ("renewal", {"service": {"family": "erlang", "shape": 2**63,
                                                   "rate": 2.0}}, [],
                           "erlang shape must be at most 10000"),
}


@pytest.mark.parametrize("command,patch,flags,message", _BAD_SPEC_VALUES.values(),
                         ids=list(_BAD_SPEC_VALUES))
def test_bad_spec_value_exits_2_before_any_write(tmp_path, capsys, command, patch, flags,
                                                 message):
    doc, _ = _RERUN_SPECS[command]
    spec = [] if patch is None else \
        [write_spec(tmp_path, f"{command}.json", {"command": command, **doc, **patch})]
    out = tmp_path / "runs"
    try:
        code = main([command, *spec, *flags, "--out", str(out), "--workers", "1"])
    except SystemExit as exit:  # argparse refuses a flag's value itself
        code = exit.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env,message", [("0", "HTTQ_WORKERS must be >= 1, got 0"),
                                         ("x", "HTTQ_WORKERS must be an integer, got 'x'")])
@pytest.mark.parametrize("command", ["limit", "renewal", "compare", "maps"])
def test_bad_workers_env_rejected_everywhere(tmp_path, capsys, monkeypatch, command, env,
                                             message):
    monkeypatch.setenv("HTTQ_WORKERS", env)
    doc, _ = _RERUN_SPECS[command]
    spec = write_spec(tmp_path, f"{command}.json", {"command": command, **doc})
    out = tmp_path / "runs"
    assert main([command, spec, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("simulate", ["--check"]), ("limit", ["--check"]), ("renewal", ["--check"]),
    ("maps", ["--check"]), ("compare", ["--grid-step", "0.1"]),
])
def test_flags_only_on_the_subcommands_that_read_them(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "spec.json"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# artifact writer


def test_write_csv_cell_text(tmp_path):
    meta = {"version": "0", "spec_hash": "abc", "seed": 1}
    row = ["s", 3, np.int64(-7), np.float64(0.1), 1.0 / 3.0, float("nan"),
           float("inf"), -float("inf"), -0.0, np.float64(-0.0), 1e-300]
    _write_csv(tmp_path / "a.csv", meta, [f"c{k}" for k in range(len(row))], [row])
    assert (tmp_path / "a.csv").read_text().splitlines()[2] == \
        "s,3,-7,0.1,0.3333333333333333,nan,inf,-inf,-0.0,-0.0,1e-300"
    # httq limit passes plain-float rows; they write the bytes numpy scalars do
    grid = uniform_grid(1.0, 0.125)
    X = np.random.default_rng(0).standard_normal((3, grid.size))
    X[0, 1], X[1, 2], X[2, 3] = -0.0, np.inf, np.nan
    _write_csv(tmp_path / "b.csv", meta, "tabcd", zip(grid, *X))
    _write_csv(tmp_path / "c.csv", meta, "tabcd", np.column_stack([grid, *X]).tolist())
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/spans.py patches each (module, attribute) of WRAPS at run time
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    assert spans.WRAPS
    for where, attr, *_ in spans.WRAPS:
        assert callable(getattr(spans._target(where), attr, None)), f"{where}.{attr}"


def test_main_builds_its_parser_once_and_reads_each_spec_afresh(tmp_path):
    # the second call reuses the first call's parser, and without --seed or
    # --grid-step it runs on the spec's seed and step
    httq.cli._build_parser.cache_clear()
    spec = write_spec(tmp_path, "renewal.json", {
        "command": "renewal", "service": {"family": "exponential", "rate": 1.0},
        "horizon": 2.0, "step": 0.005, "seed": 3})
    runs = []
    for flags in (["--seed", "9", "--grid-step", "0.004"], []):
        out = tmp_path / f"runs{len(runs)}"
        assert main(["renewal", spec, "--out", str(out), *flags]) == 0
        (rundir,) = run_dirs(out)
        runs.append(json.loads((rundir / "summary.json").read_text())["spec"])
    assert [(run["seed"], run["step"]) for run in runs] == [(9, 0.004), (3, 0.005)]
    info = httq.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _counting(monkeypatch, module, name: str) -> list:
    """Wrap module.name, as the benchmark's spans do; returns the list of its calls."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_limit_command_draws_every_replication_in_one_noise_call(tmp_path, monkeypatch):
    # httq limit makes one LimitModel.noise call with one row from each
    # replication's stream (seed, r, "limit"), and so fetches the factor once
    calls = _counting(monkeypatch, httq.limits.LimitModel, "noise")
    fetches = _counting(monkeypatch, httq.limits.ServiceCovariance, "cholesky")
    doc, _ = _RERUN_SPECS["limit"]
    spec = write_spec(tmp_path, "limit.json", {"command": "limit", **doc})
    assert main(["limit", spec, "--out", str(tmp_path / "runs"), "--workers", "1",
                 "--seed", "7"]) == 0
    ((_, _, rngs, reps),) = calls
    assert reps == 1 and len(fetches) == 1
    assert [(rng.bit_generator.seed_seq.entropy, rng.bit_generator.seed_seq.spawn_key)
            for rng in rngs] == [(7, (r, PURPOSES.index("limit"))) for r in range(doc["reps"])]


def test_only_maps_sums_the_kernel_gain(tmp_path, monkeypatch):
    # httq limit writes no lambda_M or contraction window, so its case-(ii)
    # solve sums no kernel gain; httq maps writes both, at the parent's values
    gains = _counting(monkeypatch, httq.maps, "_phi_m_gain")
    doc, _ = _RERUN_SPECS["limit"]
    spec = write_spec(tmp_path, "limit.json", {"command": "limit", **doc})
    assert main(["limit", spec, "--out", str(tmp_path / "limit"), "--workers", "1"]) == 0
    assert gains == []
    base = {"command": "maps", "service": {"family": "exponential", "rate": 1.0},
            **{k: _RERUN_SPECS["maps"][0][k] for k in ("y", "horizon", "grid_step")}}
    expected = {"phi_M": {"lambda_M": 7.315897127661087},
                "phi_Mg": {"lambda_M": 7.315897127661087, "lambda_g": 1.0000000000000284,
                           "delta_window": 0.09112575737922972,
                           "quadrature_defect": 0.003169822888322349}}
    for k, (variant, extra) in enumerate([("phi_M", {}), ("phi_Mg", {"g": {"slope": 1.0}})]):
        spec = write_spec(tmp_path, f"{variant}.json", {**base, "map": variant, **extra})
        out = tmp_path / variant
        assert main(["maps", spec, "--out", str(out), "--workers", "1"]) == 0
        (rundir,) = run_dirs(out)
        summary = json.loads((rundir / "solution_summary.json").read_text())
        assert summary["diagnostics"] == expected[variant]
        assert len(gains) == k + 1


@pytest.mark.parametrize("alpha,drawn,idle",
                         [(1.0, "sample_case_ii_paths", "sample_case_i_paths"),
                          (0.5, "sample_case_i_paths", "sample_case_ii_paths")])
def test_sweep_draws_through_the_traced_limit_sampler(monkeypatch, alpha, drawn, idle):
    # the benchmark times a sweep's limit draw by wrapping the sampler at its
    # httq.validation name: one call per sweep, from the sampler of the regime
    calls = {name: _counting(monkeypatch, httq.validation, name) for name in (drawn, idle)}
    config = SystemConfig.from_dict(mmn_dict(n=4, horizon=1.0, alpha=alpha, xi=0.5))
    httq.validation.convergence_sweep(config, [4], 2, seed=1, grid_points=16)
    assert len(calls[drawn]) == 1 and not calls[idle]


# ---------------------------------------------------------------------------
# process-level smoke tests


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "httq.cli", "renewal", "--service", "exp:rate=2",
         "--T", "5", "--out", str(tmp_path / "runs")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "artifacts in" in proc.stdout


_SCIPY_GUARD = """
import json, sys
import httq, httq.cli
specs, out = json.loads(sys.argv[1]), sys.argv[2]
for k, (command, doc) in enumerate(specs):
    path = f"{out}/spec{k}.json"
    with open(path, "w") as fh:
        json.dump({"command": command, **doc}, fh)
    assert httq.cli.main([command, path, "--out", f"{out}/runs{k}", "--workers", "1"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_never_imports_scipy(tmp_path):
    """httq runs on numpy and the standard library: importing it and running
    the limit, sweep (both regimes) and renewal subcommands loads no scipy
    module, in a fresh interpreter."""
    specs = [
        ("limit", {"case": "ii", "xi": -0.5, "beta": -1.0, "mu": 1.0, "patience": _LINEAR_PATIENCE,
                   "service": {"family": "erlang", "shape": 2, "rate": 2.0},
                   "horizon": 2.0, "grid_step": 0.01, "reps": 2, "seed": 5}),
        ("sweep", {"config": mmn_dict(n=4, horizon=1.5, alpha=1.0), "n_values": [4, 16],
                   "replications": 2, "seed": 3}),
        ("sweep", {"config": mmn_dict(n=4, horizon=1.5, alpha=0.5, xi=0.5),
                   "n_values": [4, 16], "replications": 2, "seed": 3}),
        ("renewal", {"service": {"family": "lognormal", "mu": -0.32, "sigma": 0.8},
                     "horizon": 2.0, "step": 0.01}),
    ]
    src = str(Path(httq.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, json.dumps(specs), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
