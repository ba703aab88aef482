"""Command-line experiment runner.

Six subcommands mirror the library layers:

    httq simulate exp.json            event replications + scaled paths
    httq limit limit.json             limit-equation solves from sampled noise
    httq renewal --service exp:rate=1 --T 10
    httq sweep sweep.json --check     n-sweep with trend/KS thresholds
    httq compare cmp.json --check     CRN queue-domination check
    httq maps maps.json               one regulator-mapping solve

Experiment files are JSON objects; unknown keys anywhere are errors, and so
is a key the chosen map or limit case does not read.  A "command" key, when
present, must match the subcommand.  Spec and flag scalars are checked,
never coerced: a number is finite and not a bool or a string, a count is a
number with an integral value (40.0 passes as 40), at least 1, or 0 for a
seed, and a null key reads as absent.  A command's resolved spec, which every
summary but sweep's records, holds each setting in the form it was checked
and run with; its 12-hex hash names the run directory <out>/<hash>/, however
the file spells the settings (1 or 1.0, a null or an absent key).  Every file
starts with a (version, spec-hash, seed) header and a schema.json documents
the CSV columns, so a rerun is byte-identical and diff-able.  The run
directory is made only once the artifacts are ready, so a rejected spec
leaves nothing behind.  Exit codes: 0 success, 2 validation failure, 3
threshold failure under --check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import DistributionSpec, check_count, check_keys, check_number
from .limits import LimitModel, _check_rows, sample_brownian
from .maps import solve_phi_M, solve_phi_Mg, solve_phi_n_g, solve_skorokhod_g
from .paths import CadlagPath, uniform_grid
from .patience import PatienceSpec
from .renewal import compute_renewal_function
from .scaling import scale, scaled_primitives
from .simulator import KIND_NAMES, OUTCOME_ABANDONED, OUTCOME_IN_SERVICE, \
    OUTCOME_SERVED, OUTCOME_WAITING, SystemConfig, simulate, spec_hash
from .streams import make_rng
from .validation import GAP_NAMES, check_sweep_sizes, compare_abandonment, \
    convergence_sweep, resolve_checkpoints, run_jobs, verdict_names

# The span name perfbench/spans.py wraps for the limit-noise draw; the CLI
# calls LimitModel.noise itself.
sample_noise = LimitModel.noise

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3
# The most replications one simulate or compare run may queue: its job list is
# built whole, about 100 bytes a job, before the first job runs.
MAX_JOBS = 2**20


class CliError(Exception):
    """Invalid experiment spec or flags; maps to exit code 2."""


# ---------------------------------------------------------------------------
# spec plumbing


def _load_doc(path: str) -> dict:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except FileNotFoundError:
        raise CliError(f"experiment file not found: {path}")
    except json.JSONDecodeError as err:
        raise CliError(f"experiment file {path} is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise CliError(f"experiment file {path} must hold a JSON object")
    return doc


def _read_spec(args, command: str, keys) -> tuple[dict, int]:
    """The experiment file's object, once its command and keys check out, and
    the run's seed: --seed, else the file's, else 0.  "command" and "seed"
    are allowed in every spec."""
    doc = _load_doc(args.spec)
    if "command" in doc and doc["command"] != command:
        raise CliError(
            f"experiment file says command={doc['command']!r}, invoked as {command!r}"
        )
    check_keys(doc, {"command", "seed", *keys}, f"{command} spec")
    seed = args.seed if args.seed is not None else \
        _value(doc, "seed", f"{command} spec", _seed_count, 0)
    return doc, seed


_REQUIRED = object()
_seed_count = functools.partial(check_count, minimum=0)


def _value(doc: dict, key: str, where: str, rule=None, default=_REQUIRED):
    """doc[key] under `rule`, a check_* function called with the value and its
    name; an absent or null key takes `default`, and is an error without one."""
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise CliError(f"{where} is missing required key {key!r}")
        return default
    return value if rule is None else rule(value, f"{where} {key}")


def _refuse_unread(doc: dict, reads, what: str) -> None:
    """Refuse a non-null key of the spec that `what` does not read."""
    unread = sorted(k for k, v in doc.items()
                    if v is not None and k not in {"command", "seed", *reads})
    if unread:
        raise CliError(f"{what} does not use {', '.join(unread)}")


def _flag(parse, rule):
    """The argparse type of a flag: its text parsed, then under `rule`."""
    def read(text: str):
        try:
            return rule(parse(text), "value")
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err))
    return read


def _grid_step(args, doc: dict, default, key: str = "grid_step"):
    """--grid-step, else the file's grid step under `key`, else `default`."""
    if args.grid_step is not None:
        return args.grid_step
    return _value(doc, key, f"{args.command} spec", check_number, default)


def _lattice(args, doc: dict, T: float, service_where: str | None):
    """(grid step, grid, service law, renewal table) of a limit or map solve on
    [0, T]: the step is --grid-step, else the spec's, else T/512; the law and
    its table on that step are read where `service_where` names a reader."""
    grid_step = _grid_step(args, doc, T / 512)
    grid = uniform_grid(T, grid_step)
    if service_where is None:
        return grid_step, grid, None, None
    law = DistributionSpec.from_dict(_value(doc, "service", service_where))
    return grid_step, grid, law, compute_renewal_function(law, T, step=grid_step)


def _check_jobs(jobs: int, what: str) -> None:
    """Refuse a run of more than MAX_JOBS jobs before its job list is built."""
    if jobs > MAX_JOBS:
        raise CliError(f"{what} exceeds the {MAX_JOBS} jobs a run may queue")


def _run_dir(args, resolved: dict) -> tuple[dict, Path]:
    """(meta, <out>/<spec hash>) of a resolved spec.  The directory is made
    here, so call this after the compute, just before the first write."""
    h = spec_hash(resolved)
    outdir = Path(args.out) / h
    outdir.mkdir(parents=True, exist_ok=True)
    return {"version": __version__, "spec_hash": h, "seed": resolved["seed"]}, outdir


def _workers(args) -> int:
    """The worker count: --workers, else HTTQ_WORKERS, else the usable cores."""
    if args.workers is not None:
        workers, source = args.workers, "--workers"
    elif (env := os.environ.get("HTTQ_WORKERS")) is not None:
        try:
            workers, source = int(env), "HTTQ_WORKERS"
        except ValueError:
            raise CliError(f"HTTQ_WORKERS must be an integer, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    else:
        return os.cpu_count() or 1
    return check_count(workers, source)


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, meta: dict, columns, rows) -> None:
    """Rows of str, int and float cells; `str` of a float, numpy's too, is its repr."""
    with open(path, "w") as fh:
        fh.write(f"# httq v{meta['version']} spec={meta['spec_hash']} seed={meta['seed']}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _write_json(path: Path, meta: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_schema(outdir: Path, meta: dict, files: dict) -> None:
    _write_json(outdir / "schema.json", meta, {"files": files})


# ---------------------------------------------------------------------------
# flag-form distribution specs, e.g. exp:rate=1, erlang:shape=2,rate=2


_DIST_ALIASES = {"exp": "exponential", "det": "deterministic", "logn": "lognormal"}


def _parse_dist_flag(text: str) -> DistributionSpec:
    family, _, params = text.partition(":")
    family = _DIST_ALIASES.get(family, family)
    kv: dict = {"family": family}
    if params:
        for part in params.split(","):
            key, eq, val = part.partition("=")
            if not eq:
                raise CliError(f"bad distribution parameter {part!r} in {text!r}")
            try:
                kv[key] = float(val)
            except ValueError:
                raise CliError(f"distribution parameter {key} must be a number, got {val!r}")
    return DistributionSpec.from_dict(kv)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    doc, seed = _read_spec(args, "simulate", {"config", "replications", "grid_step"})
    config = SystemConfig.from_dict(_value(doc, "config", "simulate spec"))
    reps = _value(doc, "replications", "simulate spec", check_count, 1)
    _check_jobs(reps, "simulate spec replications")
    T = config.horizon
    grid_step = _grid_step(args, doc, T / 200)
    grid = uniform_grid(T, grid_step)

    resolved = {"command": "simulate", "config": config.to_dict(),
                "replications": reps, "seed": seed, "grid_step": grid_step}
    records = run_jobs(simulate, [(config, seed, r) for r in range(reps)], args.workers)
    meta, outdir = _run_dir(args, resolved)
    per_rep = []
    for r, record in enumerate(records):
        bundle = scale(record, grid=grid)
        E, S, G_hat = scaled_primitives(record, bundle)
        _write_csv(
            outdir / f"events_r{r}.csv", meta, ("time", "kind", "customer"),
            ((t, KIND_NAMES[int(k)], int(c)) for t, k, c in
             zip(record.event_times, record.event_kinds, record.event_ids)),
        )
        _write_csv(
            outdir / f"scaled_r{r}.csv", meta,
            ("t", "X", "Q", "E", "S", "G", "G_hat", "omega"),
            zip(grid, bundle.X.sampled(grid), bundle.Q.sampled(grid),
                E.sampled(grid), S.sampled(grid),
                bundle.G.sampled(grid), G_hat.sampled(grid), bundle.omega),
        )
        out = record.outcomes
        per_rep.append({
            "replication": r,
            "customers": int(record.customers),
            "served": int(np.count_nonzero(out == OUTCOME_SERVED)),
            "abandoned": int(np.count_nonzero(out == OUTCOME_ABANDONED)),
            "waiting_at_horizon": int(np.count_nonzero(out == OUTCOME_WAITING)),
            "in_service_at_horizon": int(np.count_nonzero(out == OUTCOME_IN_SERVICE)),
            "balance_gap": float(record.balance_gap()),
            "final_head_count": int(record.X(T)),
        })
    _write_json(outdir / "summary.json", meta,
                {"spec": resolved, "per_replication": per_rep})
    _write_schema(outdir, meta, {
        "events_r<k>.csv": {
            "time": "event epoch",
            "kind": "arrival | service-start | service-end | abandonment",
            "customer": "FCFS customer id",
        },
        "scaled_r<k>.csv": {
            "t": "grid time",
            "X": "(head count - servers)/sqrt(n)",
            "Q": "positive part of X",
            "E": "centered scaled arrivals",
            "S": "centered scaled service completions",
            "G": "abandonments/sqrt(n)",
            "G_hat": "G minus the abandonment compensator",
            "omega": "sqrt(n) * virtual wait",
        },
    })
    print(f"simulate: {reps} replication(s), artifacts in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# limit


# the spec keys each limit case reads
_CASE_I_KEYS = {"case", "xi", "beta", "mu", "ca2", "patience", "horizon", "grid_step", "reps"}
_CASE_KEYS = {"i": _CASE_I_KEYS, "ii": _CASE_I_KEYS | {"service", "tol"}}


def _cmd_limit(args) -> int:
    doc, seed = _read_spec(args, "limit", _CASE_KEYS["ii"])
    where = "limit spec"
    case = _value(doc, "case", where)
    if not isinstance(case, str) or case not in _CASE_KEYS:
        raise CliError(f"case must be 'i' or 'ii', got {case!r}")
    _refuse_unread(doc, _CASE_KEYS[case], f"case {case!r}")
    xi, beta, mu, T = (_value(doc, k, where, check_number) for k in ("xi", "beta", "mu", "horizon"))
    ca2 = _value(doc, "ca2", where, check_number, 1.0)
    reps = _value(doc, "reps", where, check_count, 1)
    tol = _value(doc, "tol", where, check_number, 1e-10)
    patience = doc.get("patience")
    patience = None if patience is None else PatienceSpec.from_dict(patience)
    grid_step, grid, law, table = _lattice(
        args, doc, T, "limit spec (case 'ii')" if case == "ii" else None)
    f = None if patience is None else patience.limit_function()
    model = LimitModel(case, mu, ca2, xi, beta, f, table, tol)

    resolved = {"command": "limit", "case": case, "xi": xi, "beta": beta, "mu": mu,
                "ca2": ca2, "patience": None if patience is None else patience.to_dict(),
                "service": None if law is None else law.to_dict(),
                "horizon": T, "grid_step": grid_step, "reps": reps,
                "seed": seed, "tol": tol}
    _check_rows(reps, grid)  # noise checks it too, but only after the reps streams are built
    E, S, jitter = model.noise(grid, [make_rng(seed, r, "limit") for r in range(reps)], 1)
    X, _, diag = model.solve(model.drive(E, S, grid), grid, defects=True)
    meta, outdir = _run_dir(args, resolved)
    closure = diag.get("closure")
    summary = [{"replication": r, "residual": float(diag["residual"][r]),
                "closure": None if closure is None else float(closure[r]),
                "jitter": float(jitter)} for r in range(reps)]
    _write_csv(outdir / "limit.csv", meta, ("t", *(f"x_r{r}" for r in range(reps))),
               np.column_stack([grid, *X]).tolist())
    _write_json(outdir / "limit_summary.json", meta,
                {"spec": resolved, "per_replication": summary})
    _write_schema(outdir, meta, {
        "limit.csv": {
            "t": "grid time",
            "x_r<k>": "solved limit path for replication k",
        },
        "limit_summary.json": {
            "per_replication[].residual": "sup defect of the discrete limit equation",
            "per_replication[].closure": "phi_Mg closure, below tol (null in case i)",
            "per_replication[].jitter": "diagonal shift of the service-noise Cholesky factor",
        },
    })
    print(f"limit case ({case}): {reps} solve(s), artifacts in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# renewal


def _cmd_renewal(args) -> int:
    if args.spec is not None and args.service is not None:
        raise CliError("give either an experiment file or --service/--T, not both")
    if args.spec is not None:
        doc, seed = _read_spec(args, "renewal", {"service", "horizon", "step"})
        service = DistributionSpec.from_dict(_value(doc, "service", "renewal spec"))
        T = _value(doc, "horizon", "renewal spec", check_number)
    elif args.service is not None:
        if args.T is None:
            raise CliError("--service needs --T as well")
        doc, seed = {}, args.seed if args.seed is not None else 0
        service = _parse_dist_flag(args.service)
        T = args.T
    else:
        raise CliError("renewal needs an experiment file or --service/--T")
    table = compute_renewal_function(service, T, step=_grid_step(args, doc, None, "step"))
    resolved = {"command": "renewal", "service": service.to_dict(), "horizon": T,
                "step": table.step, "seed": seed}
    meta, outdir = _run_dir(args, resolved)
    _write_csv(outdir / "renewal.csv", meta, ("t", "M"),
               zip(table.times, table.values))
    _write_json(outdir / "summary.json", meta, {
        "spec": resolved,
        "rate": float(table.rate()),
        "method": table.method,
        "step": float(table.step),
        "points": int(table.times.size),
        "M_at_horizon": float(table.values[-1]),
    })
    _write_schema(outdir, meta, {
        "renewal.csv": {"t": "lattice time", "M": "expected renewal count by t"},
    })
    print(f"renewal: M computed on [0, {T}] with step {table.step}, artifacts in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _check_thresholds(thr: dict, n_values, checkpoints) -> dict:
    """The checked thresholds document, null and empty lists dropped: names, {n,
    checkpoint, max} and {statistic, max} under its three keys; refuses an
    entry naming a statistic, n or checkpoint not swept, and a decreasing or
    ratio_max entry, which compares the smallest n with the largest, on one n."""
    check_keys(thr, {"decreasing", "ks_max", "ratio_max"}, "thresholds")
    known = verdict_names(checkpoints)
    checked = {}
    for key, entries in thr.items():
        if entries is not None and not isinstance(entries, list):
            raise CliError(f"thresholds {key} must be a list, got {entries!r}")
        if entries and key != "ks_max" and len(n_values) < 2:
            raise CliError(f"thresholds {key} compares the smallest n with the largest; "
                           f"the sweep has one n value {list(n_values)}")
        for item in entries or []:
            if key == "decreasing" and item not in known:
                raise CliError(f"thresholds reference unknown statistic {item!r}; "
                               f"known: {sorted(known)}")
            elif key == "ks_max":
                check_keys(item, {"n", "checkpoint", "max"}, "ks_max entry")
                n = _value(item, "n", "ks_max entry", check_count)
                t = _value(item, "checkpoint", "ks_max entry", check_number)
                if n not in n_values:
                    raise CliError(f"ks_max references n={n} not in the sweep {list(n_values)}")
                if not any(math.isclose(c, t) for c in checkpoints):
                    raise CliError(f"ks_max references checkpoint {t} not in {list(checkpoints)}")
                item = {"n": n, "checkpoint": t,
                        "max": _value(item, "max", "ks_max entry", check_number)}
            elif key == "ratio_max":
                check_keys(item, {"statistic", "max"}, "ratio_max entry")
                item = {"max": _value(item, "max", "ratio_max entry", check_number),
                        "statistic": _value(item, "statistic", "ratio_max entry")}
                if item["statistic"] not in GAP_NAMES:
                    raise CliError(
                        f"ratio_max references unknown statistic {item['statistic']!r}")
            checked.setdefault(key, []).append(item)
    return checked


def _eval_thresholds(report, checked: dict) -> list[str]:
    """Threshold failures of a sweep, from the document `_check_thresholds` returned."""
    failures = []
    for name in checked.get("decreasing", []):
        verdict = report.verdicts[name]
        if verdict != "decreasing":
            failures.append(f"{name}: verdict {verdict!r}, required decreasing")
    for item in checked.get("ks_max", []):
        n, t, mx = item["n"], item["checkpoint"], item["max"]
        value = next(v for tk, v in report.ks[n].items() if math.isclose(tk, t))
        if value > mx:
            failures.append(f"ks@{t:g} at n={n}: {value:.4f} > {mx}")
    for item in checked.get("ratio_max", []):
        name, mx = item["statistic"], item["max"]
        n_lo, n_hi = min(report.n_values), max(report.n_values)
        lo = report.summaries[name][n_lo]["median"]
        hi = report.summaries[name][n_hi]["median"]
        if hi > mx * lo:
            failures.append(
                f"{name}: median {hi:.4g} at n={n_hi} exceeds {mx} x {lo:.4g} at n={n_lo}")
    return failures


def _report_rows(report):
    """report.csv rows: one per (n, gap statistic, replication), then one per
    KS checkpoint with an empty replication cell, as KS aggregates over them."""
    for n in report.n_values:
        for name in GAP_NAMES:
            for r, v in enumerate(report.gaps[name][n]):
                yield n, name, r, v
        for t, v in report.ks[n].items():
            yield n, f"ks@{t:g}", "", v


def _cmd_sweep(args) -> int:
    doc, seed = _read_spec(args, "sweep", {"config", "n_values", "replications",
                                           "checkpoints", "grid_points", "thresholds"})
    where = "sweep spec"
    config = SystemConfig.from_dict(_value(doc, "config", where))
    n_values, reps, grid_points = check_sweep_sizes(
        _value(doc, "n_values", where), _value(doc, "replications", where),
        _value(doc, "grid_points", where, default=256))
    if args.grid_step is not None:
        grid_points = uniform_grid(config.horizon, args.grid_step).size - 1
    times = resolve_checkpoints(doc.get("checkpoints"), config.horizon)
    checkpoints = None if doc.get("checkpoints") is None else list(times)
    thresholds = _check_thresholds(_value(doc, "thresholds", where, default={}),
                                   n_values, times)

    resolved = {"command": "sweep", "config": config.to_dict(), "n_values": list(n_values),
                "replications": reps, "seed": seed, "checkpoints": checkpoints,
                "grid_points": grid_points, "thresholds": thresholds}
    report = convergence_sweep(config, n_values, reps, checkpoints=checkpoints,
                               seed=seed, grid_points=grid_points, workers=args.workers)
    meta, outdir = _run_dir(args, resolved)
    _write_json(outdir / "report.json", meta, report.as_dict())
    _write_csv(outdir / "report.csv", meta, ("n", "statistic", "replication", "value"),
               _report_rows(report))
    _write_schema(outdir, meta, {
        "report.csv": {
            "n": "system size",
            "statistic": "coupling_gap | little_gap | neg_part_sup | ks@<t>",
            "replication": "replication id (empty for KS aggregates)",
            "value": "statistic value",
        },
    })
    for name, verdict in sorted(report.verdicts.items()):
        print(f"sweep: {name}: {verdict}")
    failures = _eval_thresholds(report, thresholds)
    if args.check:
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            print(f"artifacts in {outdir}")
            return EXIT_THRESHOLD
        print(f"check passed ({sum(map(len, thresholds.values()))} threshold(s)), "
              f"artifacts in {outdir}")
        return EXIT_OK
    print(f"artifacts in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _cmd_compare(args) -> int:
    doc, base_seed = _read_spec(args, "compare", {"config", "seeds", "replications"})
    where = "compare spec"
    config = SystemConfig.from_dict(_value(doc, "config", where))
    n_seeds = _value(doc, "seeds", where, check_count, 1)
    reps = _value(doc, "replications", where, check_count, 1)
    _check_jobs(n_seeds * reps, "compare spec seeds x replications")

    resolved = {"command": "compare", "config": config.to_dict(), "seed": base_seed,
                "seeds": n_seeds, "replications": reps}
    jobs = [(config, s, r) for s in range(base_seed, base_seed + n_seeds) for r in range(reps)]
    verdicts = []
    for (_, s, r), v in zip(jobs, run_jobs(compare_abandonment, jobs, args.workers)):
        entry = {"seed": s, "replication": r, "holds": v.holds,
                 "max_queue_excess": float(v.max_queue_excess),
                 "n_checked": int(v.n_checked)}
        if not v.holds:
            entry["first_violation"] = list(v.first_violation)
            entry["detail"] = v.detail
        verdicts.append(entry)
    all_hold = all(v["holds"] for v in verdicts)
    meta, outdir = _run_dir(args, resolved)
    _write_json(outdir / "compare.json", meta,
                {"spec": resolved, "all_hold": all_hold, "verdicts": verdicts})
    print(f"compare: {len(verdicts)} CRN run(s), "
          f"{'no violations' if all_hold else 'VIOLATIONS FOUND'}, artifacts in {outdir}")
    if not all_hold:
        for v in verdicts:
            if not v["holds"]:
                print(v["detail"], file=sys.stderr)
        if args.check:
            return EXIT_THRESHOLD
    return EXIT_OK


# ---------------------------------------------------------------------------
# maps


# the spec keys each map reads
_MAP_BASE_KEYS = {"map", "y", "horizon", "grid_step"}
_MAP_KEYS = {"phi_n_g": _MAP_BASE_KEYS | {"g", "mu_n"},
             "skorokhod_g": _MAP_BASE_KEYS | {"g"},
             "phi_M": _MAP_BASE_KEYS | {"service"},
             "phi_Mg": _MAP_BASE_KEYS | {"g", "service", "tol", "g_sign"}}


def _check_y(y_doc) -> dict:
    """The checked input path: a Brownian variance rate, or float times and
    values with their interpolation kind, "linear" when absent."""
    if isinstance(y_doc, dict) and "brownian" in y_doc:
        check_keys(y_doc, {"brownian"}, "y")
        b = y_doc["brownian"]
        check_keys(b, {"variance_rate"}, "y.brownian")
        return {"brownian": {"variance_rate": _value(b, "variance_rate", "y.brownian",
                                                     check_number)}}
    check_keys(y_doc, {"times", "values", "kind"}, "y")
    y = {"kind": _value(y_doc, "kind", "y", default="linear")}
    for key in ("times", "values"):
        entries = _value(y_doc, key, "y")
        if not isinstance(entries, list):
            raise CliError(f"y {key} must be a list of numbers, got {entries!r}")
        y[key] = [check_number(v, f"y {key} entry") for v in entries]
    return y


def _cmd_maps(args) -> int:
    doc, seed = _read_spec(args, "maps", set().union(*_MAP_KEYS.values()))
    where = "maps spec"
    variant = _value(doc, "map", where)
    if not isinstance(variant, str) or variant not in _MAP_KEYS:
        raise CliError(f"unknown map {variant!r}; known: {', '.join(_MAP_KEYS)}")
    _refuse_unread(doc, _MAP_KEYS[variant], f"map {variant}")
    T = _value(doc, "horizon", where, check_number)
    tol = _value(doc, "tol", where, check_number, 1e-10)
    g_sign = _value(doc, "g_sign", where, check_number, 1.0)
    mu_n = _value(doc, "mu_n", where, check_number) if "mu_n" in _MAP_KEYS[variant] else None
    y_doc = _check_y(_value(doc, "y", where))
    g_doc = doc.get("g")
    if g_doc is not None:
        check_keys(g_doc, {"slope"}, "g")
        g_doc = {"slope": _value(g_doc, "slope", "g", check_number)}
    grid_step, grid, law, table = _lattice(
        args, doc, T, f"maps spec (renewal table of map {variant})"
        if "service" in _MAP_KEYS[variant] else None)

    resolved = {"command": "maps", "map": variant, "y": y_doc, "g": g_doc, "mu_n": mu_n,
                "service": None if law is None else law.to_dict(),
                "horizon": T, "grid_step": grid_step, "tol": tol, "g_sign": g_sign,
                "seed": seed}
    if "brownian" in y_doc:
        rng = make_rng(seed, purpose="scratch")
        y = sample_brownian(y_doc["brownian"]["variance_rate"], grid, rng)
    else:
        y = CadlagPath(np.array(y_doc["times"]), np.array(y_doc["values"]), y_doc["kind"], T)
    g = None if g_doc is None else lambda x: g_doc["slope"] * np.asarray(x, dtype=float)
    if variant == "phi_n_g":
        sol = solve_phi_n_g(y, g, mu_n, grid)
    elif variant == "skorokhod_g":
        sol = solve_skorokhod_g(y, g, grid)
    elif variant == "phi_M":
        sol = solve_phi_M(y, table, grid)
    else:
        sol = solve_phi_Mg(y, table, g, grid, tol=tol, g_sign=g_sign)
    meta, outdir = _run_dir(args, resolved)
    columns = {"t": sol.grid, "x": sol.x.sampled(sol.grid)}
    if sol.ell is not None:
        columns["ell"] = sol.ell.sampled(sol.grid)
    _write_csv(outdir / "solution.csv", meta, columns, zip(*columns.values()))
    _write_json(outdir / "solution_summary.json", meta, {
        "spec": resolved,
        "variant": sol.variant,
        "residual": float(sol.residual),
        "iterations": None if sol.iterations is None else int(sol.iterations),
        "diagnostics": {k: float(v) for k, v in sol.diagnostics.items()
                        if np.isscalar(v)},
    })
    described = {"t": "grid time", "x": "constrained path",
                 "ell": "regulator (only for maps that produce one)"}
    _write_schema(outdir, meta, {"solution.csv": {c: described[c] for c in columns}})
    print(f"maps: {variant} solved, residual {sol.residual:.3e}, artifacts in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built at the first main call, then reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="httq",
        description="Many-server queues with abandonment: simulation, scalings, "
                    "limit processes, and convergence experiments.",
    )
    parser.add_argument("--version", action="version", version=f"httq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        if name == "renewal":
            p.add_argument("spec", nargs="?", default=None,
                           help="experiment JSON file (or use flags)")
        else:
            p.add_argument("spec", help="experiment JSON file")
        p.add_argument("--seed", type=_flag(int, _seed_count), default=None,
                       help="override the spec seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: HTTQ_WORKERS or all cores)")
        p.add_argument("--out", default="runs", help="output root (default: runs)")
        if name in ("sweep", "compare"):
            p.add_argument("--check", action="store_true",
                           help="exit 3 when thresholds or domination checks fail")
        if name != "compare":
            p.add_argument("--grid-step", type=_flag(float, check_number), default=None,
                           help="override the sampling/solver grid step")
        return p

    add("simulate", "run event-exact replications and emit scaled paths")
    add("limit", "solve the limit equation on sampled noise")
    renewal = add("renewal", "tabulate a renewal function")
    renewal.add_argument("--service", default=None,
                         help="service law, e.g. exp:rate=1 or erlang:shape=2,rate=2")
    renewal.add_argument("--T", type=_flag(float, check_number), default=None, help="horizon")
    add("sweep", "n-sweep of gap statistics and KS marginals")
    add("compare", "CRN comparison against the no-abandonment benchmark")
    add("maps", "solve one regulator mapping")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "limit": _cmd_limit,
    "renewal": _cmd_renewal,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "maps": _cmd_maps,
}


# thread-count entry points of numpy's (64-bit index) and scipy's OpenBLAS
# builds, and of a plain OpenBLAS with and without the 64-bit suffix
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_thread_controls() -> list[tuple]:
    """(set, get) thread-count functions of each OpenBLAS loaded in this process;
    none where /proc/self/maps is unreadable or a library lacks them."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({path for path in (line.split()[-1] for line in fh)
                            if path.startswith("/") and "openblas" in path.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for name in _OPENBLAS_THREADS:
            setter, getter = (getattr(lib, name.format(op), None) for op in ("set", "get"))
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@functools.lru_cache(maxsize=1)
def _scanned_thread_controls(modules: int) -> list[tuple]:
    """`_openblas_thread_controls()`, scanned again only when the count of
    imported modules changes, as it does when an import loads a library."""
    return _openblas_thread_controls()


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the body with each loaded OpenBLAS on `count` threads, then restore
    each library's own count, also when the body raises."""
    controls = _scanned_thread_controls(len(sys.modules))
    saved = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(count)
    try:
        yield
    finally:
        for (set_threads, _), n in zip(controls, saved):
            set_threads(n)


def main(argv=None) -> int:
    """Run one subcommand with each loaded OpenBLAS on one thread; returns the
    exit code.  An idle OpenBLAS helper would spin on a second core through the
    solvers' Python-bound loops; a command's parallelism is --workers processes."""
    args = _build_parser().parse_args(argv)
    try:
        args.workers = _workers(args)
        with _blas_threads(1):
            return _COMMANDS[args.command](args)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
