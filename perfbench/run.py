"""httq benchmark: drives `httq sweep` / `httq limit` in-process, one op at a time.

    python3 perfbench/run.py --workload sweep-critical --seed 1 --seconds 25 --trace 0

A run measures set-up in fresh interpreters, runs one untimed warm-up op,
then runs ops (one CLI invocation each, each with its own seed) until
`--seconds` have passed, checks every op's artifacts, and finally reruns
op 0 to confirm byte-identical artifacts.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates traced and untraced ops and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A `# run` line before it records the machine, versions and op 0's
output digest.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _use_checkout_source() -> None:
    """Import httq from this checkout's src/, never from an installed copy."""
    if not (SRC / "httq" / "__init__.py").is_file():
        raise SystemExit(f"error: no httq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import httq
    if Path(httq.__file__).resolve().parent != (SRC / "httq").resolve():
        raise SystemExit(f"error: imported httq from {httq.__file__}, not {SRC}")


def _probe(workload: str, workdir: str) -> None:
    """Set-up as a user pays it: fresh interpreter, import httq, write the spec."""
    _use_checkout_source()
    import httq.cli  # noqa: F401  (the import is what is being timed)
    WORKLOADS[workload].prepare(Path(workdir), smoke=False)
    print("ready", flush=True)


def time_setup(workload: str, probe_dir: Path) -> float:
    """Wall time of one fresh process from spawn to spec ready."""
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", workload, str(probe_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# run metadata


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "httq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas() -> list[dict]:
    """Every OpenBLAS loaded into this process, with its thread count."""
    libs = set()
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and line.rstrip().split()[-1].startswith("/")}
    found = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
        for sym in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                    "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                info["config"] = fn().decode()
                break
        found.append(info)
    return found


def run_metadata() -> dict:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# ops


def run_op(workload, spec_path: Path, seed: int, out: Path, tracer=None) -> dict:
    """One CLI invocation, timed, with its artifact checks."""
    from httq import cli
    out.mkdir()
    argv = workload.argv(spec_path, seed, out)
    problems = []
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                rc = cli.main(argv)
            else:
                idx = tracer.open("cli.main")
                try:
                    rc = cli.main(argv)
                finally:
                    tracer.close(idx)
    except Exception:
        traceback.print_exc()
        rc = None
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if rc != 0:
        problems.append(f"exit code {rc}")
    else:
        rundirs = [d for d in out.iterdir() if d.is_dir()]
        if len(rundirs) != 1:
            problems.append(f"expected one artifact directory, found {len(rundirs)}")
        else:
            try:
                problems += workload.check(rundirs[0], json.loads(spec_path.read_text()))
            except (OSError, ValueError, KeyError) as err:
                problems.append(f"artifact check raised {err!r}")
    return {"wall": wall, "cpu": cpu, "problems": problems, "out": out}


def _rundir(out: Path) -> Path:
    (rundir,) = [d for d in out.iterdir() if d.is_dir()]
    return rundir


def _identical(workload, first: Path, second: Path) -> bool:
    return all((first / name).read_bytes() == (second / name).read_bytes()
               for name in workload.artifacts)


def measure(args, workdir: Path) -> tuple[dict, dict]:
    from spans import UNMEASURED, Tracer

    workload = WORKLOADS[args.workload]
    spec_path = workload.prepare(workdir, args.smoke)

    warm = run_op(workload, spec_path, op_seed(args.seed, -1), workdir / "warmup")
    shutil.rmtree(warm["out"])
    problems = [f"warm-up: {p}" for p in warm["problems"]]

    tracer = Tracer() if args.trace else None
    # Set-up probes are spread over the timed window (and extend it), so
    # the median sees the same machine as the ops do.
    setups = []
    probes = 0 if args.trace else SETUP_PROBES
    ops = []
    t_start = time.perf_counter()
    t_end = t_start + args.seconds
    while time.perf_counter() < t_end or (args.trace and len(ops) < 2):
        due = (len(setups) + 0.5) * args.seconds / max(probes, 1)
        if len(setups) < probes and time.perf_counter() - t_start >= due:
            t0 = time.perf_counter()
            setups.append(time_setup(args.workload, workdir / f"probe{len(setups)}"))
            t_end += time.perf_counter() - t0
        i = len(ops)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install(i)
        try:
            op = run_op(workload, spec_path, op_seed(args.seed, i), workdir / f"op{i}",
                        tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        if traced:
            op["wall"] -= tracer.observe_seconds(i)
            op["problems"] += tracer.problems
            tracer.problems = []
        problems += [f"op {i}: {p}" for p in op["problems"]]
        if i > 0:
            shutil.rmtree(op["out"])
        ops.append(op)

    while len(setups) < probes:
        setups.append(time_setup(args.workload, workdir / f"probe{len(setups)}"))

    digest = None
    if ops[0]["problems"]:
        problems.append("op 0 failed, so there is no rerun to compare")
    else:
        first = _rundir(ops[0]["out"])
        digest = workload.digest(first)
        again = run_op(workload, spec_path, op_seed(args.seed, 0), workdir / "rerun")
        problems += [f"rerun of op 0: {p}" for p in again["problems"]]
        if not again["problems"] and not _identical(workload, first, _rundir(again["out"])):
            problems.append("rerun of op 0 is not byte-identical")

    failed = sum(1 for op in ops if op["problems"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "op0_digest": digest, **run_metadata(),
    }
    untraced = [op for op in ops if not op["traced"]]
    report["op_wall_s"] = [round(op["wall"], 4) for op in ops]
    report["setup_wall_s"] = [round(t, 4) for t in setups]
    if args.trace:
        traced_s = statistics.median(op["wall"] for op in ops if op["traced"])
        overhead = traced_s / statistics.median(op["wall"] for op in untraced)
        metrics = tracer.layer_metrics(overhead)
        report["layers"] = tracer.layer_table()
        report["layers_unmeasured"] = list(UNMEASURED)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s": (statistics.median(op["wall"] for op in untraced), "s"),
            "op_cpu_s": (statistics.median(op["cpu"] for op in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    report["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload, for the smoke test")
    parser.add_argument("--probe", nargs=2, metavar=("WORKLOAD", "DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        _probe(*args.probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    _use_checkout_source()

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        report, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# run " + json.dumps(report, sort_keys=True))
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
