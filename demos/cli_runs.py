# Driving the command-line runner from a JSON experiment file.
#
# Every run hashes its fully-resolved settings and writes artifacts under
# out/<hash>/, each file stamped with (version, hash, seed), so reruns are
# byte-identical and differently-configured runs never collide.

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

workdir = pathlib.Path(tempfile.mkdtemp(prefix="httq-demo-"))
spec = workdir / "experiment.json"
out = workdir / "runs"

spec.write_text(json.dumps({
    "command": "sweep",
    "config": {
        "n": 25, "alpha": 1.0, "mu": 1.0, "beta": -1.0,
        "arrival": {"family": "exponential", "rate": 1.0},
        "service": {"family": "exponential", "rate": 1.0},
        "patience": {"mode": "no_scaling",
                     "distribution": {"family": "exponential", "rate": 1.0}},
        "horizon": 4.0, "xi": 0.0, "abandon": True,
    },
    "n_values": [25, 100],
    "replications": 40,
    "seed": 1,
    # --check turns these into exit-code-3 gates for pipelines
    "thresholds": {"decreasing": ["coupling_gap"]},
}, indent=2))

cmd = [sys.executable, "-m", "httq.cli", "sweep", str(spec),
       "--out", str(out), "--check"]
print("$ httq", " ".join(cmd[3:]))  # installed entry point has the same surface
proc = subprocess.run(cmd, capture_output=True, text=True)
print(proc.stdout)
print("exit code:", proc.returncode)

rundir = next(d for d in out.iterdir() if d.is_dir())
print("artifacts under", rundir.name + ":")
for p in sorted(rundir.iterdir()):
    print("  ", p.name)

# every artifact opens with the same provenance line
print("\nreport.csv header:", (rundir / "report.csv").read_text().splitlines()[0])

# rerunning reproduces the files byte for byte
before = (rundir / "report.json").read_bytes()
subprocess.run(cmd, capture_output=True)
print("rerun byte-identical:", (rundir / "report.json").read_bytes() == before)
shutil.rmtree(workdir)
