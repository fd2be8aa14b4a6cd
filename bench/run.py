"""Benchmark of the sectorgraphs package; see bench/README.md.

    python3 bench/run.py --workload {mc_focus,graph_1e6,tv_bound_c6} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; it imports the package from
``src/``. With ``--trace 0`` it measures the set-up time of a fresh
interpreter, then the workload in a child process (``measure.py``), and
reports the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``
it reports the per-layer metrics from a traced run. Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Provenance, the full result and
the traced run's spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7
SETUP_CODE = (
    "import math, sectorgraphs as sg; "
    "sg.predict(sg.ModelParams(n=10**4, alpha=math.pi, "
    "r=sg.radius_for_mean_degree(10**4, math.pi, 0.1, 0.2, 1.0), v=0.1, q=0.2))"
)
# The whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _run(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package and
    making its first prediction. The median also drops the first probe of
    a fresh checkout, which fills the bytecode cache once."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = _run([sys.executable, "-c", SETUP_CODE], timeout=60)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "sectorgraphs" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sectorgraphs'}", file=sys.stderr)
        return 2

    declared = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds()

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{tag}-spans.json"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        cmd = [
            sys.executable, str(BENCH / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir),
        ]
        if args.trace:
            cmd += ["--spans", str(spans)]
        done = _run(cmd, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: measure.py exited with {done.returncode}", file=sys.stderr)
        return 1
    child = json.loads(lines[-1])
    metrics.update(child["metrics"])

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(
            "error: metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 1

    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    prov = dict(
        child["provenance"],
        git_commit=git_commit(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=platform.machine(),
    )
    (OUT / f"{tag}.json").write_text(json.dumps(dict(result, provenance=prov), indent=2) + "\n")
    for name in units:
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    print("provenance:", json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
