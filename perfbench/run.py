"""Benchmark of selfnorm verify runs.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload mc_diff --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json: wall time of
one pass over the workload's specs at jobs=2 (median over the run), set-up
time of a fresh process (median of several), and the workload process's
peak RSS.  Both times are scaled to the reference machine's speed with the
calibration kernel of calibrate.py, timed in the same process next to each
measured time; the raw times are printed beside them.  --trace 1 reports the per-layer metrics from
traced passes at jobs=1.  Both check every report and print metrics by name
with their unit; the last line of standard output is one JSON object with
the result."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "selfnorm"
SETUP_PROBES = 3
DEADLINE_S = 170  # the whole run, children included, must end within 180 s
SRC_MODULES = {
    "bounds": "bounds.py",
    "processes": "processes.py",
    "montecarlo": "montecarlo.py",
    "experiments": "experiments.py",
    "cli": "cli.py",
    "applications.regression": "applications/regression.py",
    "applications.tsp": "applications/tsp.py",
    "applications.student": "applications/student.py",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(script: str, args, deadline: float) -> str:
    """Run a benchmark script in a fresh interpreter; return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{script}: no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script}: timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}")
    return lines[-1]


def src_lines() -> dict:
    """Line counts as wc -l gives them, per module and for all of src/."""
    count = lambda path: path.read_bytes().count(b"\n")
    lines = {f"{name}.src_lines": count(SRC / rel) for name, rel in SRC_MODULES.items()}
    lines["src.lines"] = sum(count(path) for path in sorted(SRC.rglob("*.py")))
    return lines


def emit(metrics_spec, values: dict, notes: dict) -> dict:
    """Print each declared metric with its unit; return the JSON metrics object."""
    out = {}
    for m in metrics_spec:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        value = values[m["name"]]
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']} = {value:.6g} {m['unit']}{note}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "__init__.py").is_file():
        raise BenchError(f"no selfnorm sources under {SRC.relative_to(ROOT)}")
    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    jobs = 1 if args.trace else 2
    print(f"workload {args.workload}, seed {args.seed}, jobs {jobs}, trace {args.trace}, "
          f"run {args.seconds} s; nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {version('numpy')}, scipy {version('scipy')}")
    print(f"  why: {why}")
    print(f"  stresses: {', '.join(workload['stresses'])}")
    print(f"  bypasses (predicted: no change): {', '.join(workload['bypasses'])}")

    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(json.loads(child("probe.py", [args.workload, args.seed], deadline)))
    result = json.loads(child("worker.py", [args.workload, args.seed, args.seconds, args.trace],
                              deadline))
    if Path(result["selfnorm_file"]).resolve().parent != SRC.resolve():
        raise BenchError(f"imported selfnorm from {result['selfnorm_file']}, not this checkout")

    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6g}  "
          f"({result['failed']} of {result['attempted']} spec runs failed a check)")
    counts = {**result["record_counts"], **src_lines()}
    if args.trace:
        values = {**result["layers"], **counts}
        notes = {"trace.wall_s": f"mean of {result['traced_passes']} traced passes"}
        metrics = emit(bench["per_layer"], values, notes)
    else:
        for name, value in counts.items():
            print(f"  {name} = {value}")
        walls, scaled = result["wall_s"], result["scaled_wall_s"]
        setup = [p["scaled_s"] for p in probes]
        values = {"wall_s": statistics.median(scaled), "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        notes = {
            "wall_s": f"median of {len(walls)} scaled passes; raw median "
                      f"{statistics.median(walls):.4g} s, min {min(walls):.4g}, max {max(walls):.4g}",
            "setup_s": f"median of {len(setup)} fresh processes, scaled; raw median "
                       f"{statistics.median(p['setup_s'] for p in probes):.4g} s",
            "peak_rss_mb": "1 process",
        }
        metrics = emit(bench["end_to_end"], values, notes)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
