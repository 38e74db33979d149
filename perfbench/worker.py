"""One workload, run closed-loop in this process; prints one JSON result line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Each pass sends the workload's specs one at a time through the public API,
load_spec -> run_experiment -> render_report, and starts the next spec only
after the previous report is rendered.  The first pass's report bytes are the
reference every later pass must match.

TRACE 0: timed passes at jobs=2 with tracing off, for SECONDS.
TRACE 1: an untimed pass at jobs=2, then alternating untraced and traced
passes at jobs=1 for SECONDS.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from selfnorm import experiments  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import ORACLE_DIGESTS, build_specs, expected_records  # noqa: E402

JOBS = 2  # equals nproc on the reference machine
TRACE_JOBS = 1
TSP_NOTE = re.compile(r"d_sign \+(\d+)/-(\d+)/\?(\d+); recon_pass=([0-9.]+)")


def run_pass(specs, jobs):
    """Run every spec once; returns (wall seconds, [(spec, records, text) or exception])."""
    outputs = []
    start = time.perf_counter()
    for raw in specs:
        try:
            spec = experiments.load_spec(raw)
            records = experiments.run_experiment(spec, jobs=jobs)
            text = experiments.render_report(records, "json", spec=spec)
        except Exception as exc:  # a spec that raises is a counted failure
            traceback.print_exc()
            outputs.append(exc)
            continue
        outputs.append((spec, records, text))
    return time.perf_counter() - start, outputs


def oracle_digest(spec, records) -> str:
    """sha256 of the report as rendered with master_seed 0."""
    spec0 = dataclasses.replace(spec, master_seed=0)
    records0 = [dataclasses.replace(rec, seed=0) for rec in records]
    text = experiments.render_report(records0, "json", spec=spec0)
    return hashlib.sha256(text.encode()).hexdigest()


def check_spec(raw, spec, records, text, reference) -> list[str]:
    """Problems found in one spec's output; empty when it is correct."""
    problems = []
    sid = raw["id"]
    if reference is not None and text != reference:
        problems.append(f"{sid}: report bytes differ from the jobs={JOBS} warm-up pass")
    if len(records) != expected_records(raw):
        problems.append(f"{sid}: {len(records)} records, grid has {expected_records(raw)}")
    for rec in records:
        where = f"{sid} {dict(rec.grid)}"
        if rec.status == "violation_evidence":
            problems.append(f"{where}: violation_evidence")
        if rec.p_hat is not None:
            if not 0.0 <= rec.ci_lo <= rec.p_hat <= rec.ci_hi <= 1.0:
                problems.append(f"{where}: interval {rec.ci_lo}, {rec.p_hat}, {rec.ci_hi}")
            if rec.n_rep != raw["n_rep"] or rec.p_hat != rec.hits / rec.n_rep:
                problems.append(f"{where}: p_hat {rec.p_hat} != {rec.hits}/{rec.n_rep}")
        if rec.exact is not None and not 0.0 <= rec.exact <= 1.0:
            problems.append(f"{where}: exact {rec.exact} outside [0, 1]")
        if raw["theorem"] == "thm34_tsp":
            match = TSP_NOTE.search(rec.note)
            if match is None:
                problems.append(f"{where}: TSP note lacks sign counts: {rec.note!r}")
                continue
            signs = sum(int(match.group(i)) for i in (1, 2, 3))
            if signs != raw["n"] * raw["n_rep"]:
                problems.append(f"{where}: sign counts total {signs}, not n x instances")
            if float(match.group(4)) < 0.95:
                problems.append(f"{where}: recon_pass {match.group(4)} < 0.95")
    if sid in ORACLE_DIGESTS:
        digest = oracle_digest(spec, records)
        if digest != ORACLE_DIGESTS[sid]:
            problems.append(f"{sid}: report digest {digest} != stored")
    return problems


class Tally:
    """Spec runs attempted and failed, and the problems found."""

    def __init__(self, specs):
        self.specs = specs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = [None] * len(specs)

    def check(self, outputs):
        for i, (raw, out) in enumerate(zip(self.specs, outputs)):
            self.attempted += 1
            if isinstance(out, Exception):
                found = [f"{raw['id']}: raised {type(out).__name__}: {out}"]
            else:
                spec, records, text = out
                found = check_spec(raw, spec, records, text, self.reference[i])
                if self.reference[i] is None:
                    self.reference[i] = text
            if found:
                self.failed += 1
                self.problems.extend(found)


def record_counts(outputs) -> dict:
    """Records split into informative, zero-hit and vacuous (a partition)."""
    counts = dict.fromkeys(
        ("experiments.records", "experiments.informative", "experiments.zero_hit",
         "experiments.vacuous"), 0)
    for out in outputs:
        if isinstance(out, Exception):
            continue
        for rec in out[1]:
            counts["experiments.records"] += 1
            mass = rec.hits if rec.hits is not None else rec.exact
            if rec.bound >= 1.0:
                counts["experiments.vacuous"] += 1
            elif mass:
                counts["experiments.informative"] += 1
            else:
                counts["experiments.zero_hit"] += 1
    return counts


TIME_METRICS = (
    "processes.sample_s", "processes.bracket_s", "montecarlo.event_s", "montecarlo.optimize_s",
    "montecarlo.enumerate_s", "montecarlo.cp_s", "applications.regression.batch_s",
    "applications.regression.verify_self_s", "applications.tsp.held_karp_s",
    "applications.tsp.dist_s", "applications.tsp.instance_self_s",
    "applications.tsp.verify_self_s", "bounds.eval_s", "experiments.validate_s",
    "experiments.run_self_s", "experiments.render_s",
)
COUNT_METRICS = (
    "processes.rows_sampled", "processes.bracket_calls", "montecarlo.event_calls",
    "montecarlo.objective_evals", "montecarlo.paths_enumerated", "montecarlo.cp_calls",
    "applications.regression.rows", "applications.tsp.tours", "bounds.eval_calls",
    "experiments.report_bytes",
)


def layer_metrics(tracer: tracing.Tracer, wall: float) -> dict:
    """Self time per layer, counts and wall time of one traced pass."""
    own = tracer.self_times()
    counts = tracer.counts
    metrics = {name: own.get(name, 0.0) for name in TIME_METRICS}
    metrics.update({name: float(counts[name]) for name in COUNT_METRICS})
    metrics["processes.bracket_distinct"] = float(len(tracer.bracket_keys))
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - tracer.root_time()
    return metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_untraced(specs, tally, seconds) -> dict:
    """Timed passes at jobs=2 with the calibration kernel timed between them;
    the first pass is the reference for the others."""
    walls, kernels, first = [], [calibrate.kernel_seconds()], None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] + kernels[-1] <= seconds:
        wall, outputs = run_pass(specs, JOBS)
        walls.append(wall)
        kernels.append(calibrate.kernel_seconds())
        tally.check(outputs)
        first = first or outputs
    scaled = [calibrate.to_reference(wall, kernels[i : i + 2]) for i, wall in enumerate(walls)]
    return {"wall_s": walls, "scaled_wall_s": scaled, "record_counts": record_counts(first)}


def measure_traced(specs, tally, seconds) -> dict:
    """An untimed jobs=2 reference pass, then untraced and traced passes at jobs=1."""
    _, reference = run_pass(specs, JOBS)
    tally.check(reference)
    untraced, traced, kernels = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + untraced[-1] + traced[-1]["trace.wall_s"] <= seconds):
        kernels.append(calibrate.kernel_seconds())
        wall, outputs = run_pass(specs, TRACE_JOBS)
        untraced.append(wall)
        tally.check(outputs)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            wall, outputs = run_pass(specs, TRACE_JOBS)
        traced.append(layer_metrics(tracer, wall))
        tally.check(outputs)
    # every traced pass does the same work, so its counts must repeat exactly
    for name in COUNT_METRICS:
        if len({m[name] for m in traced}) != 1:
            tally.failed += 1
            tally.problems.append(f"count {name} differs between traced passes")
    layers = {name: statistics.fmean(m[name] for m in traced) for name in traced[0]}
    layers["processes.sample_us_per_row"] = 1e6 * ratio(
        layers["processes.sample_s"], layers["processes.rows_sampled"])
    layers["processes.bracket_reuse"] = ratio(
        layers.pop("processes.bracket_distinct"), layers["processes.bracket_calls"])
    layers["applications.tsp.us_per_tour"] = 1e6 * ratio(
        layers["applications.tsp.held_karp_s"], layers["applications.tsp.tours"])
    layers["host.speed_scale"] = calibrate.to_reference(1.0, kernels)
    layers["trace_overhead_frac"] = (
        statistics.median(m["trace.wall_s"] for m in traced) / statistics.median(untraced) - 1.0)
    return {"layers": layers, "traced_passes": len(traced),
            "record_counts": record_counts(reference)}


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    specs = build_specs(workload, seed)
    tally = Tally(specs)
    measure = measure_traced if trace else measure_untraced
    result = measure(specs, tally, seconds)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        selfnorm_file=experiments.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
