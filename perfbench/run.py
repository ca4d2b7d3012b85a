#!/usr/bin/env python3
"""Benchmark of ncpolytope's three user paths: polytope, check and orbits.

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process runs whole rounds of the workload's
operations, one after another, until ``--seconds`` have passed, then
checks the outputs of the first round and that every later round
repeated them.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics.  ``setup_s`` is the median over
  several fresh processes of the time from process start to the first
  operation being ready to run.
* ``--trace 1``: the per-module metrics, from wrappers around the
  program's public functions (see ``tracer.py``).  Each is the set-up's
  share plus one round's share, so counts repeat exactly for a seed.

The same object, with the traced span totals, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import calibrate, speed_factor, window_factor
from stats import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
CALIBRATION_INTERVAL_S = 0.5

PER_LAYER = [
    # (metric, statistic, span)
    ("measurement_polytope.enumerate_vertices.s", "seconds", "measurement_polytope.enumerate_vertices"),
    ("ncsystem.build_f2.calls", "calls", "ncsystem.build_f2"),
    ("ncsystem.build_f2.s", "seconds", "ncsystem.build_f2"),
    ("ncsystem.bind_table.s", "seconds", "ncsystem.bind_table"),
    ("projection.project_to_nc_polytope.s", "seconds", "projection.project_to_nc_polytope"),
    ("projection.self_s", "seconds", "projection.self"),
    ("simplex.solve_standard.by_projection.calls", "calls", "simplex.solve_standard.by_projection"),
    ("simplex.solve_standard.by_projection.s", "seconds", "simplex.solve_standard.by_projection"),
    ("simplex.solve_standard.by_projection.cells", "cells", "simplex.solve_standard.by_projection"),
    ("simplex.minimize_over_rows.by_projection.calls", "calls", "simplex.minimize_over_rows.by_projection"),
    ("simplex.minimize_over_rows.by_projection.s", "seconds", "simplex.minimize_over_rows.by_projection"),
    ("simplex.solve_standard.by_feasibility.calls", "calls", "simplex.solve_standard.by_feasibility"),
    ("simplex.solve_standard.by_feasibility.s", "seconds", "simplex.solve_standard.by_feasibility"),
    ("simplex.solve_standard.by_feasibility.cells", "cells", "simplex.solve_standard.by_feasibility"),
    ("feasibility.check_table.s", "seconds", "feasibility.check_table"),
    ("feasibility.phase1_s", "seconds", "feasibility.phase1"),
    ("feasibility.farkas_certificate.calls", "calls", "feasibility.farkas_certificate"),
    ("feasibility.farkas_certificate.s", "seconds", "feasibility.farkas_certificate"),
    ("scenario.validate_table.s", "seconds", "scenario.validate_table"),
    ("symmetry.generate_group.s", "seconds", "symmetry.generate_group"),
    ("symmetry.classify_orbits.s", "seconds", "symmetry.classify_orbits"),
    ("symmetry.act_on_row.calls", "calls", "symmetry.act_on_row"),
    ("symmetry.act_on_row.s", "seconds", "symmetry.act_on_row"),
    ("linalg.reduce_modulo.calls", "calls", "linalg.reduce_modulo"),
    ("linalg.reduce_modulo.s", "seconds", "linalg.reduce_modulo"),
    ("linalg.row_reduce_equalities.s", "seconds", "linalg.row_reduce_equalities"),
    ("linalg.rref.s", "seconds", "linalg.rref"),
    ("documents.parse_s", "seconds", "documents.parse"),
    ("documents.emit_s", "seconds", "documents.emit"),
]

# Latency of the two kinds of check operation, from the traced run:
# (metric, verdict class, percentile).  They read 0 on the other workloads.
CHECK_LATENCIES = [
    ("check.model_p50_ms", "model", 50),
    ("check.certificate_p50_ms", "certificate", 50),
    ("check.p90_ms", None, 90),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("polytope", "check", "orbits"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the monotonic clock and exit")
    return ap.parse_args(argv)


def measure_setup(args):
    """Process start to first operation ready, in fresh processes.
    Returns the raw seconds of each probe and the calibrations made
    between them.  One more probe first warms the file cache and is not
    counted."""
    samples, calibrations = [], [calibrate()]
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]) - start)
        calibrations.append(calibrate())
    return samples[1:], calibrations


def run_rounds(workload, seconds):
    """Whole rounds until ``seconds`` have passed, calibrating between
    operations every CALIBRATION_INTERVAL_S.  Returns, per round, the raw
    seconds and the output of each operation; the calibrations; for each
    operation in run order, the index of the calibration made last before
    it; and the failure count."""
    durations, outputs, calibrations, failed = [], [], [calibrate()], 0
    op_calibration = []   # index of the calibration made last before each operation
    start = last = time.perf_counter()
    while not outputs or time.perf_counter() - start < seconds:
        round_durations, round_outputs = [], []
        for op in workload.ops:
            if time.perf_counter() - last >= CALIBRATION_INTERVAL_S:
                calibrations.append(calibrate())
                last = time.perf_counter()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = None
                failed += 1
            round_durations.append(time.perf_counter() - t0)
            round_outputs.append(out)
            op_calibration.append(len(calibrations) - 1)
        durations.append(round_durations)
        outputs.append(round_outputs)
    calibrations.append(calibrate())
    return durations, outputs, calibrations, op_calibration, failed


def per_layer_metrics(setup, final, durations, classes, speed):
    """Set-up share plus one round's share of each traced statistic, and
    the check latencies by verdict class from the scaled ``durations``.
    Traced seconds are scaled by ``speed``, the run's calibration factor."""
    rounds = len(durations)
    metrics = {}
    for name, stat, span in PER_LAYER:
        before = setup[stat].get(span, 0)
        loop = final[stat].get(span, 0) - before
        if stat == "seconds":
            value, unit = (before + loop / rounds) * speed, "s"
        else:
            if loop % rounds:
                raise RuntimeError(f"{span} {stat} differ between rounds")
            value, unit = before + loop // rounds, "count"
        metrics[name] = {"value": value, "unit": unit}
    for name, wanted, q in CHECK_LATENCIES:
        sample = [d for rnd in durations for d, cls in zip(rnd, classes)
                  if cls is not None and wanted in (None, cls)]
        metrics[name] = {"value": percentile(sample, q) * 1000 if sample else 0.0,
                         "unit": "ms"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ncpolytope" / "__init__.py").is_file():
        print(f"error: no ncpolytope sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ncpolytope
    from tracer import Tracer
    from workloads import WORKLOADS
    import checks

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        print(time.monotonic())
        return 0

    setup_samples, setup_calibrations = ([], []) if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ncpolytope)
    workload = WORKLOADS[args.workload](args.seed, tracer)
    setup_trace = tracer.snapshot() if tracer else None
    durations, outputs, calibrations, op_calibration, failed = run_rounds(workload,
                                                                         args.seconds)
    if tracer:
        tracer.remove()
    speed = speed_factor(calibrations)
    factors = iter([window_factor(calibrations, c) for c in op_calibration])
    scaled = [[d * next(factors) for d in rnd] for rnd in durations]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(workload.problems)
    check_start = time.perf_counter()
    try:
        workload.check(outputs[0])
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    except Exception:
        # a malformed output document: report it as incorrect
        traceback.print_exc(file=sys.stderr)
        problems.append("an output document could not be checked")
    check_s = time.perf_counter() - check_start
    if any(out != outputs[0] for out in outputs[1:]):
        problems.append("a later round gave other outputs than the first")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    flat = [d for rnd, outs in zip(scaled, outputs)
            for d, out in zip(rnd, outs) if out is not None]
    attempted = sum(len(rnd) for rnd in durations)
    if args.trace:
        metrics = per_layer_metrics(setup_trace, tracer.snapshot(), scaled,
                                    workload.classes(outputs[0]), speed)
    else:
        metrics = {
            "setup_s": {"value": median(setup_samples) * speed_factor(setup_calibrations),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": len(flat) / sum(flat), "unit": "1/s"},
            "op_p50_ms": {"value": median(flat) * 1000, "unit": "ms"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, rounds=len(durations),
                  check_s=check_s, calibrations_s=calibrations,
                  setup_calibrations_s=setup_calibrations,
                  op_calibration=op_calibration,
                  op_s={f"{n}:{op.name}": [rnd[n] for rnd in durations]
                        for n, op in enumerate(workload.ops)},
                  setup_samples_s=setup_samples,
                  spans=tracer.snapshot() if tracer else None)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
