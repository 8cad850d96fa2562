"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It times the checkout's own
``src/antkinetics`` through the command line, in fresh Python processes:

* with ``--trace 0``, one measuring process, with set-up-only processes
  before and after it, gives the end-to-end metrics, with times scaled by
  the host's slowdown that ``reference.py`` measures;
* with ``--trace 1``, one measuring process with layer spans gives the
  per-layer metrics.

The metric names and units are those ``BENCHMARK.json`` lists.

It prints the environment, a table of every metric, and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs and outputs live in a temporary directory under ``.bench_build/``,
removed at the end.  Without ``src/antkinetics`` it exits 2 and prints no
result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROCESSES = 6  # set-up-only processes, half before and half after the measuring one
WORKER_TIMEOUT_S = 150
# BLAS, OpenMP and scipy.fft stay single-threaded: at most nproc, and one
# thread keeps timings steady on a small shared machine
THREAD_CAP = "1"
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="antkinetics benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes and one set-up-only process, for selfcheck.py")
    return parser.parse_args(argv)


def run_worker(root, work, args, *extra):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", work, *(["--toy"] if args.toy else []), *extra]
    try:
        proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def end_to_end(spec, setups, report):
    """Times scaled by the host's slowdown, as ``reference.py`` explains."""
    slowdown = report["slowdown"]
    walls = [wall / slowdown for wall in report["walls"]]
    samples = {
        "wall_s": walls,
        "work_per_s": [done / wall for done, wall in zip(report["work"], walls)],
        "setup_s": [setup_s / setup_slowdown for setup_s, setup_slowdown in setups],
        "peak_rss_mb": [report["peak_rss_mb"]],
    }
    values = {
        # means, because the slowdown is a mean over the same repetitions
        "wall_s": statistics.fmean(walls),
        "work_per_s": sum(report["work"]) / sum(walls),
        # each set-up has its own slowdown
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    print(f"{'metric':<14} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    metrics = {}
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        median, q1, q3 = spread(samples[name])
        print(f"{name:<14} {values[name]:>12.6g} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(samples[name]):>4}  {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(f"work_per_s counts {report['work_unit']}; {report['work'][0]} per repetition")
    print(f"host slowdown {slowdown:.4g} in the timed repetitions, "
          f"median {statistics.median(s for _, s in setups):.4g} after set-up; "
          f"unscaled wall_s mean {statistics.fmean(report['walls']):.6g} s, "
          f"setup_s median {statistics.median(s for s, _ in setups):.6g} s")
    return metrics


def per_layer(spec, report):
    metrics = {}
    for metric in spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": report["layers"][name], "unit": unit}
        print(f"{name:<38} {report['layers'][name]:>14.6g}  {unit}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "antkinetics", "cli.py")):
        print("error: no src/antkinetics here; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update({key: THREAD_CAP for key in THREAD_CAP_VARS})
    os.environ["PYTHONPATH"] = os.path.join(root, "src")
    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    spec = load_spec()
    setup_processes = 0 if args.trace else 1 if args.toy else SETUP_PROCESSES
    try:
        setups = [run_worker(root, work, args, "--setup-only")
                  for _ in range(setup_processes // 2)]
        report = run_worker(root, work, args)
        setups += [run_worker(root, work, args, "--setup-only")
                   for _ in range(setup_processes - setup_processes // 2)]
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for label in report["failures"]:
        print(f"FAILED check: {label}")
    if args.trace:
        metrics = per_layer(spec, report)
    else:
        setups = [(r["setup_s"], r["setup_slowdown"]) for r in setups + [report]]
        metrics = end_to_end(spec, setups, report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
