"""One benchmark process: set-up, then timed repetitions of one workload.

``run.py`` starts this file with the checkout as working directory and the
checkout's ``src`` on ``PYTHONPATH``.  Set-up is timed from before the first
import of ``antkinetics`` to the end of the workload's warm-up commands.
Then the workload repeats until ``--seconds`` have passed (at least three
repetitions, four in a traced run); each repetition is timed on its own, and
its outputs are cleared before it and checked after it, outside the timed
region.  Before each command of an untraced repetition, the workload's mix
of reference kernels (``reference_calls``, see ``reference.py``) is timed;
after set-up, the ``small`` kernel is timed ``reference.SETUP_CALLS``
times.  The report gives the host's slowdown for both, and ``run.py``
scales the times with them.  In a traced run the repetitions alternate
untraced and traced, so the tracing overhead is measured in the same
process, and no kernel runs between commands.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracing
import workloads
from run import load_spec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def call(cli, argv):
    """Run one command line in-process; usage errors count as exit code 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return workloads.Result(code, out.getvalue())


def environment():
    import numpy
    import scipy
    import scipy.fft

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_caps": {key: os.environ.get(key) for key in sorted(os.environ)
                        if key.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "cli_threads": workloads.THREADS,
    }


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.work, args.seed, args.toy)

    start = time.perf_counter()
    import antkinetics.cli as cli

    source = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(source + os.sep):
        sys.exit(f"error: imported {cli.__file__}, not the checkout under {source}")
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    for argv in workload.warmup_argvs():
        if call(cli, argv).code != 0:
            sys.exit(f"error: warm-up command failed: {argv}")
    setup_s = time.perf_counter() - start
    import reference  # after set-up: it imports numpy and scipy, which set-up times

    setup_slowdown = reference.slowdown(reference.run((reference.SETUP_CALLS, 0)))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_slowdown": setup_slowdown}))
        return

    for argv in workload.prepare_argvs():
        call(cli, argv)
    stepper_init_s = tracer.self_times()[0].get("dynamics.stepper_init", [0, 0.0])[1]
    tracer.uninstall()
    tracer.reset()

    reps, untraced, failures, timings = [], [], [], []
    kernel_calls = (0, 0) if args.trace else workload.reference_calls
    attempted = 0
    min_reps = 4 if args.trace else 3
    begin = time.perf_counter()
    while True:
        workload.clear_outputs()
        traced = bool(args.trace) and len(reps) % 2 == 1
        if traced:
            tracer.install()
        first = len(tracer.spans)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        results, wall = [], 0.0
        for argv in workload.rep_argvs():
            timings += reference.run(kernel_calls)
            t0 = time.perf_counter()
            results.append(call(cli, argv))
            wall += time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if traced:
            tracer.uninstall()
        reps.append((first, len(tracer.spans), wall, traced, faults))
        if not traced:
            untraced.append((wall, workload.work_done(results)))
        for label, passed in workload.checks(results):
            attempted += 1
            if not passed:
                failures.append(label)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(rep[2] for rep in reps)
        if len(reps) >= min_reps and elapsed + typical > args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "slowdown": reference.slowdown(timings) if timings else 1.0,
        "walls": [wall for wall, _ in untraced],
        "work": [done for _, done in untraced],
        "work_unit": workload.work_unit,
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        names = [metric["name"] for metric in load_spec()["per_layer"]]
        report["layers"] = tracing.layer_metrics(tracer, reps, stepper_init_s, names)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
