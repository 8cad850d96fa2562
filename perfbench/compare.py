"""Summarise one checkout, or compare two, on the end-to-end metrics.

    python3 perfbench/compare.py CHECKOUT [--runs 10]
    python3 perfbench/compare.py BASE HEAD [--runs 10]

A checkout is a directory holding a source tree, for example one made with
``git archive <commit> | tar -x -C DIR``.  Both sides are measured with this
file's copy of the benchmark, so the benchmark code is identical, and every
run lasts ``run_seconds`` from ``BENCHMARK.json``.

With one checkout, each workload in ``BENCHMARK.json`` runs ``--runs`` times
on seeds 1..runs and every end-to-end metric is printed with its median,
quartiles, run count and unit.  With two, the runs are pairs on a shared
seed, with the base first in the first pair and the order alternating, and
each metric gets a verdict:

* ``gain``: head wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread;
* ``regression``: head's median is worse than base's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved``: base's own quartile spread is wider than the bound, unless
  every head run beats every base run;
* ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import load_spec, spread

HERE = os.path.dirname(os.path.abspath(__file__))


def measure(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} in {checkout} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed} in {checkout}: "
              f"{result['failed']} of {result['attempted']} checks failed", file=sys.stderr)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def verdict(metric, base, head):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b2, b1, b3 = spread(base)
    h2, _, _ = spread(head)
    if wins >= 0.9 * len(base) and sign * (h2 - b2) > b3 - b1:
        return wins, "gain"
    if -sign * (h2 - b2) > metric["bound"] * abs(b2):
        return wins, "regression"
    every_head_better = min(sign * h for h in head) > max(sign * b for b in base)
    if (b3 - b1) > metric["bound"] * abs(b2) and not every_head_better:
        return wins, "unresolved"
    return wins, "no change"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one checkout to summarise or two to compare")
    spec = load_spec()
    checkouts = [os.path.abspath(path) for path in args.checkouts]

    for workload in (w["name"] for w in spec["workloads"]):
        runs = [[] for _ in checkouts]
        for i in range(args.runs):
            order = range(len(checkouts)) if i % 2 == 0 else reversed(range(len(checkouts)))
            for side in order:
                runs[side].append(measure(checkouts[side], workload, i + 1, spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            sides = [[run[name] for run in side_runs] for side_runs in runs]
            cells = []
            for values in sides:
                median, q1, q3 = spread(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            line = f"{workload:<11} {name:<12} {unit:<4} " + "  vs  ".join(cells)
            if len(sides) == 2:
                wins, result = verdict(metric, *sides)
                line += f"  head wins {wins}/{args.runs}: {result}"
            print(line, flush=True)


if __name__ == "__main__":
    main()
