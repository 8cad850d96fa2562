"""Harness self-check: all four workloads at toy size, untraced and traced.

    python3 perfbench/selfcheck.py

Run it from the root of a checkout.  Each run must exit 0 and end with a
result line whose keys, metric names and units match ``BENCHMARK.json``,
with every check passed.  A copy of the benchmark without the package must
exit non-zero and print no result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, *args):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, stdout=subprocess.PIPE,
                          text=True, timeout=170, check=False)


def check_result(workload, trace, proc, expected):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}"
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        return f"checks failed: {result['failed']} of {result['attempted']}"
    metrics = result["metrics"]
    if {name: metric["unit"] for name, metric in metrics.items()} != expected:
        return "metric names or units differ from BENCHMARK.json"
    for name, metric in metrics.items():
        value = metric["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return f"{name} = {value!r}"
        if not trace and value <= 0:
            return f"end-to-end {name} = {value!r} is not positive"
    return None


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(root, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--toy")
            problem = check_result(workload, trace, proc, expected[trace])
            print(f"{workload:<11} trace {trace}: {problem or 'ok'}", flush=True)
            if problem:
                problems.append(problem)

    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selfcheck-", dir=scratch)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "theory", "--seed", "7", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"without src: {'refused' if refused else 'NOT refused'} (exit {proc.returncode})")
    if not refused:
        problems.append("ran without the package")
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
