"""Layer spans for the benchmark's traced runs.

Spans are recorded by wrapping the package's public functions from outside,
in the benchmark process: a module function is replaced in every
``antkinetics`` module that binds it, because that is where callers look
the name up, and a ``Stepper`` method is replaced on the class.  Nothing
under ``src/`` changes.

A span is ``[name, start, end, parent]``; spans stay in memory and are
reduced to per-layer metrics when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time

# span name -> where the wrapped object is defined
TARGETS = {
    "cli": "cli.main",
    "experiments.driver": (
        "experiments.run_simulate", "experiments.run_growth_match",
        "experiments.run_instability_scan", "experiments.run_eigen"),
    "dynamics.run": "dynamics.run",
    "dynamics.stepper_init": "dynamics.Stepper.__init__",
    "dynamics.step": "dynamics.Stepper.step",
    "dynamics.explicit_rhs": "dynamics.Stepper.explicit_rhs",
    "dynamics.checkpoint_write": "dynamics.write_checkpoint",
    "dynamics.checkpoint_read": "dynamics.read_checkpoint",
    "spectral.fft3": "spectral.fft3",
    "spectral.ifft3": "spectral.ifft3",
    "spectral.fft2": "spectral.fft2",
    "spectral.ifft2": "spectral.ifft2",
    "spectral.turning_bias_parts": "spectral.turning_bias_parts",
    "diagnostics.observe": "diagnostics.compute_observables",
    "diagnostics.residual": "diagnostics.dissipation_residual",
    "diagnostics.fit": "diagnostics.fit_exponential_rate",
    "diagnostics.write": ("diagnostics.write_ndjson", "diagnostics.write_records_csv"),
    "linstab.eig": "linstab.rightmost_eigenvalues",
    "linstab.assemble": "linstab.assemble_viscous_operator",
    "linstab.root": "linstab.find_unstable_root",
    "linstab.seed_profiles": "linstab.seed_profiles",
}

TRANSFORMS = ("spectral.fft3", "spectral.ifft3", "spectral.fft2", "spectral.ifft2")


def _transform_counts(tracer, args, result):
    # real-input transform of N points: 2.5 N log2 N flops (half a complex
    # transform of the same length); bytes are input plus output arrays
    real = result if result.dtype.kind == "f" else args[0]
    n = real.size
    tracer.count("spectral.fft.flops_computed", 2.5 * n * math.log2(n))
    tracer.count("spectral.fft.bytes_computed", args[0].nbytes + result.nbytes)


def _checkpoint_bytes(tracer, args, result):
    directory = args[0]
    tracer.count("dynamics.checkpoint_write.bytes", sum(
        os.path.getsize(os.path.join(directory, name))
        for name in ("f.field", "c.field", "checkpoint.txt")))


def _root_iterations(tracer, args, result):
    tracer.count("linstab.root.iterations", getattr(result, "iterations", 0))


# counters the functions above add to, computed rather than measured
COUNTERS = ("spectral.fft.flops_computed", "spectral.fft.bytes_computed",
            "dynamics.checkpoint_write.bytes", "linstab.root.iterations")
AFTER = {name: _transform_counts for name in TRANSFORMS}
AFTER["dynamics.checkpoint_write"] = _checkpoint_bytes
AFTER["linstab.root"] = _root_iterations


def _resolve(dotted):
    module_name, _, rest = dotted.partition(".")
    owner = sys.modules[f"antkinetics.{module_name}"]
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patches = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self):
        self.spans = []
        self.counters = {}

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever it is bound; ``uninstall`` undoes it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "antkinetics" or key.startswith("antkinetics.")]
        for name, dotted_names in TARGETS.items():
            if isinstance(dotted_names, str):
                dotted_names = (dotted_names,)
            for dotted in dotted_names:
                owner, attr = _resolve(dotted)
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, AFTER.get(name))
                owners = [owner] if isinstance(owner, type) else [
                    m for m in modules if getattr(m, attr, None) is original]
                for bound in owners:
                    self._patches.append((bound, attr, original))
                    setattr(bound, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def self_times(self, first=0, last=None):
        """{name: [calls, self seconds]} and the list of durations per name."""
        spans = self.spans[first:last]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                children[parent - first] += end - start
        totals, durations = {}, {}
        for (name, start, end, _), child in zip(spans, children):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child
            durations.setdefault(name, []).append(end - start)
        return totals, durations


def layer_metrics(tracer, reps, stepper_init_s, names):
    """``{name: value}`` for the per-layer metrics ``names``, per traced repetition.

    ``<span>.calls`` and ``<span>.self_ms`` are read from the spans and are 0
    for a span that never ran; the other names are computed below, and a
    name that is neither raises ``KeyError``.  ``reps`` holds one
    ``(first_span, last_span, wall_s, traced, minor_faults)`` per repetition;
    untraced repetitions record no spans and give the overhead baseline.

    ``trace.unattributed_ms`` is a traced repetition's wall time minus the
    summed self times of all its spans.  ``cli.main`` is a root span that
    covers each command, so this is the harness's own time around the
    commands (the stdout capture in ``worker.call``); the time inside a
    command that no layer span covers is ``cli.self_ms`` plus
    ``experiments.driver.self_ms``.
    """
    traced = [rep for rep in reps if rep[3]]
    untraced = [rep for rep in reps if not rep[3]]
    n = len(traced)
    totals, durations = tracer.self_times()
    step_ms = [1.0e3 * d for d in durations.get("dynamics.step", ())]
    deciles = statistics.quantiles(step_ms, n=10) if len(step_ms) > 1 else (step_ms or [0.0]) * 9
    unattributed = [wall - sum(self_s for _, self_s in tracer.self_times(first, last)[0].values())
                    for first, last, wall, _, _ in traced]
    traced_wall = statistics.median(rep[2] for rep in traced)
    untraced_wall = statistics.median(rep[2] for rep in untraced)
    computed = {key: tracer.counters.get(key, 0) / n for key in COUNTERS}
    computed.update({
        "dynamics.step.p50_ms": deciles[4],
        "dynamics.step.p90_ms": deciles[8],
        "dynamics.stepper_init.ms": 1.0e3 * stepper_init_s,
        "experiments.members": totals.get("dynamics.run", (0, 0.0))[0] / n,
        "process.minor_faults": statistics.median(rep[4] for rep in traced),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.unattributed_ms": 1.0e3 * statistics.median(unattributed),
    })

    metrics = {}
    for key in names:
        name, _, kind = key.rpartition(".")
        calls, self_s = totals.get(name, (0, 0.0))
        if key in computed:
            metrics[key] = computed[key]
        elif name in TARGETS and kind == "calls":
            metrics[key] = calls / n
        elif name in TARGETS and kind == "self_ms":
            metrics[key] = 1.0e3 * self_s / n
        else:
            raise KeyError(f"no per-layer metric {key!r}")
    return metrics
