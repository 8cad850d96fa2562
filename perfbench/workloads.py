"""The four benchmark workloads: inputs, command lines, work counts and checks.

Every workload drives the public command line, ``antkinetics.cli.main(argv)``,
in-process.  A repetition is a fixed list of command lines; its work count
and its correctness checks are read from what those commands print and write.
The workload seed only reaches the program through the generated config
(``seed``) and, for ``growth32``, the seed amplitude.

Full sizes are what the benchmark measures.  Toy sizes keep every code path
but finish in well under a second per repetition; ``selfcheck.py`` uses them
to catch a broken harness.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil

MODEL = {
    "sigma_x": 0.002,
    "sigma_theta": 0.25,
    "sigma_c": 0.05,
    "gamma": 1.0,
    "lambda": 1.0,
    "chi": 4.0,
}
DT = 0.0025
THREADS = 1  # `--threads`, the process pool of `scan`; left at its default


def write_config(path, seed, n, coupling, tau, scheme):
    entries = dict(MODEL, tau=tau, coupling=coupling, n_x1=n, n_x2=n, n_theta=n,
                   dt=DT, scheme=scheme, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in entries.items())


class Result:
    """What one command printed and returned."""

    def __init__(self, code, stdout):
        self.code = code
        self.stdout = stdout

    def json(self):
        try:
            return json.loads(self.stdout)
        except ValueError:
            return {}


def _read_ndjson(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _same_bytes(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


class Workload:
    """One workload at one size, with its inputs written under ``work``."""

    work_unit = "member steps"
    outputs = ()  # directories under ``work`` that a repetition writes
    # (small, grid) reference kernels timed before each command, about a
    # third of the command's time; the mix is the one whose time moved most
    # like the workload's as the host's speed changed (see reference.py)
    reference_calls: tuple[int, int]

    def __init__(self, work, seed, toy):
        self.work = work
        self.seed = seed
        self.toy = toy
        self.write_inputs()

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def base(self, config, out=None):
        argv = ["--config", self.path(config), "--threads", str(THREADS)]
        return argv + (["--out", self.path(out)] if out else [])

    def write_inputs(self):
        raise NotImplementedError

    def warmup_argvs(self):
        """Commands that fill the grid multipliers and the stepper cache."""
        raise NotImplementedError

    def prepare_argvs(self):
        """Commands run once before timing, for the checks (not timed)."""
        return []

    def rep_argvs(self):
        """The timed repetition."""
        raise NotImplementedError

    def clear_outputs(self):
        """Remove the last repetition's outputs, so checks read only fresh files."""
        for name in self.outputs:
            shutil.rmtree(self.path(name), ignore_errors=True)

    def work_done(self, results):
        raise NotImplementedError

    def checks(self, results):
        """List of (label, passed) for one repetition."""
        raise NotImplementedError


class Simulate64(Workload):
    """One ETDRK2 trajectory on the largest grid, with periodic checkpoints."""

    outputs = ("sim",)
    reference_calls = (14, 0)

    def write_inputs(self):
        self.n, self.steps, self.stride, self.every = (16, 4, 2, 2) if self.toy else (64, 20, 10, 10)
        write_config(self.path("sim.cfg"), self.seed, self.n, "elliptic", 0.0, "etdrk2")

    def warmup_argvs(self):
        return [self.base("sim.cfg") + ["simulate", "--t-end", repr(DT), "--init", "homogeneous"]]

    def rep_argvs(self):
        return [self.base("sim.cfg", "sim") + [
            "simulate", "--t-end", repr(self.steps * DT), "--stride", str(self.stride),
            "--checkpoint-every", str(self.every)]]

    def work_done(self, results):
        return results[0].json().get("n_steps", 0)

    def checks(self, results):
        summary = results[0].json()
        ok = results[0].code == 0
        masses = [summary.get("mass", math.nan)]
        if ok:
            masses += [record["mass"] for record in _read_ndjson(self.path("sim", "observables.ndjson"))]
        return [
            ("simulate64 exit 0", ok),
            ("simulate64 |mass - 1| <= 1e-10", all(abs(m - 1.0) <= 1.0e-10 for m in masses)),
            ("simulate64 step count", summary.get("n_steps") == self.steps),
            ("simulate64 checkpoint written", os.path.isfile(self.path("sim", "checkpoint", "f.field"))),
        ]


class Growth32(Workload):
    """Eigenfunction-seeded growth-rate match: linstab seeds, four members."""

    outputs = ("growth",)
    reference_calls = (20, 22)

    def write_inputs(self):
        self.n, self.t_end, self.n_modes = (16, 0.15, 16) if self.toy else (32, 0.3, 64)
        self.amplitude = 1.0e-6 * 2.0 ** random.Random(self.seed).uniform(-1.0, 1.0)
        write_config(self.path("growth.cfg"), self.seed, self.n, "parabolic", 0.5, "etdrk2")

    def warmup_argvs(self):
        return [self.base("growth.cfg") + ["simulate", "--t-end", repr(DT), "--init", "homogeneous"]]

    def rep_argvs(self):
        return [self.base("growth.cfg", "growth") + [
            "growth-match", "--k", "1", "--t-end", repr(self.t_end),
            "--amplitude", repr(self.amplitude), "--n-modes", str(self.n_modes)]]

    def work_done(self, results):
        result = results[0].json()
        return round(result.get("t_end", 0.0) / DT) * len(result.get("seeds", ()))

    def checks(self, results):
        result = results[0].json()
        seeds = result.get("seeds", [])
        out = [
            ("growth32 exit 0", results[0].code == 0),
            ("growth32 ok", result.get("ok") is True),
            ("growth32 four members", len(seeds) == 4),
        ]
        for entry in seeds:
            error = entry.get("relative_error")
            out.append((f"growth32 {entry.get('seed')} relative_error <= 0.05",
                        error is not None and error <= 0.05))
        return out


class Resume16(Workload):
    """A short run with frequent checkpoints, then a resume from its checkpoint."""

    outputs = ("first", "resumed")
    reference_calls = (2, 0)

    def write_inputs(self):
        self.n, self.steps, self.every = (8, 10, 5) if self.toy else (16, 100, 25)
        write_config(self.path("resume.cfg"), self.seed, self.n, "elliptic", 0.5, "imex_euler")

    def warmup_argvs(self):
        return [self.base("resume.cfg") + ["simulate", "--t-end", repr(DT), "--init", "homogeneous"]]

    def _simulate(self, out, steps, *extra):
        return self.base("resume.cfg", out) + [
            "simulate", "--t-end", repr(steps * DT), "--stride", "1",
            "--checkpoint-every", str(self.every), *extra]

    def prepare_argvs(self):
        return [self._simulate("whole", 2 * self.steps)]

    def rep_argvs(self):
        return [
            self._simulate("first", self.steps),
            self._simulate("resumed", 2 * self.steps, "--resume", self.path("first", "checkpoint")),
        ]

    def work_done(self, results):
        return sum(result.json().get("n_steps", 0) for result in results)

    def checks(self, results):
        out = [(f"resume16 call {i} exit 0", result.code == 0) for i, result in enumerate(results)]
        for name in ("f.field", "c.field"):
            resumed = self.path("resumed", "checkpoint", name)
            whole = self.path("whole", "checkpoint", name)
            same = os.path.isfile(resumed) and os.path.isfile(whole) and _same_bytes(resumed, whole)
            out.append((f"resume16 resumed {name} == uninterrupted", same))
        return out


class Theory(Workload):
    """Dense truncated-operator spectra for both couplings; no time stepping."""

    work_unit = "spectra"
    reference_calls = (9, 0)
    couplings = (("elliptic", 0.0), ("parabolic", 0.5))  # (coupling, tau)

    def write_inputs(self):
        self.k_max, self.n_sigma, self.n_modes = (2, 2, 8) if self.toy else (4, 4, 128)
        for coupling, tau in self.couplings:
            write_config(self.path(f"{coupling}.cfg"), self.seed, 16, coupling, tau, "etdrk2")
        self.runs = [(coupling, command) for coupling, _ in self.couplings
                     for command in ("scan", "eigen")]

    def warmup_argvs(self):
        return [self.base(f"{coupling}.cfg") + ["scan", "--k-max", "1", "--n-modes", "8"]
                for coupling, _ in self.couplings]

    def rep_argvs(self):
        extra = {
            "scan": ["--k-max", str(self.k_max)],
            "eigen": ["--k", "1", "--sigma-sweep", f"0.0001:0.01:{self.n_sigma}"],
        }
        return [self.base(f"{coupling}.cfg") + [command, *extra[command], "--n-modes", str(self.n_modes)]
                for coupling, command in self.runs]

    def work_done(self, results):
        return sum(len(result.json().get("rows", ())) for result in results)

    def checks(self, results):
        out = []
        for result, (coupling, command) in zip(results, self.runs):
            label = f"theory {command} {coupling}"
            rows = result.json().get("rows", [])
            out.append((f"{label} exit 0", result.code == 0))
            if command == "scan":
                out.append((f"{label} {self.k_max} rows", len(rows) == self.k_max))
                out += [(f"{label} k={row.get('k')} consistent", row.get("consistent") is True)
                        for row in rows]
            else:
                out.append((f"{label} {self.n_sigma} rows", len(rows) == self.n_sigma))
                out.append((f"{label} finite", all(math.isfinite(row["rightmost_re"]) for row in rows)))
        return out


WORKLOADS = {
    "simulate64": Simulate64,
    "growth32": Growth32,
    "resume16": Resume16,
    "theory": Theory,
}
