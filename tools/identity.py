"""Byte-identity report between two checkouts of antkinetics.

    python3 tools/identity.py BASE HEAD

Runs one fixed matrix on each checkout, in a fresh Python process with that
checkout's ``src`` first on ``PYTHONPATH``, and names every output that
differs between the two:

- *States.*  The sha256 of f_hat, c_hat and the physical f after a
  20-step ``dynamics.run`` from random, homogeneous and x1-only starts, and
  the run's ``cfl_flagged`` and ``positivity_flagged``.  At 16^3 and 32^3
  this covers both couplings, both schemes and tau in {0, 0.5}; at 64^3,
  ETDRK2 from the random and x1-only starts, both couplings and both tau.
  Dealiasing and the cost split differ by grid size, so 16^3 alone is not
  enough.
- *Command line.*  The exit code, stdout, and the sha256 of every output
  file of each command, every subcommand included, all on a 16^3 config.
  For each ``*.field`` file also the sha256 of its coefficients as that
  checkout's own ``spectral.read_field`` decodes them, so a change of file
  format that keeps the numbers differs only in the files' byte hashes:
  - ``simulate --stride 1 --checkpoint-every 5`` from random, homogeneous
    and ``bump:1.2`` starts at tau in {0, 0.5} (elliptic, ETDRK2), and from
    the random start on a parabolic IMEX config at tau = 0.5, so that an
    evolving ``c.field`` and an IMEX checkpoint are compared; each one
    then a ``--resume`` from its checkpoint, and a rerun fed the first
    run's ``manifest.txt`` as ``--config``;
  - ``simulate --stride 1`` from random at tau = 0.5 past the CFL bound:
    at chi = 4, dt = 0.05 and ``--t-end 0.5``, which raises the CFL flag
    only, and at chi = 400, dt = 0.2 and ``--t-end 0.2``, which raises both;
  - the same ``simulate`` triple from random on a config that spells valid
    values unusually (``coupling =  Elliptic``, ``chi = 4``, ``lambda =
    1e0``, ``scheme = ETDRK2`` and an empty ``seed =``), so that the parsed
    values, the config hash and the manifest are compared too;
  - ``dispersion --k 1..3``, ``scan --k-max 3 --n-modes 32`` (with and
    without ``--threads 2``), ``eigen --k 1 --sigma-sweep 0.0001:0.01:3``,
    a short ``growth-match --k 1`` and a short ``stability-sweep`` over
    chi in {0, 4, 8}, for both couplings at tau = 0.5;
  - a short ``growth-match --k 1`` at sigma_theta = 0, whose seeds come
    from the inviscid eigenfunction;
  - for both couplings at tau = 0.5, two ``stability-sweep`` runs past the
    CFL bound that reach every member outcome: at dt = 0.05 over chi in
    {0, 30, 400} each member stops at the deviation cap, and at dt = 0.2
    over chi in {0, 400} one member blows up and one fails its rate fit.

Exit codes: 0 when nothing differs, 1 when something does, 2 when a
checkout cannot be run.  A run takes a few seconds per checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

STEPS, DT = 20, 1.0e-3
MODEL = dict(sigma_x=0.002, sigma_theta=0.25, sigma_c=0.05, gamma=1.0, lam=1.0, chi=4.0)
CONFIG_TEXT = """\
sigma_x = 0.002
sigma_theta = {sigma_theta}
sigma_c = 0.05
gamma = 1.0
lambda = 1.0
chi = {chi}
tau = {tau}
coupling = {coupling}
n_x1 = 16
n_x2 = 16
n_theta = 16
dt = {dt}
{extra}"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _state_cases():
    """(name, shape, coupling, scheme, tau, start) for the state matrix."""
    for shape in ((16, 16, 16), (32, 32, 32), (64, 64, 64)):
        for coupling in ("elliptic", "parabolic"):
            for scheme in ("imex_euler", "etdrk2"):
                for tau in (0.0, 0.5):
                    for start in ("random", "homogeneous", "x1"):
                        if shape[0] == 64 and (scheme != "etdrk2" or start == "homogeneous"):
                            continue
                        name = "x".join(map(str, shape)) + f" {coupling} {scheme} tau={tau} {start}"
                        yield name, shape, coupling, scheme, tau, start


def _states(out: dict) -> None:
    import numpy as np

    from antkinetics.dynamics import StepperConfig, homogeneous_state, run, state_from_density
    from antkinetics.experiments import random_band_limited_state
    from antkinetics.params import Coupling, ModelParams
    from antkinetics.spectral import SpectralGrid

    for name, shape, coupling, scheme, tau, start in _state_cases():
        grid = SpectralGrid(*shape)
        params = ModelParams(**MODEL, tau=tau, coupling=Coupling(coupling))
        if start == "random":
            state = random_band_limited_state(grid, params, np.random.default_rng(1), 4, 0.1)
        elif start == "homogeneous":
            state = homogeneous_state(grid, params)
        else:
            f = (1.0 + 0.2 * np.cos(2.0 * np.pi * grid.x1))[:, None, None] / (2.0 * np.pi)
            state = state_from_density(grid, params, np.broadcast_to(f, grid.shape_phys3))
        result = run(state, StepperConfig(dt=DT, scheme=scheme), params, STEPS * DT)
        state = result.state
        out[f"state {name}: f_hat"] = _sha(state.f_hat.tobytes())
        out[f"state {name}: c_hat"] = _sha(state.c_hat.tobytes())
        out[f"state {name}: f"] = _sha(state.f_physical().tobytes())
        out[f"state {name}: cfl_flagged"] = str(result.cfl_flagged)
        out[f"state {name}: positivity_flagged"] = str(result.positivity_flagged)


def _cli(out: dict, work: str) -> None:
    from antkinetics import cli
    from antkinetics.spectral import SpectralGrid, read_field

    def call(name, argv, out_dir):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--out", out_dir])
        out[f"{name}: exit code"] = str(code)
        out[f"{name}: stdout"] = stdout.getvalue()
        for root, _, files in os.walk(out_dir):
            for file in files:
                path = os.path.join(root, file)
                key = f"{name}: {os.path.relpath(path, out_dir)}"
                with open(path, "rb") as fh:
                    out[key] = _sha(fh.read())
                if file.endswith(".field"):
                    coeffs = read_field(path, SpectralGrid(16, 16, 16))
                    out[f"{key} coefficients"] = _sha(coeffs.tobytes())

    def config_file(tau, coupling, sigma_theta="0.25", scheme=None, dt="2e-3", chi="4.0"):
        # the scheme key is written only when given, so the older cases keep their text
        path = os.path.join(
            work, f"{coupling}-{scheme}-tau{tau}-sigma{sigma_theta}-dt{dt}-chi{chi}.cfg")
        extra = f"scheme = {scheme}\n" if scheme else ""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CONFIG_TEXT.format(tau=tau, coupling=coupling, sigma_theta=sigma_theta,
                                        dt=dt, chi=chi, extra=extra))
        return path

    def simulate(name, config, init, tag):
        first = os.path.join(work, tag)
        argv = ["simulate", "--t-end", "0.02", "--stride", "1", "--checkpoint-every", "5",
                "--init", init]
        call(name, argv + ["--config", config], first)
        call(name + " resumed", ["simulate", "--config", config, "--t-end", "0.04",
                                 "--stride", "1", "--resume", os.path.join(first, "checkpoint")],
             os.path.join(work, f"{tag}-resumed"))
        call(name + " from its manifest", argv + ["--config", os.path.join(first, "manifest.txt")],
             os.path.join(work, f"{tag}-manifest"))

    for tau in (0.0, 0.5):
        config = config_file(tau, "elliptic")
        for init in ("random", "homogeneous", "bump:1.2"):
            simulate(f"simulate tau={tau} {init}", config, init, f"{tau}-{init}")
    simulate("simulate parabolic imex_euler tau=0.5 random",
             config_file(0.5, "parabolic", scheme="imex_euler"), "random",
             "parabolic-imex")
    for chi, dt, t_end in (("4.0", "0.05", "0.5"), ("400", "0.2", "0.2")):
        call(f"simulate past the CFL bound chi={chi} dt={dt}",
             ["simulate", "--t-end", t_end, "--stride", "1",
              "--config", config_file(0.5, "elliptic", dt=dt, chi=chi)],
             os.path.join(work, f"flagged-chi{chi}"))
    spelled = os.path.join(work, "unusual-spellings.cfg")
    with open(spelled, "w", encoding="utf-8") as fh:
        fh.write(CONFIG_TEXT.format(tau=0.5, coupling=" Elliptic", sigma_theta="0.25", dt="2e-3",
                                    chi="4", extra="scheme = ETDRK2\nseed =\n")
                 .replace("lambda = 1.0", "lambda = 1e0"))
    simulate("simulate unusual spellings tau=0.5 random", spelled, "random", "spelled")
    call("growth-match --k 1 elliptic sigma_theta=0",
         "growth-match --k 1 --t-end 0.05 --n-modes 32".split()
         + ["--config", config_file(0.5, "elliptic", sigma_theta="0")],
         os.path.join(work, "inviscid-growth-match"))

    for coupling in ("elliptic", "parabolic"):
        config = config_file(0.5, coupling)
        commands = [f"dispersion --k {k}" for k in (1, 2, 3)] + [
            "scan --k-max 3 --n-modes 32",
            "scan --k-max 3 --n-modes 32 --threads 2",
            "eigen --k 1 --sigma-sweep 0.0001:0.01:3",
            "growth-match --k 1 --t-end 0.05 --n-modes 32",
            "stability-sweep --t-end 0.08 --stride 1 --chi-grid 0,4,8 --k-max 2",
        ]
        for number, command in enumerate(commands):
            call(f"{command} {coupling}", command.split() + ["--config", config],
                 os.path.join(work, f"{coupling}-{number}"))
        # sweep members that stop at the deviation cap, blow up, or fail their fit
        for dt, command in (
            ("0.05", "stability-sweep --t-end 2 --stride 1 --chi-grid 0,30,400"),
            ("0.2", "stability-sweep --t-end 4 --stride 20 --chi-grid 0,400"),
        ):
            call(f"{command} {coupling} dt={dt}",
                 command.split() + ["--config", config_file(0.5, coupling, dt=dt)],
                 os.path.join(work, f"{coupling}-dt{dt}"))


def worker() -> None:
    """Run the matrix on the ``antkinetics`` found on the path; print JSON."""
    warnings.simplefilter("ignore")
    out: dict = {}
    work = tempfile.mkdtemp(prefix="antk-identity-")
    try:
        _states(out)
        _cli(out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))


def _collect(checkout: str) -> dict:
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "antkinetics", "cli.py")):
        raise RuntimeError(f"no src/antkinetics in {checkout}")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        env=env, cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"the matrix failed on {checkout}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    if len(argv) == 1 and argv[0] == "--worker":
        worker()
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        base, head = (_collect(checkout) for checkout in argv)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    differ = [name for name in sorted(base.keys() | head.keys())
              if base.get(name) != head.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(base.keys() | head.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
