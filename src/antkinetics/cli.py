"""Command-line front end.

Every subcommand's parser carries its handler and experiment kind; a
handler runs its ``run_*`` driver and returns the result, printed as strict
JSON, and whether the driver's built-in check passed.  ``--config`` is read by
:func:`~antkinetics.experiments.read_config`; ``--threads``, when given,
overwrites its config key before the mapping is resolved, and no other
flag replaces a key.

Exit codes: 0 on success, 2 when a run finishes but its built-in check
fails (rate mismatch, scan inconsistency, threshold violation) and, from
argparse, on a usage error (an unknown or missing flag, or ``simulate``'s
``--init`` together with ``--resume``), 1 on runtime errors (bad input,
non-finite fields, a result that JSON cannot hold, I/O, an allocation too
large for memory).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .experiments import (
    MODEL_KEYS,
    ExperimentKind,
    build_config,
    dispersion_report,
    read_config,
    run_eigen,
    run_growth_match,
    run_instability_scan,
    run_simulate,
    run_stability_sweep,
    strict_json,
)


def _number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a number") from None


def _parse_sigma_sweep(text: str) -> np.ndarray:
    """``a:b:n`` gives n evenly spaced values from a to b; a bare number is one value."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([_number(parts[0], "--sigma-sweep")])
    if len(parts) != 3:
        raise ValueError(f"expected 'a:b:n', got {text!r}")
    lo, hi = _number(parts[0], "--sigma-sweep"), _number(parts[1], "--sigma-sweep")
    for end in (lo, hi):
        if not math.isfinite(end):
            raise ValueError(f"sigma must be a finite nonnegative real, got {end}")
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"sweep {text!r}: the point count must be an integer, "
                         f"got {parts[2]!r}") from None
    if count < 1:
        raise ValueError("sweep needs at least one point")
    return np.linspace(lo, hi, count)


def _parse_chi_grid(text: str) -> list[float]:
    return [_number(part, "--chi-grid") for part in text.split(",") if part.strip() != ""]


def _add_global_flags(parser, suppress: bool) -> None:
    # registered on the main parser and again on every subparser, so the
    # flags work on either side of the subcommand; the subparser copies
    # suppress their defaults to avoid clobbering values parsed earlier
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="key = value configuration file", **kw)
    parser.add_argument("--out", help="output directory for tables, streams, manifests", **kw)
    parser.add_argument("--threads", type=int, help="parallel workers for scans", **kw)


def _simulate(cfg, args):
    init = "random" if args.init is None else args.init
    if args.resume is not None:
        init = f"checkpoint:{args.resume}"
    summary = run_simulate(cfg, t_end=args.t_end, stride=args.stride, init=init,
                           checkpoint_every=args.checkpoint_every)
    return summary, True


def _dispersion(cfg, args):
    return dispersion_report(cfg.params, args.k), True


def _eigen(cfg, args):
    sigmas = _parse_sigma_sweep(args.sigma_sweep)
    return run_eigen(cfg, args.k, sigmas, n_modes=args.n_modes), True


def _scan(cfg, args):
    result = run_instability_scan(cfg, args.k_max, n_modes=args.n_modes)
    return result, result["ok"]


def _growth_match(cfg, args):
    result = run_growth_match(cfg, args.k, t_end=args.t_end, amplitude_rel=args.amplitude,
                              n_modes=args.n_modes)
    return result, result["ok"]


def _stability_sweep(cfg, args):
    chi_values = _parse_chi_grid(args.chi_grid) if args.chi_grid else None
    result = run_stability_sweep(cfg, chi_values=chi_values, k_max=args.k_max,
                                 t_end=args.t_end, stride=args.stride)
    return result, result["threshold_ok"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antkinetics",
        description="Kinetic trail-formation solver and stability tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_global_flags(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, kind, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, suppress=True)
        p.set_defaults(handler=handler, kind=kind)
        return p

    p = add_parser("simulate", _simulate, ExperimentKind.SIMULATE,
                   help="integrate the kinetic system and record observables")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--checkpoint-every", type=int, default=None)
    # default None: argparse misses a conflict whose parsed value *is* the default
    start = p.add_mutually_exclusive_group()
    start.add_argument(
        "--init",
        default=None,
        help="random (default) | homogeneous | bump:<l6 norm> | checkpoint:<dir>",
    )
    start.add_argument("--resume", default=None, metavar="DIR",
                       help="shorthand for --init checkpoint:DIR")

    p = add_parser("dispersion", _dispersion, ExperimentKind.DISPERSION_MAP,
                   help="margin and growth-rate root at one wavenumber")
    p.add_argument("--k", type=int, required=True)

    p = add_parser("eigen", _eigen, ExperimentKind.DISPERSION_MAP,
                   help="rightmost eigenvalues across an angular-viscosity sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma-sweep", required=True, metavar="A:B:N")
    p.add_argument("--n-modes", type=int, default=64)

    p = add_parser("scan", _scan, ExperimentKind.DISPERSION_MAP,
                   help="instability map over wavenumbers 1..k_max")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--n-modes", type=int, default=64)

    p = add_parser("growth-match", _growth_match, ExperimentKind.GROWTH_MATCH,
                   help="compare simulated growth against the predicted rate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=1.0e-6)
    p.add_argument("--n-modes", type=int, default=64)

    p = add_parser("stability-sweep", _stability_sweep, ExperimentKind.STABILITY_SWEEP,
                   help="empirical chi threshold from common random data")
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--chi-grid", default=None, metavar="C1,C2,...")
    p.add_argument("--stride", type=int, default=20)

    return parser


def _dispatch(args) -> int:
    if not args.config:
        raise ValueError(f"--config is required (model keys: {', '.join(MODEL_KEYS)})")
    mapping = read_config(args.config)
    if args.threads is not None:
        mapping["threads"] = args.threads
    cfg = build_config(mapping, args.kind, out_dir=args.out)
    result, passed = args.handler(cfg, args)
    print(strict_json(result, args.command))
    return 0 if passed else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # a bare MemoryError (not numpy's) carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
