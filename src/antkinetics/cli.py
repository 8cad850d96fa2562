"""Command-line front end.

Exit codes: 0 on success, 2 when a run finishes but its built-in check
fails (rate mismatch, scan inconsistency, threshold violation), 1 on
runtime errors (bad input, non-finite fields, I/O).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .experiments import (
    ExperimentKind,
    build_config,
    dispersion_report,
    run_eigen,
    run_growth_match,
    run_instability_scan,
    run_simulate,
    run_stability_sweep,
)
from .params import MODEL_KEYS, load_config


def _parse_sigma_sweep(text: str) -> np.ndarray:
    """``a:b:n`` gives n evenly spaced values from a to b; a bare number is one value."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) != 3:
        raise ValueError(f"expected 'a:b:n', got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("sweep needs at least one point")
    return np.linspace(lo, hi, count)


def _parse_chi_grid(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _add_global_flags(parser, suppress: bool) -> None:
    # registered on the main parser and again on every subparser, so the
    # flags work on either side of the subcommand; the subparser copies
    # suppress their defaults to avoid clobbering values parsed earlier
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="key = value configuration file", **kw)
    parser.add_argument("--out", help="output directory for tables, streams, manifests", **kw)
    parser.add_argument("--threads", type=int, help="parallel workers for scans",
                        **(kw or {"default": None}))
    parser.add_argument("--rng-seed", type=int, help="seed for random initial data",
                        **(kw or {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antkinetics",
        description="Kinetic trail-formation solver and stability tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_global_flags(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, suppress=True)
        return p

    p = add_parser("simulate", help="integrate the kinetic system and record observables")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument(
        "--init",
        default="random",
        help="random | homogeneous | bump:<l6 norm> | checkpoint:<dir>",
    )
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="shorthand for --init checkpoint:DIR")

    p = add_parser("dispersion", help="margin and growth-rate root at one wavenumber")
    p.add_argument("--k", type=int, required=True)

    p = add_parser("eigen", help="rightmost eigenvalues across an angular-viscosity sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma-sweep", required=True, metavar="A:B:N")
    p.add_argument("--n-modes", type=int, default=64)

    p = add_parser("scan", help="instability map over wavenumbers 1..k_max")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--n-modes", type=int, default=64)

    p = add_parser("growth-match", help="compare simulated growth against the predicted rate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--amplitude", type=float, default=1.0e-6)
    p.add_argument("--n-modes", type=int, default=64)

    p = add_parser("stability-sweep", help="empirical chi threshold from common random data")
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--chi-grid", default=None, metavar="C1,C2,...")
    p.add_argument("--stride", type=int, default=20)

    return parser


_KIND = {
    "simulate": ExperimentKind.SIMULATE,
    "dispersion": ExperimentKind.DISPERSION_MAP,
    "eigen": ExperimentKind.DISPERSION_MAP,
    "scan": ExperimentKind.DISPERSION_MAP,
    "growth-match": ExperimentKind.GROWTH_MATCH,
    "stability-sweep": ExperimentKind.STABILITY_SWEEP,
}


def _load_mapping(args) -> dict:
    if not args.config:
        missing = ", ".join(MODEL_KEYS)
        raise ValueError(f"--config is required (model keys: {missing})")
    return dict(load_config(args.config))


def _dispatch(args) -> int:
    mapping = _load_mapping(args)
    if getattr(args, "dt", None) is not None:
        mapping["dt"] = repr(args.dt)
    cfg = build_config(
        mapping,
        _KIND[args.command],
        out_dir=args.out,
        seed=args.rng_seed,
        threads=args.threads,
    )

    if args.command == "simulate":
        init = args.init
        if args.resume:
            init = f"checkpoint:{args.resume}"
        summary = run_simulate(
            cfg,
            t_end=args.t_end,
            stride=args.stride,
            init=init,
            checkpoint_every=args.checkpoint_every,
        )
        print(json.dumps(summary, indent=2))
        return 0

    if args.command == "dispersion":
        report = dispersion_report(cfg.params, args.k)
        print(json.dumps(report, indent=2))
        return 0

    if args.command == "eigen":
        sigmas = _parse_sigma_sweep(args.sigma_sweep)
        result = run_eigen(cfg, args.k, sigmas, n_modes=args.n_modes)
        print(json.dumps(result, indent=2))
        return 0

    if args.command == "scan":
        result = run_instability_scan(cfg, args.k_max, n_modes=args.n_modes)
        print(json.dumps(result, indent=2))
        return 0 if result["ok"] else 2

    if args.command == "growth-match":
        result = run_growth_match(
            cfg, args.k, t_end=args.t_end, amplitude_rel=args.amplitude,
            n_modes=args.n_modes,
        )
        print(json.dumps(result, indent=2))
        return 0 if result["ok"] else 2

    if args.command == "stability-sweep":
        chi_values = _parse_chi_grid(args.chi_grid) if args.chi_grid else None
        result = run_stability_sweep(
            cfg, chi_values=chi_values, k_max=args.k_max,
            t_end=args.t_end, stride=args.stride,
        )
        print(json.dumps(result, indent=2))
        return 0 if result["threshold_ok"] else 2

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
