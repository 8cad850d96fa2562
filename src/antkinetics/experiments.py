"""Experiment harness: reproducible parameter studies built on the solver.

Every experiment resolves a flat key = value configuration, runs from a
fixed RNG seed, and emits a text manifest (config hash, code version,
seed) plus a CSV table and, for some experiments, a JSON result or an
NDJSON observable stream, so reruns with the same inputs reproduce
outputs bit for bit.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .diagnostics import (
    ObservableCollector,
    fit_exponential_rate,
    record_is_finite,
    write_ndjson,
    write_records_csv,
    write_table,
)
from .dynamics import (
    PhaseState,
    StepperConfig,
    homogeneous_state,
    read_checkpoint,
    run,
    state_from_density,
)
from .linstab import (
    DispersionResult,
    _brent,
    check_n_modes,
    eigen_sweep,
    eigenfunction_field,
    find_unstable_root,
    plane_wave,
    seed_profiles,
    viscous_spectrum,
)
from .params import (
    ModelParams,
    condition_gap,
    instability_margin,
    inviscid_threshold_chi,
    load_config,
    most_unstable_k,
    reduce_params,
)
from .spectral import SpectralGrid, fft3, ifft3, l2_norm3_hat

TWO_PI = 2.0 * math.pi
_BUMP_WIDTH = 0.08  # periodic Gaussian width of a ``bump:`` start
_GROWTH_SAMPLES = 60  # about the samples per growth-match run, and its least step count


class ExperimentKind(enum.Enum):
    SIMULATE = "simulate"
    DISPERSION_MAP = "dispersion_map"
    GROWTH_MATCH = "growth_match"
    STABILITY_SWEEP = "stability_sweep"


@dataclass
class ExperimentConfig:
    kind: ExperimentKind
    params: ModelParams
    grid: SpectralGrid
    stepper: StepperConfig
    mapping: dict
    seed: int
    threads: int
    out_dir: str | None = None

    @property
    def digest(self) -> str:
        """sha256 of the resolved values that fix a trajectory: the model
        parameters, the grid, dt and scheme.  The seed and the thread count
        are left out."""
        grid, stepper = self.grid, self.stepper
        values = dict(
            self.params.as_dict(),
            coupling=self.params.coupling.value,
            grid=f"{grid.n_x1} {grid.n_x2} {grid.n_theta}",
            dt=float(stepper.dt),
            scheme=stepper.scheme.value,
            dealias=True,  # hashed as before, so existing hashes and stamps stay valid
        )
        canon = "".join(f"{key} = {values[key]}\n" for key in sorted(values))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# the required keys: a model value parses as a real number, and ``coupling``
# as text that ModelParams coerces
MODEL_KEYS = ("sigma_x", "sigma_theta", "sigma_c", "gamma", "lambda", "chi", "tau", "coupling")

# each other key with its default; a value parses as its default's type
OPTIONAL_DEFAULTS = {
    "n_x1": 64, "n_x2": 64, "n_theta": 64, "dt": 1.0e-3, "scheme": "etdrk2", "seed": 0,
    "threads": 1,
}
OPTIONAL_KEYS = tuple(OPTIONAL_DEFAULTS)

# the manifest's header lines, above its resolved configuration
MANIFEST_HEADER_KEYS = ("code_version", "config_hash", "rng_seed", "kind")


def read_config(path) -> dict:
    """The config file at ``path`` without the manifest's header keys, so a
    ``manifest.txt`` reads as the config that wrote it; refuses, naming the
    file, any key that no code reads."""
    mapping = load_config(path)
    for key in mapping:
        if key not in MODEL_KEYS + OPTIONAL_KEYS + MANIFEST_HEADER_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
    return {key: value for key, value in mapping.items() if key not in MANIFEST_HEADER_KEYS}


def _get(mapping, key):
    """The parsed value of ``key``: a missing model key is refused, and an
    optional key that is missing or empty takes its default."""
    value = mapping.get(key)
    if key in MODEL_KEYS:
        if key not in mapping:
            raise ValueError(f"config missing required key {key!r}")
        parse = str if key == "coupling" else float
    elif value is None or value == "":
        return OPTIONAL_DEFAULTS[key]
    else:
        parse = type(OPTIONAL_DEFAULTS[key])
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r}: cannot parse {value!r}") from None


def build_config(
    mapping: dict, kind: ExperimentKind, out_dir: str | None = None
) -> ExperimentConfig:
    """Resolve a flat config mapping into a runnable experiment setup.

    Every key is parsed and range-checked here, once; other keys are
    ignored.  The stepper takes ``dt`` and ``scheme``; dealiasing and the
    step monitors have no keys.
    """
    model = {key: _get(mapping, key) for key in MODEL_KEYS}
    params = ModelParams(**{"lam" if key == "lambda" else key: model[key] for key in MODEL_KEYS})
    values = {key: _get(mapping, key) for key in OPTIONAL_KEYS}
    for key, least in (("seed", 0), ("threads", 1)):
        if values[key] < least:
            raise ValueError(f"{key} must be >= {least}, got {values[key]}")
    return ExperimentConfig(
        kind=kind,
        params=params,
        grid=SpectralGrid(values["n_x1"], values["n_x2"], values["n_theta"]),
        stepper=StepperConfig(dt=values["dt"], scheme=values["scheme"]),
        mapping=dict(mapping, seed=values["seed"]),  # the manifest records the seed in force
        seed=values["seed"],
        threads=values["threads"],
        out_dir=out_dir,
    )


def write_manifest(cfg: ExperimentConfig) -> None:
    """Text manifest in ``cfg.out_dir`` sufficient to reproduce the run."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    header = (__version__, cfg.digest, cfg.seed, cfg.kind.value)
    lines = [f"{key} = {value}" for key, value in zip(MANIFEST_HEADER_KEYS, header)]
    lines += ["", "# resolved configuration"]
    lines += [f"{key} = {cfg.mapping[key]}" for key in sorted(cfg.mapping)]
    with open(os.path.join(cfg.out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(cfg: ExperimentConfig, name: str, columns, rows, result=None) -> None:
    """Every experiment's output files; writes nothing without ``cfg.out_dir``.

    Writes the manifest, ``<name>.csv`` from ``columns`` and the dict
    ``rows``, and ``result`` as ``<name>.json`` when given, refused by
    :func:`strict_json` when it holds a non-finite number.  With
    ``columns=None`` the rows are observable records, written to
    ``<name>.ndjson`` and ``<name>.csv``; ``rows=None`` writes no table.
    """
    if not cfg.out_dir:
        return
    write_manifest(cfg)
    stem = os.path.join(cfg.out_dir, name)
    if columns is not None:
        write_table(stem + ".csv", columns, rows)
    elif rows is not None:
        write_ndjson(stem + ".ndjson", rows)
        write_records_csv(stem + ".csv", rows)
    if result is not None:
        text = strict_json(result, f"{name}.json")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            fh.write(text)


def _non_finite(value, key=None):
    """Yields (key, number) for each non-finite float in the JSON-like ``value``,
    with the innermost dict key that holds it."""
    if isinstance(value, dict):
        for inner, item in value.items():
            yield from _non_finite(item, inner)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _non_finite(item, key)
    elif isinstance(value, float) and not math.isfinite(value):
        yield key, value


def strict_json(result, what: str) -> str:
    """``result`` as indented JSON without NaN or Infinity, which strict
    parsers refuse; a non-finite number is refused, naming ``what`` and its key."""
    try:
        return json.dumps(result, indent=2, allow_nan=False)
    except ValueError:
        key, value = next(_non_finite(result))
        raise ValueError(f"{what}: {key!r} is {value!r}, which JSON cannot hold") from None


# --- initial data ------------------------------------------------------------------


def random_band_limited_state(
    grid: SpectralGrid,
    params: ModelParams,
    rng: np.random.Generator,
    max_mode: int = 4,
    amplitude: float = 0.1,
) -> PhaseState:
    """Homogeneous state with a smooth random perturbation.

    The perturbation is band-limited (all mode numbers <= ``max_mode``),
    scaled to sup-norm ``amplitude`` relative to the uniform density, and
    renormalized to unit mass; the density stays positive for an amplitude
    below 1.
    """
    shape = grid.shape_four3
    coeffs = np.zeros(shape, dtype=complex)
    band = (
        (np.abs(grid.m1)[:, None, None] <= max_mode)
        & (grid.m2[None, :, None] <= max_mode)
        & (np.abs(grid.n_modes)[None, None, :] <= max_mode)
    )
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[band] = noise[band]
    coeffs[0, 0, 0] = 0.0
    g = ifft3(coeffs, grid)
    g /= max(float(np.max(np.abs(g))), 1.0e-300)
    f = (1.0 + amplitude * g) / TWO_PI
    f /= f.mean() * TWO_PI  # unit mass on the grid
    return state_from_density(grid, params, f)


def bump_density(grid: SpectralGrid, l6_target: float) -> np.ndarray:
    """Angular marginal rho >= 0 with unit mass and a prescribed L^6 norm.

    rho = 1 + A (G - mean G) with G a periodic Gaussian bump of width
    ``_BUMP_WIDTH``; A is found by Brent's method (the norm is strictly
    increasing in A).  ``l6_target`` must be >= 1 and below the positivity cap.
    """
    if not l6_target >= 1.0:
        raise ValueError(f"l6_target must be >= 1, got {l6_target}")
    x1 = grid.x1[:, None]
    x2 = grid.x2[None, :]
    d1 = np.minimum(np.abs(x1 - 0.5), 1.0 - np.abs(x1 - 0.5))
    d2 = np.minimum(np.abs(x2 - 0.5), 1.0 - np.abs(x2 - 0.5))
    bump = np.exp(-(d1 * d1 + d2 * d2) / (_BUMP_WIDTH * _BUMP_WIDTH))
    bump -= bump.mean()

    def norm_at(a: float) -> float:
        rho = 1.0 + a * bump
        return float((np.mean(rho**6)) ** (1.0 / 6.0))

    a_max = -1.0 / float(np.min(bump))  # positivity cap
    if norm_at(a_max) < l6_target:
        raise ValueError(
            f"l6_target {l6_target} unreachable with width {_BUMP_WIDTH} "
            f"(cap {norm_at(a_max):.3f})"
        )
    a, _ = _brent(lambda a: norm_at(a) - l6_target, 0.0, a_max)
    return 1.0 + a * bump


def _real_unstable(mu: complex) -> bool:
    """A positive rightmost eigenvalue whose imaginary part is eig round-off."""
    return bool(mu.real > 0.0 and abs(mu.imag) <= 1.0e-10 * (1.0 + abs(mu.real)))


def eigen_seed_states(
    cfg: ExperimentConfig, k: int, amplitude_rel: float, n_modes: int = 64
):
    """The four orthogonal eigenfunction-seeded initial states at wavenumber k.

    Returns (mu, [(name, state, seed_hat)]):  mu is the rightmost
    eigenvalue of the truncated wavenumber-k operator at the configured
    viscosities; seeds are the modes for the means W = 1 and W = i (the
    profile u and i u) and their quarter-turn images, each normalized to
    unit L^2 norm and scaled by amplitude_rel * ||uniform state||, where
    amplitude_rel must be finite and positive; seed_hat is ``fft3`` of the
    unscaled seed field.  For stable or oscillatory rightmost eigenvalues
    the profiles are built at a safe positive rate instead (any smooth seed
    decays there).
    """
    if not (math.isfinite(amplitude_rel) and amplitude_rel > 0.0):
        raise ValueError(f"amplitude must be finite and positive, got {amplitude_rel}")
    params, grid = cfg.params, cfg.grid
    rp = reduce_params(params, k)
    spectrum = viscous_spectrum(rp, n_modes, params.coupling)
    mu = spectrum.rightmost
    mu_build = float(mu.real) if _real_unstable(mu) else abs(mu) + 1.0
    u, chem = seed_profiles(rp, params.coupling, mu_build, grid.n_theta, n_modes)

    f_star_norm = 1.0 / math.sqrt(TWO_PI)
    eps = amplitude_rel * f_star_norm
    seeds = []
    for label, w in (("w1", 1.0), ("w2", 1j)):
        for rotated in (False, True):
            field3 = eigenfunction_field(w * u, grid, k, rotated)
            f_hat = fft3(field3)
            norm = l2_norm3_hat(f_hat, grid)
            if not (math.isfinite(norm) and norm > 0.0):
                raise ValueError(f"the seed at k = {k} has L2 norm {norm!r} at "
                                 f"chi_breve = {rp.chi_breve!r}; no mode can be seeded")
            scale = eps / norm
            f = (1.0 / TWO_PI) + scale * field3
            c_values = None
            if chem is not None:
                c_pert = plane_wave(w * chem, grid, k, along_x2=rotated)
                c_values = 1.0 / params.gamma + scale * c_pert
            state = state_from_density(grid, params, f, c_values=c_values)
            seeds.append((label + ("_rot" if rotated else ""), state, f_hat))
    return spectrum, seeds


# --- dispersion map / scan ----------------------------------------------------------


def dispersion_report(params: ModelParams, k: int) -> dict:
    """Margin, reduced scalars, and the positive root (if any) at wavenumber k."""
    rp = reduce_params(params, k)
    margin = instability_margin(params, k)
    root = find_unstable_root(rp, params.coupling)
    report = {
        "k": k,
        "coupling": params.coupling.value,
        "margin": margin,
        "condition_gap_4pi2": condition_gap(params, k),
        "chi_breve": rp.chi_breve,
        "tau_breve": rp.tau_breve,
        "lambda_breve": rp.lambda_breve,
        "sigma_x_breve": rp.sigma_x_breve,
        "nu_breve": rp.nu_breve,
    }
    if isinstance(root, DispersionResult):
        report.update(mu0=root.mu0, residual=root.residual, root_exists=True)
    else:
        report.update(mu0=None, residual=None, root_exists=False,
                      boundary_value=root.boundary_value)
    return report


def run_eigen(
    cfg: ExperimentConfig,
    k: int,
    sigmas,
    n_modes: int = 64,
) -> dict:
    """Rightmost truncated-operator eigenvalues across an angular-viscosity sweep.

    ``persistent`` reports whether a positive real rightmost eigenvalue
    survives over the whole sweep.
    """
    rp = reduce_params(cfg.params, k)
    spectra = eigen_sweep(rp, cfg.params.coupling, sigmas, n_modes)
    rows = [
        {
            "sigma": spectrum.sigma,
            "rightmost_re": spectrum.rightmost.real,
            "rightmost_im": spectrum.rightmost.imag,
            "multiplicity": spectrum.multiplicity,
        }
        for spectrum in spectra
    ]
    persistent = all(row["rightmost_re"] > 0.0 for row in rows)
    write_outputs(cfg, "eigen", ("sigma", "rightmost_re", "rightmost_im", "multiplicity"), rows)
    return {"k": k, "rows": rows, "persistent": persistent}


def _scan_row(args):
    params, k, n_modes = args
    row = {"k": k, "error": ""}
    try:
        report = dispersion_report(params, k)
        rp = reduce_params(params, k)
        spectrum = viscous_spectrum(rp, n_modes, params.coupling)
        rightmost = spectrum.rightmost
        row.update(
            margin=report["margin"],
            condition_gap_4pi2=report["condition_gap_4pi2"],
            mu0=report["mu0"],
            viscous_rightmost_re=rightmost.real,
            viscous_rightmost_im=rightmost.imag,
            multiplicity=spectrum.multiplicity,
        )
        consistent = True
        # eig real-part noise on the skew transport block sits near 1e-10
        if rightmost.real > 1.0e-8 and report["mu0"] is None:
            consistent = False
        if report["mu0"] is not None and report["margin"] <= 0.0:
            consistent = False
        row["consistent"] = consistent
    except Exception as exc:  # per-k failures must not abort the scan
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["consistent"] = False
    return row


def run_instability_scan(cfg: ExperimentConfig, k_max: int, n_modes: int = 64) -> dict:
    """Margins, roots, and truncated-operator eigenvalues for k = 1..k_max."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    n_modes = check_n_modes(n_modes)
    jobs = [(cfg.params, k, n_modes) for k in range(1, k_max + 1)]
    # the fork start method launches every worker at the first submit
    workers = min(cfg.threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_row, jobs))
    else:
        rows = [_scan_row(job) for job in jobs]
    write_outputs(
        cfg,
        "scan",
        (
            "k",
            "margin",
            "condition_gap_4pi2",
            "mu0",
            "viscous_rightmost_re",
            "viscous_rightmost_im",
            "multiplicity",
            "consistent",
            "error",
        ),
        rows,
    )
    return {"rows": rows, "ok": all(row["consistent"] for row in rows)}


# --- ensemble members ---------------------------------------------------------------


class _StopMember(Exception):
    """Raised inside :func:`_run_member` to end a member's run early."""


def _run_member(state, stepper, params, t_end, stride, fit_from, stop=None):
    """Run one member from ``state``, sampled every ``stride`` steps, and summarise it.

    ``stop(records)``, when given, is asked after every sample and ends the
    run when true.  A blow-up (``RuntimeError``) ends it too, keeping the
    samples from before it.  Returns ``(t_stop, error, mass_err, min_f,
    fit)``: ``error`` is the blow-up's message or "", and ``fit`` is the
    deviation's :func:`fit_exponential_rate` over ``(fit_from * t_stop,
    t_stop)`` or, when that fails, its message.
    """
    collector = ObservableCollector(params)

    def check(_state):
        if stop(collector.records):
            raise _StopMember

    error = ""
    try:
        run(state, stepper, params, t_end, stride=stride,
            observers=(collector,) if stop is None else (collector, check))
    except _StopMember:
        pass
    except RuntimeError as exc:
        error = str(exc)
    records = collector.records  # never empty: the initial state is sampled
    t_stop = float(records[-1].t)
    try:
        fit = fit_exponential_rate([record.t for record in records],
                                   [record.l2_f_dev for record in records],
                                   window=(fit_from * t_stop, t_stop))
    except ValueError as exc:
        fit = str(exc)
    mass_err = max(abs(record.mass - 1.0) for record in records)
    return t_stop, error, mass_err, min(record.min_f for record in records), fit


# --- growth match -------------------------------------------------------------------


def run_growth_match(
    cfg: ExperimentConfig,
    k: int,
    t_end: float | None = None,
    amplitude_rel: float = 1.0e-6,
    n_modes: int = 64,
) -> dict:
    """Seed the four orthogonal eigenfunctions and match growth rates.

    The fit window covers growth by at most three decades from the seed
    amplitude.  Reports per-seed fitted rates, the predicted eigenvalue,
    and the Gram matrix of the seeds; ``ok`` demands 5 percent agreement
    and a diagonal Gram matrix when a positive eigenvalue exists, negative
    rates otherwise.  A seed that blows up raises the stepper's error.
    """
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end is not None and t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    params, grid, stepper = cfg.params, cfg.grid, cfg.stepper
    spectrum, seeds = eigen_seed_states(cfg, k, amplitude_rel, n_modes)
    mu = spectrum.rightmost
    unstable = _real_unstable(mu)

    if t_end is None:
        t_end = 0.95 * math.log(1.0e3) / mu.real if unstable else 2.0
    if not math.isfinite(t_end / stepper.dt):
        raise ValueError(f"t_end = {t_end} and dt = {stepper.dt} give a step count "
                         "that is not finite")
    n_steps = max(int(math.ceil(t_end / stepper.dt)), _GROWTH_SAMPLES)
    t_end = n_steps * stepper.dt
    stride = max(1, n_steps // _GROWTH_SAMPLES)

    # half-axis-weighted Gram matrix, up to a factor the normalisation cancels;
    # Re<a, b> is the dot product of the float views of a and b
    root_w = np.sqrt(grid.half_weights)[None, :, None]
    vectors = np.stack([(root_w * seed_hat).ravel() for _, _, seed_hat in seeds]).view(float)
    gram = vectors @ vectors.T
    scale = np.sqrt(np.diag(gram))
    normalised = np.abs(gram) / np.outer(scale, scale)
    off_diag = float(np.max(normalised[~np.eye(len(seeds), dtype=bool)]))

    table = []
    for name, state, _ in seeds:
        t_stop, error, mass_err, min_f, fit = _run_member(
            state, stepper, params, t_end, stride, fit_from=0.1)
        if error:
            raise RuntimeError(error)
        entry = {"seed": name}
        if isinstance(fit, str):
            entry.update(rate=None, r2=None, diagnostic=fit)
        else:
            entry.update(rate=fit.rate, r2=fit.r2, n_samples=fit.n_samples)
            if unstable:
                entry["relative_error"] = abs(fit.rate - mu.real) / abs(mu.real)
        entry.update(mass_err=mass_err, min_f=min_f)
        table.append(entry)

    if unstable:
        ok = all(
            entry.get("relative_error") is not None
            and entry["relative_error"] <= 0.05
            for entry in table
        ) and bool(off_diag <= 1.0e-10)
    else:
        ok = all(entry.get("rate") is not None and entry["rate"] < 0.0 for entry in table)

    result = {
        "k": k,
        "mu_predicted_re": mu.real,
        "mu_predicted_im": mu.imag,
        "multiplicity": spectrum.multiplicity,
        "unstable": unstable,
        "gram_off_diagonal": off_diag,
        "t_end": t_end,
        "seeds": table,
        "ok": ok,
    }
    write_outputs(
        cfg,
        "growth_match",
        ("seed", "rate", "r2", "relative_error", "n_samples", "mass_err", "min_f"),
        table,
        result,
    )
    return result


# --- stability sweep ----------------------------------------------------------------


def run_stability_sweep(
    cfg: ExperimentConfig,
    chi_values=None,
    k_max: int = 4,
    t_end: float = 20.0,
    stride: int = 20,
) -> dict:
    """Sweep chi from common random smooth data and locate the empirical threshold.

    Every member starts from ``initial_state(cfg, "random")`` and runs once,
    until t_end or the first sample past the initial one whose deviation
    reaches the cap.  The default chi grid brackets the predicted inviscid
    threshold at the most unstable wavenumber in 1..k_max symmetrically
    (``k_max`` is refused above half the smaller spatial grid size), so the
    sign-change midpoint can be compared against the prediction.  Rates are
    fitted on the second half of each run.  ``threshold_ok`` needs at least
    one fitted rate, and a sign-change midpoint, if any, at or below the
    prediction.
    """
    params, grid = cfg.params, cfg.grid
    k_limit = min(grid.n_x1, grid.n_x2) // 2
    if k_max > k_limit:
        raise ValueError(f"k_max = {k_max} exceeds {k_limit}, the largest wavenumber "
                         f"the {grid.n_x1}x{grid.n_x2} spatial grid holds")
    k_star = most_unstable_k(params, k_max)
    chi_star = inviscid_threshold_chi(params, k_star)
    if chi_values is None:
        chi_values = [0.0, 0.4 * chi_star, 0.8 * chi_star, 1.2 * chi_star, 1.6 * chi_star]
    chi_values = sorted(float(c) for c in chi_values)
    if not chi_values:
        raise ValueError(f"the chi grid must hold at least one chi, got {chi_values}")

    base_state = initial_state(cfg, "random")
    dev_cap = 0.2 / math.sqrt(TWO_PI)  # stop well before trails saturate

    def reached_cap(records):
        return len(records) > 1 and records[-1].l2_f_dev >= dev_cap

    rows = []
    for chi in chi_values:
        t_stop, error, mass_err, min_f, fit = _run_member(
            base_state, cfg.stepper, params.replace(chi=chi), t_end, stride,
            fit_from=0.5, stop=reached_cap)
        row = {"chi": chi, "t_stop": t_stop, "error": error, "mass_err": mass_err,
               "min_f": min_f}
        if isinstance(fit, str):
            row.update(rate=None, r2=None, error=error or fit)
        else:
            row.update(rate=fit.rate, r2=fit.r2)
        rows.append(row)

    threshold = None
    fitted = [row for row in rows if row["rate"] is not None]
    for left, right in zip(fitted, fitted[1:]):
        if left["rate"] < 0.0 <= right["rate"]:
            threshold = 0.5 * (left["chi"] + right["chi"])
            break

    result = {
        "rows": rows,
        "empirical_threshold": threshold,
        "most_unstable_k": k_star,
        "inviscid_threshold_chi": chi_star,
        "threshold_ok": bool(fitted)
        and (threshold is None or threshold <= chi_star * (1.0 + 1.0e-9)),
    }
    write_outputs(
        cfg,
        "stability_sweep",
        ("chi", "rate", "r2", "t_stop", "mass_err", "min_f", "error"),
        rows,
        result,
    )
    return result


# --- plain simulation ---------------------------------------------------------------


def initial_state(cfg: ExperimentConfig, init: str = "random") -> PhaseState:
    """Initial condition selected by name.

    ``random`` (band-limited perturbation, seeded), ``homogeneous``,
    ``bump:<l6>`` (angle-independent bump with that L^6 marginal norm), or
    ``checkpoint:<dir>``, which is refused when stored on another grid or
    stamped with another config digest.
    """
    params, grid = cfg.params, cfg.grid
    if init == "homogeneous":
        return homogeneous_state(grid, params)
    if init == "random":
        rng = np.random.default_rng(cfg.seed)
        return random_band_limited_state(grid, params, rng)
    if init.startswith("bump:"):
        try:
            l6_target = float(init.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"initial condition {init!r}: the l6 norm must be a number") from None
        rho = bump_density(grid, l6_target)
        f = np.repeat(rho[:, :, None], grid.n_theta, axis=2) / TWO_PI
        return state_from_density(grid, params, f)
    if init.startswith("checkpoint:"):
        return read_checkpoint(init.split(":", 1)[1], cfg.digest, grid=grid)
    raise ValueError(f"unknown initial condition {init!r}")


def run_simulate(
    cfg: ExperimentConfig,
    t_end: float,
    stride: int = 10,
    init: str = "random",
    checkpoint_every: int | None = None,
) -> dict:
    """Integrate and sample observables, plus a final checkpoint.

    The samples up to the first one holding a non-finite value are written
    as NDJSON and CSV when the run ends or fails; a run that ends with such
    a sample then raises, naming its time.  A resume must step past the
    checkpoint's time, and ``checkpoint_every`` needs ``cfg.out_dir``.  The
    returned summary, flags included, is also written as ``simulate.json``.
    """
    if checkpoint_every is not None and not cfg.out_dir:
        raise ValueError("checkpoint_every needs an output directory (--out)")
    state = initial_state(cfg, init)
    include_initial = state.step == 0
    if not include_initial and t_end - state.t < 0.5 * cfg.stepper.dt:
        raise ValueError(
            f"t_end = {t_end!r} does not lie after the checkpoint time t = {state.t!r}"
        )
    collector = ObservableCollector(cfg.params)
    checkpoint_dir = os.path.join(cfg.out_dir, "checkpoint") if cfg.out_dir else None
    try:
        result = run(
            state,
            cfg.stepper,
            cfg.params,
            t_end,
            observers=(collector,),
            stride=stride,
            include_initial=include_initial,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            config_digest=cfg.digest,
        )
    finally:
        # the samples leading into a blow-up overflow; strict JSON cannot hold them
        clean = list(itertools.takewhile(record_is_finite, collector.records))
        if clean and cfg.out_dir:
            write_outputs(cfg, "observables", None, clean)
            # an earlier run's summary would sit beside these samples; a success rewrites it
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(cfg.out_dir, "simulate.json"))
    if len(clean) < len(collector.records):
        bad = collector.records[len(clean)]
        written = f"; the {len(clean)} samples before it were written"
        raise RuntimeError(f"non-finite observables in the sample at t = {bad.t!r}"
                           + (written if cfg.out_dir and clean else ""))
    final = collector.records[-1]
    summary = {
        "t": result.state.t,
        "n_steps": result.n_steps,
        "mass": final.mass,
        "l2_f_dev": final.l2_f_dev,
        "dominant_k": final.dominant_k,
        "trail_count": final.trail_count,
        "cfl_flagged": result.cfl_flagged,
        "positivity_flagged": result.positivity_flagged,
        "records": len(collector.records),
    }
    write_outputs(cfg, "simulate", None, None, result=summary)
    return summary
