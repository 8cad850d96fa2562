"""Observables, exponential-rate fits, and the energy-balance residual.

The residual checks the exact identity

    d/dt int f^2/2 = - int (sigma_x |grad_x f|^2 + sigma_theta |d_theta f|^2)
                     - (chi/2) int f^2 d_theta B

satisfied by smooth solutions; on a discrete trajectory it decays at the
scheme's formal order.

Each sample is observed once: :func:`compute_observables` forms |f_hat|^2
and the physical f once, and derives from them both the written observables
and the sample's three balance terms (int f^2, the dissipation sum and the
turning integral), which its record carries but does not write.  A sample's
residual combines its own terms with its neighbours' energies, so the
collector back-fills it once the next sample is taken and keeps no state.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.signal

from .dynamics import PhaseState, marginal_hat
from .params import ModelParams
from .spectral import expand_bias, ifft2, lp_norm_phys, turning_bias_parts

TWO_PI = 2.0 * math.pi

LP_ORDERS = (1, 2, 6)


@dataclass
class ObservableRecord:
    t: float
    mass: float
    min_f: float
    l2_f_dev: float
    lp_rho: dict
    h1_f: float
    grad_c_l2: float
    hess_c_l2: float
    dissipation_residual: float | None
    dominant_k: int
    trail_count: int
    # (int f^2, dissipation sum, turning integral) of the energy balance
    balance_terms: tuple = field(metadata={"written": False})


def dominant_wavenumber(power, grid) -> int:
    """|m| of the spatial mode carrying the most deviation energy.

    ``power`` is the half-axis-weighted |f_hat|^2; summed over angular
    modes, it measures the walker density aggregated over angles.  Returns
    0 when nothing rises above round-off relative to the uniform mode.
    """
    energy = np.sum(power, axis=2)
    zero_level = energy[0, 0]
    energy[0, 0] = 0.0
    peak = float(np.max(energy))
    if peak <= 1.0e-20 * max(zero_level, 1.0):
        return 0
    idx = np.unravel_index(int(np.argmax(energy)), energy.shape)
    m1 = abs(int(grid.m1[idx[0]]))
    m2 = int(grid.m2[idx[1]])
    return int(round(math.hypot(m1, m2)))


def count_trails(rho: np.ndarray, grid, prominence_frac: float = 0.05) -> int:
    """Number of parallel ridges in the angular marginal rho.

    The dominant spatial direction comes from rho's own spectrum; rho is
    averaged along the other axis and maxima of the periodic profile are
    counted with a prominence threshold of ``prominence_frac`` of the
    profile range.
    """
    rho_hat = np.fft.rfft2(rho)
    mags = np.abs(rho_hat)
    zero = mags[0, 0]
    mags[0, 0] = 0.0
    if float(np.max(mags)) <= 1.0e-10 * max(zero, 1.0):
        return 0
    idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
    m1 = abs(int(grid.m1[idx[0]]))
    m2 = int(grid.m2[idx[1]])
    profile = rho.mean(axis=1) if m1 >= m2 else rho.mean(axis=0)
    span = float(np.max(profile) - np.min(profile))
    if span <= 1.0e-12 * max(1.0, abs(float(np.mean(profile)))):
        return 0
    rolled = np.roll(profile, -int(np.argmin(profile)))
    extended = np.concatenate([rolled, rolled[:1]])
    peaks, _ = scipy.signal.find_peaks(extended, prominence=prominence_frac * span)
    return int(len(peaks))


def compute_observables(
    state: PhaseState, params: ModelParams, prominence_frac: float = 0.05
) -> ObservableRecord:
    grid = state.grid
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    n_xy = grid.n_x1 * grid.n_x2
    w3 = grid.half_weights[None, :, None]
    w2 = grid.half_weights[None, :]

    f_hat = state.f_hat
    f_phys = state.f_physical()
    mass = state.mass()

    sq = np.abs(f_hat) ** 2
    power = w3 * sq
    power_sum = float(np.sum(power))
    zero_dev = abs(f_hat[0, 0, 0] - n_tot / TWO_PI) ** 2
    l2_dev = math.sqrt(
        max(TWO_PI * (power_sum - float(power[0, 0, 0]) + zero_dev), 0.0)
    ) / n_tot

    sobolev = float(np.sum(w3 * (1.0 + grid.ksq_3d + grid.nsq_3d) * sq))
    h1 = math.sqrt(TWO_PI * sobolev) / n_tot

    rho = ifft2(marginal_hat(f_hat, grid), grid)
    lp = {
        p: lp_norm_phys(rho, float(p), grid.cell_area) for p in LP_ORDERS
    }

    c_hat = state.c_hat
    grad_c = math.sqrt(float(np.sum(w2 * grid.ksq_2d * np.abs(c_hat) ** 2))) / n_xy
    hess_c = math.sqrt(float(np.sum(w2 * grid.ksq_2d**2 * np.abs(c_hat) ** 2))) / n_xy

    # the residual is a sum of nearly cancelling terms: keep the operand order
    f_sq = TWO_PI * power_sum / n_tot**2
    damping = params.sigma_x * grid.ksq_3d + params.sigma_theta * grid.nsq_3d
    dissip = TWO_PI * float(np.sum(w3 * damping * sq)) / n_tot**2
    turning = 0.0
    if params.chi != 0.0:
        # d_theta B is the bias expansion of the rotated parts
        g1, g2, s, r = turning_bias_parts(c_hat, grid, params.tau)
        db = expand_bias((g2, -g1, -2.0 * r, 2.0 * s), grid)
        turning = 0.5 * params.chi * float(np.sum(f_phys * f_phys * db)) * grid.cell_volume

    return ObservableRecord(
        t=state.t,
        mass=mass,
        min_f=float(np.min(f_phys)),
        l2_f_dev=l2_dev,
        lp_rho=lp,
        h1_f=h1,
        grad_c_l2=grad_c,
        hess_c_l2=hess_c,
        dissipation_residual=None,
        dominant_k=dominant_wavenumber(power, grid),
        trail_count=count_trails(rho, grid, prominence_frac),
        balance_terms=(f_sq, dissip, turning),
    )


def dissipation_residual(records) -> float | None:
    """Energy-balance residual of the middle of three consecutive records.

    Centered difference of the kinetic energy against the middle record's
    dissipation and turning terms, normalized by its int f^2; None when the
    samples are not equally spaced.
    """
    r0, r1, r2 = records
    d10 = r1.t - r0.t
    d21 = r2.t - r1.t
    if d10 <= 0.0 or abs(d21 - d10) > 1.0e-9 * d10:
        return None
    e0 = 0.5 * r0.balance_terms[0]
    e2 = 0.5 * r2.balance_terms[0]
    de_dt = (e2 - e0) / (r2.t - r0.t)
    f_sq, dissip, turning = r1.balance_terms
    norm = max(f_sq, 1.0e-300)
    return (de_dt + dissip + turning) / norm


class ObservableCollector:
    """Observer for :func:`antkinetics.dynamics.run`.

    Collects one record per sample and, once the next sample is taken,
    back-fills the energy-balance residual of the one before it from the
    records alone; no state is kept.
    """

    def __init__(self, params: ModelParams, prominence_frac: float = 0.05):
        self.params = params
        self.prominence_frac = prominence_frac
        self.records: list[ObservableRecord] = []

    def __call__(self, state: PhaseState) -> None:
        self.records.append(compute_observables(state, self.params, self.prominence_frac))
        if len(self.records) >= 3:
            self.records[-2].dissipation_residual = dissipation_residual(self.records[-3:])


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    r2: float
    n_samples: int
    log_intercept: float


def fit_exponential_rate(times, values, window=None) -> ExponentialFit:
    """Least-squares slope of log(values) against time.

    ``window = (t_a, t_b)`` restricts the samples (inclusive).  Raises if
    fewer than 10 samples remain or any value is nonpositive.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    if window is not None:
        t_a, t_b = window
        keep = (t >= t_a) & (t <= t_b)
        t, v = t[keep], v[keep]
    if t.size < 10:
        raise ValueError(f"need at least 10 samples in the window, got {t.size}")
    if np.any(v <= 0.0):
        raise ValueError("values must be positive for a log-linear fit")
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    predicted = slope * t + intercept
    ss_res = float(np.sum((logs - predicted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot <= 1.0e-300 else 1.0 - ss_res / ss_tot
    return ExponentialFit(
        rate=float(slope), r2=float(r2), n_samples=int(t.size), log_intercept=float(intercept)
    )


# --- output formats -------------------------------------------------------------

RECORD_FIELDS = tuple(
    f.name for f in fields(ObservableRecord) if f.metadata.get("written", True)
)

# the CSV spreads lp_rho over one column per order
CSV_COLUMNS = tuple(
    column
    for name in RECORD_FIELDS
    for column in ([f"{name}_{p}" for p in LP_ORDERS] if name == "lp_rho" else [name])
)


def record_to_dict(record: ObservableRecord) -> dict:
    """The record's fields in declaration order; ``lp_rho`` keys become strings."""
    out = {name: getattr(record, name) for name in RECORD_FIELDS}
    out["lp_rho"] = {str(p): record.lp_rho[p] for p in sorted(record.lp_rho)}
    return out


def _csv_row(record: ObservableRecord) -> dict:
    row = record_to_dict(record)
    row.update((f"lp_rho_{p}", value) for p, value in row.pop("lp_rho").items())
    return row


def record_is_finite(record: ObservableRecord) -> bool:
    """False when any value overflowed; a missing residual counts as finite."""
    return all(value is None or math.isfinite(value) for value in _csv_row(record).values())


def write_ndjson(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), allow_nan=False) + "\n")


def write_table(path, columns, rows) -> None:
    """CSV with a header row; ``rows`` are dicts, written as floats by ``repr``
    and ``None`` or a missing column as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                "" if value is None else repr(value) if isinstance(value, float) else value
                for value in map(row.get, columns)
            )


def write_records_csv(path, records) -> None:
    write_table(path, CSV_COLUMNS, map(_csv_row, records))
