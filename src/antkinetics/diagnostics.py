"""Observables, exponential-rate fits, and the energy-balance residual.

The residual checks the exact identity

    d/dt int f^2/2 = - int (sigma_x |grad_x f|^2 + sigma_theta |d_theta f|^2)
                     - (chi/2) int f^2 d_theta B

satisfied by smooth solutions; on a discrete trajectory it decays at the
scheme's formal order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

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


def _weighted_mode_energy(f_hat, grid):
    """Half-axis-weighted |coefficient|^2 summed over angular modes."""
    return np.sum(
        grid.half_weights[None, :, None] * np.abs(f_hat) ** 2, axis=2
    )


def dominant_wavenumber(f_hat, grid) -> int:
    """|m| of the spatial mode carrying the most deviation energy.

    Measured on the walker density aggregated over angles; returns 0 when
    nothing rises above round-off relative to the uniform mode.
    """
    energy = _weighted_mode_energy(f_hat, grid)
    zero_level = energy[0, 0]
    energy = energy.copy()
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

    dev_sq = w3 * np.abs(f_hat) ** 2
    zero_dev = abs(f_hat[0, 0, 0] - n_tot / TWO_PI) ** 2
    l2_dev = math.sqrt(
        max(TWO_PI * (float(np.sum(dev_sq)) - float(dev_sq[0, 0, 0]) + zero_dev), 0.0)
    ) / n_tot

    sobolev = float(np.sum(w3 * (1.0 + grid.ksq_3d + grid.nsq_3d) * np.abs(f_hat) ** 2))
    h1 = math.sqrt(TWO_PI * sobolev) / n_tot

    rho = ifft2(marginal_hat(f_hat, grid), grid)
    lp = {
        p: lp_norm_phys(rho, float(p), grid.cell_area) for p in LP_ORDERS
    }

    c_hat = state.c_hat
    grad_c = math.sqrt(float(np.sum(w2 * grid.ksq_2d * np.abs(c_hat) ** 2))) / n_xy
    hess_c = math.sqrt(float(np.sum(w2 * grid.ksq_2d**2 * np.abs(c_hat) ** 2))) / n_xy

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
        dominant_k=dominant_wavenumber(f_hat, grid),
        trail_count=count_trails(rho, grid, prominence_frac),
    )


def dissipation_residual(states, params: ModelParams) -> float:
    """Energy-balance residual from a window of three equispaced states.

    Centered difference of the kinetic energy against the dissipation and
    turning terms evaluated at the middle state; normalized by the middle
    int f^2.
    """
    if len(states) != 3:
        raise ValueError(f"need exactly 3 states, got {len(states)}")
    s0, s1, s2 = states
    d10 = s1.t - s0.t
    d21 = s2.t - s1.t
    if d10 <= 0.0 or abs(d21 - d10) > 1.0e-9 * d10:
        raise ValueError(f"window must be uniformly spaced, got dt = {d10}, {d21}")
    grid = s1.grid
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    w3 = grid.half_weights[None, :, None]

    def f_sq_integral(state):
        return TWO_PI * float(np.sum(w3 * np.abs(state.f_hat) ** 2)) / n_tot**2

    e0 = 0.5 * f_sq_integral(s0)
    e2 = 0.5 * f_sq_integral(s2)
    de_dt = (e2 - e0) / (s2.t - s0.t)

    f1 = s1.f_hat
    dissip = (
        TWO_PI
        * float(
            np.sum(
                w3
                * (params.sigma_x * grid.ksq_3d + params.sigma_theta * grid.nsq_3d)
                * np.abs(f1) ** 2
            )
        )
        / n_tot**2
    )

    turning = 0.0
    if params.chi != 0.0:
        # d_theta B is the bias expansion of the rotated parts
        g1, g2, s, r = turning_bias_parts(s1.c_hat, grid, params.tau)
        db = expand_bias((g2, -g1, -2.0 * r, 2.0 * s), grid)
        f_phys = s1.f_physical()
        turning = 0.5 * params.chi * float(np.sum(f_phys * f_phys * db)) * grid.cell_volume

    norm = max(f_sq_integral(s1), 1.0e-300)
    return (de_dt + dissip + turning) / norm


class ObservableCollector:
    """Observer for :func:`antkinetics.dynamics.run`.

    Collects one record per sample and, once three consecutive samples are
    available, back-fills the energy-balance residual of the middle one.
    """

    def __init__(self, params: ModelParams, prominence_frac: float = 0.05):
        self.params = params
        self.prominence_frac = prominence_frac
        self.records: list[ObservableRecord] = []
        self._window: list[PhaseState] = []

    def __call__(self, state: PhaseState) -> None:
        self.records.append(compute_observables(state, self.params, self.prominence_frac))
        self._window.append(state)
        if len(self._window) > 3:
            self._window.pop(0)
        if len(self._window) == 3:
            d10 = self._window[1].t - self._window[0].t
            d21 = self._window[2].t - self._window[1].t
            if d10 > 0.0 and abs(d21 - d10) <= 1.0e-9 * d10:
                self.records[-2].dissipation_residual = dissipation_residual(
                    self._window, self.params
                )


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


def record_to_dict(record: ObservableRecord) -> dict:
    return {
        "t": record.t,
        "mass": record.mass,
        "min_f": record.min_f,
        "l2_f_dev": record.l2_f_dev,
        "lp_rho": {str(p): record.lp_rho[p] for p in sorted(record.lp_rho)},
        "h1_f": record.h1_f,
        "grad_c_l2": record.grad_c_l2,
        "hess_c_l2": record.hess_c_l2,
        "dissipation_residual": record.dissipation_residual,
        "dominant_k": record.dominant_k,
        "trail_count": record.trail_count,
    }


def write_ndjson(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), allow_nan=False) + "\n")


def read_ndjson(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


CSV_COLUMNS = (
    "t",
    "mass",
    "min_f",
    "l2_f_dev",
    "lp_rho_1",
    "lp_rho_2",
    "lp_rho_6",
    "h1_f",
    "grad_c_l2",
    "hess_c_l2",
    "dissipation_residual",
    "dominant_k",
    "trail_count",
)


def write_records_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(
                [
                    repr(record.t),
                    repr(record.mass),
                    repr(record.min_f),
                    repr(record.l2_f_dev),
                    repr(record.lp_rho[1]),
                    repr(record.lp_rho[2]),
                    repr(record.lp_rho[6]),
                    repr(record.h1_f),
                    repr(record.grad_c_l2),
                    repr(record.hess_c_l2),
                    "" if record.dissipation_residual is None else repr(record.dissipation_residual),
                    record.dominant_k,
                    record.trail_count,
                ]
            )
