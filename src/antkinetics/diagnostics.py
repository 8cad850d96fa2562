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
The fixed Parseval weights of the norms, and the waves and multipliers of
the turning bias, come from the grid, which builds each once, on its first
sample; the collector builds the dissipation weights on its first sample
and keeps them for the run.  The physical f and the turning-bias parts of
c_hat are the state's own caches (see :class:`~antkinetics.dynamics.PhaseState`):
an observation builds them at most once, and the step from the state reads
the same arrays, so a sample costs only the work its state has not
already done.

Only the JSON line builds a record's dict, through one strict encoder; the
finiteness check and the CSV read the record's values in column order.

The record's first four fields (t, the mass, min f and the L^2 deviation)
come from :func:`deviation_sample`, which an ensemble member calls alone:
its summary reads nothing else, so it pays for no other observable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from .dynamics import PhaseState, dissipation_rates, marginal_hat
from .params import ModelParams
from .spectral import expand_bias, fft2, half_axis_power, ifft2, lp_norm_phys

TWO_PI = 2.0 * math.pi

LP_ORDERS = (1, 2, 6)

# a trail is a maximum whose prominence reaches this share of the profile range
_TRAIL_PROMINENCE = 0.05


class Sample(NamedTuple):
    """The leading fields of :class:`ObservableRecord`, with the same bits."""

    t: float
    mass: float
    min_f: float
    l2_f_dev: float


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


def _peak_mode(spectrum, grid, floor):
    """(|m1|, m2) of the largest entry of a 2-D half-axis spectrum, after its
    (0, 0) entry is zeroed in place; None unless that largest entry exceeds
    ``floor`` times the larger of 1 and the (0, 0) entry's old value."""
    zero = spectrum[0, 0]
    spectrum[0, 0] = 0.0
    if float(np.max(spectrum)) <= floor * max(zero, 1.0):
        return None
    idx = np.unravel_index(int(np.argmax(spectrum)), spectrum.shape)
    return abs(int(grid.m1[idx[0]])), int(grid.m2[idx[1]])


def dominant_wavenumber(power, grid) -> int:
    """|m| of the spatial mode carrying the most deviation energy.

    ``power`` is the half-axis-weighted |f_hat|^2; summed over angular
    modes, it measures the walker density aggregated over angles.  Returns
    0 when nothing rises above round-off relative to the uniform mode.
    """
    mode = _peak_mode(np.sum(power, axis=2), grid, 1.0e-20)
    return 0 if mode is None else int(round(math.hypot(*mode)))


def count_trails(rho: np.ndarray, grid) -> int:
    """Number of parallel ridges in the angular marginal rho.

    The dominant spatial direction comes from rho's own spectrum; rho is
    averaged along the other axis, and the periodic profile is rolled to
    start at its minimum and closed with that sample again.  The ridges are
    the peaks of this closed profile whose prominence is >= h, with h
    ``_TRAIL_PROMINENCE`` of the profile range, which is the count that
    ``scipy.signal.find_peaks(profile, prominence=h)`` gives:

    - a peak is a sample higher than the one before it and than the next
      different one after it, so a plateau counts once; the first and last
      samples are never peaks;
    - its prominence is its height minus the larger of the lowest values
      met walking left and walking right from it while no sample is higher.
    """
    mode = _peak_mode(np.abs(fft2(rho)), grid, 1.0e-10)
    if mode is None:
        return 0
    m1, m2 = mode
    profile = rho.mean(axis=1) if m1 >= m2 else rho.mean(axis=0)
    values = profile.tolist()
    low = min(values)
    span = max(values) - low
    if span <= 1.0e-12 * max(1.0, abs(float(np.mean(profile)))):
        return 0
    start = values.index(low)
    return _prominent_peaks(values[start:] + values[: start + 1], _TRAIL_PROMINENCE * span)


def _prominent_peaks(x: list, h: float) -> int:
    """Number of peaks of the list x with prominence >= h, by the rule in
    :func:`count_trails`."""
    count, last, i = 0, len(x) - 1, 1
    while i < last:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < last and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                top = x[i]
                left = min(takewhile(lambda v: v <= top, reversed(x[:i])))
                right = min(takewhile(lambda v: v <= top, x[ahead:]))
                count += top - max(left, right) >= h
                i = ahead
        i += 1
    return count


def deviation_sample(state: PhaseState):
    """The state's :class:`Sample`, and the spectra its deviation is summed from.

    Returns ``(sample, sq, power, power_sum)``: |f_hat|^2, its half-axis
    weighted form and that form's sum, which :func:`compute_observables`
    reads again.  The deviation is the L^2 norm of f - 1/2pi by Parseval,
    with the zero mode's term replaced by its distance from the uniform one.
    """
    grid = state.grid
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    f_hat = state.f_hat
    sq, power, power_sum = half_axis_power(f_hat, grid)
    zero_dev = abs(f_hat[0, 0, 0] - n_tot / TWO_PI) ** 2
    l2_dev = math.sqrt(
        max(TWO_PI * (power_sum - float(power[0, 0, 0]) + zero_dev), 0.0)
    ) / n_tot
    sample = Sample(state.t, state.mass(), float(np.min(state.f_physical())), l2_dev)
    return sample, sq, power, power_sum


def _dissipation_weights(grid, params: ModelParams) -> np.ndarray:
    """The half-axis Parseval weights times the dissipation rates."""
    return grid.half_weights[None, :, None] * dissipation_rates(grid, params)


def compute_observables(state: PhaseState, params: ModelParams,
                        dissipation_weights=None) -> ObservableRecord:
    """The state's record, its residual left None; the dissipation weights
    (see :class:`ObservableCollector`) are built here when not given."""
    grid = state.grid
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    n_xy = grid.n_x1 * grid.n_x2
    if dissipation_weights is None:
        dissipation_weights = _dissipation_weights(grid, params)

    f_hat = state.f_hat
    f_phys = state.f_physical()
    sample, sq, power, power_sum = deviation_sample(state)

    sobolev = float(np.sum(grid.sobolev_weights3 * sq))
    h1 = math.sqrt(TWO_PI * sobolev) / n_tot

    rho = ifft2(marginal_hat(f_hat, grid), grid)
    lp = {
        p: lp_norm_phys(rho, float(p), grid.cell_area) for p in LP_ORDERS
    }

    c_hat = state.c_hat
    c_sq = np.abs(c_hat) ** 2
    grad_c = math.sqrt(float(np.sum(grid.gradient_weights2 * c_sq))) / n_xy
    hess_c = math.sqrt(float(np.sum(grid.hessian_weights2 * c_sq))) / n_xy

    # the residual is a sum of nearly cancelling terms: keep the operand order
    f_sq = TWO_PI * power_sum / n_tot**2
    dissip = TWO_PI * float(np.sum(dissipation_weights * sq)) / n_tot**2
    turning = 0.0
    if params.chi != 0.0:
        # d_theta B is the bias expansion of the rotated parts
        g1, g2, *sr = state.bias_parts(params.tau)
        rotated = (g2, -g1, -2.0 * sr[1], 2.0 * sr[0]) if sr else (g2, -g1)
        db = expand_bias(rotated, grid)
        turning = 0.5 * params.chi * float(np.sum(f_phys * f_phys * db)) * grid.cell_volume

    return ObservableRecord(
        **sample._asdict(),
        lp_rho=lp,
        h1_f=h1,
        grad_c_l2=grad_c,
        hess_c_l2=hess_c,
        dissipation_residual=None,
        dominant_k=dominant_wavenumber(power, grid),
        trail_count=count_trails(rho, grid),
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
    records alone; no state is kept.  The dissipation weights are built on
    the first sample and kept for the grid.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.records: list[ObservableRecord] = []
        self._weights = (None, None)  # (grid, dissipation weights)

    def __call__(self, state: PhaseState) -> None:
        if self._weights[0] != state.grid:
            self._weights = (state.grid, _dissipation_weights(state.grid, self.params))
        self.records.append(compute_observables(state, self.params, self._weights[1]))
        if len(self.records) >= 3:
            self.records[-2].dissipation_residual = dissipation_residual(self.records[-3:])


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    r2: float
    n_samples: int


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
    return ExponentialFit(rate=float(slope), r2=float(r2), n_samples=int(t.size))


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


def _csv_values(record: ObservableRecord) -> list:
    """The record's values in the order of ``CSV_COLUMNS``."""
    return [value for name in RECORD_FIELDS for value in (
        map(record.lp_rho.get, LP_ORDERS) if name == "lp_rho" else (getattr(record, name),))]


def record_is_finite(record: ObservableRecord) -> bool:
    """False when any value overflowed; a missing residual counts as finite."""
    return all(value is None or math.isfinite(value) for value in _csv_values(record))


# one strict encoder for every record: no NaN or Infinity in the output
_JSON = json.JSONEncoder(allow_nan=False)


def write_ndjson(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_JSON.encode(record_to_dict(record)) + "\n" for record in records)


def _write_csv(path, columns, rows) -> None:
    """CSV with a header row; each row is a sequence of values in column
    order, floats written by ``repr`` and ``None`` as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            ["" if value is None else repr(value) if isinstance(value, float) else value
             for value in row]
            for row in rows
        )


def write_table(path, columns, rows) -> None:
    """:func:`_write_csv` of the dicts ``rows``; a missing column is an empty cell."""
    _write_csv(path, columns, (map(row.get, columns) for row in rows))


def write_records_csv(path, records) -> None:
    _write_csv(path, CSV_COLUMNS, map(_csv_values, records))
