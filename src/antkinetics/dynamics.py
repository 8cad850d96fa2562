"""Time integration of the coupled kinetic/chemical system.

State is held in Fourier coefficients.  Each step integrates the diffusive
part exactly through its Fourier multiplier, treats drift and turning
explicitly (products formed in physical space, two-thirds dealiased), and
advances the chemical field either by the instantaneous elliptic solve or
by an exact exponential step with the production term frozen.  The zero
mode is never touched by the explicit terms, so total mass is conserved
to the bit.

Schemes: ``imex_euler`` (first order, Lie splitting) and ``etdrk2``
(second order exponential two-stage).  The homogeneous state
(f, c) = (1/2pi, 1/gamma) is a fixed point of both to round-off.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import Coupling, ModelParams, _coerce_enum, load_config
from .spectral import (
    SpectralGrid,
    expand_bias,
    fft2,
    fft3,
    ifft3,
    read_field,
    turning_bias_parts,
    write_field,
)

TWO_PI = 2.0 * math.pi
# a step with dt above _CFL_SAFETY * min(dx / lambda, dtheta / (chi max|B|)) is
# flagged and warns; a state with min f < -_POSITIVITY_TOL * max f is flagged
_CFL_SAFETY = 0.5
_POSITIVITY_TOL = 1.0e-8
_MAX_STEPS = 10**9  # far above any run's need; a larger count would never finish


class Scheme(enum.Enum):
    IMEX_EULER = "imex_euler"
    ETDRK2 = "etdrk2"


@dataclass(frozen=True)
class StepperConfig:
    """Time step and scheme.  The explicit terms are always 2/3-dealiased,
    and the step monitors use fixed thresholds (see ``_CFL_SAFETY`` and
    ``_POSITIVITY_TOL``)."""

    dt: float
    scheme: Scheme = Scheme.ETDRK2

    def __post_init__(self):
        object.__setattr__(self, "scheme", _coerce_enum(Scheme, self.scheme, "scheme"))
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive real, got {self.dt}")


@dataclass
class PhaseState:
    """Fourier-space state of the walker density and chemical field."""

    grid: SpectralGrid
    f_hat: np.ndarray
    c_hat: np.ndarray
    t: float = 0.0
    step: int = 0
    _f_phys: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def f_physical(self, work=None) -> np.ndarray:
        """The physical density, transformed once per state and read only.

        ``work`` is a complex scratch for the transform (see
        :func:`~antkinetics.spectral.ifft3`).  The cache assumes ``f_hat`` is
        never written in place after the first call; the solver always
        builds a new state instead.
        """
        if self._f_phys is None:
            self._f_phys = ifft3(self.f_hat, self.grid, work=work)
            self._f_phys.flags.writeable = False
        return self._f_phys

    def mass(self) -> float:
        return float(self.f_hat[0, 0, 0].real) * self.grid.cell_volume


# --- chemical field ----------------------------------------------------------------


def marginal_hat(f_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """2-D coefficients of the angular marginal rho = int f dtheta."""
    return f_hat[:, :, 0] * (TWO_PI / grid.n_theta)


def chemical_multipliers(grid: SpectralGrid, params: ModelParams, dt: float = math.inf):
    """Per-mode (decay, gain) of an exact step of dc/dt = -gamma c + sigma_c Lap c + rho.

    The production term is held frozen over the step; each mode relaxes as
    c -> e^{-nu dt} c + (1 - e^{-nu dt}) / nu rho with
    nu = gamma + sigma_c |2 pi m|^2.  The default dt = infinity gives
    (0, 1 / nu): the gain is then the instantaneous (elliptic) solve
    gamma c - sigma_c Lap c = rho.
    """
    nu = params.gamma + params.sigma_c * grid.ksq_2d
    return np.exp(-nu * dt), -np.expm1(-nu * dt) / nu


# --- stepper -----------------------------------------------------------------------


def _phi12(z: np.ndarray):
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2, stable near 0.

    The closed forms cancel catastrophically for small |z|; there the
    5th-order Taylor series is used instead.
    """
    em = np.expm1(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = em / z
        phi2 = (em - z) / (z * z)
    small = np.abs(z) < 1.0e-2
    zs = z[small]
    phi1[small] = (
        1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0 + zs**4 / 120.0 + zs**5 / 720.0
    )
    phi2[small] = (
        0.5 + zs / 6.0 + zs**2 / 24.0 + zs**3 / 120.0 + zs**4 / 720.0 + zs**5 / 5040.0
    )
    return phi1, phi2


def _below_floor(f_phys: np.ndarray) -> bool:
    """Whether min f < -_POSITIVITY_TOL * max f, the monitored positivity floor."""
    return float(np.min(f_phys)) < -_POSITIVITY_TOL * max(float(np.max(f_phys)), 0.0)


class Stepper:
    """Precomputed multipliers, scratch and stage logic for one (grid, params, cfg).

    The stepper allocates its full-grid scratch once, and a step allocates
    only the new state's coefficients and physical density; every operation
    keeps the operand order of the allocating form, so the numbers are the
    same to the bit.  Arrays the stepper returns are never scratch, and the
    input state is never written.

    The monitor flags are the stepper's own, never a state's: its first
    step past the advisory CFL bound sets ``cfl_flagged`` and warns, and
    its first start below the positivity floor sets ``positivity_flagged``.
    """

    def __init__(self, grid: SpectralGrid, params: ModelParams, cfg: StepperConfig):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        dt = cfg.dt
        nu_f = params.sigma_x * grid.ksq_3d + params.sigma_theta * grid.nsq_3d
        self.decay_f = np.exp(-nu_f * dt)
        if cfg.scheme is Scheme.ETDRK2:
            phi1, phi2 = _phi12(-nu_f * dt)
            self.dt_phi1 = dt * phi1
            self.dt_phi2 = dt * phi2
        self.parabolic = params.coupling is Coupling.PARABOLIC
        self.chem_decay, self.chem_gain = chemical_multipliers(
            grid, params, dt if self.parabolic else math.inf
        )
        self.mask = grid.dealias_mask3
        # the mask drops m2 > n_x2 // 3, so the forward transforms skip them
        self.keep = grid.n_x2 // 3
        self.cos3 = grid.cos_theta[None, None, :]
        self.sin3 = grid.sin_theta[None, None, :]
        self.chi_in = params.chi * grid.in_3d
        self.dx_min = min(1.0 / grid.n_x1, 1.0 / grid.n_x2)
        self.dtheta = TWO_PI / grid.n_theta
        self.cfl_flagged = False
        self.positivity_flagged = False

        # coefficients: the two stage RHS, the stage, two transform buffers;
        # physical: the stage density, the bias, and a product buffer
        self._n1, self._n2, self._stage, self._t1, self._t2 = (
            np.empty(grid.shape_four3, complex) for _ in range(5)
        )
        self._stage_phys, self._bias, self._prod = (
            np.empty(grid.shape_phys3, float) for _ in range(3)
        )

    def drift(self, f_phys, out=None):
        """lambda div_x(v f) in coefficients, v = (cos theta, sin theta), into ``out``.

        Only the columns m2 <= n_x2 // 3 are coefficients
        (see :func:`~antkinetics.spectral.fft3`); the mask drops the rest.
        """
        grid = self.grid
        t1 = fft3(np.multiply(self.cos3, f_phys, out=self._prod), out=out, keep=self.keep)
        t2 = fft3(np.multiply(self.sin3, f_phys, out=self._prod), out=self._t2, keep=self.keep)
        div = np.multiply(grid.ik1_3d, t1, out=t1)
        div += np.multiply(grid.ik2_3d, t2, out=t2)
        return np.multiply(self.params.lam, div, out=div)

    # explicit part: -lambda div_x(v f) - chi d_theta(B f), from the physical f
    def explicit_rhs(self, f_phys, c_hat, out=None):
        grid, params = self.grid, self.params
        rhs = np.empty(grid.shape_four3, dtype=complex) if out is None else out
        rhs.fill(0.0)
        max_abs_b = 0.0
        if params.lam != 0.0:
            rhs -= self.drift(f_phys, out=self._t1)
        if params.chi != 0.0:
            parts = turning_bias_parts(c_hat, grid, params.tau)
            bias = expand_bias(parts, grid, out=self._bias, work=self._prod)
            max_abs_b = max(float(np.max(bias)), -float(np.min(bias)))
            turning = fft3(np.multiply(bias, f_phys, out=bias), out=self._t1, keep=self.keep)
            rhs -= np.multiply(self.chi_in, turning, out=turning)
        rhs *= self.mask
        return rhs, max_abs_b

    def chemical_of(self, c_hat, rho_hat):
        """Chemical coefficients for the marginal rho_hat: the instantaneous
        solve (elliptic), or one step from c_hat with rho_hat frozen (parabolic)."""
        if self.parabolic:
            return self.chem_decay * c_hat + self.chem_gain * rho_hat
        return self.chem_gain * rho_hat

    def advisory_dt(self, max_abs_b: float) -> float:
        bound = math.inf
        if self.params.lam > 0.0:
            bound = min(bound, self.dx_min / self.params.lam)
        angular_speed = self.params.chi * max_abs_b
        if angular_speed > 0.0:
            bound = min(bound, self.dtheta / angular_speed)
        return _CFL_SAFETY * bound

    def step(self, state: PhaseState) -> PhaseState:
        grid, params, cfg = self.grid, self.params, self.cfg
        dt = cfg.dt
        f_hat, c_hat = state.f_hat, state.c_hat
        parabolic = self.parabolic
        rho0 = marginal_hat(f_hat, grid)
        if not parabolic:
            c_hat = self.chemical_of(c_hat, rho0)

        f_phys = state.f_physical()
        n1, max_abs_b = self.explicit_rhs(f_phys, c_hat, out=self._n1)

        # the parabolic field is driven by the frozen (IMEX) or trapezoidal
        # (ETDRK2) production; the elliptic one is slaved to the new density
        if cfg.scheme is Scheme.IMEX_EULER:
            inner = np.multiply(dt, n1, out=self._stage)
            f_new = self.decay_f * np.add(f_hat, inner, out=inner)
            c_new = self.chemical_of(c_hat, rho0 if parabolic else marginal_hat(f_new, grid))
        else:
            stage = np.multiply(self.decay_f, f_hat, out=self._stage)
            stage += np.multiply(self.dt_phi1, n1, out=self._t1)
            rho_stage = marginal_hat(stage, grid)
            c_stage = self.chemical_of(c_hat, rho0 if parabolic else rho_stage)
            stage_phys = ifft3(stage, grid, out=self._stage_phys, work=self._t1)
            n2, max_b2 = self.explicit_rhs(stage_phys, c_stage, out=self._n2)
            max_abs_b = max(max_abs_b, max_b2)
            diff = np.subtract(n2, n1, out=n2)
            f_new = stage + np.multiply(self.dt_phi2, diff, out=diff)
            c_new = self.chemical_of(
                c_hat, 0.5 * (rho0 + rho_stage) if parabolic else marginal_hat(f_new, grid)
            )

        if not np.all(np.isfinite(f_new)) or not np.all(np.isfinite(c_new)):
            self._raise_nonfinite(state, n1)

        if not self.cfl_flagged and dt > self.advisory_dt(max_abs_b):
            self.cfl_flagged = True
            warnings.warn(
                f"dt = {dt:g} exceeds the advisory CFL bound "
                f"{self.advisory_dt(max_abs_b):g} at t = {state.t:g}",
                RuntimeWarning,
                stacklevel=3,
            )
        self.positivity_flagged = self.positivity_flagged or _below_floor(f_phys)

        new_state = PhaseState(
            grid=grid,
            f_hat=f_new,
            c_hat=c_new,
            t=state.t + dt,
            step=state.step + 1,
        )
        # every state a run makes is stepped from or checked at the end
        new_state.f_physical(work=self._t1)
        return new_state

    def _raise_nonfinite(self, state: PhaseState, n1) -> None:
        culprits = []
        if not np.all(np.isfinite(state.f_hat)):
            culprits.append("walker density (input)")
        if not np.all(np.isfinite(state.c_hat)):
            culprits.append("chemical field (input)")
        if not np.all(np.isfinite(n1)):
            pieces = []
            if self.params.lam != 0.0:
                if not np.all(np.isfinite(self.drift(state.f_physical()))):
                    pieces.append("drift transport")
            if self.params.chi != 0.0 and not pieces:
                pieces.append("turning interaction")
            culprits.append("explicit terms (" + ", ".join(pieces or ["unidentified"]) + ")")
        if not culprits:
            culprits.append("update (overflow during the step)")
        raise RuntimeError(
            f"non-finite values at t = {state.t:g}, step {state.step}: "
            + "; ".join(culprits)
        )


# --- initial states ----------------------------------------------------------------


def homogeneous_state(grid: SpectralGrid, params: ModelParams) -> PhaseState:
    """The uniform steady state f = 1/2pi, c = 1/gamma."""
    return state_from_density(grid, params, np.full(grid.shape_phys3, 1.0 / TWO_PI),
                              np.full(grid.shape_phys2, 1.0 / params.gamma))


def state_from_density(
    grid: SpectralGrid,
    params: ModelParams,
    f_values: np.ndarray,
    c_values: np.ndarray | None = None,
    t: float = 0.0,
) -> PhaseState:
    """State from a physical walker density; the chemical defaults to the
    instantaneous solve (the natural quasi-steady start for both couplings)."""
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != grid.shape_phys3:
        raise ValueError(
            f"f_values has shape {f_values.shape}, grid expects {grid.shape_phys3}"
        )
    f_hat = fft3(f_values)
    if c_values is not None:
        c_values = np.asarray(c_values, dtype=float)
        if c_values.shape != grid.shape_phys2:
            raise ValueError(
                f"c_values has shape {c_values.shape}, grid expects {grid.shape_phys2}"
            )
        c_hat = fft2(c_values)
    else:
        c_hat = chemical_multipliers(grid, params)[1] * marginal_hat(f_hat, grid)
    return PhaseState(grid, f_hat, c_hat, t=t)


# --- run loop and checkpoints -------------------------------------------------------


@dataclass
class RunResult:
    state: PhaseState
    n_steps: int
    cfl_flagged: bool
    positivity_flagged: bool


def run(
    state: PhaseState,
    cfg: StepperConfig,
    params: ModelParams,
    t_end: float,
    observers=(),
    stride: int = 1,
    include_initial: bool = True,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    config_digest: str = "",
) -> RunResult:
    """Advance to t_end, sampling observers every ``stride`` steps.

    t_end must be finite and an integer number of steps away from state.t.
    Observers are callables receiving the current state; they are invoked
    on the initial state (unless suppressed), on every stride-th step, and
    on the final one.  The flags come from this run's own stepper (see
    :class:`Stepper`) and so cover its own steps only, plus a positivity
    check on the final state.  With ``checkpoint_dir`` the final state is
    checkpointed, and with ``checkpoint_every`` also every that many steps
    before it.  The input state is left unchanged.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    dt = cfg.dt
    span = t_end - state.t
    if span < -1.0e-12:
        raise ValueError(f"t_end = {t_end} lies before the state time {state.t}")
    if not math.isfinite(span / dt):
        raise ValueError(f"t_end = {t_end} and dt = {dt} give a step count that is not finite")
    n_steps = int(round(span / dt))
    if n_steps > _MAX_STEPS:
        raise ValueError(f"t_end = {t_end} and dt = {dt} give {span / dt:.3g} steps, "
                         f"more than the {_MAX_STEPS} a run may take")
    if abs(state.t + n_steps * dt - t_end) > 1.0e-6 * dt:
        raise ValueError(
            f"t_end - t = {span:g} is not an integer multiple of dt = {dt:g}"
        )
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")

    stepper = Stepper(state.grid, params, cfg)
    t0 = state.t
    if include_initial:
        for observer in observers:
            observer(state)
    for i in range(1, n_steps + 1):
        state = stepper.step(state)
        # recompute t from the segment origin to avoid accumulated drift
        state.t = t0 + i * dt
        if i % stride == 0 or i == n_steps:
            for observer in observers:
                observer(state)
        periodic = checkpoint_every is not None and i % checkpoint_every == 0
        if checkpoint_dir is not None and periodic and i < n_steps:
            write_checkpoint(checkpoint_dir, state, config_digest)
    # each step checks the state it starts from; the final one is checked here
    positivity = stepper.positivity_flagged or (n_steps > 0 and _below_floor(state.f_physical()))
    if checkpoint_dir is not None:
        write_checkpoint(checkpoint_dir, state, config_digest)
    return RunResult(
        state=state,
        n_steps=n_steps,
        cfl_flagged=stepper.cfl_flagged,
        positivity_flagged=positivity,
    )


def write_checkpoint(directory, state: PhaseState, config_digest: str = "") -> None:
    """Binary fields plus a text manifest; enough to resume bit-exactly."""
    os.makedirs(directory, exist_ok=True)
    grid = state.grid
    write_field(os.path.join(directory, "f.field"), state.f_hat, grid)
    write_field(os.path.join(directory, "c.field"), state.c_hat, grid)
    lines = [
        f"t = {state.t!r}",
        f"t_hex = {float(state.t).hex()}",
        f"step = {state.step}",
        f"config_hash = {config_digest}",
        f"grid = {grid.n_x1} {grid.n_x2} {grid.n_theta}",
    ]
    with open(os.path.join(directory, "checkpoint.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(directory, expected_config_digest: str, grid: SpectralGrid) -> PhaseState:
    """Inverse of :func:`write_checkpoint`.

    ``checkpoint.txt`` is read as a ``key = value`` config.  A checkpoint
    whose ``f.field`` is not 3-D or whose ``c.field`` is not 2-D, or that is
    stored on another grid than ``grid``, is refused, and then one not
    stamped with exactly ``expected_config_digest``: an empty stamp loads
    only under the digest ``""``.
    """
    path = os.path.join(directory, "checkpoint.txt")
    meta = load_config(path)
    values = {}
    # a time that is not finite or a negative step is as unreadable as garbage
    for key, parse, valid in (("t_hex", float.fromhex, math.isfinite),
                              ("step", int, lambda step: step >= 0)):
        try:
            values[key] = parse(meta[key])
            if not valid(values[key]):
                raise ValueError
        except KeyError:
            raise ValueError(f"{path}: missing key {key!r}") from None
        except ValueError:
            raise ValueError(f"{path}: key {key!r}: cannot read {meta[key]!r}") from None
    fields = []
    for name, ndim in (("f.field", 3), ("c.field", 2)):
        field_path = os.path.join(directory, name)
        fields.append(read_field(field_path, grid))
        if fields[-1].ndim != ndim:
            raise ValueError(f"{field_path}: holds {fields[-1].ndim}-D coefficients, "
                             f"expected {ndim}-D")
    f_hat, c_hat = fields
    stamp = meta.get("config_hash", "")
    if stamp != expected_config_digest:
        raise ValueError(
            "checkpoint was produced under a different configuration "
            f"(hash {stamp or 'missing'} != {expected_config_digest})"
        )
    return PhaseState(grid, f_hat, c_hat, t=values["t_hex"], step=values["step"])
