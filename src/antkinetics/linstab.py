"""Linear stability of the homogeneous state, one spatial wavenumber at a time.

The homogeneous state (f, c) = (1/2pi, 1/gamma) is probed with the ansatz

    f(x, theta) = a(theta) cos(2 pi k x1) + b(theta) sin(2 pi k x1),

which closes on the pair A = (a, b).  Growth rates are roots of a scalar
relation built from the angular response integral

    J(tau, lam, mu) = int_0^{2pi} (-tau mu cos 2t + lam cos^2 t)
                      / (mu^2 + lam^2 cos^2 t) dt

(tau, lam the reduced look-ahead and drift, mu the candidate rate), for
which a closed form exists.  The same linearization truncated in an
angular Fourier basis gives a dense matrix whose rightmost eigenvalue
cross-checks the root, works for sigma > 0 where no closed form exists,
and provides eigenfunctions for seeding simulations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .params import Coupling, ReducedParams
from .spectral import SpectralGrid

TWO_PI = 2.0 * math.pi

_MAX_BISECTIONS = 200
_ROOT_RESIDUAL_TOL = 1.0e-12


def dispersion_integral(tau_breve: float, lambda_breve: float, mu):
    """Closed form of the angular response integral J(tau, lam, mu).

    Valid for real mu >= 0 and complex mu with positive real part; the
    square root takes the principal branch (positive real part).  Written
    as (2 pi / S) (tau + (lam - 2 tau mu) / (S + mu)) with
    S = sqrt(mu^2 + lam^2), which is algebraically identical to the naive
    expansion but avoids the S - mu cancellation for mu >> lam.
    Rejects lambda_breve <= 0 (the closed form is singular at 0).
    """
    lam = float(lambda_breve)
    tau = float(tau_breve)
    if lam <= 0.0:
        raise ValueError(f"lambda_breve must be positive, got {lam}")
    if isinstance(mu, complex):
        if mu.real < 0.0:
            raise ValueError(f"mu must have nonnegative real part, got {mu}")
        s = cmath.sqrt(mu * mu + lam * lam)
        return TWO_PI * (tau + (lam - 2.0 * tau * mu) / (s + mu)) / s
    mu = float(mu)
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    s = math.hypot(mu, lam)
    return TWO_PI * (tau + (lam - 2.0 * tau * mu) / (s + mu)) / s


@dataclass(frozen=True)
class DispersionResult:
    """A positive root of the dispersion relation."""

    mu0: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class NoRoot:
    """No positive root; the monotone map already sits at or below 1 at mu = 0."""

    boundary_value: float


def _dispersion_map(rp: ReducedParams, coupling: Coupling):
    """The strictly decreasing map g(mu) whose crossing of 1 is the growth rate."""
    if coupling is Coupling.ELLIPTIC:

        def g(mu: float) -> float:
            return rp.chi_breve * dispersion_integral(
                rp.tau_breve, rp.lambda_breve, mu + rp.sigma_x_breve
            )

    else:

        def g(mu: float) -> float:
            return rp.chi_breve * dispersion_integral(
                rp.tau_breve, rp.lambda_breve, mu + rp.sigma_x_breve
            ) / (mu + rp.nu_breve)

    return g


def find_unstable_root(rp: ReducedParams, coupling: Coupling):
    """Positive growth rate of the inviscid (sigma = 0) single-mode relation.

    Solves g(mu) = 1 by bisection on [0, mu_hi], doubling mu_hi until the
    strictly decreasing map drops below 1.  Returns :class:`NoRoot` when
    g(0) <= 1 (at or below threshold) and raises if 200 bisections cannot
    push the residual under 1e-12.
    """
    g = _dispersion_map(rp, coupling)
    g0 = g(0.0)
    if g0 <= 1.0:
        return NoRoot(boundary_value=g0)
    hi = 1.0
    doublings = 0
    while g(hi) >= 1.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise RuntimeError("dispersion root bracket did not close")
    lo = 0.0
    mid = 0.5 * hi
    best_mu, best_res = mid, abs(g(mid) - 1.0)
    for iteration in range(1, _MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        value = g(mid)
        res = abs(value - 1.0)
        if res < best_res:
            best_mu, best_res = mid, res
        if res <= 1.0e-13:
            return DispersionResult(mid, res, (lo, hi), iteration)
        if value > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1.0e-16 * max(1.0, hi):
            break
    if best_res <= _ROOT_RESIDUAL_TOL:
        return DispersionResult(best_mu, best_res, (lo, hi), _MAX_BISECTIONS)
    raise RuntimeError(
        f"dispersion root did not converge in {_MAX_BISECTIONS} bisections "
        f"(best residual {best_res:.3e})"
    )


# --- eigenfunctions --------------------------------------------------------------


@dataclass(frozen=True)
class ThetaProfilePair:
    """Angular profiles (a, b) sampled on a uniform theta grid.

    ``a_mean`` and ``b_mean`` cache the integrals over [0, 2 pi].
    """

    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def a_mean(self) -> float:
        return float(np.mean(self.a) * TWO_PI)

    @property
    def b_mean(self) -> float:
        return float(np.mean(self.b) * TWO_PI)


def _bias_matrix_times(tau_breve: float, theta: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    """Apply the 2x2 angular coupling matrix

        [[-tau cos 2t,  cos t], [-cos t, -tau cos 2t]]

    to a constant two-vector w, sampled on the theta grid."""
    ct = np.cos(theta)
    c2t = np.cos(2.0 * theta)
    top = -tau_breve * c2t * w[0] + ct * w[1]
    bot = -ct * w[0] - tau_breve * c2t * w[1]
    return top, bot


def inviscid_eigenfunction(
    rp: ReducedParams, mu0: float, w, n_theta: int
) -> ThetaProfilePair:
    """Closed-form eigenprofiles at a sigma = 0 root mu0.

    A(theta) = chi_breve (mu_t Id - V)^{-1} B w with mu_t = mu0 + the
    spatial damping shift, V the drift coupling, B the angular coupling
    matrix; the resolvent is the explicit 2x2 inverse

        (mu_t Id - V)^{-1} = [[mu_t, -lam cos t], [lam cos t, mu_t]]
                             / (mu_t^2 + lam^2 cos^2 t).

    At an elliptic root the means reproduce w exactly.
    """
    theta = TWO_PI * np.arange(n_theta) / n_theta
    mu_t = mu0 + rp.sigma_x_breve
    lam = rp.lambda_breve
    ct = np.cos(theta)
    denom = mu_t * mu_t + lam * lam * ct * ct
    top, bot = _bias_matrix_times(rp.tau_breve, theta, w)
    a = rp.chi_breve * (mu_t * top - lam * ct * bot) / denom
    b = rp.chi_breve * (lam * ct * top + mu_t * bot) / denom
    return ThetaProfilePair(theta, a, b)


def viscous_eigenfunction(
    rp: ReducedParams, mu: float, w, n_theta: int, n_modes: int = 64
) -> ThetaProfilePair:
    """Eigenprofiles for sigma >= 0 via the truncated angular resolvent.

    Solves ((mu + spatial shift) Id - sigma d^2/dtheta^2 - V)(a, b) =
    chi_breve B w in the Fourier basis of size 2 (2 n_modes + 1) and
    samples the result on the theta grid.  Matches the closed form at
    sigma = 0.
    """
    n_modes = int(n_modes)
    size = 2 * n_modes + 1
    modes = np.arange(-n_modes, n_modes + 1)
    mat = _shifted(mu + rp.sigma_x_breve, _kinetic_block(n_modes, rp.sigma, rp.lambda_breve))
    sol = np.linalg.solve(mat, _bias_deposits(rp, n_modes) @ np.asarray(w, dtype=float))

    theta = TWO_PI * np.arange(n_theta) / n_theta
    phases = np.exp(1j * np.outer(theta, modes))
    a = (phases @ sol[:size]).real
    b = (phases @ sol[size:]).real
    return ThetaProfilePair(theta, a, b)


# --- truncated operators ---------------------------------------------------------


def _kinetic_block(n_modes: int, sigma: float, lam: float) -> np.ndarray:
    """Angular diffusion and drift on the (a, b) amplitudes, basis e^{i n theta}, n = -N..N.

    Diagonal -sigma n^2 on both blocks; cos theta couples n to n +- 1 with
    weight lam / 2, sign - on a rows (from b) and + on b rows (from a).
    """
    modes = np.arange(-n_modes, n_modes + 1).astype(float)
    size = modes.size
    block = np.zeros((2 * size, 2 * size))
    i = np.arange(size)
    block[i, i] = block[size + i, size + i] = -sigma * modes**2
    j = i[:-1]
    block[j, size + j + 1] = block[j + 1, size + j] = -0.5 * lam
    block[size + j, j + 1] = block[size + j + 1, j] = 0.5 * lam
    return block


def _shifted(mu, block: np.ndarray) -> np.ndarray:
    """mu Id - block, formed without an identity matrix."""
    out = np.negative(block, dtype=np.result_type(mu, block))
    out[np.diag_indices_from(out)] += mu
    return out


def _bias_deposits(rp: ReducedParams, n_modes: int) -> np.ndarray:
    """chi_breve B w in the angular basis, one column per mean direction w = e_0, e_1.

    B = [[-tau cos 2t, cos t], [-cos t, -tau cos 2t]]; cos t deposits 1/2 on
    modes +-1 and cos 2t deposits 1/2 on modes +-2.
    """
    n_modes = int(n_modes)
    if n_modes < 4:
        raise ValueError(f"n_modes must be >= 4 to hold the deposit modes, got {n_modes}")
    size = 2 * n_modes + 1
    one = np.array([n_modes - 1, n_modes + 1])
    two = np.array([n_modes - 2, n_modes + 2])
    half = 0.5 * rp.chi_breve
    deposits = np.zeros((2 * size, 2))
    deposits[one, 1] = half
    deposits[size + one, 0] = -half
    deposits[two, 0] = -half * rp.tau_breve
    deposits[size + two, 1] = -half * rp.tau_breve
    return deposits


def assemble_viscous_operator(
    rp: ReducedParams, n_modes: int, coupling: Coupling
) -> np.ndarray:
    """Dense matrix of the wavenumber-k linearization in the angular basis.

    Basis e^{i n theta}, n = -N..N, stacked as (a block, b block) and, for
    the parabolic coupling, two trailing chemical amplitudes.  Contents:

    * angular diffusion: diagonal -sigma n^2
    * spatial damping:   diagonal -sigma_x_breve on the kinetic blocks
    * drift coupling V:  cos theta couples n to n +- 1 with weight 1/2,
      sign - on a rows (from b) and + on b rows (from a), times lambda_breve
    * mean coupling:     the means read the n = 0 coefficients (x 2 pi) and
      the angular matrix deposits on modes +-1 (cos t) and +-2 (cos 2t);
      for the parabolic coupling the deposits read the chemical amplitudes
      instead, which in turn relax at rate nu_breve driven by the means.
    """
    n_modes = int(n_modes)
    size = 2 * n_modes + 1
    i0 = n_modes
    dim = 2 * size + (2 if coupling is Coupling.PARABOLIC else 0)
    mat = np.zeros((dim, dim))
    kinetic = slice(0, 2 * size)
    mat[kinetic, kinetic] = _kinetic_block(n_modes, rp.sigma, rp.lambda_breve)
    mat[np.arange(2 * size), np.arange(2 * size)] -= rp.sigma_x_breve

    deposits = _bias_deposits(rp, n_modes)
    if coupling is Coupling.ELLIPTIC:
        # deposits read the means 2 pi a_0, 2 pi b_0
        mat[kinetic, [i0, size + i0]] += TWO_PI * deposits
    else:
        ia, ib = 2 * size, 2 * size + 1
        mat[kinetic, [ia, ib]] = deposits
        mat[ia, i0] = TWO_PI
        mat[ib, size + i0] = TWO_PI
        mat[ia, ia] = -rp.nu_breve
        mat[ib, ib] = -rp.nu_breve
    return mat


@dataclass(frozen=True)
class EigenSpectrum:
    """Spectrum of a truncated operator, sorted by descending real part."""

    eigenvalues: np.ndarray
    rightmost: complex
    multiplicity: int
    cluster_tol: float
    sigma: float | None = None


def rightmost_eigenvalues(matrix: np.ndarray, cluster_tol: float | None = None) -> EigenSpectrum:
    """Dense spectrum with the rightmost eigenvalue and its cluster size.

    ``cluster_tol`` defaults to 1e-8 (1 + |rightmost|); the multiplicity
    counts eigenvalues within that distance of the rightmost one.
    """
    eigenvalues = scipy.linalg.eig(matrix, right=False)
    order = np.argsort(-eigenvalues.real, kind="stable")
    eigenvalues = eigenvalues[order]
    rightmost = complex(eigenvalues[0])
    if cluster_tol is None:
        cluster_tol = 1.0e-8 * (1.0 + abs(rightmost))
    multiplicity = int(np.sum(np.abs(eigenvalues - rightmost) <= cluster_tol))
    return EigenSpectrum(
        eigenvalues=eigenvalues,
        rightmost=rightmost,
        multiplicity=multiplicity,
        cluster_tol=float(cluster_tol),
    )


def eigen_sweep(
    rp: ReducedParams, coupling: Coupling, sigmas, n_modes: int = 64
) -> list[EigenSpectrum]:
    """Rightmost spectra across an angular-viscosity sweep."""
    out = []
    for sigma in sigmas:
        spectrum = rightmost_eigenvalues(
            assemble_viscous_operator(rp.with_sigma(float(sigma)), n_modes, coupling)
        )
        out.append(
            EigenSpectrum(
                eigenvalues=spectrum.eigenvalues,
                rightmost=spectrum.rightmost,
                multiplicity=spectrum.multiplicity,
                cluster_tol=spectrum.cluster_tol,
                sigma=float(sigma),
            )
        )
    return out


@dataclass(frozen=True)
class ResolventCheck:
    norm: float
    bound: float
    ok: bool


def resolvent_norm_check(
    rp: ReducedParams, sigma: float, mu: complex, n_modes: int = 64, slack: float = 1.0e-8
) -> ResolventCheck:
    """Check ||(mu - sigma d^2/dtheta^2 - V)^{-1}|| <= 1 / Re(mu).

    The operator 2-norm of the truncated inverse is 1 over the smallest
    singular value of the forward matrix.  The drift coupling V is skew in
    L^2, so the bound holds for every truncation; ``ok`` allows ``slack``.
    """
    mu = complex(mu)
    if mu.real <= 0.0:
        raise ValueError(f"mu must have positive real part, got {mu}")
    n_modes = int(n_modes)
    mat = _shifted(mu, _kinetic_block(n_modes, sigma, rp.lambda_breve))
    smin = float(np.linalg.svd(mat, compute_uv=False)[-1])
    norm = 1.0 / smin
    bound = 1.0 / mu.real
    return ResolventCheck(norm=norm, bound=bound, ok=norm <= bound + slack)


# --- seed fields ------------------------------------------------------------------


def _require_quarter_turn(n_theta: int) -> None:
    if n_theta % 4:
        raise ValueError(f"quarter-turn rotation needs n_theta divisible by 4, got {n_theta}")


def eigenfunction_field(pair: ThetaProfilePair, grid: SpectralGrid, k: int) -> np.ndarray:
    """Expand profiles on wavenumber k along x1:  a cos(2 pi k x1) + b sin."""
    if len(pair.theta) != grid.n_theta:
        raise ValueError("profile theta resolution does not match the grid")
    z = TWO_PI * k * grid.x1
    values = (
        np.cos(z)[:, None, None] * pair.a[None, None, :]
        + np.sin(z)[:, None, None] * pair.b[None, None, :]
    )
    return np.broadcast_to(values, grid.shape_phys3).copy()


def rotated_eigenfunction(pair: ThetaProfilePair, grid: SpectralGrid, k: int) -> np.ndarray:
    """The quarter-turn image f(x2, -x1, theta - pi/2) of the expanded profiles.

    A rotation by +pi/2 in both space and orientation commutes with the
    dynamics, so this is again an eigenfunction at the same rate; the
    expanded profiles depend on x1 only, hence the image reads the shifted
    profiles on wavenumber k along x2.
    """
    _require_quarter_turn(grid.n_theta)
    shift = grid.n_theta // 4
    a = np.roll(pair.a, shift)
    b = np.roll(pair.b, shift)
    z = TWO_PI * k * grid.x2
    values = (
        np.cos(z)[None, :, None] * a[None, None, :]
        + np.sin(z)[None, :, None] * b[None, None, :]
    )
    return np.broadcast_to(values, grid.shape_phys3).copy()


def rotate_field_quarter(values: np.ndarray) -> np.ndarray:
    """Rotate a physical field by a quarter turn: (x1, x2, theta) -> (x2, -x1, theta - pi/2)."""
    n_x1, n_x2, n_theta = values.shape
    _require_quarter_turn(n_theta)
    if n_x1 != n_x2:
        raise ValueError("quarter turns need a square spatial grid")
    swapped = values.transpose(1, 0, 2)
    negated = np.roll(np.flip(swapped, axis=0), 1, axis=0)  # sample at (-x1) mod 1
    return np.ascontiguousarray(np.roll(negated, n_theta // 4, axis=2))


def seed_profiles(
    rp: ReducedParams, coupling: Coupling, mu: float, n_theta: int, n_modes: int = 64
):
    """Profiles for the two independent mean directions at eigenvalue mu.

    Returns [(pair, chem)] for w = (1, 0) and w = (0, 1); ``chem`` is the
    chemical amplitude pair (alpha, beta) for the parabolic coupling and
    None for the elliptic one (where the chemical is slaved).
    """
    out = []
    for w in ((1.0, 0.0), (0.0, 1.0)):
        if rp.sigma == 0.0:
            pair = inviscid_eigenfunction(rp, mu, w, n_theta)
        else:
            pair = viscous_eigenfunction(rp, mu, w, n_theta, n_modes)
        if coupling is Coupling.PARABOLIC:
            scale = mu + rp.nu_breve
            pair = ThetaProfilePair(pair.theta, pair.a / scale, pair.b / scale)
            out.append((pair, (w[0] / scale, w[1] / scale)))
        else:
            out.append((pair, None))
    return out
