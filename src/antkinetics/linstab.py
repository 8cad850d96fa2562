"""Linear stability of the homogeneous state, one spatial wavenumber at a time.

The homogeneous state (f, c) = (1/2pi, 1/gamma) is probed with the ansatz

    f(x, theta) = a(theta) cos(2 pi k x1) + b(theta) sin(2 pi k x1),

which closes on the pair (a, b).  The linearization is complex-linear in
the profile u = a + i b: the drift multiplies u by i lam cos theta, and the
bias acting on the mean W = w_0 + i w_1 deposits -chi (tau cos 2 theta +
i cos theta) W.  Growth rates are roots of a scalar relation built from the
angular response integral

    J(tau, lam, mu) = int_0^{2pi} (-tau mu cos 2t + lam cos^2 t)
                      / (mu^2 + lam^2 cos^2 t) dt

(tau, lam the reduced look-ahead and drift, mu the candidate rate), for
which a closed form exists.  The relation is chi J = 1 (divided by mu + nu
for the parabolic coupling), and its left side g(mu) strictly decreases,
so the positive root is bracketed by doubling and found to a few ulp by
Brent's method (:func:`_brent`, an in-house port of scipy's ``brentq``).
The same linearization truncated in an angular Fourier basis gives a
dense matrix whose rightmost eigenvalue cross-checks the root, works for
sigma > 0 where no closed form exists, and provides eigenfunctions for
seeding simulations.

That matrix is written once, as the complex operator L on u over modes
n = -N..N (plus one chemical amplitude C = alpha + i beta for the parabolic
coupling).  :func:`assemble_viscous_operator` returns its realification on
(a, b, alpha, beta), whose spectrum is that of L together with the
conjugates.  :func:`viscous_spectrum` solves a real matrix of L's size
instead: the gauge D = diag(i^|n|), which leaves C alone, makes every
entry of D L D^-1 real, because each drift entry i lam / 2 links modes
whose |n| differ by one and each deposit -i chi / 2 (-chi tau / 2) lands
on |n| = 1 (2) from the mean.  So spec(L) is closed under conjugation and
the realification lists each eigenvalue of D L D^-1 twice.  Every entry
is also even under the angular reflection n -> -n, so the gauged matrix
splits into two real parity blocks, one on the even and one on the odd
combinations of modes +n and -n, each about a quarter of the
realification's size.

Growth-match seeds come from one eigenmode, solved once for the mean W = 1
(:func:`seed_profiles`): the profile u and amplitude C.  The other seeds
are its images under u -> i u (the mean W = i) and under the quarter turn
of space and orientation, which commutes with the dynamics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .params import Coupling, ReducedParams
from .spectral import SpectralGrid

TWO_PI = 2.0 * math.pi

_ROOT_RESIDUAL_TOL = 1.0e-12

# scipy's brentq at its smallest rtol and a negligible xtol: the root to a few ulp
_BRENT_XTOL = 1.0e-300
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


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


def _brent(f, a: float, b: float) -> tuple[float, int]:
    """Root of f on the bracket [a, b] by Brent's method, with its iteration count.

    A line-for-line port of scipy's ``brentq.c`` (Brent 1973, ch. 4) at
    xtol = 1e-300, rtol = 4 eps and at most 100 iterations: it gives
    ``scipy.optimize.brentq``'s root bits and iteration count at those
    tolerances.  An endpoint root returns with 0 iterations (scipy 1.17
    reports 1).  Raises ValueError on a same-sign bracket or a NaN value of
    f, and RuntimeError when 100 iterations do not converge.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({a}) and f({b}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _BRENT_MAXITER + 1):
        if (fpre < 0.0) != (fcur < 0.0):  # a new bracket [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # in C a zero den gives an infinite or NaN step, which fails this test
            if den != 0.0 and 2.0 * abs(num / den) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur, bisect = scur, num / den, False  # good short step
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


def find_unstable_root(rp: ReducedParams, coupling: Coupling):
    """Positive growth rate of the inviscid (sigma = 0) single-mode relation.

    Returns :class:`NoRoot` when g(0) <= 1 (at or below threshold).
    Otherwise doubles mu_hi until the strictly decreasing map drops below 1
    and solves g(mu) = 1 on [0, mu_hi] by Brent's method to a few ulp of the
    root; raises if the residual |g(mu0) - 1| exceeds 1e-12.
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
    mu0, iterations = _brent(lambda mu: g(mu) - 1.0, 0.0, hi)
    residual = abs(g(mu0) - 1.0)
    if residual > _ROOT_RESIDUAL_TOL:
        raise RuntimeError(f"dispersion root residual {residual:.3e} exceeds {_ROOT_RESIDUAL_TOL}")
    return DispersionResult(mu0, residual, (0.0, hi), iterations)


# --- eigenfunctions --------------------------------------------------------------


def inviscid_eigenfunction(rp: ReducedParams, mu0: float, n_theta: int) -> np.ndarray:
    """Closed-form eigenprofile u = a + i b at a sigma = 0 root mu0, for the mean W = 1.

    The drift is multiplication by i lam cos t and the bias deposits
    -chi_breve (tau cos 2t + i cos t) per unit mean, so pointwise

        u(theta) = -chi_breve (tau cos 2t + i cos t) / (mu_t - i lam cos t)

    with mu_t = mu0 + the spatial damping shift, sampled on the uniform grid
    theta_j = 2 pi j / n_theta.  At an elliptic root the mean of u is 1.
    """
    theta = TWO_PI * np.arange(n_theta) / n_theta
    ct = np.cos(theta)
    bias = rp.tau_breve * np.cos(2.0 * theta) + 1j * ct
    return -rp.chi_breve * bias / (mu0 + rp.sigma_x_breve - 1j * rp.lambda_breve * ct)


def viscous_eigenfunction(
    rp: ReducedParams, mu: float, n_theta: int, n_modes: int = 64
) -> np.ndarray:
    """Eigenprofile u = a + i b for sigma >= 0 via the truncated angular resolvent.

    Solves ((mu + spatial shift) Id - K) u = deposit for u over n = -N..N
    (K the kinetic block of :func:`_kinetic_block`, the deposit that of the
    mean W = 1) and samples it on the uniform theta grid.  The system and
    the deposit are even in n, so u is a cosine series.  Matches the closed
    form at sigma = 0.
    """
    n_modes = int(n_modes)
    mat = _shifted(mu + rp.sigma_x_breve, _kinetic_block(n_modes, rp.sigma, rp.lambda_breve))
    sol = np.linalg.solve(mat, _bias_deposits(rp, n_modes))

    theta = TWO_PI * np.arange(n_theta) / n_theta
    cosines = np.cos(np.outer(theta, np.arange(1, n_modes + 1)))
    return sol[n_modes] + 2.0 * cosines @ sol[n_modes + 1:]


# --- truncated operators ---------------------------------------------------------


def _kinetic_block(n_modes: int, sigma: float, lam: float) -> np.ndarray:
    """Angular diffusion and drift on u = a + i b, basis e^{i n theta}, n = -N..N.

    Diagonal -sigma n^2; the drift i lam cos theta couples n to n +- 1 with
    weight i lam / 2.
    """
    modes = np.arange(-n_modes, n_modes + 1).astype(float)
    block = np.diag((-sigma * modes**2).astype(complex))
    i = np.arange(modes.size - 1)
    block[i, i + 1] = block[i + 1, i] = 0.5j * lam
    return block


def _shifted(mu, block: np.ndarray) -> np.ndarray:
    """mu Id - block, formed without an identity matrix."""
    out = np.negative(block, dtype=np.result_type(mu, block))
    out[np.diag_indices_from(out)] += mu
    return out


def check_n_modes(n_modes) -> int:
    """``n_modes`` as an int, refused when too few to hold the deposit modes."""
    n_modes = int(n_modes)
    if n_modes < 4:
        raise ValueError(f"n_modes must be >= 4 to hold the deposit modes, got {n_modes}")
    return n_modes


def _bias_deposits(rp: ReducedParams, n_modes: int) -> np.ndarray:
    """The bias deposit -chi_breve (tau cos 2t + i cos t) per unit mean, n = -N..N.

    cos t deposits 1/2 on modes +-1 and cos 2t deposits 1/2 on modes +-2.
    """
    n_modes = check_n_modes(n_modes)
    half = 0.5 * rp.chi_breve
    deposits = np.zeros(2 * n_modes + 1, dtype=complex)
    deposits[[n_modes - 1, n_modes + 1]] = -1j * half
    deposits[[n_modes - 2, n_modes + 2]] = -half * rp.tau_breve
    return deposits


def _complex_operator(rp: ReducedParams, n_modes: int, coupling: Coupling) -> np.ndarray:
    """The wavenumber-k linearization L on u over n = -N..N, plus C = alpha + i beta.

    * angular diffusion and spatial damping: diagonal -sigma n^2 - sigma_x_breve
    * drift: i lambda_breve / 2 on both off-diagonals
    * mean coupling: the mean 2 pi u_0 feeds the bias deposits on modes
      +-1 and +-2; for the parabolic coupling the deposits read the
      chemical amplitude C instead, which relaxes at rate nu_breve driven
      by the mean.

    Each of these is even under n -> -n: the diagonal reads n^2, the drift
    band has the same weight at every n, the deposits sit on +-1 and +-2
    alike, and the mean reads n = 0.  So L commutes with the reflection,
    and :func:`_parity_blocks` folds it on that symmetry.
    """
    n_modes = int(n_modes)
    size = 2 * n_modes + 1
    dim = size + (1 if coupling is Coupling.PARABOLIC else 0)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:size, :size] = _kinetic_block(n_modes, rp.sigma, rp.lambda_breve)
    mat[np.arange(size), np.arange(size)] -= rp.sigma_x_breve
    deposits = _bias_deposits(rp, n_modes)
    if coupling is Coupling.ELLIPTIC:
        mat[:, n_modes] += TWO_PI * deposits
    else:
        mat[:size, size] = deposits
        mat[size, n_modes] = TWO_PI
        mat[size, size] = -rp.nu_breve
    return mat


def assemble_viscous_operator(
    rp: ReducedParams, n_modes: int, coupling: Coupling
) -> np.ndarray:
    """Dense real matrix of the wavenumber-k linearization in the angular basis.

    The realification [[Re L, -Im L], [Im L, Re L]] of the complex operator
    L of :func:`_complex_operator`, reordered to the (a block, b block)
    layout over n = -N..N and, for the parabolic coupling, the two trailing
    chemical amplitudes (alpha, beta).  Its spectrum is that of L together
    with the conjugates.
    """
    n_modes = int(n_modes)
    size = 2 * n_modes + 1
    mat = _complex_operator(rp, n_modes, coupling)
    dim = mat.shape[0]
    real = np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])
    order = np.r_[0:size, dim:dim + size, size:dim, dim + size:2 * dim]
    return real[np.ix_(order, order)]


def _parity_blocks(matrix: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of a matrix that commutes with n -> -n.

    ``matrix`` acts on modes n = -N..N followed by any chemical amplitude.
    Z holds the n = 0 and chemical amplitudes, + the n > 0 rows and - the
    n < 0 rows, paired n <-> -n.  In the orthonormal basis of Z,
    (e_n + e_-n) / sqrt 2 and (e_n - e_-n) / sqrt 2 the matrix is block
    diagonal:

        even = [[M_ZZ, sqrt2 M_Z+], [sqrt2 M_+Z, M_++ + M_+-]]
        odd  = M_++ - M_+-

    so the two blocks have the matrix's eigenvalues and singular values.
    """
    plus = np.arange(n_modes + 1, 2 * n_modes + 1)
    minus = n_modes - 1 - np.arange(n_modes)
    zero = np.r_[n_modes, 2 * n_modes + 1:matrix.shape[0]]
    m_pp = matrix[np.ix_(plus, plus)]
    m_pm = matrix[np.ix_(plus, minus)]
    nz = zero.size
    even = np.empty((nz + plus.size,) * 2, dtype=matrix.dtype)
    even[:nz, :nz] = matrix[np.ix_(zero, zero)]
    even[:nz, nz:] = math.sqrt(2.0) * matrix[np.ix_(zero, plus)]
    even[nz:, :nz] = math.sqrt(2.0) * matrix[np.ix_(plus, zero)]
    even[nz:, nz:] = m_pp + m_pm
    return even, m_pp - m_pm


@dataclass(frozen=True)
class EigenSpectrum:
    """Spectrum of a truncated operator, sorted by descending real part
    (ties by descending imaginary part)."""

    eigenvalues: np.ndarray
    rightmost: complex
    multiplicity: int
    sigma: float | None = None


def rightmost_eigenvalues(*blocks: np.ndarray, doubled: bool = False) -> EigenSpectrum:
    """Dense spectrum of the direct sum of ``blocks`` by ``numpy.linalg.eigvals``
    (LAPACK dgeev, no eigenvectors), with the rightmost eigenvalue and its
    cluster size.

    With ``doubled`` each eigenvalue is listed twice, as the realification
    of a complex operator L lists them when the blocks are real and similar
    to L: its spectrum is spec(L) with the conjugates, and a real similar
    matrix makes spec(L) closed under conjugation.  Eigenvalues are sorted
    by descending real part, ties by descending imaginary part; the
    multiplicity counts those within 1e-8 (1 + |rightmost|) of the
    rightmost one.
    """
    eigenvalues = np.concatenate([np.linalg.eigvals(block) for block in blocks])
    if doubled:
        eigenvalues = np.concatenate([eigenvalues, eigenvalues])
    eigenvalues = eigenvalues[np.lexsort((-eigenvalues.imag, -eigenvalues.real))]
    rightmost = complex(eigenvalues[0])
    cluster_tol = 1.0e-8 * (1.0 + abs(rightmost))
    multiplicity = int(np.sum(np.abs(eigenvalues - rightmost) <= cluster_tol))
    return EigenSpectrum(eigenvalues=eigenvalues, rightmost=rightmost, multiplicity=multiplicity)


# i^m for m = 0..3, exact: i^|n| read from it multiplies by 1, i, -1 or -i
# without round-off, where 1j ** n does not
_POWERS_OF_I = np.array([1.0, 1.0j, -1.0, -1.0j])


def _gauged_operator(rp: ReducedParams, n_modes: int, coupling: Coupling) -> np.ndarray:
    """D L D^-1 for the operator L of :func:`_complex_operator`, with
    D = diag(i^|n|) over n = -N..N and 1 on the chemical amplitude.

    Entry (m, n) is i^(|m| - |n|) L_mn: the drift reads -+ lam / 2 and the
    deposits chi / 2 and chi tau / 2 per unit mean, so every entry is real.
    D^-1 = conj(D), and a product with 1, i, -1 or -i is exact, so the
    imaginary part is exactly zero.  D is even in n, so the gauged matrix
    still commutes with n -> -n.
    """
    n_modes = int(n_modes)
    matrix = _complex_operator(rp, n_modes, coupling)
    gauge = np.ones(matrix.shape[0], dtype=complex)
    gauge[:2 * n_modes + 1] = _POWERS_OF_I[np.abs(np.arange(-n_modes, n_modes + 1)) % 4]
    matrix *= gauge[:, None]
    matrix *= gauge.conj()
    return matrix


def viscous_spectrum(rp: ReducedParams, n_modes: int, coupling: Coupling) -> EigenSpectrum:
    """Spectrum of :func:`assemble_viscous_operator`, from the two real
    parity blocks of the gauged operator of :func:`_gauged_operator`.

    The blocks are real and similar to L's parity blocks, so each
    eigenvalue is listed twice, as the realification lists spec(L) with
    its conjugates.  A real rightmost eigenvalue has an imaginary part of
    exactly 0.
    """
    gauged = _gauged_operator(rp, n_modes, coupling).real
    return rightmost_eigenvalues(*_parity_blocks(gauged, int(n_modes)), doubled=True)


def eigen_sweep(
    rp: ReducedParams, coupling: Coupling, sigmas, n_modes: int = 64
) -> list[EigenSpectrum]:
    """Rightmost spectra across an angular-viscosity sweep."""
    return [
        replace(viscous_spectrum(rp.with_sigma(sigma), n_modes, coupling), sigma=sigma)
        for sigma in map(float, sigmas)
    ]


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
    singular value of the forward matrix.  On the (a, b) pair that matrix
    is unitarily equivalent to mu - K plus mu - conj(K), with K the complex
    kinetic block; conj(K) = U K U^-1 for the unitary U = diag((-1)^n), so
    mu - K alone has the same smallest singular value, taken over its two
    parity blocks.  The drift coupling V is skew in L^2, so the bound holds
    for every truncation; ``ok`` allows ``slack``.
    """
    mu = complex(mu)
    if mu.real <= 0.0:
        raise ValueError(f"mu must have positive real part, got {mu}")
    n_modes = int(n_modes)
    mat = _shifted(mu, _kinetic_block(n_modes, sigma, rp.lambda_breve))
    smin = min(
        float(np.linalg.svd(block, compute_uv=False)[-1]) for block in _parity_blocks(mat, n_modes)
    )
    norm = 1.0 / smin
    bound = 1.0 / mu.real
    return ResolventCheck(norm=norm, bound=bound, ok=norm <= bound + slack)


# --- seed fields ------------------------------------------------------------------


def _require_quarter_turn(n_theta: int) -> None:
    if n_theta % 4:
        raise ValueError(f"quarter-turn rotation needs n_theta divisible by 4, got {n_theta}")


def plane_wave(amplitude, grid: SpectralGrid, k: int, along_x2: bool = False) -> np.ndarray:
    """Re(A) cos z + Im(A) sin z over the spatial grid, z = 2 pi k x1 (x2 with ``along_x2``).

    A is a complex amplitude or a profile of them; its axes follow the two
    spatial ones, so a profile over theta gives a phase-space field.
    """
    amplitude = np.asarray(amplitude)
    z = TWO_PI * k * (grid.x2 if along_x2 else grid.x1)
    shape = ((1, -1) if along_x2 else (-1, 1)) + (1,) * amplitude.ndim
    values = np.cos(z).reshape(shape) * amplitude.real + np.sin(z).reshape(shape) * amplitude.imag
    return np.broadcast_to(values, grid.shape_phys2 + amplitude.shape).copy()


def eigenfunction_field(
    u: np.ndarray, grid: SpectralGrid, k: int, rotated: bool = False
) -> np.ndarray:
    """The profile u = a + i b on wavenumber k along x1:  a cos(2 pi k x1) + b sin.

    With ``rotated``, its quarter-turn image f(x2, -x1, theta - pi/2)
    instead: the profile shifted by a quarter turn, on wavenumber k along
    x2.  A rotation by +pi/2 in both space and orientation commutes with
    the dynamics, so the image is again an eigenfunction at the same rate.
    """
    if len(u) != grid.n_theta:
        raise ValueError("profile theta resolution does not match the grid")
    if rotated:
        _require_quarter_turn(grid.n_theta)
        u = np.roll(u, grid.n_theta // 4)
    return plane_wave(u, grid, k, along_x2=rotated)


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
    """The eigenmode at eigenvalue mu for the mean W = 1, as (u, C).

    u = a + i b is the profile on the uniform theta grid and C the chemical
    amplitude alpha + i beta for the parabolic coupling, None for the
    elliptic one (where the chemical is slaved).  The linearization is
    complex-linear, so the mode for the mean W = i is (i u, i C).
    """
    if rp.sigma == 0.0:
        u = inviscid_eigenfunction(rp, mu, n_theta)
    else:
        u = viscous_eigenfunction(rp, mu, n_theta, n_modes)
    if coupling is Coupling.ELLIPTIC:
        return u, None
    scale = mu + rp.nu_breve
    # part by part: a complex array over a real one multiplies by the reciprocal
    return u.real / scale + 1j * (u.imag / scale), 1.0 / scale
