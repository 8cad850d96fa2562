import ast
import math
import pathlib

import numpy as np
import pytest

import antkinetics
from antkinetics import linstab
from antkinetics.linstab import (
    DispersionResult,
    NoRoot,
    _brent,
    _complex_operator,
    _gauged_operator,
    _parity_blocks,
    assemble_viscous_operator,
    dispersion_integral,
    eigen_sweep,
    eigenfunction_field,
    find_unstable_root,
    inviscid_eigenfunction,
    resolvent_norm_check,
    rightmost_eigenvalues,
    rotate_field_quarter,
    seed_profiles,
    viscous_eigenfunction,
    viscous_spectrum,
)
from antkinetics.params import (
    Coupling,
    ModelParams,
    ReducedParams,
    inviscid_threshold_chi,
    reduce_params,
)
from antkinetics.spectral import SpectralGrid

TWO_PI = 2.0 * math.pi


def mean(profile):
    """Integral of an angular profile over [0, 2 pi]."""
    return float(np.mean(profile) * TWO_PI)


def thetas(n_theta):
    """The uniform theta grid the eigenprofiles are sampled on."""
    return TWO_PI * np.arange(n_theta) / n_theta


def rp_inviscid(chi_breve, tau_breve=0.0, lambda_breve=TWO_PI, sigma_x_breve=0.0,
                nu_breve=1.0, sigma=0.0):
    return ReducedParams(k=1, chi_breve=chi_breve, tau_breve=tau_breve,
                         lambda_breve=lambda_breve, sigma_x_breve=sigma_x_breve,
                         nu_breve=nu_breve, sigma=sigma)


class TestDispersionIntegral:
    # frozen 25-digit quadrature values of
    # (1/1) int_0^{2pi} (lb cos^2 t - mu tb cos 2t) / (mu^2 + lb^2 cos^2 t) dt
    FROZEN = [
        (0.0, TWO_PI, 1.0, 0.8428232745224101568789),
        (0.5, TWO_PI, 2.0, 0.9513688945160895612164),
        (1.5, 2.0 * TWO_PI, 0.37, 1.192093991770815205742),
        (3.0, 3.0 * TWO_PI, 11.0, 0.450142992185953117694),
    ]

    @pytest.mark.parametrize("tb,lb,mu,expected", FROZEN)
    def test_frozen_quadrature_values(self, tb, lb, mu, expected):
        assert dispersion_integral(tb, lb, mu) == pytest.approx(expected, rel=1e-12)

    def test_frozen_complex_value(self):
        value = dispersion_integral(0.5, TWO_PI, 0.7 + 0.4j)
        assert value == pytest.approx(
            1.283517503748112587004 - 0.1157099171149262425035j, rel=1e-12
        )

    @pytest.mark.parametrize("tb,lb", [(0.0, TWO_PI), (0.8, 3.0), (2.0, 30.0)])
    def test_against_live_quadrature(self, tb, lb):
        """Closed form against adaptive quadrature for several arguments."""
        from scipy.integrate import quad

        for mu in (0.13, 1.0, 7.5):
            ref, err = quad(
                lambda t: (lb * math.cos(t) ** 2 - mu * tb * math.cos(2 * t))
                / (mu**2 + lb**2 * math.cos(t) ** 2),
                0.0,
                2.0 * math.pi,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert abs(dispersion_integral(tb, lb, mu) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_limit_at_zero(self):
        for tb, lb in [(0.0, TWO_PI), (1.3, 4.0)]:
            assert dispersion_integral(tb, lb, 0.0) == pytest.approx(
                TWO_PI * (tb + 1.0) / lb, rel=1e-13
            )

    def test_strictly_decreasing_in_mu(self):
        mus = np.linspace(0.0, 20.0, 200)
        values = [dispersion_integral(0.9, TWO_PI, m) for m in mus]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dispersion_integral(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            dispersion_integral(0.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            dispersion_integral(0.0, TWO_PI, -0.5)


class TestUnstableRoot:
    def test_elliptic_closed_form_root(self):
        """chi = 2, lambda_breve = 2 pi, tau = 0 has the exact root 2 pi / sqrt 3."""
        root = find_unstable_root(rp_inviscid(2.0), Coupling.ELLIPTIC)
        assert isinstance(root, DispersionResult)
        assert root.mu0 == pytest.approx(2.0 * math.pi / math.sqrt(3.0), abs=5e-12)
        assert root.residual <= 1e-12
        assert root.bracket[0] <= root.mu0 <= root.bracket[1]

    def test_elliptic_root_shifts_by_spatial_viscosity(self):
        base = find_unstable_root(rp_inviscid(2.0), Coupling.ELLIPTIC).mu0
        shifted = find_unstable_root(
            rp_inviscid(2.0, sigma_x_breve=0.5), Coupling.ELLIPTIC
        ).mu0
        assert shifted == pytest.approx(base - 0.5, abs=5e-12)

    def test_elliptic_root_with_alignment(self):
        root = find_unstable_root(rp_inviscid(2.0, tau_breve=TWO_PI * 0.3), Coupling.ELLIPTIC)
        assert root.mu0 == pytest.approx(6.459182259861623251446, abs=5e-12)

    def test_parabolic_frozen_root(self):
        root = find_unstable_root(rp_inviscid(2.0, nu_breve=1.0), Coupling.PARABOLIC)
        assert root.mu0 == pytest.approx(0.75987419074485805638, abs=5e-12)

    def test_no_root_at_or_below_threshold(self):
        at = find_unstable_root(rp_inviscid(1.0), Coupling.ELLIPTIC)
        assert isinstance(at, NoRoot)
        assert at.boundary_value == pytest.approx(1.0, rel=1e-13)
        below = find_unstable_root(rp_inviscid(0.5), Coupling.PARABOLIC)
        assert isinstance(below, NoRoot)
        assert below.boundary_value < 1.0

    def test_root_appears_exactly_above_threshold(self):
        eps = 1e-9
        above = find_unstable_root(rp_inviscid(1.0 + eps), Coupling.ELLIPTIC)
        assert isinstance(above, DispersionResult)
        assert 0.0 < above.mu0 < 1e-6


def _root_cases():
    """The roots above, c02's near-threshold chi sequence and a k, tau grid."""
    elliptic, parabolic = Coupling.ELLIPTIC, Coupling.PARABOLIC
    cases = [
        pytest.param(rp_inviscid(2.0), elliptic, id="closed-form"),
        pytest.param(rp_inviscid(2.0, sigma_x_breve=0.5), elliptic, id="shifted"),
        pytest.param(rp_inviscid(2.0, tau_breve=TWO_PI * 0.3), elliptic, id="alignment"),
        pytest.param(rp_inviscid(2.0, nu_breve=1.0), parabolic, id="parabolic-frozen"),
        pytest.param(rp_inviscid(1.0 + 1e-9), elliptic, id="just-above-threshold"),
    ]
    for coupling in (elliptic, parabolic):
        base = ModelParams(sigma_x=0.0, sigma_theta=0.0, sigma_c=0.05, gamma=1.0,
                           lam=1.0, chi=1.0, tau=0.25, coupling=coupling)
        chi_star = inviscid_threshold_chi(base, 1)
        cases += [
            pytest.param(reduce_params(base.replace(chi=chi_star * (1.0 + 4.0**-j)), 1),
                         coupling, id=f"{coupling.value}-near-threshold-{j}")
            for j in range(10)
        ]
        for k in (1, 2, 3):
            for tau in (0.0, 1.3):
                tilted = base.replace(sigma_x=0.002, tau=tau)
                chi = 3.0 * inviscid_threshold_chi(tilted, k)
                cases.append(pytest.param(reduce_params(tilted.replace(chi=chi), k), coupling,
                                          id=f"{coupling.value}-k{k}-tau{tau}"))
    return cases


@pytest.mark.parametrize("rp, coupling", _root_cases())
def test_root_is_bracketed_within_8_ulp(rp, coupling):
    """g - 1 changes sign (or vanishes) across mu0 -+ 8 ulp: the root is solved
    to round-off, not just to a small residual."""
    root = find_unstable_root(rp, coupling)
    g = linstab._dispersion_map(rp, coupling)
    step = 8.0 * np.spacing(root.mu0)
    assert g(root.mu0 - step) >= 1.0 >= g(root.mu0 + step)
    assert root.bracket[0] == 0.0


def _brentq(f, a, b):
    """scipy's brentq at the tolerances _brent ports: (root, iterations)."""
    import scipy.optimize

    root, info = scipy.optimize.brentq(
        f, a, b, xtol=1.0e-300, rtol=4.0 * np.finfo(float).eps, full_output=True
    )
    return root, info.iterations


def _dispersion_corpus():
    """(f, 0, hi) for g - 1 on both couplings at k = 1..3, with chi from 1e-12
    to 10 above threshold in relative terms, bracketed as find_unstable_root does."""
    for coupling in (Coupling.ELLIPTIC, Coupling.PARABOLIC):
        for k in (1, 2, 3):
            for tau in (0.0, 0.25, 1.3):
                for sigma_x in (0.0, 0.002):
                    base = ModelParams(sigma_x=sigma_x, sigma_theta=0.0, sigma_c=0.05,
                                       gamma=1.0, lam=1.0, chi=1.0, tau=tau, coupling=coupling)
                    chi_star = inviscid_threshold_chi(base, k)
                    for above in np.logspace(-12.0, 1.0, 14):
                        rp = reduce_params(base.replace(chi=chi_star * (1.0 + above)), k)
                        g = linstab._dispersion_map(rp, coupling)
                        if g(0.0) <= 1.0:
                            continue
                        hi = 1.0
                        while g(hi) >= 1.0:
                            hi *= 2.0
                        yield (lambda mu, g=g: g(mu) - 1.0), 0.0, hi


def _tanh_corpus(count=300):
    """(f, a, b) for shifted tanh functions of random slope, centre and offset."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        slope = 10.0 ** rng.uniform(-2.0, 2.0)
        a, b = rng.uniform(-3.0, 0.0), rng.uniform(0.5, 4.0)
        centre = rng.uniform(a, b)
        offset = rng.uniform(-0.5, 0.5) * math.tanh(slope * min(centre - a, b - centre))
        yield (lambda x, s=slope, c=centre, o=offset: math.tanh(s * (x - c)) + o), a, b


class TestBrentPort:
    """_brent gives scipy.optimize.brentq's root bits and iteration count."""

    def test_fixed_seed_corpus(self):
        dispersion = list(_dispersion_corpus())
        assert len(dispersion) > 300  # only a few near-threshold maps have no root
        cases = dispersion + list(_tanh_corpus())
        mismatches = []
        for f, a, b in cases:
            expect_root, expect_iterations = _brentq(f, a, b)
            root, iterations = _brent(f, a, b)
            if root.hex() != expect_root.hex() or iterations != expect_iterations:
                mismatches.append((a, b, root, expect_root, iterations, expect_iterations))
        assert mismatches == []

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0)])
    def test_endpoint_root_takes_no_iteration(self, a, b):
        """The same root as scipy's; scipy 1.17 counts this as one iteration."""
        assert _brent(lambda x: x, a, b) == (0.0, 0)
        assert _brentq(lambda x: x, a, b)[0] == 0.0

    def test_same_sign_bracket_is_refused(self):
        with pytest.raises(ValueError, match="different signs"):
            _brent(lambda x: x, 1.0, 2.0)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x, 1.0, 2.0)

    def test_nan_value_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            _brent(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    def test_exhausted_iterations_raise_naming_the_count(self):
        """A step across x = 1e-200 on [-1e300, 1e300] bisects: it needs ~1700
        halvings to close, far beyond the 100 iterations allowed."""
        def step(x):
            return -1.0 if x < 1.0e-200 else 1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            _brent(step, -1.0e300, 1.0e300)
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(step, -1.0e300, 1.0e300)


class TestEigenfunctions:
    def test_inviscid_closed_form(self):
        """tau = 0, W = 1: a = chi lb cos^2 / D and b = -chi mu cos / D."""
        rp = rp_inviscid(2.0)
        mu = 2.0 * math.pi / math.sqrt(3.0)
        u = inviscid_eigenfunction(rp, mu, 64)
        th = thetas(64)
        D = mu**2 + rp.lambda_breve**2 * np.cos(th) ** 2
        np.testing.assert_allclose(
            u.real, rp.chi_breve * rp.lambda_breve * np.cos(th) ** 2 / D, atol=1e-12
        )
        np.testing.assert_allclose(
            u.imag, -rp.chi_breve * mu * np.cos(th) / D, atol=1e-12
        )

    @pytest.mark.parametrize("tau_breve", [0.0, 1.2])
    @pytest.mark.parametrize("w", [1.0, 1j])
    def test_inviscid_pointwise_resolvent_identity(self, tau_breve, w):
        """(mu_t I - V(theta)) A(theta) = chi B(theta) W holds pointwise for W u."""
        rp = rp_inviscid(2.0, tau_breve=tau_breve, sigma_x_breve=0.3)
        root = find_unstable_root(rp, Coupling.ELLIPTIC)
        u = w * inviscid_eigenfunction(rp, root.mu0, 128)
        th = thetas(128)
        mu_t = root.mu0 + rp.sigma_x_breve
        lc = rp.lambda_breve * np.cos(th)
        lhs1 = mu_t * u.real + lc * u.imag
        lhs2 = -lc * u.real + mu_t * u.imag
        b11 = -tau_breve * np.cos(2 * th)
        rhs1 = rp.chi_breve * (b11 * w.real + np.cos(th) * w.imag)
        rhs2 = rp.chi_breve * (-np.cos(th) * w.real + b11 * w.imag)
        np.testing.assert_allclose(lhs1, rhs1, atol=1e-10)
        np.testing.assert_allclose(lhs2, rhs2, atol=1e-10)

    @pytest.mark.parametrize("w", [1.0, 1j])
    def test_means_reproduce_the_seed_direction(self, w):
        rp = rp_inviscid(2.0, tau_breve=0.6)
        root = find_unstable_root(rp, Coupling.ELLIPTIC)
        u = w * inviscid_eigenfunction(rp, root.mu0, 256)
        assert mean(u.real) == pytest.approx(w.real, abs=1e-10)
        assert mean(u.imag) == pytest.approx(w.imag, abs=1e-10)

    def test_viscous_means_and_truncation_stability(self):
        rp = rp_inviscid(2.0, sigma=0.05)
        matrix = assemble_viscous_operator(rp, 64, Coupling.ELLIPTIC)
        mu = rightmost_eigenvalues(matrix).rightmost.real
        u64 = viscous_eigenfunction(rp, mu, 128, n_modes=64)
        u96 = viscous_eigenfunction(rp, mu, 128, n_modes=96)
        assert mean(u64.real) == pytest.approx(1.0, abs=1e-10)
        assert mean(u64.imag) == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(u64.real, u96.real, atol=1e-10)

    def test_viscous_reduces_to_inviscid(self):
        rp0 = rp_inviscid(2.0)
        mu = find_unstable_root(rp0, Coupling.ELLIPTIC).mu0
        inv = inviscid_eigenfunction(rp0, mu, 64)
        tiny = viscous_eigenfunction(rp_inviscid(2.0, sigma=1e-9), mu, 64, n_modes=96)
        np.testing.assert_allclose(tiny.real, inv.real, atol=1e-6)
        np.testing.assert_allclose(tiny.imag, inv.imag, atol=1e-6)


class TestTruncatedOperator:
    def params(self, coupling):
        return ModelParams(sigma_x=0.001, sigma_theta=0.02, sigma_c=0.05, gamma=1.0,
                           lam=1.0, chi=6.0, tau=0.25, coupling=coupling)

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    def test_matrix_is_real_with_expected_size(self, coupling):
        rp = reduce_params(self.params(coupling), 1)
        matrix = assemble_viscous_operator(rp, 8, coupling)
        extra = 2 if coupling is Coupling.PARABOLIC else 0
        assert matrix.shape == (2 * 17 + extra, 2 * 17 + extra)
        assert matrix.dtype == np.float64

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    def test_rightmost_matches_dispersion_root(self, coupling):
        """Dense eigensolve against the independent scalar root, sigma = 0."""
        p = self.params(coupling).replace(sigma_theta=0.0)
        rp = reduce_params(p, 1)
        root = find_unstable_root(rp, coupling)
        assert isinstance(root, DispersionResult)
        spectrum = rightmost_eigenvalues(assemble_viscous_operator(rp, 64, coupling))
        assert spectrum.rightmost.imag == pytest.approx(0.0, abs=1e-10)
        assert spectrum.rightmost.real == pytest.approx(root.mu0, abs=1e-10)
        assert spectrum.multiplicity == 2

    def test_truncation_converged_at_64_modes(self):
        rp = reduce_params(self.params(Coupling.ELLIPTIC), 1)
        mu64 = rightmost_eigenvalues(assemble_viscous_operator(rp, 64, Coupling.ELLIPTIC))
        mu128 = rightmost_eigenvalues(assemble_viscous_operator(rp, 128, Coupling.ELLIPTIC))
        assert abs(mu64.rightmost - mu128.rightmost) < 1e-10

    def test_stable_configuration_has_negative_rightmost(self):
        p = self.params(Coupling.ELLIPTIC).replace(chi=0.5)
        rp = reduce_params(p, 1)
        spectrum = rightmost_eigenvalues(assemble_viscous_operator(rp, 48, Coupling.ELLIPTIC))
        assert spectrum.rightmost.real < 0.0

    def test_eigen_sweep_orders_and_tags_sigmas(self):
        rp = reduce_params(self.params(Coupling.ELLIPTIC).replace(sigma_theta=0.0), 1)
        sigmas = [1e-4, 1e-2, 0.1, 0.5]
        spectra = eigen_sweep(rp, Coupling.ELLIPTIC, sigmas, n_modes=48)
        assert [s.sigma for s in spectra] == sigmas
        reals = [s.rightmost.real for s in spectra]
        assert all(r > 0.0 for r in reals)
        # angular viscosity only damps the rightmost rate
        assert all(a > b for a, b in zip(reals, reals[1:]))

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    def test_operator_commutes_with_angular_reflection(self, coupling):
        rp = reduce_params(self.params(coupling), 2)
        n_modes = 16
        matrix = assemble_viscous_operator(rp, n_modes, coupling)
        size = 2 * n_modes + 1
        flip = np.concatenate([
            np.arange(size)[::-1], size + np.arange(size)[::-1],
            np.arange(2 * size, matrix.shape[0]),
        ])
        assert rp.tau_breve > 0.0
        assert np.array_equal(matrix, matrix[np.ix_(flip, flip)])

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    def test_operator_commutes_with_the_quarter_rotation(self, coupling):
        """(a, b, alpha, beta) -> (-b, a, -beta, alpha) is u -> i u on u = a + i b:
        the operator is complex-linear."""
        rp = reduce_params(self.params(coupling), 2)
        size = 2 * 16 + 1
        matrix = assemble_viscous_operator(rp, 16, coupling)
        chem = matrix.shape[0] > 2 * size
        re = np.r_[0:size, [2 * size] if chem else []].astype(int)
        im = np.r_[size:2 * size, [2 * size + 1] if chem else []].astype(int)
        quarter = np.zeros_like(matrix)
        quarter[im, re] = 1.0
        quarter[re, im] = -1.0
        assert rp.tau_breve > 0.0
        assert np.array_equal(matrix @ quarter, quarter @ matrix)

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("sigma_theta", [0.0, 0.02])
    @pytest.mark.parametrize("n_modes", [4, 64, 128])
    @pytest.mark.parametrize("chi", [6.0, 0.5])
    def test_parity_spectrum_matches_the_full_matrix(self, coupling, k, sigma_theta, n_modes,
                                                     chi):
        """At n_modes = 64, chi = 0.5 leaves a complex, stable rightmost pair:
        both sides list its +imag member first."""
        rp = reduce_params(self.params(coupling).replace(sigma_theta=sigma_theta, chi=chi), k)
        full = rightmost_eigenvalues(assemble_viscous_operator(rp, n_modes, coupling))
        folded = viscous_spectrum(rp, n_modes, coupling)
        assert abs(folded.rightmost - full.rightmost) <= 1e-12 * (1.0 + abs(full.rightmost))
        assert folded.multiplicity == full.multiplicity
        assert folded.eigenvalues.size == full.eigenvalues.size

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    @pytest.mark.parametrize("k", [1, 3])
    def test_gauged_operator_is_exactly_real(self, coupling, k):
        """D L D^-1 with D = diag(i^|n|) is real, to the bit, and similar to L."""
        rp = reduce_params(self.params(coupling), k)
        assert rp.tau_breve > 0.0 and rp.sigma > 0.0
        # at 128 modes, where 1j ** n would leave imaginary parts of 2e-14
        assert np.all(_gauged_operator(rp, 128, coupling).imag == 0.0)
        # similar to L: every eigenvalue of each lies on one of the other (at 16
        # modes; the interior spectrum of more modes is too ill-conditioned)
        ours = np.linalg.eigvals(_gauged_operator(rp, 16, coupling).real)
        theirs = np.linalg.eigvals(_complex_operator(rp, 16, coupling))
        distance = np.abs(ours[:, None] - theirs[None, :])
        assert max(distance.min(axis=0).max(), distance.min(axis=1).max()) < 1e-10

    @pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
    @pytest.mark.parametrize("n_modes", [16, 64, 128])
    def test_eigenvalues_agree_with_scipy_eig(self, coupling, n_modes):
        """numpy's eigvals and scipy's eig both run dgeev; their OpenBLAS builds
        may differ, so agreement is asserted to 1e-12 of the largest |lambda|."""
        import scipy.linalg

        rp = reduce_params(self.params(coupling), 1)
        gauged = _gauged_operator(rp, n_modes, coupling).real
        for block in _parity_blocks(gauged, n_modes):
            ours = rightmost_eigenvalues(block).eigenvalues
            theirs = scipy.linalg.eig(block, right=False)
            tol = 1e-12 * np.abs(theirs).max()
            distance = np.abs(ours[:, None] - theirs[None, :])
            assert ours.size == theirs.size
            assert max(distance.min(axis=0).max(), distance.min(axis=1).max()) <= tol

    def test_spectrum_is_one_real_eigensolve_call(self, monkeypatch):
        calls = []

        def recording(*blocks, **kwargs):
            calls.append([block.dtype for block in blocks])
            return rightmost_eigenvalues(*blocks, **kwargs)

        monkeypatch.setattr(linstab, "rightmost_eigenvalues", recording)
        for coupling in (Coupling.ELLIPTIC, Coupling.PARABOLIC):
            calls.clear()
            viscous_spectrum(reduce_params(self.params(coupling), 1), 16, coupling)
            assert calls == [[np.dtype(np.float64)] * 2]


def test_dense_eigensolves_stay_in_rightmost_eigenvalues():
    """Only linstab.rightmost_eigenvalues calls a dense eig/eigvals, so every
    dense eigensolve is timed under one name."""
    names = {"eig", "eigvals"}
    callers = set()
    for path in sorted(pathlib.Path(antkinetics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                imported = {alias.name for alias in node.names} & names
                assert not imported, f"{path.name}:{node.lineno} imports {imported}"
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in names
                        and isinstance(node.func.value, (ast.Attribute, ast.Name))):
                    owner = node.func.value
                    owner = owner.attr if isinstance(owner, ast.Attribute) else owner.id
                    if owner == "linalg":
                        callers.add(f"{path.stem}.{function.name}")
    assert callers == {"linstab.rightmost_eigenvalues"}


class TestResolventBound:
    def test_bound_holds_for_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rp = rp_inviscid(
                chi_breve=0.0,
                lambda_breve=float(rng.uniform(0.5, 30.0)),
                sigma=float(rng.uniform(1e-4, 1.0)),
            )
            mu = complex(rng.uniform(0.05, 5.0), rng.uniform(-10.0, 10.0))
            check = resolvent_norm_check(rp, rp.sigma, mu, n_modes=32)
            assert check.ok
            assert check.norm <= check.bound + 1e-8

    def test_parity_blocks_keep_the_smallest_singular_value(self):
        rng = np.random.default_rng(7)
        n_modes = 24
        for _ in range(5):
            rp = rp_inviscid(0.0, lambda_breve=float(rng.uniform(0.5, 30.0)),
                             sigma=float(rng.uniform(1e-4, 1.0)))
            mu = complex(rng.uniform(0.05, 5.0), rng.uniform(-10.0, 10.0))
            # with chi_breve = 0 the operator is the bare diffusion-drift block
            kinetic = assemble_viscous_operator(rp, n_modes, Coupling.ELLIPTIC)
            full = np.linalg.svd(mu * np.eye(kinetic.shape[0]) - kinetic, compute_uv=False)
            norm = resolvent_norm_check(rp, rp.sigma, mu, n_modes=n_modes).norm
            assert norm == pytest.approx(1.0 / full[-1], rel=1e-12)

    def test_zero_drift_attains_the_bound(self):
        """lambda_breve = 0 leaves a diagonal operator: norm is exactly 1 / mu."""
        rp = rp_inviscid(0.0, lambda_breve=0.0, sigma=0.3)
        check = resolvent_norm_check(rp, 0.3, 2.0, n_modes=16)
        assert check.norm == pytest.approx(0.5, rel=1e-12)


class TestRotations:
    def test_quarter_turn_needs_divisible_grid(self):
        grid = SpectralGrid(12, 12, 10)
        rp = rp_inviscid(2.0)
        u = inviscid_eigenfunction(rp, 1.0, 10)
        with pytest.raises(ValueError):
            eigenfunction_field(u, grid, 1, rotated=True)

    def test_rotation_consistency_and_period(self):
        grid = SpectralGrid(16, 16, 16)
        rp = rp_inviscid(2.0)
        mu = find_unstable_root(rp, Coupling.ELLIPTIC).mu0
        u = inviscid_eigenfunction(rp, mu, 16)
        direct = eigenfunction_field(u, grid, 1, rotated=True)
        via_field = rotate_field_quarter(eigenfunction_field(u, grid, 1))
        np.testing.assert_allclose(direct, via_field, atol=1e-12)
        field = eigenfunction_field(u, grid, 1)
        turned = field
        for _ in range(4):
            turned = rotate_field_quarter(turned)
        np.testing.assert_allclose(turned, field, atol=1e-12)

    def test_seed_profiles_scale_parabolic_chemical(self):
        """Parabolic eigenvector: kinetic mean W, chemical amplitude W / (mu + nu),
        for W = 1 as returned and W = i as (i u, i C)."""
        rp = rp_inviscid(2.0, nu_breve=1.0)
        mu = find_unstable_root(rp, Coupling.PARABOLIC).mu0
        u, chem = seed_profiles(rp, Coupling.PARABOLIC, mu, 256)
        scale = mu + rp.nu_breve
        for w in (1.0, 1j):
            assert w * chem == pytest.approx(w / scale)
            assert mean((w * u).real) == pytest.approx(w.real, abs=1e-8)
            assert mean((w * u).imag) == pytest.approx(w.imag, abs=1e-8)
