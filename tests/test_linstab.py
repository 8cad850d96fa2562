import math

import numpy as np
import pytest

from antkinetics.linstab import (
    DispersionResult,
    NoRoot,
    assemble_viscous_operator,
    dispersion_integral,
    eigen_sweep,
    eigenfunction_field,
    find_unstable_root,
    inviscid_eigenfunction,
    resolvent_norm_check,
    rightmost_eigenvalues,
    rotate_field_quarter,
    rotated_eigenfunction,
    seed_profiles,
    viscous_eigenfunction,
    viscous_spectrum,
)
from antkinetics.params import Coupling, ModelParams, ReducedParams, reduce_params
from antkinetics.spectral import SpectralGrid

TWO_PI = 2.0 * math.pi


def mean(profile):
    """Integral of an angular profile over [0, 2 pi]."""
    return float(np.mean(profile) * TWO_PI)


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


class TestEigenfunctions:
    def test_inviscid_closed_form(self):
        """tau = 0, w = (1, 0): a = chi lb cos^2 / D and b = -chi mu cos / D."""
        rp = rp_inviscid(2.0)
        mu = 2.0 * math.pi / math.sqrt(3.0)
        pair = inviscid_eigenfunction(rp, mu, (1.0, 0.0), 64)
        th = pair.theta
        D = mu**2 + rp.lambda_breve**2 * np.cos(th) ** 2
        np.testing.assert_allclose(
            pair.a, rp.chi_breve * rp.lambda_breve * np.cos(th) ** 2 / D, atol=1e-12
        )
        np.testing.assert_allclose(
            pair.b, -rp.chi_breve * mu * np.cos(th) / D, atol=1e-12
        )

    @pytest.mark.parametrize("tau_breve", [0.0, 1.2])
    @pytest.mark.parametrize("w", [(1.0, 0.0), (0.0, 1.0)])
    def test_inviscid_pointwise_resolvent_identity(self, tau_breve, w):
        """(mu_t I - V(theta)) A(theta) = chi B(theta) w holds pointwise."""
        rp = rp_inviscid(2.0, tau_breve=tau_breve, sigma_x_breve=0.3)
        root = find_unstable_root(rp, Coupling.ELLIPTIC)
        pair = inviscid_eigenfunction(rp, root.mu0, w, 128)
        th = pair.theta
        mu_t = root.mu0 + rp.sigma_x_breve
        lc = rp.lambda_breve * np.cos(th)
        lhs1 = mu_t * pair.a + lc * pair.b
        lhs2 = -lc * pair.a + mu_t * pair.b
        b11 = -tau_breve * np.cos(2 * th)
        rhs1 = rp.chi_breve * (b11 * w[0] + np.cos(th) * w[1])
        rhs2 = rp.chi_breve * (-np.cos(th) * w[0] + b11 * w[1])
        np.testing.assert_allclose(lhs1, rhs1, atol=1e-10)
        np.testing.assert_allclose(lhs2, rhs2, atol=1e-10)

    @pytest.mark.parametrize("w", [(1.0, 0.0), (0.0, 1.0)])
    def test_means_reproduce_the_seed_direction(self, w):
        rp = rp_inviscid(2.0, tau_breve=0.6)
        root = find_unstable_root(rp, Coupling.ELLIPTIC)
        pair = inviscid_eigenfunction(rp, root.mu0, w, 256)
        assert mean(pair.a) == pytest.approx(w[0], abs=1e-10)
        assert mean(pair.b) == pytest.approx(w[1], abs=1e-10)

    def test_viscous_means_and_truncation_stability(self):
        rp = rp_inviscid(2.0, sigma=0.05)
        matrix = assemble_viscous_operator(rp, 64, Coupling.ELLIPTIC)
        mu = rightmost_eigenvalues(matrix).rightmost.real
        pair64 = viscous_eigenfunction(rp, mu, (1.0, 0.0), 128, n_modes=64)
        pair96 = viscous_eigenfunction(rp, mu, (1.0, 0.0), 128, n_modes=96)
        assert mean(pair64.a) == pytest.approx(1.0, abs=1e-10)
        assert mean(pair64.b) == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(pair64.a, pair96.a, atol=1e-10)

    def test_viscous_reduces_to_inviscid(self):
        rp0 = rp_inviscid(2.0)
        mu = find_unstable_root(rp0, Coupling.ELLIPTIC).mu0
        inv = inviscid_eigenfunction(rp0, mu, (1.0, 0.0), 64)
        tiny = viscous_eigenfunction(rp_inviscid(2.0, sigma=1e-9), mu, (1.0, 0.0), 64,
                                     n_modes=96)
        np.testing.assert_allclose(tiny.a, inv.a, atol=1e-6)
        np.testing.assert_allclose(tiny.b, inv.b, atol=1e-6)


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
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("sigma_theta", [0.0, 0.02])
    @pytest.mark.parametrize("n_modes", [4, 64])
    def test_parity_spectrum_matches_the_full_matrix(self, coupling, k, sigma_theta, n_modes):
        rp = reduce_params(self.params(coupling).replace(sigma_theta=sigma_theta), k)
        full = rightmost_eigenvalues(assemble_viscous_operator(rp, n_modes, coupling))
        folded = viscous_spectrum(rp, n_modes, coupling)
        assert abs(folded.rightmost - full.rightmost) <= 1e-12 * (1.0 + abs(full.rightmost))
        assert folded.multiplicity == full.multiplicity
        assert folded.eigenvalues.size == full.eigenvalues.size


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
        pair = inviscid_eigenfunction(rp, 1.0, (1.0, 0.0), 10)
        with pytest.raises(ValueError):
            rotated_eigenfunction(pair, grid, 1)

    def test_rotation_consistency_and_period(self):
        grid = SpectralGrid(16, 16, 16)
        rp = rp_inviscid(2.0)
        mu = find_unstable_root(rp, Coupling.ELLIPTIC).mu0
        pair = inviscid_eigenfunction(rp, mu, (1.0, 0.0), 16)
        direct = rotated_eigenfunction(pair, grid, 1)
        via_field = rotate_field_quarter(eigenfunction_field(pair, grid, 1))
        np.testing.assert_allclose(direct, via_field, atol=1e-12)
        field = eigenfunction_field(pair, grid, 1)
        turned = field
        for _ in range(4):
            turned = rotate_field_quarter(turned)
        np.testing.assert_allclose(turned, field, atol=1e-12)

    def test_seed_profiles_scale_parabolic_chemical(self):
        """Parabolic eigenvector: kinetic means w, chemical means w / (mu + nu)."""
        rp = rp_inviscid(2.0, nu_breve=1.0)
        mu = find_unstable_root(rp, Coupling.PARABOLIC).mu0
        profiles = seed_profiles(rp, Coupling.PARABOLIC, mu, 256)
        (pair1, chem1), (pair2, chem2) = profiles
        scale = mu + rp.nu_breve
        assert chem1 == pytest.approx((1.0 / scale, 0.0))
        assert chem2 == pytest.approx((0.0, 1.0 / scale))
        assert mean(pair1.a) == pytest.approx(1.0, abs=1e-8)
        assert mean(pair1.b) == pytest.approx(0.0, abs=1e-8)
        assert mean(pair2.b) == pytest.approx(1.0, abs=1e-8)
