"""Tests for observables, rate fits, and the energy-balance residual."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.signal

from antkinetics.diagnostics import (
    _TRAIL_PROMINENCE,
    LP_ORDERS,
    ObservableCollector,
    RECORD_FIELDS,
    ObservableRecord,
    Sample,
    _prominent_peaks,
    compute_observables,
    count_trails,
    deviation_sample,
    dissipation_residual,
    dominant_wavenumber,
    fit_exponential_rate,
    record_to_dict,
    write_ndjson,
    write_records_csv,
)
from antkinetics.dynamics import (
    StepperConfig,
    homogeneous_state,
    marginal_hat,
    run,
    state_from_density,
)
from antkinetics.experiments import random_band_limited_state
from antkinetics.params import ModelParams
from antkinetics.spectral import SpectralGrid, fft3, ifft2, lp_norm_phys

TWO_PI = 2.0 * math.pi


@pytest.fixture
def grid():
    return SpectralGrid(n_x1=32, n_x2=32, n_theta=16)


def params(**kw):
    base = dict(
        sigma_x=0.01,
        sigma_theta=0.05,
        sigma_c=0.1,
        lam=1.0,
        gamma=1.0,
        chi=0.0,
        tau=0.0,
        coupling="elliptic",
    )
    base.update(kw)
    return ModelParams(**base)


def weighted_power(f, grid):
    """The half-axis-weighted |f_hat|^2 that dominant_wavenumber reads."""
    return grid.half_weights[None, :, None] * np.abs(fft3(f)) ** 2


class TestDominantWavenumber:
    def test_uniform_state_reports_zero(self, grid):
        state = homogeneous_state(grid, params())
        assert dominant_wavenumber(weighted_power(state.f_physical(), grid), grid) == 0

    def test_single_mode_along_x1(self, grid):
        f = (1.0 + 0.1 * np.cos(3.0 * TWO_PI * grid.x1))[:, None, None] * np.ones(
            grid.shape_phys3
        ) / TWO_PI
        assert dominant_wavenumber(weighted_power(f, grid), grid) == 3

    def test_single_mode_along_x2(self, grid):
        f = (1.0 + 0.1 * np.cos(2.0 * TWO_PI * grid.x2))[None, :, None] * np.ones(
            grid.shape_phys3
        ) / TWO_PI
        assert dominant_wavenumber(weighted_power(f, grid), grid) == 2

    def test_diagonal_mode_rounds_modulus(self, grid):
        # (1, 1) has modulus sqrt(2); the reported integer is round(sqrt(2)) = 1
        f = (
            1.0
            + 0.1 * np.cos(TWO_PI * (grid.x1[:, None] + grid.x2[None, :]))
        )[:, :, None] * np.ones(grid.shape_phys3) / TWO_PI
        assert dominant_wavenumber(weighted_power(f, grid), grid) == 1

    def test_largest_mode_wins(self, grid):
        f = (
            1.0
            + 0.02 * np.cos(TWO_PI * grid.x1)[:, None]
            + 0.2 * np.cos(4.0 * TWO_PI * grid.x2)[None, :]
        )[:, :, None] * np.ones(grid.shape_phys3) / TWO_PI
        assert dominant_wavenumber(weighted_power(f, grid), grid) == 4


class TestCountTrails:
    def test_flat_density_has_no_trails(self, grid):
        assert count_trails(np.ones(grid.shape_phys2), grid) == 0

    def test_two_ridges_along_x1(self, grid):
        rho = 1.0 + 0.3 * np.cos(2.0 * TWO_PI * grid.x1)[:, None] * np.ones(
            grid.shape_phys2
        )
        assert count_trails(rho, grid) == 2

    def test_three_ridges_along_x2(self, grid):
        rho = 1.0 + 0.3 * np.cos(3.0 * TWO_PI * grid.x2)[None, :] * np.ones(
            grid.shape_phys2
        )
        assert count_trails(rho, grid) == 3

    def test_subprominence_ripples_are_ignored(self, grid):
        rho = (
            1.0
            + 0.3 * np.cos(2.0 * TWO_PI * grid.x1)
            + 0.005 * np.cos(6.0 * TWO_PI * grid.x1)
        )[:, None] * np.ones(grid.shape_phys2)
        assert count_trails(rho, grid) == 2

    def test_profiles_count_as_find_peaks_counts_them(self, grid):
        rng = np.random.default_rng(13)
        for i in range(300):
            rho = periodic_profile(i, grid.n_x1, rng)[:, None] * np.ones(grid.shape_phys2)
            assert count_trails(rho, grid) == reference_trails(rho.mean(axis=1))


def periodic_profile(i, size, rng):
    """Gaussian noise, integers 0-3 (plateaus and ties) or a quantised
    sinusoid, by i mod 3."""
    if i % 3 == 0:
        return 1.0 + rng.standard_normal(size)
    if i % 3 == 1:
        return rng.integers(0, 4, size).astype(float)
    phase = TWO_PI * int(rng.integers(1, 5)) * np.arange(size) / size + rng.uniform(0.0, TWO_PI)
    return np.round(8.0 * np.sin(phase)) / 8.0


def closed(profile):
    """The profile rolled to start at its minimum and closed with it, as
    count_trails forms it."""
    rolled = np.roll(profile, -int(np.argmin(profile)))
    return np.concatenate([rolled, rolled[:1]])


def reference_trails(profile):
    """count_trails' peak count, taken from scipy.signal.find_peaks."""
    extended = closed(profile)
    span = float(np.max(extended) - np.min(extended))
    return len(scipy.signal.find_peaks(extended, prominence=_TRAIL_PROMINENCE * span)[0])


class TestProminentPeaks:
    """The peak count is exactly that of scipy.signal.find_peaks(x, prominence=h)."""

    def test_fixed_seed_corpus(self):
        rng = np.random.default_rng(7)
        mismatches = []
        for i in range(3000):
            x = closed(periodic_profile(i, int(rng.integers(4, 70)), rng))
            span = float(np.max(x) - np.min(x))
            for h in (0.0, 0.05 * span, 0.5 * span, span):
                expect = len(scipy.signal.find_peaks(x, prominence=h)[0])
                if _prominent_peaks(x.tolist(), h) != expect:
                    mismatches.append((x.tolist(), h, expect))
        assert mismatches == []

    @pytest.mark.parametrize(
        "x, h",
        [
            ([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0], 0.0),  # a plateau peaks once
            ([0.0, 1.0, 2.0, 2.0], 0.0),  # a plateau into the last sample does not
            ([0.0, 2.0, 1.0, 0.0, 0.0], 0.0),  # a plateau at the closing sample
            ([0.0, 1.0, 0.0, 2.0, 0.0, 0.0], 1.0),
            ([0.0, 2.0, 0.0, 2.0, 0.0], 2.0),  # tied peaks, each of prominence h
            ([0.0, 3.0, 1.0, 2.0, 0.0], 1.0),  # prominence exactly h counts
            ([0.0, 3.0, 1.0, 2.0, 0.0], 1.0 + 1.0e-15),
            ([0.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0], 0.5),
            ([0.0, 0.0, 0.0], 0.0),
        ],
    )
    def test_plateaus_ties_and_threshold(self, x, h):
        expect = len(scipy.signal.find_peaks(np.array(x), prominence=h)[0])
        assert _prominent_peaks(x, h) == expect


class TestComputeObservables:
    def test_homogeneous_state_values(self, grid):
        p = params()
        rec = compute_observables(homogeneous_state(grid, p), p)
        assert rec.t == 0.0
        assert abs(rec.mass - 1.0) < 1e-14
        assert abs(rec.min_f - 1.0 / TWO_PI) < 1e-15
        assert rec.l2_f_dev < 1e-13
        # rho = 1, so every Lp norm of the marginal is 1
        for order in (1, 2, 6):
            assert abs(rec.lp_rho[order] - 1.0) < 1e-12
        assert abs(rec.h1_f - 1.0 / math.sqrt(TWO_PI)) < 1e-14
        assert abs(rec.grad_c_l2) < 1e-12
        assert rec.dominant_k == 0
        assert rec.trail_count == 0
        assert rec.dissipation_residual is None

    def test_l2_deviation_of_single_mode(self, grid):
        """f = 1/2pi + a cos(2 pi x1) cos(theta) has deviation a sqrt(pi/2)."""
        p = params()
        a = 1e-3
        f = 1.0 / TWO_PI + a * np.cos(TWO_PI * grid.x1)[:, None, None] * np.cos(
            grid.theta
        )[None, None, :] * np.ones(grid.shape_phys3)
        rec = compute_observables(state_from_density(grid, p, f), p)
        assert abs(rec.l2_f_dev - a * math.sqrt(math.pi / 2.0)) < 1e-12

    def test_chemical_gradient_norms(self, grid):
        p = params()
        f = np.full(grid.shape_phys3, 1.0 / TWO_PI)
        c = np.cos(TWO_PI * grid.x1)[:, None] * np.ones(grid.shape_phys2)
        rec = compute_observables(state_from_density(grid, p, f, c_values=c), p)
        assert abs(rec.grad_c_l2 - math.pi * math.sqrt(2.0)) < 1e-12
        assert abs(rec.hess_c_l2 - 2.0 * math.sqrt(2.0) * math.pi**2) < 1e-10


def reference_observables(state, p):
    """compute_observables with every weight, wave and multiplier built per
    call and one ifft2 per bias part; each expression in its operand order."""
    grid = state.grid
    n_tot = grid.n_x1 * grid.n_x2 * grid.n_theta
    n_xy = grid.n_x1 * grid.n_x2
    w3 = grid.half_weights[None, :, None]
    w2 = grid.half_weights[None, :]
    f_hat, c_hat = state.f_hat, state.c_hat
    f_phys = state.f_physical()

    sq = np.abs(f_hat) ** 2
    power = w3 * sq
    power_sum = float(np.sum(power))
    zero_dev = abs(f_hat[0, 0, 0] - n_tot / TWO_PI) ** 2
    l2_dev = math.sqrt(
        max(TWO_PI * (power_sum - float(power[0, 0, 0]) + zero_dev), 0.0)) / n_tot
    sobolev = float(np.sum(w3 * (1.0 + grid.ksq_3d + grid.nsq_3d) * sq))
    rho = ifft2(marginal_hat(f_hat, grid), grid)
    grad_c = math.sqrt(float(np.sum(w2 * grid.ksq_2d * np.abs(c_hat) ** 2))) / n_xy
    hess_c = math.sqrt(float(np.sum(w2 * grid.ksq_2d**2 * np.abs(c_hat) ** 2))) / n_xy

    f_sq = TWO_PI * power_sum / n_tot**2
    damping = p.sigma_x * grid.ksq_3d + p.sigma_theta * grid.nsq_3d
    dissip = TWO_PI * float(np.sum(w3 * damping * sq)) / n_tot**2
    turning = 0.0
    if p.chi != 0.0:
        g1 = ifft2(grid.ik1_2d * c_hat, grid)
        g2 = ifft2(grid.ik2_2d * c_hat, grid)
        th = grid.theta[None, None, :]
        db = -np.sin(th) * g2[:, :, None]
        db += np.cos(th) * (-g1)[:, :, None]
        if p.tau != 0.0:
            m1 = (2.0 * np.pi * grid.m1.astype(np.float64))[:, None]
            m2 = (2.0 * np.pi * grid.m2.astype(np.float64))[None, :]
            c11 = ifft2(-(m1 * m1) * c_hat, grid)
            c12 = ifft2(-(m1 * m2) * c_hat, grid)
            c22 = ifft2(-(m2 * m2) * c_hat, grid)
            s, r = 0.5 * p.tau * (c22 - c11), p.tau * c12
            db += np.sin(2.0 * th) * (-2.0 * r)[:, :, None]
            db += np.cos(2.0 * th) * (2.0 * s)[:, :, None]
        turning = 0.5 * p.chi * float(np.sum(f_phys * f_phys * db)) * grid.cell_volume

    return ObservableRecord(
        t=state.t,
        mass=state.mass(),
        min_f=float(np.min(f_phys)),
        l2_f_dev=l2_dev,
        lp_rho={order: lp_norm_phys(rho, float(order), grid.cell_area) for order in LP_ORDERS},
        h1_f=math.sqrt(TWO_PI * sobolev) / n_tot,
        grad_c_l2=grad_c,
        hess_c_l2=hess_c,
        dissipation_residual=None,
        dominant_k=dominant_wavenumber(power, grid),
        trail_count=count_trails(rho, grid),
        balance_terms=(f_sq, dissip, turning),
    )


@pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 32)])
@pytest.mark.parametrize("coupling", ["elliptic", "parabolic"])
@pytest.mark.parametrize("chi", [0.0, 4.0])
@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_observables_have_the_bits_of_the_per_call_expressions(shape, coupling, chi, tau):
    """The grid's cached weights, waves and multipliers, and the batched bias
    parts, leave every written value and the balance terms unchanged."""
    grid = SpectralGrid(*shape)
    p = params(chi=chi, tau=tau, coupling=coupling)
    rng = np.random.default_rng(5)
    state = random_band_limited_state(grid, p, rng, 4, 0.1)
    if coupling == "parabolic":
        # a chemical field of its own, not slaved to the density
        state = state_from_density(grid, p, state.f_physical(),
                                   c_values=rng.standard_normal(grid.shape_phys2))
    record = compute_observables(state, p)
    expect = reference_observables(state, p)
    assert record_to_dict(record) == record_to_dict(expect)
    assert record.balance_terms == expect.balance_terms
    assert (record.balance_terms[2] != 0.0) == (chi != 0.0)


@pytest.mark.parametrize("shape", [(16, 16, 16), (16, 24, 32)])
@pytest.mark.parametrize("coupling", ["elliptic", "parabolic"])
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("start", ["homogeneous", "random"])
def test_member_sample_is_the_records_leading_fields(shape, coupling, tau, start):
    """The four numbers a member samples equal the record's, bit for bit."""
    grid = SpectralGrid(*shape)
    p = params(chi=4.0, tau=tau, coupling=coupling)
    if start == "homogeneous":
        state = homogeneous_state(grid, p)
    else:
        state = random_band_limited_state(grid, p, np.random.default_rng(7), 4, 0.1)
        state.t = 0.37
    sample = deviation_sample(state)[0]
    record = compute_observables(state, p)
    assert Sample._fields == RECORD_FIELDS[:4]
    assert sample == tuple(getattr(record, name) for name in Sample._fields)


class TestFitExponentialRate:
    def test_exact_exponential_is_recovered(self):
        t = np.linspace(0.0, 2.0, 50)
        fit = fit_exponential_rate(t, 3.5 * np.exp(-1.25 * t))
        assert abs(fit.rate + 1.25) < 1e-12
        assert fit.r2 > 1.0 - 1e-12
        assert fit.n_samples == 50

    def test_window_excludes_contaminated_samples(self):
        t = np.linspace(0.0, 1.0, 101)
        v = np.exp(2.0 * t)
        v[t < 0.5] = 7.0  # positive garbage outside the fit window
        fit = fit_exponential_rate(t, v, window=(0.5, 1.0))
        assert abs(fit.rate - 2.0) < 1e-10
        assert fit.n_samples == 51

    def test_too_few_samples_raises(self):
        t = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="at least 10"):
            fit_exponential_rate(t, np.exp(t))

    def test_nonpositive_values_raise(self):
        t = np.linspace(0.0, 1.0, 20)
        v = np.exp(t)
        v[5] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_exponential_rate(t, v)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            fit_exponential_rate(np.zeros((4, 5)), np.zeros((4, 5)))


class TestDissipationResidual:
    @staticmethod
    def heat_records(grid, p, t_mid, dt):
        """Records of three exact heat-flow snapshots around t_mid."""
        rate = 4.0 * math.pi**2 * p.sigma_x + 4.0 * p.sigma_theta
        pert = np.cos(TWO_PI * grid.x1)[:, None, None] * np.cos(2.0 * grid.theta)[
            None, None, :
        ] * np.ones(grid.shape_phys3)
        out = []
        for t in (t_mid - dt, t_mid, t_mid + dt):
            f = 1.0 / TWO_PI + 0.1 * math.exp(-rate * t) * pert
            out.append(compute_observables(state_from_density(grid, p, f, t=t), p))
        return out

    def test_centered_difference_converges_quadratically(self, grid):
        p = params(lam=0.0)
        r_coarse = abs(dissipation_residual(self.heat_records(grid, p, 0.5, 0.02)))
        r_fine = abs(dissipation_residual(self.heat_records(grid, p, 0.5, 0.01)))
        assert r_coarse < 1e-4
        ratio = r_coarse / r_fine
        assert 3.0 < ratio < 5.0

    def test_window_shape_is_checked(self, grid):
        p = params(lam=0.0)
        records = self.heat_records(grid, p, 0.5, 0.02)
        with pytest.raises(ValueError):
            dissipation_residual(records[:2])
        records[2].t = 0.57
        assert dissipation_residual(records) is None

    def test_collector_backfills_middle_samples(self, grid):
        p = params(chi=2.0)
        rng = np.random.default_rng(3)
        f = np.abs(1.0 / TWO_PI * (1.0 + 0.01 * rng.standard_normal(grid.shape_phys3)))
        state = state_from_density(grid, p, f)
        collector = ObservableCollector(p)
        run(state, StepperConfig(dt=1e-3), p, 0.01, observers=(collector,), stride=2)
        records = collector.records
        assert len(records) == 6
        assert records[0].dissipation_residual is None
        assert records[-1].dissipation_residual is None
        filled = [r.dissipation_residual for r in records[1:-1]]
        assert all(res is not None for res in filled)
        # a first-order scheme at dt = 1e-3 keeps the relative defect small
        assert all(abs(res) < 1e-2 for res in filled)

    def test_uneven_last_stride_leaves_no_residual(self, grid):
        """Samples at steps 0, 3, 6 and 7: the one at step 6 has unequal neighbours."""
        p = params(chi=2.0)
        collector = ObservableCollector(p)
        run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 0.007,
            observers=(collector,), stride=3)
        records = collector.records
        assert [round(r.t, 12) for r in records] == [0.0, 0.003, 0.006, 0.007]
        assert records[1].dissipation_residual is not None
        assert records[-2].dissipation_residual is None

    def test_collector_keeps_no_state(self, grid):
        p = params(chi=2.0)
        refs = []
        collector = ObservableCollector(p)
        run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 0.005,
            observers=(collector, lambda state: refs.append(weakref.ref(state))))
        gc.collect()
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)


class TestSerialization:
    @staticmethod
    def sample_records(grid):
        p = params(chi=1.0)
        collector = ObservableCollector(p)
        state = homogeneous_state(grid, p)
        f = state.f_physical() * (
            1.0 + 0.01 * np.cos(TWO_PI * grid.x1)[:, None, None]
        )
        run(
            state_from_density(grid, p, f),
            StepperConfig(dt=1e-3),
            p,
            0.008,
            observers=(collector,),
            stride=2,
        )
        return collector.records

    def test_ndjson_roundtrip_is_exact(self, grid, tmp_path):
        records = self.sample_records(grid)
        path = tmp_path / "observables.ndjson"
        write_ndjson(path, records)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(loaded) == len(records)
        for rec, row in zip(records, loaded):
            assert row == record_to_dict(rec)
            assert "balance_terms" not in row

    def test_csv_roundtrip_is_exact(self, grid, tmp_path):
        import csv

        records = self.sample_records(grid)
        path = tmp_path / "observables.csv"
        write_records_csv(path, records)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert float(row["t"]) == rec.t
            assert float(row["mass"]) == rec.mass
            assert float(row["lp_rho_6"]) == rec.lp_rho[6]
            assert int(row["dominant_k"]) == rec.dominant_k
            if rec.dissipation_residual is None:
                assert row["dissipation_residual"] == ""
            else:
                assert float(row["dissipation_residual"]) == rec.dissipation_residual
