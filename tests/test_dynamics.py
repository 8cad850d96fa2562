import dataclasses
import decimal
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from antkinetics import dynamics
from antkinetics.dynamics import (
    PhaseState,
    Scheme,
    Stepper,
    StepperConfig,
    _phi12,
    chemical_multipliers,
    homogeneous_state,
    marginal_hat,
    read_checkpoint,
    run,
    state_from_density,
    write_checkpoint,
)
from antkinetics.experiments import random_band_limited_state
from antkinetics.linstab import rotate_field_quarter
from antkinetics.params import Coupling, ModelParams
from antkinetics.spectral import (
    SpectralGrid,
    expand_bias,
    fft2,
    fft3,
    ifft2,
    ifft3,
    turning_bias_parts,
)

TWO_PI = 2.0 * math.pi


def params(**over):
    kw = dict(sigma_x=0.01, sigma_theta=0.02, sigma_c=0.05, gamma=1.0,
              lam=1.0, chi=2.0, tau=0.0, coupling=Coupling.ELLIPTIC)
    kw.update(over)
    return ModelParams(**kw)


@pytest.fixture
def grid():
    return SpectralGrid(16, 16, 16)


def test_scheme_coercion_and_validation():
    cfg = StepperConfig(dt=1e-3, scheme="imex_euler")
    assert cfg.scheme is Scheme.IMEX_EULER
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-3, scheme="rk9")
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0)


def test_elliptic_chemical_closed_form(grid):
    p = params()
    rho = 1.0 + 0.3 * np.cos(TWO_PI * grid.x1)[:, None] * np.ones(grid.shape_phys2)
    decay, solve = chemical_multipliers(grid, p)  # dt = infinity
    assert not np.any(decay)
    c = ifft2(solve * fft2(rho), grid)
    expect = 1.0 / p.gamma + 0.3 * np.cos(TWO_PI * grid.x1)[:, None] / (
        p.gamma + p.sigma_c * 4.0 * math.pi**2
    ) * np.ones(grid.shape_phys2)
    np.testing.assert_allclose(c, expect, atol=1e-13)


def test_parabolic_chemical_exact_relaxation(grid):
    """Frozen-source step agrees with the mode-wise exponential solution."""
    p = params(coupling=Coupling.PARABOLIC)
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal(grid.shape_phys2)
    rho = rng.standard_normal(grid.shape_phys2)
    dt = 0.37
    decay, gain = chemical_multipliers(grid, p, dt)
    c1 = ifft2(decay * fft2(c0) + gain * fft2(rho), grid)
    nu = p.gamma + p.sigma_c * np.asarray(grid.ksq_2d)
    c_hat_expect = np.exp(-nu * dt) * fft2(c0) + (1.0 - np.exp(-nu * dt)) / nu * fft2(rho)
    np.testing.assert_allclose(c1, ifft2(c_hat_expect, grid), atol=1e-12)
    # the dt -> infinity limit is the instantaneous solve
    decay, gain = chemical_multipliers(grid, p, 1e6)
    np.testing.assert_allclose(decay, 0.0, atol=1e-300)
    np.testing.assert_allclose(gain, chemical_multipliers(grid, p)[1], rtol=1e-15)


def test_marginal_is_the_angular_integral(grid):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid.shape_phys3)
    rho = f.sum(axis=2) * (TWO_PI / grid.n_theta)
    np.testing.assert_allclose(ifft2(marginal_hat(fft3(f), grid), grid), rho, atol=1e-13)


@pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
@pytest.mark.parametrize("scheme", ["imex_euler", "etdrk2"])
def test_uniform_state_is_a_fixed_point(grid, coupling, scheme):
    p = params(coupling=coupling, chi=5.0, tau=0.3)
    state = homogeneous_state(grid, p)
    f0, c0 = state.f_hat.copy(), state.c_hat.copy()
    stepper = Stepper(grid, p, StepperConfig(dt=1e-2, scheme=scheme))
    out = state
    for _ in range(5):
        out = stepper.step(out)
    assert np.array_equal(out.f_hat, f0)
    np.testing.assert_allclose(out.c_hat, c0, atol=1e-12)


@pytest.mark.parametrize("scheme", ["imex_euler", "etdrk2"])
def test_pure_diffusion_is_integrated_exactly(grid, scheme):
    """With no drift or coupling the split integrator is the exact heat flow."""
    p = params(lam=0.0, chi=0.0)
    eps = 1e-3
    pert = (
        np.cos(TWO_PI * grid.x1)[:, None, None]
        * np.cos(2.0 * grid.theta)[None, None, :]
        * np.ones(grid.shape_phys3)
    )
    f = 1.0 / TWO_PI + eps * pert
    state = state_from_density(grid, p, f)
    cfg = StepperConfig(dt=5e-3, scheme=scheme)
    out = run(state, cfg, p, 0.1).state
    rate = 4.0 * math.pi**2 * p.sigma_x + 4.0 * p.sigma_theta
    expect = 1.0 / TWO_PI + eps * math.exp(-rate * 0.1) * pert
    np.testing.assert_allclose(out.f_physical(), expect, atol=1e-14)


def test_transport_single_euler_step_is_analytic(grid):
    """One inviscid Euler step of f = (1 + eps sin(2 pi x1)) / 2 pi."""
    p = params(sigma_x=0.0, sigma_theta=0.0, chi=0.0)
    eps = 1e-2
    f0 = (1.0 + eps * np.sin(TWO_PI * grid.x1))[:, None, None] * np.ones(
        grid.shape_phys3
    ) / TWO_PI
    state = state_from_density(grid, p, f0)
    dt = 1e-3
    out = Stepper(grid, p, StepperConfig(dt=dt, scheme="imex_euler")).step(state)
    drift = (
        p.lam
        * eps
        * np.cos(TWO_PI * grid.x1)[:, None, None]
        * np.cos(grid.theta)[None, None, :]
    )
    np.testing.assert_allclose(out.f_physical(), f0 - dt * drift, atol=1e-15)


def test_state_from_density_rejects_wrong_shapes(grid):
    p = params()
    with pytest.raises(ValueError, match="shape"):
        state_from_density(grid, p, np.ones((grid.n_x1, 1, grid.n_theta)))
    with pytest.raises(ValueError, match="shape"):
        state_from_density(
            grid, p, np.ones(grid.shape_phys3), c_values=np.ones((grid.n_x1, 1))
        )


def test_mass_is_conserved_bitwise_over_many_steps(grid):
    p = params(chi=5.0, tau=0.2)
    rng = np.random.default_rng(1)
    f = 1.0 / TWO_PI * (1.0 + 0.05 * rng.standard_normal(grid.shape_phys3))
    f = np.abs(f)
    state = state_from_density(grid, p, f)
    mass0 = state.mass()
    cfg = StepperConfig(dt=1e-3)
    out = run(state, cfg, p, 0.2).state
    assert out.mass() == mass0  # identical floats, not merely close


def test_run_time_grid_is_drift_free(grid):
    p = params()
    state = homogeneous_state(grid, p)
    result = run(state, StepperConfig(dt=1e-3), p, 0.123)
    assert result.n_steps == 123
    assert result.state.t == 123 * 1e-3  # computed as one product, not a sum
    with pytest.raises(ValueError):
        run(state, StepperConfig(dt=1e-3), p, 0.1234567)


def test_run_leaves_its_input_unchanged(tmp_path, grid):
    p = params()
    pert = np.cos(TWO_PI * grid.x1)[:, None, None] * np.ones(grid.shape_phys3)
    state = state_from_density(grid, p, 1.0 / TWO_PI + 2.0 * pert)
    f0, c0 = state.f_hat.copy(), state.c_hat.copy()
    seen = []
    result = run(state, StepperConfig(dt=1e-3), p, 0.006, observers=(seen.append,), stride=2,
                 checkpoint_dir=tmp_path / "ckpt", checkpoint_every=3)
    assert result.positivity_flagged and len(seen) == 4
    assert np.array_equal(state.f_hat, f0) and np.array_equal(state.c_hat, c0)
    assert (state.t, state.step) == (0.0, 0)
    # the flag is the run's, so a second run from the same input raises it again
    assert run(state, StepperConfig(dt=1e-3), p, 0.006).positivity_flagged


def test_observers_sampled_on_stride_and_final(grid):
    p = params()
    state = homogeneous_state(grid, p)
    seen = []
    run(state, StepperConfig(dt=1e-3), p, 0.01, observers=(lambda s: seen.append(s.step),),
        stride=4)
    assert seen == [0, 4, 8, 10]


@pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
def test_resume_from_checkpoint_is_bit_exact(tmp_path, grid, coupling):
    p = params(coupling=coupling, chi=4.0, tau=0.1)
    rng = np.random.default_rng(2)
    f = np.abs(1.0 / TWO_PI * (1.0 + 0.05 * rng.standard_normal(grid.shape_phys3)))
    state = state_from_density(grid, p, f)
    cfg = StepperConfig(dt=2e-3)

    straight = run(state, cfg, p, 0.1).state
    half = run(state, cfg, p, 0.05).state
    write_checkpoint(tmp_path / "ckpt", half, "abc123")
    resumed_state = read_checkpoint(tmp_path / "ckpt", "abc123", grid)
    assert resumed_state.t == half.t
    resumed = run(resumed_state, cfg, p, 0.1).state
    assert np.array_equal(straight.f_hat, resumed.f_hat)
    assert np.array_equal(straight.c_hat, resumed.c_hat)
    assert straight.t == resumed.t


def test_checkpoint_rejects_foreign_configuration(tmp_path, grid):
    p = params()
    write_checkpoint(tmp_path / "ckpt", homogeneous_state(grid, p), "digest-a")
    with pytest.raises(ValueError, match="configuration"):
        read_checkpoint(tmp_path / "ckpt", "digest-b", grid)


def test_checkpoint_with_an_empty_stamp_is_refused_under_a_digest(tmp_path, grid):
    """An empty stamp loads only under the empty digest, which no command passes."""
    p = params()
    write_checkpoint(tmp_path / "ckpt", homogeneous_state(grid, p), "")
    assert read_checkpoint(tmp_path / "ckpt", "", grid).step == 0
    with pytest.raises(ValueError, match="hash missing != digest-a"):
        read_checkpoint(tmp_path / "ckpt", "digest-a", grid)


def test_checkpoint_restores_non_representable_times(tmp_path, grid):
    p = params()
    state = run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 0.003).state
    assert state.t == 3e-3
    write_checkpoint(tmp_path / "ckpt", state, "")
    assert read_checkpoint(tmp_path / "ckpt", "", grid).t == state.t


@pytest.mark.parametrize(
    "name,damage,key",
    [
        pytest.param("checkpoint.txt", lambda raw: b"", "t_hex", id="empty-manifest"),
        pytest.param("c.field", lambda raw: raw[:10], None, id="c-cut-in-header"),
        pytest.param("f.field", lambda raw: raw[:-16], None, id="f-cut-in-payload"),
        pytest.param("f.field", lambda raw: b"", None, id="f-empty"),
        pytest.param("checkpoint.txt", lambda raw: re.sub(rb"step = \d+", b"step = ten", raw),
                     "step", id="step-not-an-integer"),
        pytest.param("checkpoint.txt", lambda raw: raw[:raw.index(b"step =") + 5], None,
                     id="manifest-cut-mid-line"),
        *(pytest.param("checkpoint.txt",
                       lambda raw, v=value: re.sub(rb"t_hex = \S+", b"t_hex = " + v, raw),
                       "t_hex", id=f"t_hex-{value.decode()}")
          for value in (b"nan", b"inf", b"-inf")),
        pytest.param("checkpoint.txt", lambda raw: re.sub(rb"step = \d+", b"step = -3", raw),
                     "step", id="step-negative"),
    ],
)
def test_damaged_checkpoint_is_refused_naming_the_file(tmp_path, grid, name, damage, key):
    write_checkpoint(tmp_path / "ckpt", homogeneous_state(grid, params()), "")
    path = tmp_path / "ckpt" / name
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(str(path)) + (f".*'{key}'" if key else "")):
        read_checkpoint(tmp_path / "ckpt", "", grid)


def test_step_count_that_is_not_finite_is_refused(grid):
    p = params()
    with pytest.raises(ValueError, match="t_end = 1e[+]308 and dt = 0.001 give a step count "
                                         "that is not finite"):
        run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 1e308)


def test_step_count_above_the_ceiling_is_refused(grid, monkeypatch):
    p = params()
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 3)
    assert run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 0.003).n_steps == 3
    with pytest.raises(ValueError, match="t_end = 0.004 and dt = 0.001 give 4 steps, "
                                         "more than the 3 a run may take"):
        run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 0.004)


@pytest.mark.parametrize("every", [0, -2])
def test_checkpoint_every_below_one_is_refused(tmp_path, grid, every):
    p = params()
    with pytest.raises(ValueError, match=f"checkpoint_every must be >= 1, got {every}"):
        run(homogeneous_state(grid, p), StepperConfig(dt=1e-3), p, 0.01,
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=every)
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
@pytest.mark.parametrize("scheme,order", [("imex_euler", 1), ("etdrk2", 2)])
def test_self_convergence_order(grid, coupling, scheme, order):
    """Richardson order estimate on a smooth transient run."""
    p = params(coupling=coupling, chi=4.0, tau=0.2)
    f = (
        1.0
        + 0.2 * np.cos(TWO_PI * grid.x1)[:, None, None] * np.cos(grid.theta)[None, None, :]
        + 0.1 * np.sin(TWO_PI * grid.x2)[None, :, None]
    ) / TWO_PI
    base = state_from_density(grid, p, np.abs(f))
    T = 0.08

    def solve(dt):
        return run(base, StepperConfig(dt=dt, scheme=scheme), p, T).state.f_physical()

    ref = solve(T / 256)
    errors = [np.max(np.abs(solve(T / n) - ref)) for n in (8, 16, 32)]
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert rates[-1] == pytest.approx(order, abs=0.35)


def test_cfl_violation_warns_and_flags(grid):
    p = params(sigma_x=0.0, sigma_theta=0.0, chi=0.0, lam=1.0)
    state = homogeneous_state(grid, p)
    cfg = StepperConfig(dt=0.1)  # bound is 0.5 / 16
    with pytest.warns(RuntimeWarning, match="advisory CFL bound"):
        result = run(state, cfg, p, 0.2)
    assert result.cfl_flagged


def test_a_run_warns_once_however_many_steps_pass_the_bound(grid):
    p = params(sigma_x=0.0, sigma_theta=0.0, chi=0.0, lam=1.0)
    with pytest.warns(RuntimeWarning, match="advisory CFL bound") as caught:
        result = run(homogeneous_state(grid, p), StepperConfig(dt=0.1), p, 0.5)
    assert result.n_steps == 5 and result.cfl_flagged
    assert len(caught) == 1


def test_flags_belong_to_the_run_not_to_its_input_state(grid):
    """A run reports and warns for its own steps only: run B from a flagged
    run A's state at a small dt is not flagged, and run C from the same
    state past the bound warns again."""
    p = params(sigma_x=0.0, sigma_theta=0.0, chi=0.0, lam=1.0)
    with pytest.warns(RuntimeWarning, match="advisory CFL bound"):
        a = run(homogeneous_state(grid, p), StepperConfig(dt=0.1), p, 0.2)
    assert a.cfl_flagged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = run(a.state, StepperConfig(dt=0.001), p, 0.21)
    assert b.n_steps == 10 and not b.cfl_flagged
    with pytest.warns(RuntimeWarning, match="advisory CFL bound") as caught:
        c = run(a.state, StepperConfig(dt=0.1), p, 0.4)
    assert c.cfl_flagged and len(caught) == 1


def test_phase_state_carries_no_flags():
    assert "flags" not in {f.name for f in dataclasses.fields(PhaseState)}


def test_positivity_monitor_flags_without_clipping(grid):
    p = params(chi=0.0, lam=0.0)
    pert = np.cos(TWO_PI * grid.x1)[:, None, None] * np.ones(grid.shape_phys3)
    f = 1.0 / TWO_PI + 2.0 * pert  # strongly negative in places
    state = state_from_density(grid, p, f)
    result = run(state, StepperConfig(dt=1e-3), p, 0.002)
    assert result.positivity_flagged
    assert float(np.min(result.state.f_physical())) < 0.0


def test_positivity_flag_checks_the_final_state(grid):
    """One step from positive data that ends negative is flagged."""
    p = params(chi=400.0)
    state = random_band_limited_state(grid, p, np.random.default_rng(0), 4, 0.1)
    assert float(np.min(state.f_physical())) > 0.0
    with pytest.warns(RuntimeWarning, match="advisory CFL bound"):
        result = run(state, StepperConfig(dt=0.2), p, 0.2)
    assert result.n_steps == 1 and float(np.min(result.state.f_physical())) < 0.0
    assert result.positivity_flagged
    assert (state.t, state.step) == (0.0, 0) and float(np.min(state.f_physical())) > 0.0


@pytest.mark.parametrize("observe", [False, True])
def test_final_positivity_check_costs_one_transform_at_most(monkeypatch, grid, observe):
    """Every state is transformed once: the final check adds one transform
    only when no observer has already asked for the final state's field."""
    import antkinetics.dynamics as dynamics

    calls = []

    def counting_ifft3(*args, **kwargs):
        calls.append(1)
        return ifft3(*args, **kwargs)

    monkeypatch.setattr(dynamics, "ifft3", counting_ifft3)
    p = params()
    state = homogeneous_state(grid, p)
    observers = (PhaseState.f_physical,) if observe else ()
    run(state, StepperConfig(dt=1e-3), p, 0.003, observers=observers)
    assert len(calls) == 4 + 3  # states 0..3 once each, plus one ETDRK2 stage per step


def test_step_allocates_little_beyond_the_new_state():
    """A warmed-up 32^3 ETDRK2 step allocates, at its peak, less than three
    full-grid arrays: the new coefficients and their physical density, plus
    spatial fields.  The stepper's own scratch holds everything else."""
    grid = SpectralGrid(32, 32, 32)
    p = params(tau=0.5, coupling=Coupling.PARABOLIC)
    rng = np.random.default_rng(2)
    state = random_band_limited_state(grid, p, rng, 4, 0.1)
    stepper = Stepper(grid, p, StepperConfig(dt=1e-3))
    state = stepper.step(state)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        new_state = stepper.step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new_state.step == 2
    assert peak - before < 3 * np.empty(grid.shape_phys3).nbytes


@pytest.mark.parametrize("scheme, per_step", [("imex_euler", 0), ("etdrk2", 1)])
@pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_observer_and_step_share_each_states_bias_parts(monkeypatch, grid, scheme, per_step,
                                                        coupling, tau):
    """In a stride-1 run with a collector, each state's turning-bias parts are
    built once, for the observer and the step from it; an ETDRK2 step adds
    one build for its stage field."""
    from antkinetics import diagnostics

    calls = []

    def counting_parts(*args, **kwargs):
        calls.append(1)
        return turning_bias_parts(*args, **kwargs)

    for module in (dynamics, diagnostics):
        monkeypatch.setattr(module, "turning_bias_parts", counting_parts, raising=False)
    p = params(tau=tau, coupling=coupling)
    state = random_band_limited_state(grid, p, np.random.default_rng(6), 4, 0.1)
    collector = diagnostics.ObservableCollector(p)
    run(state, StepperConfig(dt=1e-3, scheme=scheme), p, 0.005, observers=(collector,))
    assert len(collector.records) == 6
    assert len(calls) == 6 + 5 * per_step


@pytest.mark.parametrize("scheme", ["imex_euler", "etdrk2"])
@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_an_elliptic_state_off_its_solve_steps_alike_when_observed(grid, scheme, tau):
    """An elliptic start whose chemical field is not the solve of its density:
    the observer's bias parts are of that field, and the step, which solves
    for its own, must not take them."""
    from antkinetics.diagnostics import ObservableCollector

    p = params(tau=tau)
    f = random_band_limited_state(grid, p, np.random.default_rng(8), 4, 0.1).f_physical()
    c = 1.0 / p.gamma + 0.1 * np.cos(TWO_PI * grid.x2)[None, :] * np.ones(grid.shape_phys2)

    def start():
        return state_from_density(grid, p, f, c_values=c)

    solved = state_from_density(grid, p, f)
    assert start().c_hat.tobytes() != solved.c_hat.tobytes()
    cfg = StepperConfig(dt=1e-3, scheme=scheme)
    plain = run(start(), cfg, p, 0.003).state
    observed = run(start(), cfg, p, 0.003, observers=(ObservableCollector(p),)).state
    # an elliptic step solves for its own field, so the explicit one leaves no trace
    assert plain.f_hat.tobytes() == run(solved, cfg, p, 0.003).state.f_hat.tobytes()
    for a, b in ((plain.f_hat, observed.f_hat), (plain.c_hat, observed.c_hat)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ratio, flagged", [(1.0e-7, True), (1.0e-9, False)])
def test_positivity_floor_is_one_part_in_1e8_of_the_maximum(grid, ratio, flagged):
    """A start with min f = -ratio * max f is flagged when ratio exceeds 1e-8."""
    p = params(chi=0.0, lam=0.0)
    f = np.full(grid.shape_phys3, 1.0 / TWO_PI)
    f[3, 5, 7] = -ratio / TWO_PI
    stepper = Stepper(grid, p, StepperConfig(dt=1e-3))
    stepper.step(state_from_density(grid, p, f))
    assert stepper.positivity_flagged is flagged


def reference_rhs(stepper, f_phys, c_hat):
    """The explicit RHS with full forward transforms and all four bias
    terms, zero curvature parts included, and the mask applied last."""
    grid, p = stepper.grid, stepper.params
    rhs = np.zeros(grid.shape_four3, dtype=complex)
    div = grid.ik1_3d * fft3(np.cos(grid.theta)[None, None, :] * f_phys)
    div += grid.ik2_3d * fft3(np.sin(grid.theta)[None, None, :] * f_phys)
    rhs -= p.lam * div
    g1, g2, *sr = turning_bias_parts(c_hat, grid, p.tau)
    zero = np.zeros(grid.shape_phys2)
    bias = expand_bias((g1, g2, *(sr or (zero, zero))), grid)
    rhs -= (p.chi * grid.in_3d) * fft3(bias * f_phys)
    rhs *= stepper.mask
    return rhs, max(float(np.max(bias)), -float(np.min(bias)))


@pytest.mark.parametrize("shape", [(16, 16, 16), (32, 32, 32), (16, 24, 32)])
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("lam, chi", [(1.0, 2.0), (0.0, 2.0), (1.0, 0.0)])
def test_explicit_rhs_matches_the_unpruned_reference(shape, tau, lam, chi):
    """The RHS has the reference's bits on the kept box and its values
    (zeros, of either sign) outside it, also where it skips the drift
    (lam = 0) or the turning (chi = 0).  max |B| is the reference's, or 0
    when there is no turning."""
    grid = SpectralGrid(*shape)
    p = params(tau=tau, coupling=Coupling.PARABOLIC, lam=lam, chi=chi)
    rng = np.random.default_rng(11)
    f_phys = 1.0 / TWO_PI + 0.05 * rng.standard_normal(grid.shape_phys3)
    c_hat = fft2(1.0 + 0.1 * rng.standard_normal(grid.shape_phys2))
    stepper = Stepper(grid, p, StepperConfig(dt=1e-3))
    rhs, max_abs_b = stepper.explicit_rhs(f_phys, c_hat)
    expect, expect_b = reference_rhs(stepper, f_phys, c_hat)
    assert max_abs_b == (expect_b if chi else 0.0)
    box = grid.dealias_mask3
    assert rhs[box].tobytes() == expect[box].tobytes()
    assert np.array_equal(rhs[~box], expect[~box])
    assert not np.any(rhs[~box])


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("coupling", list(Coupling))
def test_scratch_stepping_is_bit_identical(grid, scheme, coupling):
    """A step reads no scratch it has not written: with every scratch array
    poisoned before each step, a trajectory keeps a fresh stepper's bits."""
    p = params(tau=0.5, coupling=coupling)
    cfg = StepperConfig(dt=2e-3, scheme=scheme)
    state = random_band_limited_state(grid, p, np.random.default_rng(4), 4, 0.1)
    fresh = run(state, cfg, p, 0.01).state
    stepper = Stepper(grid, p, cfg)
    poisoned = state
    for _ in range(5):
        for name in ("_n1", "_n2", "_stage", "_t1", "_t2", "_stage_phys", "_bias", "_prod"):
            getattr(stepper, name).fill(np.nan)
        poisoned = stepper.step(poisoned)
    assert poisoned.step == fresh.step
    for a, b in ((fresh.f_hat, poisoned.f_hat), (fresh.c_hat, poisoned.c_hat),
                 (fresh.f_physical(), poisoned.f_physical())):
        assert a.tobytes() == b.tobytes()


def test_step_returns_fresh_arrays_and_leaves_its_input():
    """Nothing a step returns is scratch, and the input state is not written."""
    grid = SpectralGrid(32, 32, 32)
    p = params(tau=0.5)
    state = random_band_limited_state(grid, p, np.random.default_rng(3), 4, 0.1)
    kept = (state.f_hat.copy(), state.c_hat.copy(), state.f_physical().copy())
    stepper = Stepper(grid, p, StepperConfig(dt=1e-3))
    first = stepper.step(state)
    first_arrays = (first.f_hat.copy(), first.f_physical().copy())
    second = stepper.step(state)
    assert np.array_equal(first.f_hat, first_arrays[0])
    assert np.array_equal(first.f_physical(), first_arrays[1])
    assert np.array_equal(second.f_hat, first.f_hat)
    for arr, copy in zip((state.f_hat, state.c_hat, state.f_physical()), kept):
        assert np.array_equal(arr, copy)
    rhs, _ = stepper.explicit_rhs(state.f_physical(), state.c_hat)
    again, _ = stepper.explicit_rhs(first.f_physical(), first.c_hat)
    assert rhs is not again and not np.shares_memory(rhs, again)


# images of a physical field, 3-D f or 2-D c, under symmetries of the model on the torus
SYMMETRIES = {
    "x1 shift": lambda a: np.roll(a, 3, axis=0),
    # (x1, x2, theta) -> (x2, -x1, theta - pi/2)
    "quarter turn": lambda a: (rotate_field_quarter(a) if a.ndim == 3
                               else np.roll(np.flip(a.T, axis=0), 1, axis=0)),
    # (x2, theta) -> (-x2, -theta)
    "reflection": lambda a: np.roll(np.flip(a, axis=tuple(range(1, a.ndim))), 1,
                                    axis=tuple(range(1, a.ndim))),
}


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("scheme", ["imex_euler", "etdrk2"])
@pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
def test_stepping_commutes_with_the_symmetries(grid, coupling, scheme, tau, symmetry):
    """20 steps from the image of a random start end at the image of 20 steps from it."""
    image = SYMMETRIES[symmetry]
    p = params(tau=tau, coupling=coupling)
    stepper = Stepper(grid, p, StepperConfig(dt=1e-3, scheme=scheme))

    def twenty_steps(state):
        for _ in range(20):
            state = stepper.step(state)
        return state.f_physical(), ifft2(state.c_hat, grid)

    start = random_band_limited_state(grid, p, np.random.default_rng(5))
    f, c = twenty_steps(start)
    f_turned, c_turned = twenty_steps(state_from_density(
        grid, p, image(start.f_physical()), c_values=image(ifft2(start.c_hat, grid))))
    assert np.max(np.abs(image(f) - f_turned)) <= 1e-13 * np.max(np.abs(f))
    assert np.max(np.abs(image(c) - c_turned)) <= 1e-13 * np.max(np.abs(c))


def test_non_finite_input_raises_named_error(grid):
    p = params()
    state = homogeneous_state(grid, p)
    state.f_hat[1, 1, 1] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        Stepper(grid, p, StepperConfig(dt=1e-3)).step(state)


def test_phi12_matches_a_50_digit_reference():
    """Closed forms and the small-|z| series against decimal arithmetic."""
    values = [0.0, 1e-9, -1e-9, 3e-5, -3e-5, 0.0099999, -0.0099999, 0.01, -0.01,
              0.0100001, -0.0100001, 0.02, -0.5, 0.7, -3.0, 5.0, -40.0, -700.0]
    z = np.array(values + [-1e-3] * 6).reshape(2, 3, 4)
    phi1, phi2 = _phi12(z)
    assert phi1.shape == phi2.shape == z.shape
    zero = z == 0.0
    assert np.all(phi1[zero] == 1.0) and np.all(phi2[zero] == 0.5)

    ctx = decimal.Context(prec=50)
    for x, p1, p2 in zip(z[~zero], phi1[~zero], phi2[~zero]):
        zd = decimal.Decimal(float(x))
        em = ctx.subtract(ctx.exp(zd), 1)
        ref1 = ctx.divide(em, zd)
        ref2 = ctx.divide(ctx.subtract(em, zd), ctx.multiply(zd, zd))
        assert abs(p1 - float(ref1)) <= 1e-13 * abs(float(ref1)), x
        assert abs(p2 - float(ref2)) <= 1e-13 * abs(float(ref2)), x
