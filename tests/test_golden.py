"""Fixed-seed 16^3 trajectories pinned to values recorded before a refactor.

Each case runs 40 steps from seeded random data and compares the final
observables, plus the last back-filled energy-balance residual (which
evaluates d_theta B), with the recorded values to 1e-12 relative.
"""

import pytest

from antkinetics.diagnostics import ObservableCollector
from antkinetics.dynamics import run
from antkinetics.experiments import ExperimentKind, build_config, initial_state

# (coupling, scheme) -> l2_f_dev, h1_f, grad_c_l2, min_f, dissipation_residual
GOLDEN = {
    ("elliptic", "imex_euler"): (
        0.011417299603466853,
        0.473799584856642,
        0.011579586358170925,
        0.14381344174318575,
        9.718514534659956e-05,
    ),
    ("parabolic", "etdrk2"): (
        0.011155964594943413,
        0.4698602280016319,
        0.0101780274686818,
        0.1444776275340639,
        -1.467131179312199e-07,
    ),
}


@pytest.mark.parametrize("coupling,scheme", sorted(GOLDEN))
def test_trajectory_matches_recorded_values(coupling, scheme):
    mapping = {
        "sigma_x": "0.002", "sigma_theta": "0.25", "sigma_c": "0.05", "gamma": "1.0",
        "lambda": "1.0", "chi": "4.0", "tau": "0.5", "coupling": coupling,
        "n_x1": "16", "n_x2": "16", "n_theta": "16", "dt": "0.002", "scheme": scheme,
        "seed": "11",
    }
    cfg = build_config(mapping, ExperimentKind.SIMULATE)
    collector = ObservableCollector(cfg.params)
    run(initial_state(cfg, "random"), cfg.stepper, cfg.params, 40 * cfg.stepper.dt,
        observers=(collector,))
    assert len(collector.records) == 41
    final = collector.records[-1]
    observed = (
        final.l2_f_dev,
        final.h1_f,
        final.grad_c_l2,
        final.min_f,
        collector.records[-2].dissipation_residual,
    )
    assert observed == pytest.approx(GOLDEN[(coupling, scheme)], rel=1e-12, abs=0.0)
