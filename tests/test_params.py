import math
import re

import pytest

from antkinetics.experiments import ExperimentKind, build_config
from antkinetics.params import (
    Coupling,
    ModelParams,
    condition_gap,
    instability_margin,
    inviscid_threshold_chi,
    most_unstable_k,
    parse_config_text,
    reduce_params,
)

TWO_PI = 2.0 * math.pi


def base_params(**over):
    kw = dict(sigma_x=0.01, sigma_theta=0.02, sigma_c=0.05, gamma=1.0,
              lam=1.0, chi=5.0, tau=0.2, coupling=Coupling.ELLIPTIC)
    kw.update(over)
    return ModelParams(**kw)


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        base_params(gamma=0.0)
    with pytest.raises(ValueError):
        base_params(sigma_x=-1.0)
    with pytest.raises(ValueError):
        base_params(chi=float("nan"))


def test_replace_returns_new_frozen_instance():
    p = base_params()
    q = p.replace(chi=2.0)
    assert q.chi == 2.0 and p.chi == 5.0
    with pytest.raises(Exception):
        p.chi = 1.0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_reduced_scalars(k):
    """Reduction to one wavenumber: breve quantities against their definitions."""
    p = base_params()
    rp = reduce_params(p, k)
    assert rp.tau_breve == pytest.approx(TWO_PI * k * p.tau, rel=1e-15)
    assert rp.lambda_breve == pytest.approx(TWO_PI * k * p.lam, rel=1e-15)
    assert rp.sigma_x_breve == pytest.approx(4.0 * math.pi**2 * k**2 * p.sigma_x, rel=1e-15)
    assert rp.nu_breve == pytest.approx(4.0 * math.pi**2 * k**2 * p.sigma_c + p.gamma, rel=1e-15)
    assert rp.sigma == p.sigma_theta


def test_reduced_coupling_strength_by_coupling():
    p = base_params()
    k = 3
    rp_e = reduce_params(p, k)
    assert rp_e.chi_breve == pytest.approx(p.chi * k / rp_e.nu_breve, rel=1e-15)
    rp_p = reduce_params(p.replace(coupling=Coupling.PARABOLIC), k)
    assert rp_p.chi_breve == pytest.approx(p.chi * k, rel=1e-15)


@pytest.mark.parametrize("coupling", [Coupling.ELLIPTIC, Coupling.PARABOLIC])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_margin_matches_closed_condition(coupling, k):
    """margin > 0 iff chi (2 pi k tau + 1) > lambda (gamma + 4 pi^2 sigma_c k^2)."""
    p = base_params(coupling=coupling)
    lhs = p.chi * (TWO_PI * k * p.tau + 1.0)
    rhs = p.lam * (p.gamma + 4.0 * math.pi**2 * p.sigma_c * k**2)
    assert (instability_margin(p, k) > 0.0) == (lhs > rhs)
    assert instability_margin(p, k) == pytest.approx(lhs / rhs - 1.0, rel=1e-13)
    assert condition_gap(p, k) == pytest.approx(lhs - rhs, rel=1e-13)


def test_margin_rejects_zero_drift():
    with pytest.raises(ValueError):
        instability_margin(base_params(lam=0.0), 1)


def test_threshold_chi_inverts_margin():
    p = base_params()
    for k in (1, 2, 3):
        chi_star = inviscid_threshold_chi(p, k)
        assert instability_margin(p.replace(chi=chi_star), k) == pytest.approx(0.0, abs=1e-13)


def test_most_unstable_k_peaks_where_margin_does():
    p = base_params(tau=1.0, sigma_c=1.0 / (16.0 * math.pi**2))
    margins = {k: instability_margin(p, k) for k in range(1, 7)}
    assert most_unstable_k(p, 6) == max(margins, key=margins.get)


def test_parse_config_text_roundtrip():
    text = """
    # comment line
    sigma_x = 0.01
    sigma_theta = 0.02
    sigma_c = 0.05
    gamma = 1.0
    lambda = 1.0   # inline comment
    chi = 5.0
    tau = 0.2
    coupling = elliptic
    extra_knob = 7
    """
    mapping = parse_config_text(text)
    assert mapping["lambda"] == "1.0"
    assert mapping["extra_knob"] == "7"
    assert build_config(mapping, ExperimentKind.SIMULATE).params == base_params()


MAPPING = {"sigma_x": "0.01", "sigma_theta": "0.02", "sigma_c": "0.05", "gamma": "1.0",
           "lambda": "1.0", "chi": "5.0", "tau": "0.2", "coupling": "elliptic"}


@pytest.mark.parametrize("key", sorted(MAPPING))
def test_mapping_errors_name_the_key(key):
    """A value that does not parse, or a missing model key, is refused naming the key."""
    bad = dict(MAPPING, **{key: "oops"})
    message = ("coupling must be 'parabolic' or 'elliptic', got 'oops'" if key == "coupling"
               else f"config key '{key}': cannot parse 'oops'")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_config(bad, ExperimentKind.SIMULATE)
    missing = {other: value for other, value in MAPPING.items() if other != key}
    with pytest.raises(ValueError, match=f"^config missing required key '{key}'$"):
        build_config(missing, ExperimentKind.SIMULATE)


def digest(**changes):
    return build_config(dict(MAPPING, **changes), ExperimentKind.SIMULATE).digest


def test_config_hash_is_order_insensitive_and_value_sensitive():
    backwards = dict(reversed(list(MAPPING.items())))
    assert build_config(backwards, ExperimentKind.SIMULATE).digest == digest()
    assert digest(chi="5") == digest()  # values are hashed after parsing
    assert digest(seed="4", threads="2") == digest()
    changed = [digest(chi="5.1"), digest(coupling="parabolic"), digest(n_theta="32"),
               digest(dt="2e-3"), digest(scheme="imex_euler")]
    assert len({digest(), *changed}) == 1 + len(changed)
