"""Model parameters, validation, and single-wavenumber reductions.

The model describes a density f(x, theta) of walkers on the unit spatial
torus carrying a heading angle theta, coupled to a chemical field c(x).
Walkers drift along v(theta) = (cos theta, sin theta), diffuse in x and
theta, and steer up chemical gradients through a turning bias; the chemical
is produced by the walkers and relaxes either instantaneously (elliptic
coupling) or with its own linear dynamics (parabolic coupling).

All stability questions for spatial wavenumber k reduce to a handful of
scalar combinations of the raw parameters; :class:`ReducedParams` carries
those and nothing else.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Mapping

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi**2


class Coupling(enum.Enum):
    """How the chemical field is tied to the walker density."""

    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"


def _coerce_coupling(value) -> Coupling:
    if isinstance(value, Coupling):
        return value
    if isinstance(value, str):
        try:
            return Coupling(value.strip().lower())
        except ValueError:
            raise ValueError(
                f"coupling must be 'parabolic' or 'elliptic', got {value!r}"
            ) from None
    raise ValueError(f"coupling must be 'parabolic' or 'elliptic', got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Raw model parameters.

    sigma_x, sigma_theta : spatial and angular diffusivities (>= 0)
    sigma_c              : chemical diffusivity (>= 0)
    gamma                : chemical decay rate (> 0)
    lam                  : drift speed (>= 0); config key ``lambda``
    chi                  : turning-response strength (>= 0)
    tau                  : curvature look-ahead weight (>= 0)
    coupling             : chemical coupling mode
    """

    sigma_x: float
    sigma_theta: float
    sigma_c: float
    gamma: float
    lam: float
    chi: float
    tau: float
    coupling: Coupling = Coupling.ELLIPTIC

    def __post_init__(self):
        object.__setattr__(self, "coupling", _coerce_coupling(self.coupling))
        for name in ("sigma_x", "sigma_theta", "sigma_c", "lam", "chi", "tau"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be a finite nonnegative real, got {value}")
            object.__setattr__(self, name, value)
        gamma = float(self.gamma)
        if not math.isfinite(gamma) or gamma <= 0.0:
            raise ValueError(f"gamma must be a finite positive real, got {gamma}")
        object.__setattr__(self, "gamma", gamma)

    def replace(self, **changes) -> "ModelParams":
        fields = self.as_dict()
        fields.update(changes)
        return ModelParams(**fields)

    def as_dict(self) -> dict:
        return {
            "sigma_x": self.sigma_x,
            "sigma_theta": self.sigma_theta,
            "sigma_c": self.sigma_c,
            "gamma": self.gamma,
            "lam": self.lam,
            "chi": self.chi,
            "tau": self.tau,
            "coupling": self.coupling,
        }


@dataclass(frozen=True)
class ReducedParams:
    """Scalar combinations governing the wavenumber-k linearization.

    For spatial wavenumber k the single-mode reduction uses

        tau_breve     = 2 pi k tau
        lambda_breve  = 2 pi k lambda
        sigma_x_breve = 4 pi^2 k^2 sigma_x
        nu_breve      = 4 pi^2 k^2 sigma_c + gamma
        sigma         = sigma_theta

    and a response coefficient chi_breve that absorbs the chemical solve:
    chi * k / nu_breve for the elliptic coupling, chi * k for the parabolic
    one (where the chemical keeps its own degrees of freedom).
    """

    k: int
    chi_breve: float
    tau_breve: float
    lambda_breve: float
    sigma_x_breve: float
    nu_breve: float
    sigma: float

    def with_sigma(self, sigma: float) -> "ReducedParams":
        return ReducedParams(
            k=self.k,
            chi_breve=self.chi_breve,
            tau_breve=self.tau_breve,
            lambda_breve=self.lambda_breve,
            sigma_x_breve=self.sigma_x_breve,
            nu_breve=self.nu_breve,
            sigma=float(sigma),
        )


def reduce_params(params: ModelParams, k: int, coupling: Coupling | None = None) -> ReducedParams:
    """Reduce raw parameters to the wavenumber-k scalars."""
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    coupling = params.coupling if coupling is None else _coerce_coupling(coupling)
    nu_breve = FOUR_PI_SQ * k * k * params.sigma_c + params.gamma
    if coupling is Coupling.ELLIPTIC:
        chi_breve = params.chi * k / nu_breve
    else:
        chi_breve = params.chi * k
    return ReducedParams(
        k=k,
        chi_breve=chi_breve,
        tau_breve=TWO_PI * k * params.tau,
        lambda_breve=TWO_PI * k * params.lam,
        sigma_x_breve=FOUR_PI_SQ * k * k * params.sigma_x,
        nu_breve=nu_breve,
        sigma=params.sigma_theta,
    )


def instability_margin(params: ModelParams, k: int) -> float:
    """Distance of wavenumber k from neutral stability, fully inviscid.

    Positive iff the homogeneous state is linearly unstable at wavenumber k
    when sigma_x = sigma_theta = 0.  Computed as chi_breve * J(0) - 1 where
    J(0) = 2 pi (tau_breve + 1) / lambda_breve is the zero-argument value of
    the angular response integral; both couplings give the same number.
    Requires lambda > 0.
    """
    rp = reduce_params(params, k, Coupling.ELLIPTIC)
    if rp.lambda_breve == 0.0:
        raise ValueError("instability margin undefined for lambda = 0")
    return rp.chi_breve * TWO_PI * (rp.tau_breve + 1.0) / rp.lambda_breve - 1.0


def condition_gap(params: ModelParams, k: int) -> float:
    """Algebraic form of the instability condition, as a signed gap.

    Returns chi (2 pi k tau + 1) - lambda (gamma + 4 pi^2 sigma_c k^2); the
    dispersion route is the single source of truth.
    """
    return params.chi * (TWO_PI * k * params.tau + 1.0) - params.lam * (
        params.gamma + FOUR_PI_SQ * params.sigma_c * k * k
    )


def inviscid_threshold_chi(params: ModelParams, k: int) -> float:
    """The chi value that makes wavenumber k neutrally stable (inviscid)."""
    return params.lam * (params.gamma + FOUR_PI_SQ * params.sigma_c * k * k) / (
        TWO_PI * k * params.tau + 1.0
    )


def most_unstable_k(params: ModelParams, k_max: int) -> int:
    """Wavenumber in 1..k_max with the lowest inviscid chi threshold."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return min(range(1, k_max + 1), key=lambda k: inviscid_threshold_chi(params, k))


# --- plain-text configuration -------------------------------------------------

MODEL_KEYS = ("sigma_x", "sigma_theta", "sigma_c", "gamma", "lambda", "chi", "tau", "coupling")


def parse_config_text(text: str) -> dict:
    """Parse a flat ``key = value`` configuration into a string mapping.

    Blank lines and ``#`` comments are ignored.  Later assignments win.
    """
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        mapping[key] = value
    return mapping


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def model_params_from_mapping(mapping: Mapping) -> ModelParams:
    """Build :class:`ModelParams` from a flat config mapping.

    Expects the keys sigma_x, sigma_theta, sigma_c, gamma, lambda, chi,
    tau, coupling; errors name the offending key.
    """
    values = {}
    for key in MODEL_KEYS:
        if key not in mapping:
            raise ValueError(f"config missing required key {key!r}")
        raw = mapping[key]
        if key == "coupling":
            values["coupling"] = _coerce_coupling(raw)
            continue
        try:
            values["lam" if key == "lambda" else key] = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"config key {key!r}: expected a real number, got {raw!r}") from None
    return ModelParams(**values)


def config_hash(mapping: Mapping) -> str:
    """Order-independent sha256 of a flat mapping, over its ``key = value`` lines."""
    canon = "".join(f"{key} = {mapping[key]}\n" for key in sorted(mapping))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
