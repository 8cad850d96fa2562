"""The model, its single-wavenumber reductions, and the config text format.

The model describes a density f(x, theta) of walkers on the unit spatial
torus carrying a heading angle theta, coupled to a chemical field c(x).
Walkers drift along v(theta) = (cos theta, sin theta), diffuse in x and
theta, and steer up chemical gradients through a turning bias; the chemical
is produced by the walkers and relaxes either instantaneously (elliptic
coupling) or with its own linear dynamics (parabolic coupling).

All stability questions for spatial wavenumber k reduce to a handful of
scalar combinations of the raw parameters; :class:`ReducedParams` carries
those and nothing else.

The ``key = value`` text of config files and ``checkpoint.txt`` is read
here; :mod:`antkinetics.experiments` decides which keys a config holds and
how each value parses.
"""

from __future__ import annotations

import dataclasses
import enum
import math

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi**2


class Coupling(enum.Enum):
    """How the chemical field is tied to the walker density."""

    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"


def _coerce_enum(cls, value, name: str):
    """``value`` as a member of the two-member enum ``cls``, matched on its
    trimmed lower-case text; errors name ``name`` and both choices."""
    if isinstance(value, cls):
        return value
    try:
        return cls(str(value).strip().lower())
    except ValueError:
        choices = " or ".join(repr(member.value) for member in cls)
        raise ValueError(f"{name} must be {choices}, got {value!r}") from None


@dataclasses.dataclass(frozen=True)
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
        object.__setattr__(self, "coupling", _coerce_enum(Coupling, self.coupling, "coupling"))
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
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
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
        sigma = float(sigma)
        if not math.isfinite(sigma) or sigma < 0.0:
            raise ValueError(f"sigma must be a finite nonnegative real, got {sigma}")
        return dataclasses.replace(self, sigma=sigma)


def reduce_params(params: ModelParams, k: int) -> ReducedParams:
    """Reduce raw parameters to the wavenumber-k scalars."""
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    try:
        float(k)
    except OverflowError:
        raise ValueError(f"k must be a positive integer that a float can hold, got one of "
                         f"{len(str(k))} digits") from None
    nu_breve = FOUR_PI_SQ * k * k * params.sigma_c + params.gamma
    if params.coupling is Coupling.ELLIPTIC:
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
    rp = reduce_params(params.replace(coupling=Coupling.ELLIPTIC), k)
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
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return min(range(1, k_max + 1), key=lambda k: inviscid_threshold_chi(params, k))


# --- the key = value text format ----------------------------------------------

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
    """:func:`parse_config_text` of the file at ``path``; errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config_text(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

