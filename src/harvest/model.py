"""Model parameters and closed-form quantities of the delay-controlled harvester.

The mechanical oscillator sits in a symmetric double well and is coupled to a
harvesting circuit; delayed displacement/velocity feedback folds into effective
damping and stiffness corrections that depend on the oscillation frequency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BistabilityLossError, ParameterError


class MotionRegime(enum.Enum):
    """Which closed orbit a given energy level supports."""

    RIGHT_WELL = 1
    LEFT_WELL = 2
    CROSS_WELL = 3


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless constants of the controlled electromechanical oscillator.

    delta1, delta3: linear and cubic stiffness of the double-well restoring force.
    kappa: electromechanical coupling; alpha: circuit time-constant ratio.
    beta: mechanical damping.  mu, nu: displacement/velocity feedback gains with
    delays tau1, tau2.
    """

    delta1: float
    delta3: float
    kappa: float = 0.0
    alpha: float = 0.05
    beta: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    tau1: float = 0.0
    tau2: float = 0.0

    def __post_init__(self):
        if not self.delta1 > 0:
            raise ParameterError(f"delta1 must be > 0, got {self.delta1}")
        if not self.delta3 > 0:
            raise ParameterError(f"delta3 must be > 0, got {self.delta3}")
        if self.kappa < 0:
            raise ParameterError(f"kappa must be >= 0, got {self.kappa}")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if self.tau1 < 0 or self.tau2 < 0:
            raise ParameterError("delays tau1, tau2 must be >= 0")


@dataclass(frozen=True)
class NoiseParams:
    """Colored (exponentially correlated) noise: intensity D, correlation time c.

    D=0 switches the noise off, which only the simulation lane accepts; the
    analytic lanes check D > 0 with require_positive_intensity, their one rule.
    """

    D: float
    c: float

    def __post_init__(self):
        if self.D < 0:
            raise ParameterError(f"noise intensity D must be >= 0, got {self.D}")
        if not self.c > 0:
            raise ParameterError(f"correlation time c must be > 0, got {self.c}")

    def require_positive_intensity(self) -> None:
        if not self.D > 0:
            raise ParameterError("this quantity requires noise intensity D > 0")


@dataclass(frozen=True)
class ExcitationParams:
    """Periodic excitation of amplitude eps*G at angular frequency Omega."""

    eps: float = 0.0
    G: float = 0.1
    Omega: float = 0.05

    def __post_init__(self):
        if self.eps < 0:
            raise ParameterError(f"eps must be >= 0, got {self.eps}")
        if self.G < 0:
            raise ParameterError(f"G must be >= 0, got {self.G}")
        if not self.Omega > 0:
            raise ParameterError(f"Omega must be > 0, got {self.Omega}")

    @property
    def amplitude(self) -> float:
        return self.eps * self.G


@dataclass(frozen=True)
class EffectiveCoeffs:
    """Effective damping and stiffness correction at a given frequency."""

    beta_eff: float
    delta_eff: float
    omega: float


def seed_frequency(p: SystemParams) -> float:
    """Small-oscillation frequency sqrt(2*delta1) of the bare well bottom: the
    seed of each frequency iteration and the two-state frequency slot."""
    return math.sqrt(2.0 * p.delta1)


def bare_potential(x, p: SystemParams):
    """Symmetric quartic potential -delta1*x^2/2 + delta3*x^4/4, exactly even
    in x: x^4 is (x*x)*(x*x), since numpy's x**4 differs between x and -x
    at some nodes by an ulp."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    out = -0.5 * p.delta1 * x2 + 0.25 * p.delta3 * (x2 * x2)
    return out if out.ndim else float(out)


def circuit_stiffness(p: SystemParams, omega):
    """Stiffness kappa*w^2/(alpha^2+w^2) that the circuit back-action adds at w."""
    om = np.asarray(omega, dtype=float)
    out = p.kappa * om**2 / (p.alpha**2 + om**2)
    return out if out.ndim else float(out)


def effective_coeffs(p: SystemParams, omega) -> EffectiveCoeffs:
    """Effective damping/stiffness of the uncoupled equivalent oscillator.

    The circuit back-action contributes kappa*alpha/(alpha^2+w^2) to damping and
    circuit_stiffness to stiffness; the delayed feedback adds the
    trigonometric terms in w*tau1, w*tau2.  omega broadcasts; 0-d input gives
    float fields.
    """
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0):
        raise ParameterError(f"omega must be > 0, got {omega}")
    delta_eff = (
        circuit_stiffness(p, om)
        - p.mu * np.cos(om * p.tau1)
        - p.nu * om * np.sin(om * p.tau2)
    )
    beta_eff = (
        p.beta
        + p.kappa * p.alpha / (p.alpha**2 + om**2)
        + (p.mu / om) * np.sin(om * p.tau1)
        - p.nu * np.cos(om * p.tau2)
    )
    if om.ndim == 0:
        return EffectiveCoeffs(float(beta_eff), float(delta_eff), float(om))
    return EffectiveCoeffs(beta_eff, delta_eff, om)


def colored_noise_factors(ec: EffectiveCoeffs, c: float):
    """chi = 1 + c^2 w^2 at w = ec.omega, which divides the intensity D of
    colored noise of correlation time c, and beta_eff * chi."""
    chi = 1.0 + c**2 * ec.omega**2
    return chi, ec.beta_eff * chi


def effective_potential(x, p: SystemParams, d_eff):
    """Unforced potential of the equivalent oscillator with stiffness
    correction d_eff (effective_coeffs(...).delta_eff)."""
    x = np.asarray(x, dtype=float)
    out = bare_potential(x, p) + 0.5 * d_eff * (x * x)
    return out if out.ndim else float(out)


def harvested_power(p: SystemParams, mean_square_voltage):
    """Mean harvested power kappa * alpha * <V^2>."""
    return p.kappa * p.alpha * mean_square_voltage


def stiffness_margin(p: SystemParams, omega):
    """a = delta1 - delta_eff; must stay positive for the double well to survive."""
    return p.delta1 - effective_coeffs(p, omega).delta_eff


def _bistable(a) -> np.ndarray:
    """a as an array; the double well exists only where the margin a > 0."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise BistabilityLossError(
            f"bi-stability lost: stiffness margin {np.min(a):.6g} <= 0"
        )
    return a


def well_bottom(p: SystemParams, a):
    """Energy -a^2/(4*delta3) at the minima of the well with stiffness margin a."""
    a = _bistable(a)
    out = -a * a / (4.0 * p.delta3)
    return out if out.ndim else float(out)


def well_minimum(p: SystemParams, a):
    """Right-hand minimum sqrt(a/delta3) of the well with stiffness margin a."""
    out = np.sqrt(_bistable(a) / p.delta3)
    return out if out.ndim else float(out)


def well_depth(p: SystemParams, omega):
    """Depth |min U_eff| of the unforced effective double well."""
    return -well_bottom(p, stiffness_margin(p, omega))


def equilibrium_for_regime(p: SystemParams, regime: MotionRegime) -> float:
    """Bare equilibrium displacement about which each regime's orbit oscillates."""
    if regime is MotionRegime.CROSS_WELL:
        return 0.0
    xs = well_minimum(p, p.delta1)
    return xs if regime is MotionRegime.RIGHT_WELL else -xs
