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
    analytic densities and rates require D > 0 and say so at their entry points.
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


def bare_potential(x, p: SystemParams):
    """Symmetric quartic potential -delta1*x^2/2 + delta3*x^4/4."""
    x = np.asarray(x, dtype=float)
    out = -0.5 * p.delta1 * x**2 + 0.25 * p.delta3 * x**4
    return out if out.ndim else float(out)


def bare_equilibria(p: SystemParams) -> tuple[float, float, float]:
    """The two stable minima and the saddle of the bare double well."""
    xs = math.sqrt(p.delta1 / p.delta3)
    return (xs, -xs, 0.0)


def effective_coeffs(p: SystemParams, omega) -> EffectiveCoeffs:
    """Effective damping/stiffness of the uncoupled equivalent oscillator.

    The circuit back-action contributes kappa*alpha/(alpha^2+w^2) to damping and
    kappa*w^2/(alpha^2+w^2) to stiffness; the delayed feedback adds the
    trigonometric terms in w*tau1, w*tau2.
    """
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0):
        raise ParameterError(f"omega must be > 0, got {omega}")
    den = p.alpha**2 + om**2
    beta_eff = (
        p.beta
        + p.kappa * p.alpha / den
        + (p.mu / om) * np.sin(om * p.tau1)
        - p.nu * np.cos(om * p.tau2)
    )
    delta_eff = (
        p.kappa * om**2 / den
        - p.mu * np.cos(om * p.tau1)
        - p.nu * om * np.sin(om * p.tau2)
    )
    if om.ndim == 0:
        return EffectiveCoeffs(float(beta_eff), float(delta_eff), float(om))
    return EffectiveCoeffs(beta_eff, delta_eff, om)


def delta_eff_and_slope(p: SystemParams, omega):
    """effective_coeffs(p, omega).delta_eff on an array of frequencies, and
    its frequency derivative term by term, from one sin/cos evaluation."""
    om = np.asarray(omega, dtype=float)
    den = p.alpha**2 + om**2
    sin1, cos1 = np.sin(om * p.tau1), np.cos(om * p.tau1)
    sin2, cos2 = np.sin(om * p.tau2), np.cos(om * p.tau2)
    delta_eff = p.kappa * om**2 / den - p.mu * cos1 - p.nu * om * sin2
    slope = (
        2.0 * p.kappa * p.alpha**2 * om / den**2
        + p.mu * p.tau1 * sin1
        - p.nu * sin2
        - p.nu * p.tau2 * om * cos2
    )
    return delta_eff, slope


def effective_potential(x, p: SystemParams, omega, forcing=0.0):
    """Potential of the equivalent oscillator; caller supplies the instantaneous forcing."""
    d_eff = effective_coeffs(p, omega).delta_eff
    x = np.asarray(x, dtype=float)
    out = (
        -0.5 * p.delta1 * x**2
        + 0.25 * p.delta3 * x**4
        + 0.5 * d_eff * x**2
        - x * forcing
    )
    return out if out.ndim else float(out)


def total_energy(x, v, p: SystemParams, omega, forcing=0.0):
    """Mechanical energy v^2/2 + U_eff(x)."""
    v = np.asarray(v, dtype=float)
    out = 0.5 * v**2 + effective_potential(x, p, omega, forcing)
    return out if out.ndim else float(out)


def stiffness_margin(p: SystemParams, omega) -> float:
    """delta1 - delta_eff; must stay positive for the double well to survive."""
    return p.delta1 - effective_coeffs(p, omega).delta_eff


def well_depth(p: SystemParams, omega) -> float:
    """Depth |min U_eff| of the unforced effective double well."""
    a = stiffness_margin(p, omega)
    if a <= 0:
        raise BistabilityLossError(
            f"bi-stability lost: delta1 - delta_eff = {a:.6g} <= 0 at omega={omega}"
        )
    return a * a / (4.0 * p.delta3)


def effective_minima(p: SystemParams, omega) -> tuple[float, float]:
    """Locations +-sqrt((delta1-delta_eff)/delta3) of the unforced effective minima."""
    a = stiffness_margin(p, omega)
    if a <= 0:
        raise BistabilityLossError(
            f"bi-stability lost: delta1 - delta_eff = {a:.6g} <= 0 at omega={omega}"
        )
    xm = math.sqrt(a / p.delta3)
    return (xm, -xm)


def regime_of(H: float, x: float) -> MotionRegime:
    """Assign the motion regime: below the saddle energy the sign of x picks the well."""
    if H >= 0.0:
        return MotionRegime.CROSS_WELL
    return MotionRegime.RIGHT_WELL if x >= 0.0 else MotionRegime.LEFT_WELL


def equilibrium_for_regime(p: SystemParams, regime: MotionRegime) -> float:
    """Bare equilibrium displacement about which each regime's orbit oscillates."""
    xs, xs_m, xu = bare_equilibria(p)
    if regime is MotionRegime.RIGHT_WELL:
        return xs
    if regime is MotionRegime.LEFT_WELL:
        return xs_m
    return xu
