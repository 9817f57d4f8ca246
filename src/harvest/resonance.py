"""Two-state stochastic resonance theory of the periodically excited harvester.

Equilibria of the equivalent system, linearization eigenvalues, Kramers-type
transition rates modulated to first order by the periodic forcing, the output
spectrum split into a signal spike and a Lorentzian noise floor, and the SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    EffectiveCoeffs, ExcitationParams, NoiseParams, SystemParams,
    circuit_stiffness, colored_noise_factors, effective_coeffs,
    effective_potential, seed_frequency, well_minimum,
)


@dataclass(frozen=True)
class ResonanceResult:
    """Two-state analysis at one noise intensity."""

    x_s_plus: float
    x_s_minus: float
    x_u: float
    lambdas: tuple[float, float, float, float]  # |l+_s|, |l-_s|, l+_u, |l-_u|
    R0: float
    R1: float
    S1_integral: float
    S2_at_Omega: float
    snr: float
    omega_eq: float
    linear_response_ok: bool
    underflow: bool


def snr_equilibria(p: SystemParams) -> tuple[float, float, float]:
    """Stable equilibria +-x_s of the two-state reduction and its frequency.

    Returns (x_s, -x_s, omega_eq).  The two-state formulas carry the circuit
    stiffness explicitly in the equilibrium and curvature expressions, so the
    frequency slot uses the bare well-bottom value sqrt(2*delta1); folding the
    stiffness correction into omega as well would count it twice.
    """
    omega = seed_frequency(p)
    xs = well_minimum(p, p.delta1 - circuit_stiffness(p, omega))
    return (xs, -xs, omega)


def linearization_eigenvalues(
    p: SystemParams, x_m: float, ec: EffectiveCoeffs
) -> tuple[complex, complex]:
    """Eigenvalues of the linearization about an equilibrium displacement x_m.

    The damping slot is the full effective damping ec.beta_eff at ec.omega
    (which already contains the circuit back-action term).
    """
    gamma = ec.beta_eff
    curv = -p.delta1 + circuit_stiffness(p, ec.omega) + 3.0 * p.delta3 * x_m**2
    disc = gamma * gamma - 4.0 * curv
    sq = complex(disc) ** 0.5
    lam_plus = 0.5 * (-gamma + sq)
    lam_minus = 0.5 * (-gamma - sq)
    return (lam_plus, lam_minus)


def analyze(
    p: SystemParams, noise: NoiseParams, ex: ExcitationParams
) -> ResonanceResult:
    """Full two-state analysis: equilibria, rates, spectrum split, and SNR.

    The Kramers rate is R0 = sqrt(l+_s l-_s l+_u / |l-_u|) / (2 pi)
    * exp(beta_eff chi / D * U_eff(x_s)), 0.0 where the exponent is at or below
    -745 (exp underflows), and R1 = R0 x_s G beta_eff chi / D is its
    forcing-modulation coefficient.  Linear response splits the output
    spectrum: q = R1^2 eps^2 / (2 (R0^2 + Omega^2)) is the signal's share of
    the switching, S1 the integrated signal spike, S2 the noise floor at Omega
    and snr = S1 / S2.  The SNR is 0.0 where nothing switches (R0 == 0) or
    nothing drives (eps == 0), and NaN, with linear_response_ok False, where
    linear response fails (q >= 1).
    """
    noise.require_positive_intensity()
    x_s, x_s_m, omega_eq = snr_equilibria(p)
    ec = effective_coeffs(p, omega_eq)
    lam_s = linearization_eigenvalues(p, x_s, ec)
    lam_u = linearization_eigenvalues(p, 0.0, ec)
    prod_s = (lam_s[0] * lam_s[1]).real  # product of roots: real and positive
    lam_u_plus = lam_u[0].real
    lam_u_minus = abs(lam_u[1].real)
    prefactor = math.sqrt(prod_s * lam_u_plus / lam_u_minus) / (2.0 * math.pi)
    _, beta_chi = colored_noise_factors(ec, noise.c)
    expo = beta_chi / noise.D * effective_potential(x_s, p, ec.delta_eff)
    underflow = expo <= -745.0
    # numpy's exp, not math.exp: the two can differ in the last place
    R0 = 0.0 if underflow else prefactor * float(np.exp(expo))
    R1 = R0 * x_s * ex.G * beta_chi / noise.D

    lor = R0 * R0 + ex.Omega**2
    q = R1 * R1 * ex.eps**2 / (2.0 * lor)
    S1 = math.pi * x_s**2 * R1 * R1 * ex.eps**2 / (2.0 * lor)
    S2 = (1.0 - q) * 2.0 * x_s**2 * R0 / lor
    if R0 == 0.0 or ex.eps == 0.0:
        snr_val = 0.0
    elif q < 1.0:
        snr_val = math.pi * R1 * R1 * ex.eps**2 / (4.0 * R0) / (1.0 - q)
    else:
        snr_val = math.nan
    return ResonanceResult(
        x_s_plus=x_s,
        x_s_minus=x_s_m,
        x_u=0.0,
        lambdas=(abs(lam_s[0]), abs(lam_s[1]), lam_u_plus, lam_u_minus),
        R0=R0,
        R1=R1,
        S1_integral=S1,
        S2_at_Omega=S2,
        snr=snr_val,
        omega_eq=omega_eq,
        linear_response_ok=q < 1.0,
        underflow=underflow,
    )


def snr(p: SystemParams, noise: NoiseParams, ex: ExcitationParams) -> float:
    """Signal-to-noise ratio of the two-state response."""
    return analyze(p, noise, ex).snr


def snr_vs_noise(
    p: SystemParams,
    ex: ExcitationParams,
    D_values: np.ndarray,
    c: float,
) -> np.ndarray:
    """SNR along a noise-intensity scan: snr(...) at each D."""
    return np.array([snr(p, NoiseParams(D=float(d), c=c), ex) for d in D_values])
