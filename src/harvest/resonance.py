"""Two-state stochastic resonance theory of the periodically excited harvester.

Equilibria of the equivalent system, linearization eigenvalues, Kramers-type
transition rates modulated to first order by the periodic forcing, the output
spectrum split into a signal spike and a Lorentzian noise floor, and the SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BistabilityLossError
from .model import (
    ExcitationParams,
    NoiseParams,
    SystemParams,
    effective_coeffs,
)


@dataclass(frozen=True)
class ResonanceResult:
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
    omega = math.sqrt(2.0 * p.delta1)
    margin = p.delta1 - p.kappa * omega**2 / (p.alpha**2 + omega**2)
    if margin <= 0:
        raise BistabilityLossError(
            f"equilibria lost: delta1 - kappa*w^2/(a^2+w^2) = {margin:.6g}"
        )
    xs = math.sqrt(margin / p.delta3)
    return (xs, -xs, omega)


def linearization_eigenvalues(
    p: SystemParams, x_m: float, omega_eq: float
) -> tuple[complex, complex]:
    """Eigenvalues of the linearization about an equilibrium displacement x_m.

    The damping slot is the full effective damping at omega_eq (which already
    contains the circuit back-action term).
    """
    gamma = effective_coeffs(p, omega_eq).beta_eff
    curv = (
        -p.delta1
        + p.kappa * omega_eq**2 / (p.alpha**2 + omega_eq**2)
        + 3.0 * p.delta3 * x_m**2
    )
    disc = gamma * gamma - 4.0 * curv
    sq = complex(disc) ** 0.5
    lam_plus = 0.5 * (-gamma + sq)
    lam_minus = 0.5 * (-gamma - sq)
    return (lam_plus, lam_minus)


def _rate_pieces(p: SystemParams, omega_eq: float, x_s: float):
    """Prefactor sqrt(l+_s l-_s l+_u / |l-_u|)/(2 pi) and the well exponent."""
    lam_s = linearization_eigenvalues(p, x_s, omega_eq)
    lam_u = linearization_eigenvalues(p, 0.0, omega_eq)
    prod_s = (lam_s[0] * lam_s[1]).real  # product of roots: real and positive
    lam_u_plus = lam_u[0].real
    lam_u_minus = abs(lam_u[1].real)
    prefactor = math.sqrt(prod_s * lam_u_plus / lam_u_minus) / (2.0 * math.pi)
    ec = effective_coeffs(p, omega_eq)
    well_value = (
        -0.5 * p.delta1 * x_s**2
        + 0.25 * p.delta3 * x_s**4
        + 0.5 * ec.delta_eff * x_s**2
    )
    lambdas = (abs(lam_s[0]), abs(lam_s[1]), lam_u_plus, lam_u_minus)
    return prefactor, well_value, ec, lambdas


def transition_rates(
    p: SystemParams,
    noise: NoiseParams,
    ex: ExcitationParams,
    omega_eq: float | None = None,
    x_s: float | None = None,
) -> tuple[float, float]:
    """Unmodulated Kramers rate R0 and its forcing-modulation coefficient R1."""
    noise.require_positive_intensity()
    if omega_eq is None or x_s is None:
        x_s, _, omega_eq = snr_equilibria(p)
    prefactor, well_value, ec, _ = _rate_pieces(p, omega_eq, x_s)
    chi = 1.0 + noise.c**2 * omega_eq**2
    expo = ec.beta_eff * chi / noise.D * well_value
    R0 = prefactor * math.exp(expo) if expo > -745.0 else 0.0
    R1 = R0 * x_s * ex.G * ec.beta_eff * chi / noise.D
    return (R0, R1)


def _response(R0: float, R1: float, x_s: float, ex: ExcitationParams):
    """Linear-response split of the two-state output spectrum: (q, S1, S2, snr).

    q = R1^2 eps^2 / (2 (R0^2 + Omega^2)) is the signal's share of the
    switching, S1 the integrated signal spike, S2 the noise floor at Omega and
    snr = S1 / S2.  The SNR is 0.0 when nothing switches (R0 == 0) or nothing
    drives (eps == 0), and NaN when linear response fails (q >= 1).
    """
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
    return q, S1, S2, snr_val


def output_spectrum(
    p: SystemParams,
    noise: NoiseParams,
    ex: ExcitationParams,
    omega_eq: float | None = None,
    x_s: float | None = None,
) -> tuple[float, float]:
    """Integrated signal spectrum and the noise spectrum at the drive frequency."""
    if omega_eq is None or x_s is None:
        x_s, _, omega_eq = snr_equilibria(p)
    R0, R1 = transition_rates(p, noise, ex, omega_eq, x_s)
    _, S1, S2, _ = _response(R0, R1, x_s, ex)
    return (S1, S2)


def analyze(
    p: SystemParams, noise: NoiseParams, ex: ExcitationParams
) -> ResonanceResult:
    """Full two-state analysis: equilibria, rates, spectrum split, and SNR.

    The SNR is NaN, and linear_response_ok False, where linear response fails.
    """
    noise.require_positive_intensity()
    x_s, x_s_m, omega_eq = snr_equilibria(p)
    prefactor, well_value, ec, lambdas = _rate_pieces(p, omega_eq, x_s)
    chi = 1.0 + noise.c**2 * omega_eq**2
    expo = ec.beta_eff * chi / noise.D * well_value
    underflow = expo <= -745.0
    R0 = prefactor * math.exp(expo) if not underflow else 0.0
    R1 = R0 * x_s * ex.G * ec.beta_eff * chi / noise.D
    q, S1, S2, snr_val = _response(R0, R1, x_s, ex)
    return ResonanceResult(
        x_s_plus=x_s,
        x_s_minus=x_s_m,
        x_u=0.0,
        lambdas=lambdas,
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
    """SNR along a noise-intensity scan (equilibria are D-independent)."""
    x_s, _, omega_eq = snr_equilibria(p)
    out = np.empty(len(D_values))
    for i, D in enumerate(D_values):
        R0, R1 = transition_rates(p, NoiseParams(D=float(D), c=c), ex, omega_eq, x_s)
        out[i] = _response(R0, R1, x_s, ex)[3]
    return out
