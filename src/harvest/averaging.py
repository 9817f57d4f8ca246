"""Stochastic averaging of the energy envelope and the stationary response.

The lightly damped effective oscillator reduces to a one-dimensional Ito
diffusion for the energy; from its stationary density follow the joint
displacement/velocity density, the effective generalized potential, the
mean-square harvested voltage and the mean output power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ParameterError, SeparatrixBandError
from .freq import (
    FrequencyTable, _orbit_integral, bottom_frequency, build_table, exclusion_band,
    solve_frequency, turning_points,
)
from .model import (
    EffectiveCoeffs, MotionRegime, NoiseParams, SystemParams, bare_potential,
    colored_noise_factors, delta_eff_and_slope, effective_coeffs, harvested_power,
    seed_frequency, stiffness_margin, well_depth, well_minimum,
)


@dataclass(frozen=True)
class DriftDiffusion:
    """Averaged drift m(H) and diffusion sigma^2(H) of the energy envelope."""

    m: float
    sigma2: float


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (x, v) evaluation lattice."""

    x_min: float = -2.5
    x_max: float = 2.5
    nx: int = 201
    v_min: float = -3.0
    v_max: float = 3.0
    nv: int = 201

    def __post_init__(self):
        if self.nx < 32 or self.nv < 32:
            raise ParameterError(
                f"grid too coarse: need at least 32x32, got {self.nx}x{self.nv}"
            )
        if not (self.x_max > self.x_min and self.v_max > self.v_min):
            raise ParameterError("grid bounds must satisfy min < max")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and v nodes: np.linspace, made exactly antisymmetric
        (a == -a[::-1]) when min == -max.  That moves each node by at most an
        ulp of the bound, and lets _grid_fields solve each mirror pair once."""
        return (
            _axis(self.x_min, self.x_max, self.nx),
            _axis(self.v_min, self.v_max, self.nv),
        )


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    a = np.linspace(lo, hi, n)
    return 0.5 * (a - a[::-1]) if lo == -hi else a


@dataclass(frozen=True)
class DensityField:
    """Joint stationary density on an (x, v) grid, trapezoid-normalized to 1."""

    x: np.ndarray
    v: np.ndarray
    values: np.ndarray  # shape (nx, nv)
    norm_const: float

    def integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.v, axis=1), self.x))


def loop_average(
    f, H: float, p: SystemParams, regime: MotionRegime, omega: float | None = None
) -> float:
    """Time average (omega/2pi) * loop-integral of f(x, v)/|v| dx at energy H.

    omega defaults to the self-consistent frequency at H; passing omega
    evaluates the orbit in the frozen potential delta_eff(omega).  f must
    accept array x and signed array v and return an array.  On an orbit that
    turning_points collapsed onto the well minimum it is omega / sqrt(2a)
    times f there, with a the stiffness margin: the limit of the open orbit,
    whose period tends to the harmonic 2 pi / sqrt(2a).
    """
    if omega is None:
        omega = solve_frequency(H, p, regime)
    tp = turning_points(H, p, omega, regime)
    if tp.x_a == tp.x_b:
        scale = omega / math.sqrt(2.0 * stiffness_margin(p, omega))
        return scale * float(f(np.array([tp.x_a]), np.array([0.0]))[0])
    return omega / (2.0 * math.pi) * _orbit_integral(f, H, p.delta3, tp)


def drift_diffusion(
    H: float, p: SystemParams, noise: NoiseParams, regime: MotionRegime
) -> DriftDiffusion:
    """Averaged drift and diffusion of the energy envelope at H.

    The dissipation is -beta_eff*<v^2>: the cross term -delta_eff*X*<v> of
    v*(beta_eff*v - delta_eff*X*) averages to 0 on every closed orbit.
    """
    noise.require_positive_intensity()
    omega = solve_frequency(H, p, regime)
    ec = effective_coeffs(p, omega)
    msv = loop_average(lambda x, v: v * v, H, p, regime, omega)
    chi, _ = colored_noise_factors(ec, noise.c)
    m = -ec.beta_eff * msv + noise.D / chi
    sigma2 = 2.0 * noise.D / chi * msv
    return DriftDiffusion(m, sigma2)


def energy_spd(
    p: SystemParams,
    noise: NoiseParams,
    H_grid: np.ndarray,
) -> np.ndarray:
    """Stationary probability density of the total energy on the given grid.

    p(H) = N0/sigma^2(H) * exp(int 2m/sigma^2 dH), accumulated by trapezoid from
    the grid base and normalized over the grid.  The grid must avoid the
    separatrix exclusion band.
    """
    noise.require_positive_intensity()
    H_grid = np.asarray(H_grid, dtype=float)
    if np.any(np.diff(H_grid) <= 0):
        raise ParameterError("H_grid must be strictly increasing")
    band = exclusion_band(p)
    if np.any(np.abs(H_grid) < band):
        raise SeparatrixBandError(
            f"H_grid contains points inside the exclusion band (+-{band:.6g})"
        )
    ratio = np.empty_like(H_grid)
    ln_s2 = np.empty_like(H_grid)
    for i, H in enumerate(H_grid):
        regime = MotionRegime.CROSS_WELL if H > 0 else MotionRegime.RIGHT_WELL
        dd = drift_diffusion(H, p, noise, regime)
        ratio[i] = 2.0 * dd.m / dd.sigma2
        ln_s2[i] = math.log(dd.sigma2)
    inner = np.concatenate(
        ([0.0], np.cumsum(0.5 * (ratio[1:] + ratio[:-1]) * np.diff(H_grid)))
    )
    ln_p = inner - ln_s2
    ln_p -= ln_p.max()
    dens = np.exp(ln_p)
    Z = np.trapezoid(dens, H_grid)
    return dens / Z


def _table_for(p: SystemParams, grid: GridSpec) -> FrequencyTable:
    """Frequency table wide enough to cover every energy reachable on the grid.

    It is built once per field solve; _fields_for keeps the fields it gives.
    """
    d_eff = effective_coeffs(p, seed_frequency(p)).delta_eff
    xm = max(abs(grid.x_min), abs(grid.x_max))
    vm = max(abs(grid.v_min), abs(grid.v_max))
    H_corner = 0.5 * vm**2 + bare_potential(xm, p) + 0.5 * abs(d_eff) * xm**2
    depth = well_depth(p, bottom_frequency(p))
    H_max = max(2.0 * H_corner, 0.5 * vm**2 * 2.0, 10.0 * depth)
    return build_table(p, H_range=(-depth * (1.0 - 1e-6), H_max))


# A point is solved by Newton's method when x^2/2 * max|delta_eff'| * max|omega'|
# over its root bracket is at most this: F(H) then has slope in [-3/2, -1/2].
_CERTIFIED_GAIN = 0.5
_NEWTON_MAX_ITER = 30


def _self_consistent_fields(
    p: SystemParams,
    X: np.ndarray,
    V: np.ndarray,
    table: FrequencyTable,
):
    """Per-point energy and frequency: the root of
    F(H) = B + delta_eff(omega(H)) x^2 / 2 - H, with omega(H) from
    table.lookup_bridged and B = v^2/2 - delta1 x^2/2 + delta3 x^4/4.

    Uniqueness certificate: every root lies in the bracket
    B + x^2/2 [min delta_eff, max delta_eff] over the table's frequency range
    (sampled at 64 frequencies and padded by one sample step times
    max|delta_eff'|).  F'(H) = x^2/2 delta_eff'(omega) omega'(H) - 1, so where
    x^2/2 max|delta_eff'| times the bound on |omega'| over the bracket
    (FrequencyTable.slope_bound) is at most 1/2, F falls with slope in
    [-3/2, -1/2]: the root is unique, and Newton's method, kept inside the
    bracket, finds it.  The factor 2 below 1 absorbs the sampling of
    delta_eff'.

    Points without the certificate (near the separatrix, where omega(H) is steep
    and F may have several roots) and any point Newton leaves unconverged run
    the damped fixed point on omega from sqrt(2 delta1).  Those that still cycle
    are finished by bisection of F on the bracket.
    """
    shape = X.shape
    # B = v^2/2 + U_bare(x), the energy without the frequency correction
    base = np.broadcast_to(0.5 * V * V + bare_potential(X, p), shape).ravel()
    x = np.asarray(X, dtype=float).ravel()

    om_lo = min(float(table.omega_neg.min()), float(table.omega_pos.min()))
    om_hi = max(float(table.omega_neg.max()), float(table.omega_pos.max()))
    om_span = np.linspace(om_lo, om_hi, 64)
    d_span, slope_span = delta_eff_and_slope(p, om_span)
    slope_max = float(np.max(np.abs(slope_span)))
    pad = slope_max * (om_span[1] - om_span[0])
    d_lo, d_hi = d_span.min() - pad, d_span.max() + pad

    # Newton on the certified points, dropping each point once it converges
    idx = _certified(table, base, x, d_lo, d_hi, slope_max)
    b = base[idx]
    q = 0.5 * x[idx] * x[idx]
    Hn = b + q * (0.5 * (d_lo + d_hi))
    omega = np.empty_like(base)
    unsolved = np.ones(base.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        if idx.size == 0:
            break
        om, dom = table.lookup_bridged(Hn, slope=True)
        d_eff, d_slope = delta_eff_and_slope(p, om)
        step = b + q * d_eff - Hn
        step /= 1.0 - q * d_slope * dom
        done = np.abs(step) <= 1e-12 * (1.0 + np.abs(Hn))
        # omega at the stepped energy, to first order in the (tiny) last step
        omega[idx[done]] = om[done] + dom[done] * step[done]
        unsolved[idx[done]] = False
        Hn += step
        del om, dom, step, d_eff, d_slope  # free this step's arrays first
        keep = ~done
        idx, b, q, Hn = idx[keep], b[keep], q[keep], Hn[keep]
        np.clip(Hn, b + q * d_lo, b + q * d_hi, out=Hn)

    slow = np.flatnonzero(unsolved)
    if slow.size:
        omega[slow] = _damped_fields(p, base[slow], x[slow], table, d_span)
    omega = omega.reshape(shape)
    ec = effective_coeffs(p, omega)
    H = (base + 0.5 * ec.delta_eff.ravel() * x * x).reshape(shape)
    return H, omega, ec


def _certified(table, base, x, d_lo, d_hi, slope_max):
    """Indices of the points whose root bracket base + x^2/2 [d_lo, d_hi]
    carries the uniqueness certificate of _self_consistent_fields."""
    half_x2 = 0.5 * x * x
    bound = table.slope_bound(base + half_x2 * d_lo, base + half_x2 * d_hi)
    return np.flatnonzero(half_x2 * slope_max * bound <= _CERTIFIED_GAIN)


def _damped_fields(p, base, x, table, d_span):
    """Damped fixed point on omega for the uncertified points, with the
    stragglers (fixed-point residual above 1e-9) finished by bisection of
    F(H) = base + delta_eff(omega(H)) x^2 / 2 - H on the bracket set by the
    sampled delta_eff values d_span."""
    omega = np.full(base.shape, seed_frequency(p))

    def d_eff_of(om):
        return effective_coeffs(p, om).delta_eff

    def H_of(om):
        return base + 0.5 * d_eff_of(om) * x * x

    for _ in range(60):
        omega_new = table.lookup_bridged(H_of(omega))
        if np.max(np.abs(omega_new - omega)) <= 1e-12:
            omega = omega_new
            break
        omega = 0.5 * (omega + omega_new)
    resid = np.abs(table.lookup_bridged(H_of(omega)) - omega)
    bad = resid > 1e-9
    if np.any(bad):
        xb = x[bad]
        bb = base[bad]
        lo = bb + 0.5 * d_span.min() * xb * xb - 1e-9
        hi = bb + 0.5 * d_span.max() * xb * xb + 1e-9

        def F(Hq):
            om = table.lookup_bridged(Hq)
            return bb + 0.5 * d_eff_of(om) * xb * xb - Hq

        flo = F(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = F(mid)
            same = np.sign(fm) == np.sign(flo)
            lo = np.where(same, mid, lo)
            flo = np.where(same, fm, flo)
            hi = np.where(same, hi, mid)
        omega[bad] = table.lookup_bridged(0.5 * (lo + hi))
    return omega


@dataclass(frozen=True)
class _Fields:
    """Self-consistent energy and frequency over an (x, v) grid; the
    memoized fields of _fields_for also hold the squared voltage map."""

    x: np.ndarray
    v: np.ndarray
    X: np.ndarray
    V: np.ndarray
    H: np.ndarray
    omega: np.ndarray
    ec: EffectiveCoeffs
    volt_sq: np.ndarray | None = None


def _grid_fields(p: SystemParams, grid: GridSpec) -> _Fields:
    """The fields of _self_consistent_fields over the grid's lattice.

    They are even in x and in v, so they are solved once per distinct
    (|x|, |v|) pair, 101 x 101 points of the symmetric 201 x 201 default
    grid, and gathered back onto the lattice by one take per axis: mirrored
    points share one root by construction.
    """
    x, v = grid.axes()
    ax, ix = np.unique(np.abs(x), return_inverse=True)
    av, iv = np.unique(np.abs(v), return_inverse=True)
    AX, AV = np.meshgrid(ax, av, indexing="ij")
    H, omega, ec = _self_consistent_fields(p, AX, AV, _table_for(p, grid))

    def gather(a):
        return a.take(ix, axis=0).take(iv, axis=1)

    omega = gather(omega)
    ec = EffectiveCoeffs(gather(ec.beta_eff), gather(ec.delta_eff), omega)
    X, V = np.meshgrid(x, v, indexing="ij")
    return _Fields(x, v, X, V, gather(H), omega, ec)


def _squared_voltage(p: SystemParams, f: _Fields) -> np.ndarray:
    """The voltage map over the fields' grid, squared.

    The oscillation center X* per grid point follows the regime rule: above the
    saddle energy the center is 0; below it, the minimum of the effective
    potential on the side of the current displacement.  The effective minimum
    (not the bare equilibrium) is the center the density actually oscillates
    around, so using it keeps the voltage map consistent with the joint SPD.
    """
    H, omega, X, V = f.H, f.omega, f.X, f.V
    x_min = well_minimum(p, p.delta1 - f.ec.delta_eff)
    xstar = np.where(H >= 0.0, 0.0, np.where(X >= 0.0, x_min, -x_min))
    den = p.alpha**2 + omega**2
    volt = omega**2 / den * (X - xstar) + p.alpha / den * V
    return volt * volt


@functools.lru_cache(maxsize=1)
def _fields_for(p: SystemParams, grid: GridSpec) -> _Fields:
    """_grid_fields and their squared voltage map, memoized for the last
    (system, grid) pair: neither depends on the noise, so cells of one system
    run one after another (as a sweep groups them) solve them once.  Their
    arrays are read-only, so the shared fields cannot be changed by a caller."""
    f = _grid_fields(p, grid)
    f = replace(f, volt_sq=_squared_voltage(p, f))
    ec = f.ec
    for arr in (
        f.x, f.v, f.X, f.V, f.H, f.omega, f.volt_sq,
        ec.beta_eff, ec.delta_eff, ec.omega,
    ):
        arr.flags.writeable = False
    return f


def _joint_density(noise: NoiseParams, f: _Fields):
    """Joint density on the fields' grid, trapezoid-normalized to 1, and its
    normalization constant N0."""
    noise.require_positive_intensity()
    chi, beta_chi = colored_noise_factors(f.ec, noise.c)
    ln_raw = np.log(chi / noise.D) - beta_chi / noise.D * f.H
    M = ln_raw.max()
    scaled = np.exp(ln_raw - M)
    Z_scaled = np.trapezoid(np.trapezoid(scaled, f.v, axis=1), f.x)
    values = scaled / Z_scaled
    ln_norm = -(M + math.log(Z_scaled))  # log of N0
    return values, math.exp(ln_norm) if ln_norm > -700 else 0.0


def joint_spd(
    p: SystemParams,
    noise: NoiseParams,
    grid: GridSpec | None = None,
) -> DensityField:
    """Joint stationary density of displacement and velocity (forcing frozen at 0).

    The grid expands, up to five times, until the boundary density falls
    below 1e-12 of the peak, so normalization captures the tails.  The fields
    of each grid are solved afresh, not through _fields_for, so the expansion
    keeps no earlier grid alive and squares no voltage map.
    """
    if grid is None:
        grid = GridSpec()
    for _ in range(6):
        f = _grid_fields(p, grid)
        vals, norm_const = _joint_density(noise, f)
        boundary = max(
            vals[0, :].max(), vals[-1, :].max(), vals[:, 0].max(), vals[:, -1].max()
        )
        if boundary < 1e-12 * vals.max():
            return DensityField(f.x, f.v, vals, norm_const)
        sx = 0.2 * (grid.x_max - grid.x_min)
        sv = 0.2 * (grid.v_max - grid.v_min)
        grid = GridSpec(
            grid.x_min - sx, grid.x_max + sx, int(grid.nx * 1.4) | 1,
            grid.v_min - sv, grid.v_max + sv, int(grid.nv * 1.4) | 1,
        )
    raise ConvergenceError("grid expansion did not contain the density tails")


def effective_generalized_potential(x, v, p: SystemParams, noise: NoiseParams):
    """Generalized potential whose Boltzmann-like factor exp(-U/D) gives the SPD."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    xm = max(1.0, float(np.max(np.abs(x))))
    vm = max(1.0, float(np.max(np.abs(v))))
    table = _table_for(p, GridSpec(-xm, xm, 32, -vm, vm, 32))
    H, _, ec = _self_consistent_fields(p, x, v, table)
    out = colored_noise_factors(ec, noise.c)[1] * H
    return float(out[0]) if out.size == 1 else out


def mean_square_voltage(
    p: SystemParams, noise: NoiseParams, grid: GridSpec | None = None
) -> float:
    """E[V^2]: voltage map squared (_squared_voltage), integrated against the
    joint SPD."""
    if grid is None:
        grid = GridSpec()
    f = _fields_for(p, grid)
    values, _ = _joint_density(noise, f)
    integrand = f.volt_sq * values
    return float(np.trapezoid(np.trapezoid(integrand, f.v, axis=1), f.x))


def mean_power(
    p: SystemParams, noise: NoiseParams, grid: GridSpec | None = None
) -> float:
    """Mean harvested power kappa * alpha * E[V^2]."""
    return harvested_power(p, mean_square_voltage(p, noise, grid))
