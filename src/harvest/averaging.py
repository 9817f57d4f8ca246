"""Stochastic averaging of the energy envelope and the stationary response.

The lightly damped effective oscillator reduces to a one-dimensional Ito
diffusion for the energy; from its stationary density follow the joint
displacement/velocity density, the effective generalized potential, the
mean-square harvested voltage and the mean output power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, SeparatrixBandError
from .freq import (
    FrequencyTable, _fixed_point, _leggauss, _orbit_points, bottom_frequency,
    build_table, exclusion_band, solve_frequency, turning_points,
)
from .model import (
    EffectiveCoeffs, MotionRegime, NoiseParams, SystemParams, bare_potential,
    colored_noise_factors, effective_coeffs, harvested_power,
    seed_frequency, stiffness_margin, well_depth, well_minimum,
)


@dataclass(frozen=True)
class DriftDiffusion:
    """Averaged drift m(H) and diffusion sigma^2(H) of the energy envelope:
    floats, or arrays of drift_diffusion's H."""

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


def loop_average(f, H, p: SystemParams, regime: MotionRegime, omega=None):
    """Time average (omega/2pi) * loop-integral of f(x, v)/|v| dx at energies H.

    omega defaults to the self-consistent frequency at H; passing omega
    evaluates the orbit in the frozen potential delta_eff(omega).  H and
    omega broadcast, and a scalar call runs as the one-element array call, so
    both give the same bits.  The loop integral is the power's fixed rule:
    _ORBIT_NODES-point Gauss-Legendre over the pass of _orbit_points, with f
    at (x, v) and (x, -v), and across both wells at (-x, +-v) too.  f must
    accept array x and signed array v and return an array.  On an orbit that
    turning_points collapsed onto the well minimum it is omega / sqrt(2a)
    times f there, with a the stiffness margin: the limit of the open orbit,
    whose period tends to the harmonic 2 pi / sqrt(2a).
    """
    if omega is None:
        omega = solve_frequency(H, p, regime)
    H, omega = np.broadcast_arrays(
        np.asarray(H, dtype=float), np.asarray(omega, dtype=float)
    )
    om = omega.reshape(-1, 1)
    tp = turning_points(H.reshape(-1, 1), p, om, regime)
    theta, w = _leggauss(_ORBIT_NODES)
    x, v, dt = _orbit_points(tp, p.delta3, theta)
    total = f(x, v) + f(x, -v)
    if regime is MotionRegime.CROSS_WELL:
        total = total + f(-x, v) + f(-x, -v)
    avg = om / (2.0 * math.pi) * np.sum(w * (dt * total), axis=1, keepdims=True)
    scale = om / np.sqrt(2.0 * stiffness_margin(p, om))
    at_min = scale * f(tp.x_a, np.zeros_like(tp.x_a))
    out = np.where(tp.x_a == tp.x_b, at_min, avg).reshape(H.shape)
    return float(out) if out.ndim == 0 else out


def drift_diffusion(
    H, p: SystemParams, noise: NoiseParams, regime: MotionRegime
) -> DriftDiffusion:
    """Averaged drift and diffusion of the energy envelope at energies H:
    one solve_frequency, one effective_coeffs and one loop_average over the
    array, floats for scalar H.

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
    the grid base and normalized over the grid.  The drift and diffusion are
    one drift_diffusion call per regime: the grid's negative energies in a
    well, its positive ones across both.  The grid must avoid the separatrix
    exclusion band.
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
    for regime, part in (
        (MotionRegime.RIGHT_WELL, H_grid < 0), (MotionRegime.CROSS_WELL, H_grid > 0)
    ):
        dd = drift_diffusion(H_grid[part], p, noise, regime)
        ratio[part] = 2.0 * dd.m / dd.sigma2
        ln_s2[part] = np.log(dd.sigma2)
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

    It is built once per field solve, and once per _energy_nodes.
    """
    d_eff = effective_coeffs(p, seed_frequency(p)).delta_eff
    xm = max(abs(grid.x_min), abs(grid.x_max))
    vm = max(abs(grid.v_min), abs(grid.v_max))
    H_corner = 0.5 * vm**2 + bare_potential(xm, p) + 0.5 * abs(d_eff) * xm**2
    depth = well_depth(p, bottom_frequency(p))
    H_max = max(2.0 * H_corner, 0.5 * vm**2 * 2.0, 10.0 * depth)
    return build_table(p, H_range=(-depth * (1.0 - 1e-6), H_max))


# Iteration cap of the field solve's fixed point: a point still iterating
# there is bisected.
_FIELD_MAX_ITER = 40
# A point whose fixed-point residual |omega(H) - omega| exceeds this is bisected.
_FIELD_RESID_TOL = 1e-9
# Halvings of _bisected_fields: they shrink the bracket by 5e-20, to adjacent
# doubles, since its ends are frequencies of order 1.
_BISECTIONS = 64


def _self_consistent_fields(
    p: SystemParams,
    X: np.ndarray,
    V: np.ndarray,
    table: FrequencyTable,
):
    """Per-point energy and frequency: the root of
    F(H) = B + delta_eff(omega(H)) x^2 / 2 - H, with omega(H) from
    table.lookup_bridged and B = v^2/2 - delta1 x^2/2 + delta3 x^4/4.

    The frequency is the fixed point of
    omega -> table.lookup_bridged(B + delta_eff(omega) x^2 / 2), found by
    solve_frequency's iteration (freq._fixed_point) from sqrt(2 delta1),
    capped at _FIELD_MAX_ITER steps.  Near the separatrix, where omega(H) is
    steep, a point can have several self-consistent energies; it gets the
    one the iteration reaches from that seed.  A point that does not settle
    within the cap, or whose residual |omega(H) - omega| exceeds
    _FIELD_RESID_TOL, is bisected (_bisected_fields).
    """
    shape = X.shape
    # B = v^2/2 + U_bare(x), the energy without the frequency correction
    base = np.broadcast_to(0.5 * V * V + bare_potential(X, p), shape).ravel()
    x = np.asarray(X, dtype=float).ravel()

    def frequency(omega, idx):
        xi = x[idx]
        d_eff = effective_coeffs(p, omega).delta_eff
        return table.lookup_bridged(base[idx] + 0.5 * d_eff * xi * xi)

    flat, stuck = _fixed_point(frequency, seed_frequency(p), base.size, _FIELD_MAX_ITER)
    omega = flat.reshape(shape)  # a view: bisected points are written through flat
    ec = effective_coeffs(p, omega)
    H = base + 0.5 * ec.delta_eff.ravel() * x * x
    bad = np.abs(table.lookup_bridged(H) - flat) > _FIELD_RESID_TOL
    bad[stuck] = True
    if np.any(bad):
        flat[bad] = _bisected_fields(p, base[bad], x[bad], table)
        ec = effective_coeffs(p, omega)
        H = base + 0.5 * ec.delta_eff.ravel() * x * x
    return H.reshape(shape), omega, ec


def _bisected_fields(p, base, x, table):
    """omega at a root of G(omega) = omega(B + delta_eff(omega) x^2 / 2) - omega,
    with omega(H) from table.lookup_bridged, by _BISECTIONS halvings of the
    table's frequency range.  The lookup stays within that range, so G >= 0
    at its bottom and G <= 0 at its top: the bracket always holds a root."""
    lo = np.full(base.shape, min(table.omega_neg.min(), table.omega_pos.min()))
    hi = np.full(base.shape, max(table.omega_neg.max(), table.omega_pos.max()))
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        d_eff = effective_coeffs(p, mid).delta_eff
        up = table.lookup_bridged(base + 0.5 * d_eff * x * x) > mid
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class _Fields:
    """Self-consistent energy and frequency over an (x, v) grid."""

    x: np.ndarray
    v: np.ndarray
    X: np.ndarray
    V: np.ndarray
    H: np.ndarray
    omega: np.ndarray
    ec: EffectiveCoeffs


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
    of each grid are solved afresh, so the expansion keeps no earlier grid
    alive.
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


# Clenshaw-Curtis intervals of the energy rule per knot interval of the
# frequency table; the nested half rule, every other node, has half as many.
# With 8 the half rule moves <V^2> by at most 1e-5 on the benchmark's system
# for D from 1e-3 to 0.1, and the full rule by at most 1e-11.
_ENERGY_INTERVALS = 8
# Gauss-Legendre nodes in theta of the orbit moments and of loop_average.
# Next to the band they give the cross-well period to 4e-13 (64 leave 1e-10),
# the in-well one to 1e-15.
_ORBIT_NODES = 80
# A power whose rel_err, band_share or top_share (PowerAccuracy) exceeds
# this is flagged in its .meta.json.
POWER_REL_TOL = 1e-3


@functools.cache
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes -cos(j pi / n), ascending, and weights on
    [-1, 1] for even n (Trefethen, SIAM Rev. 50, 67, 2008); the rule for n/2
    takes every other node."""
    theta = np.pi * np.arange(n + 1) / n
    k = np.arange(1, n // 2 + 1)
    b = np.where(2 * k == n, 1.0, 2.0)
    w = 1.0 - (b / (4.0 * k * k - 1.0)) @ np.cos(2.0 * np.outer(k, theta))
    w *= np.where((theta == 0) | (theta == np.pi), 1.0, 2.0) / n
    return -np.cos(theta), w


def _energy_rule(knots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, in the knots' order, and the dH weights of the composite
    _ENERGY_INTERVALS-interval Clenshaw-Curtis rule in u = ln|H| over each
    interval of the log-spaced knots of one table branch, and of its nested
    half rule (0 at the nodes it skips).  Neighbouring intervals share their
    end node, which is the knot itself."""
    n = _ENERGY_INTERVALS
    t, w = _clenshaw_curtis(n)
    w_half = np.zeros(n + 1)
    w_half[::2] = _clenshaw_curtis(n // 2)[1]
    u = np.log(np.abs(knots))
    half = 0.5 * np.diff(u)
    H = np.copysign(np.exp(u[:-1, None] + half[:, None] * (1.0 + t[:-1])), knots[0])
    H = np.append(H.ravel(), knots[-1])
    H[::n] = knots
    weights = np.zeros((2, H.size))
    for row, rule in zip(weights, (w, w_half)):
        per_interval = np.outer(np.abs(half), rule)  # node j of interval i is n*i + j
        row[:-1] += per_interval[:, :-1].ravel()
        row[n::n] += per_interval[:, -1]
    weights *= np.abs(H)
    return H, weights[0], weights[1]


@dataclass(frozen=True)
class _EnergyNodes:
    """The energy rule of one system with each node's orbit quantities, in-well
    nodes first.  weight and half are the dH weights of the full and of the
    nested half rule (0 off its nodes); period and volt_sq are T and
    loop-integral volt^2 dt summed over the orbits at the energy (both wells
    below the separatrix)."""

    H: np.ndarray
    weight: np.ndarray
    half: np.ndarray
    ec: EffectiveCoeffs  # at each node's frequency
    period: np.ndarray
    volt_sq: np.ndarray
    split: int  # the first cross-well node, at +band; the one before is at -band

    @property
    def omega(self) -> np.ndarray:
        return self.ec.omega

    @property
    def beta_eff(self) -> np.ndarray:
        return self.ec.beta_eff


def _orbit_moments(p: SystemParams, H, omega, regime: MotionRegime):
    """T and loop-integral (x - x*)^2 dt and v^2 dt of the frozen orbits at
    energies H (arrays) by _ORBIT_NODES-point Gauss-Legendre over the passes
    of _orbit_points, as (energies x nodes) arrays; x* is the right well's
    minimum in a well and 0 across both wells.  Every orbit is four passes:
    down and up in each well (the left well mirrors the right one), or its
    four quarters."""
    H, omega = H[:, None], omega[:, None]
    theta, w = _leggauss(_ORBIT_NODES)
    x, v, dt = _orbit_points(turning_points(H, p, omega, regime), p.delta3, theta)
    if regime is not MotionRegime.CROSS_WELL:
        x -= well_minimum(p, stiffness_margin(p, omega))
    x *= x
    x *= dt
    v *= v
    v *= dt
    return 4.0 * (dt @ w), 4.0 * (x @ w), 4.0 * (v @ w)


@functools.lru_cache(maxsize=1)
def _energy_nodes(p: SystemParams, grid: GridSpec) -> _EnergyNodes:
    """The energy rule and its orbit quantities over _table_for(p, grid)'s
    energies, memoized for the last (system, grid) pair: nothing here depends
    on the noise, so cells of one system run one after another (as a sweep
    groups them) build it once.  Its arrays are read-only.

    Each branch of the table is log-spaced, so the nodes are the
    _ENERGY_INTERVALS-interval Clenshaw-Curtis rule on each knot interval in
    u = ln|H| (_energy_rule), over the table's range: from its deepest knot,
    1e-6 of the depth above the well bottom, up to the band edge -band, and
    from +band up to the table top.  In u the integrands are smooth up to
    the band edges, where the period diverges like ln|H|, and omega(H) is
    one cubic per interval.  The band |H| < band itself is left out.
    omega is read through the table, and the moments are taken at frozen
    omega (_orbit_moments).
    """
    table = _table_for(p, grid)
    parts = []
    for regime, knots in (
        (MotionRegime.RIGHT_WELL, table.H_neg), (MotionRegime.CROSS_WELL, table.H_pos)
    ):
        H, weight, half = _energy_rule(knots)
        omega = table.lookup_bridged(H)
        ec = effective_coeffs(p, omega)
        period, x2, v2 = _orbit_moments(p, H, omega, regime)
        den = p.alpha**2 + omega**2
        volt_sq = (omega**2 / den) ** 2 * x2 + (p.alpha / den) ** 2 * v2
        parts.append(
            (H, weight, half, period, volt_sq, ec.beta_eff, ec.delta_eff, ec.omega)
        )
    arrays = [np.concatenate(a) for a in zip(*parts)]
    for arr in arrays:
        arr.flags.writeable = False
    H, weight, half, period, volt_sq, *ec = arrays
    return _EnergyNodes(
        H, weight, half, EffectiveCoeffs(*ec), period, volt_sq, split=parts[0][0].size
    )


@dataclass(frozen=True)
class PowerAccuracy:
    """How far a mean_square_voltage can be trusted.

    rel_err: |<V^2> of the nested half rule / <V^2> - 1|, an upper estimate of
    the energy rule's error.  band_share: the estimated share of the energy
    density's mass in the exclusion band |H| < band, which both integrals
    leave out: the band's width times f T at its two edges, over the total.
    top_share: the estimated share above the table top, where both integrals
    stop: f T at the top node times the density's decay length
    D / (beta_eff chi) there, over the total; inf where the density does not
    decay at the top.
    """

    rel_err: float
    band_share: float
    top_share: float


def _energy_average(p: SystemParams, noise: NoiseParams, grid: GridSpec | None):
    """E[V^2] by the full and by the half rule, and the band and top shares."""
    noise.require_positive_intensity()
    n = _energy_nodes(p, grid or GridSpec())
    chi, beta_chi = colored_noise_factors(n.ec, noise.c)
    ln_f = np.log(chi) - beta_chi / noise.D * n.H
    f = np.exp(ln_f - ln_f.max())
    ft = f * n.period
    Z = n.weight @ ft
    msv = (n.weight @ (f * n.volt_sq)) / Z
    msv_half = (n.half @ (f * n.volt_sq)) / (n.half @ ft)
    band_share = n.H[n.split] * (ft[n.split - 1] + ft[n.split]) / Z
    decay = beta_chi[-1] / noise.D
    top_share = ft[-1] / decay / Z if decay > 0 else math.inf
    return msv, msv_half, band_share, top_share


def mean_square_voltage(
    p: SystemParams, noise: NoiseParams, grid: GridSpec | None = None
) -> float:
    """E[V^2] by stochastic averaging, as an integral over the energy H:

    E[V^2] = sum over regimes of int f(H) loop-int volt^2 dt dH
             / sum over regimes of int f(H) T(H) dH,

    with the density f(H) = chi exp(-beta_eff chi H / D) of _joint_density,
    chi = 1 + c^2 omega^2, in the averaging measure f(H) dH x dt.  At frozen
    omega(H) the voltage map is volt = omega^2/den (x - x*) + alpha/den v with
    den = alpha^2 + omega^2, so loop-int volt^2 dt = (omega^2/den)^2
    loop-int (x - x*)^2 dt + (alpha/den)^2 loop-int v^2 dt: the cross term is
    the loop integral of d(x - x*)^2/2 and vanishes.  x* is the effective
    well minimum +-sqrt(a/delta3) below the separatrix, where the regime
    counts both wells, and 0 above it.  The grid sets only the energy range,
    through _table_for; the nodes and moments are _energy_nodes'.
    """
    return float(_energy_average(p, noise, grid)[0])


def power_accuracy(p: SystemParams, noise: NoiseParams) -> PowerAccuracy:
    """The PowerAccuracy of mean_square_voltage(p, noise), from the same
    memoized nodes."""
    msv, msv_half, band_share, top_share = _energy_average(p, noise, None)
    rel_err = abs(msv_half / msv - 1.0) if msv != 0 else 0.0
    return PowerAccuracy(float(rel_err), float(band_share), float(top_share))


def mean_power(
    p: SystemParams, noise: NoiseParams, grid: GridSpec | None = None
) -> float:
    """Mean harvested power kappa * alpha * E[V^2]."""
    return harvested_power(p, mean_square_voltage(p, noise, grid))
