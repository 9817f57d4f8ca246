"""Energy-dependent period and frequency of the effective double-well oscillator.

The effective stiffness correction depends on the oscillation frequency, which in
turn depends on the energy through the orbit period, so the frequency at a given
energy is obtained by a damped-secant fixed-point iteration, run elementwise
over an array of energies (_fixed_point, which also solves the self-consistent
(x, v) fields of averaging).  The period of the frozen quartic well is a closed
form in the complete elliptic integral K, evaluated by the arithmetic-geometric
mean.  A tabulated version, one piecewise cubic over both branches, serves the
grid-heavy consumers.  The module needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BistabilityLossError,
    ConvergenceError,
    EnergyRangeError,
    ParameterError,
    SeparatrixBandError,
)
from .model import (
    MotionRegime, SystemParams, seed_frequency, stiffness_margin, well_bottom,
    well_depth, well_minimum,
)

# Relative half-width of the band around the separatrix (H = 0) excluded from
# all frequency evaluation; the period diverges logarithmically at H = 0.
BAND_FRACTION = 1e-4

_DEGENERATE_GAP = 1e-13  # orbit treated as harmonic when (H - U_min) is this small

# Relative accuracy to which the fixed Gauss-Legendre rule over
# _orbit_points is held against the closed-form period, from the well bottom
# to the band edges and up to the table top.
_ORBIT_REL_TOL = 1e-12

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Newton steps of _leggauss: from Tricomi's estimate a root is at machine
# precision after three.
_NEWTON_STEPS = 4


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of even order n, mapped to [0, pi/2].

    Newton's method on P_n from Tricomi's estimate of each positive root,
    with P_n and P_n' from the three-term recurrence, then the weights
    2 / ((1 - x^2) P_n'(x)^2); the negative roots mirror the positive ones
    (Abramowitz & Stegun 25.4.29).
    """
    if n not in _leggauss_cache:
        k = np.arange(1, n // 2 + 1)
        x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(_NEWTON_STEPS):
            p, dp = _legendre(n, x)
            x = x - p / dp
        _, dp = _legendre(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes = np.concatenate((-x, x[::-1]))
        weights = np.concatenate((w, w[::-1]))
        _leggauss_cache[n] = (0.25 * math.pi * (nodes + 1.0), 0.25 * math.pi * weights)
    return _leggauss_cache[n]


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@dataclass(frozen=True)
class TurningPoints:
    """Ends x_a <= x_b of the orbit, and the inner root y_in of _level_roots:
    floats, or arrays of the broadcast shape of turning_points' H and omega."""

    x_a: float
    x_b: float
    regime: MotionRegime
    y_in: float


def exclusion_band(p: SystemParams) -> float:
    """Half-width of the excluded energy band, as a fixed fraction of the well depth.

    The well depth is evaluated at the deterministic seed frequency sqrt(2*delta1)
    so the band does not move during fixed-point iteration.
    """
    return BAND_FRACTION * well_depth(p, seed_frequency(p))


def _raise_at_first(bad, H, error: type[Exception], what: str) -> None:
    """Raise error naming the first energy in H at which bad holds."""
    if np.any(bad):
        raise error(f"H={H[bad][0]}: {what}")


def _raise_below_bottom(H, u_min, what: str) -> None:
    """Raise EnergyRangeError where H lies more than _DEGENERATE_GAP *
    max(1, |u_min|) below the well bottom u_min: the one energy-range rule of
    the orbit, the period and the frequency."""
    gap = _DEGENERATE_GAP * np.maximum(1.0, np.abs(u_min))
    _raise_at_first(H - u_min < -gap, H, EnergyRangeError, what)


def _level_roots(H, p: SystemParams, omega, regime: MotionRegime):
    """Stiffness margin a and the roots y_in < y_out of U_eff(x) = H in y = x^2.

    U_eff(x) = H is a quadratic in y = x^2 with roots y_out = (a + s) / delta3
    and y_in = -4H / (a + s), where s = sqrt(a^2 + 4 delta3 H) and
    a = delta1 - delta_eff.  The inner root is the product form of
    (a - s) / delta3, which carries no cancellation when H is near 0.  H and
    omega broadcast; each error names the first offending energy.
    """
    H, a = np.broadcast_arrays(
        np.asarray(H, dtype=float), np.asarray(stiffness_margin(p, omega), dtype=float)
    )
    d3 = p.delta3
    _raise_at_first(a <= 0, H, BistabilityLossError, "bi-stability lost")
    cross = regime is MotionRegime.CROSS_WELL
    _raise_at_first(
        (H <= 0.0) if cross else (H >= 0.0), H, EnergyRangeError,
        f"wrong sign of H for regime {regime.name}",
    )
    if not cross:
        _raise_below_bottom(
            H, well_bottom(p, a), f"below the well-bottom energy of regime {regime.name}"
        )
    s = np.sqrt(np.maximum(a * a + 4.0 * d3 * H, 0.0))
    return a, -4.0 * H / (a + s), (a + s) / d3


def turning_points(H, p: SystemParams, omega, regime: MotionRegime) -> TurningPoints:
    """Roots of U_eff(x) = H bracketing the accessible interval of the regime:
    the square roots of _level_roots' y_in and y_out.  An orbit within
    _DEGENERATE_GAP of the well bottom collapses onto the minimum.  H and
    omega broadcast; the fields are floats for scalar inputs."""
    a, y_in, y_out = _level_roots(H, p, omega, regime)
    x_b = np.sqrt(y_out)
    if regime is MotionRegime.CROSS_WELL:
        x_a = -x_b
    else:
        u_min = well_bottom(p, a)
        collapsed = H - u_min <= _DEGENERATE_GAP * np.maximum(1.0, np.abs(u_min))
        x_b = np.where(collapsed, well_minimum(p, a), x_b)
        x_a = np.where(collapsed, x_b, np.sqrt(y_in))
        if regime is MotionRegime.LEFT_WELL:
            x_a, x_b = -x_b, -x_a
    if x_b.ndim == 0:
        return TurningPoints(float(x_a), float(x_b), regime, float(y_in))
    return TurningPoints(x_a, x_b, regime, y_in)


def _orbit_points(tp: TurningPoints, delta3: float, theta):
    """Displacement x, speed v >= 0 and dt/dtheta at the nodes theta of one
    pass along the orbit, in a sin^2 substitution.

    In a well the pass runs from x_a to x_b, with x = x_a + (x_b - x_a)
    sin^2(theta).  The turning points are roots of the quartic H - U(x), so
    H - U = (x - x_a)(x_b - x) S(x) with S = delta3/4 (x + x_a)(x + x_b)
    smooth and positive on the orbit; the substitution cancels the first two
    factors, so dt/dtheta = 2 / sqrt(2 S) has no endpoint singularity and no
    cancellation near the well bottom, and an orbit collapsed onto the
    minimum (x_a = x_b) gives dt/dtheta = 2 / sqrt(2a) there: 4 times its
    integral over theta is the harmonic period 2 pi / sqrt(2a).  Across both
    wells the pass is the quarter orbit from 0 to x_b, with x = x_b
    sin^2(theta) and H - U = (x_b - x)(x_b + x) delta3/4 (x^2 - y_in), the
    inner root y_in < 0.  Next to the separatrix the factor x^2 - y_in peaks
    at x = 0, which this pass puts at its end theta = 0, where x is
    quadratic in theta; a fixed Gauss-Legendre order then resolves it (on
    the whole orbit the peak sits inside the interval, and 64 nodes miss
    the period by 20% at the band).  The tp fields broadcast against theta.
    """
    s = np.sin(theta)
    c = np.cos(theta)
    two_q = 0.5 * delta3
    # in-place steps: on the (energies x nodes) arrays of the power, every
    # temporary costs as much as the arithmetic
    if tp.regime is MotionRegime.CROSS_WELL:
        root_b = np.sqrt(tp.x_b)
        x = tp.x_b * (s * s)
        r = x * x
        r -= tp.y_in
        r *= tp.x_b + x
        r *= two_q
        np.sqrt(r, out=r)
        v = root_b * c
        v *= r
        dt = (2.0 * root_b) * s
        dt /= r
        return x, v, dt
    dx = tp.x_b - tp.x_a
    x = dx * (s * s)
    x += tp.x_a
    r = x + tp.x_a
    r *= x + tp.x_b
    r *= two_q
    np.sqrt(r, out=r)
    v = dx * (s * c)
    v *= r
    return x, v, np.divide(2.0, r, out=r)


# Arithmetic-geometric mean steps of _ellipkm1: from p = 5e-324, the smallest
# double, a and b agree to extended precision after 12.
_AGM_STEPS = 14
_HALF_PI = np.arctan(np.longdouble(1.0)) * 2


def _ellipkm1(p):
    """Complete elliptic integral K(m) of the first kind at 1 - m = p.

    K = pi / (2 AGM(1, sqrt(p))) (Abramowitz & Stegun 17.6), iterated in
    numpy's long double for a fixed number of steps, so each element depends
    on its own p alone.  Where long double is the x87 80-bit format (x86-64)
    K is within one ulp of the exact value; in double precision the rounding
    of the steps adds up to a few ulp.  K = inf at p = 0.
    """
    p = np.asarray(p, dtype=float)
    a = np.ones(p.shape, dtype=np.longdouble)
    b = np.sqrt(p.astype(np.longdouble))
    for _ in range(_AGM_STEPS):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.where(p == 0.0, np.inf, (_HALF_PI / a).astype(float))


def period_integral(H, p: SystemParams, omega, regime: MotionRegime):
    """Closed-loop period T(H) = 2 * int dx / sqrt(2H - 2U) over the orbit interval.

    In y = x^2 the period is a complete elliptic integral of the first kind
    K(m) of the roots y_in < y_out of _level_roots (Byrd & Friedman,
    Handbook of Elliptic Integrals).  In a well
    T = sqrt(8/delta3) K(m) / sqrt(y_out) with 1 - m = y_in / y_out;
    across both wells T = 4 sqrt(2/delta3) K(m) / sqrt(y_out - y_in) with
    1 - m = -y_in / (y_out - y_in).  K = _ellipkm1(1 - m) keeps full precision
    at the separatrix, where K diverges like a logarithm; at the well bottom
    m = 0 gives the harmonic period 2 pi / sqrt(2a).  H and omega broadcast;
    a float is returned for scalar inputs.
    """
    _, y_in, y_out = _level_roots(H, p, omega, regime)
    if regime is MotionRegime.CROSS_WELL:
        span = y_out - y_in
        T = 4.0 * math.sqrt(2.0 / p.delta3) * _ellipkm1(-y_in / span) / np.sqrt(span)
    else:
        # within _DEGENERATE_GAP of the bottom rounding can put y_in above y_out
        ratio = np.minimum(y_in / y_out, 1.0)
        T = math.sqrt(8.0 / p.delta3) * _ellipkm1(ratio) / np.sqrt(y_out)
    return float(T) if T.ndim == 0 else T


# Damped-secant fixed point of _fixed_point: damping of the fallback step,
# tolerance on the step, and solve_frequency's iteration cap.
_ETA = 0.5
_TOL = 1e-10
_MAX_ITER = 200


def _fixed_point(g, seed: float, size: int, max_iter: int):
    """Elementwise fixed point of omega = g(omega, idx) over size elements.

    g maps the iterates omega of the elements idx still iterating to their
    images.  Every element is seeded at seed and takes secant steps on the
    residual g - omega, falling back to the damped update
    omega + _ETA * residual whenever the secant step misbehaves; it is frozen
    once a step is below _TOL.  Returns the frozen values and the indices
    still iterating after max_iter steps, whose entries hold their last
    iterate.
    """
    out = np.empty(size)
    idx = np.arange(size)  # elements still iterating
    omega = np.full(size, seed)
    omega_prev = resid_prev = None
    for _ in range(max_iter):
        resid = g(omega, idx) - omega
        omega_new = omega + _ETA * resid
        if omega_prev is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = omega - resid * (omega - omega_prev) / (resid - resid_prev)
            secant = (resid != resid_prev) & np.isfinite(cand) & (cand > 0)
            omega_new = np.where(secant, cand, omega_new)
        done = np.abs(omega_new - omega) <= _TOL
        out[idx[done]] = omega_new[done]
        keep = ~done
        idx = idx[keep]
        omega, omega_prev, resid_prev = omega_new[keep], omega[keep], resid[keep]
        if idx.size == 0:
            break
    out[idx] = omega
    return out, idx


def solve_frequency(H, p: SystemParams, regime: MotionRegime):
    """Fixed point of omega -> 2*pi / T(H; delta_eff(omega)) at each energy H.

    One _fixed_point over the energies, seeded at sqrt(2*delta1) and capped at
    _MAX_ITER steps.  Returns a float for scalar H, else an array of H's
    shape.  Raises inside the separatrix exclusion band, on bi-stability loss
    at any iterate, when the iteration cap is exhausted, and when H lies below
    the self-consistent well bottom.  Each error names the first offending
    energy.
    """
    H = np.asarray(H, dtype=float)
    band = exclusion_band(p)
    _raise_at_first(
        np.abs(H) < band, H, SeparatrixBandError,
        f"inside the separatrix exclusion band (+-{band:.6g})",
    )
    well = regime is not MotionRegime.CROSS_WELL
    h = H.ravel()

    def frequency(omega, idx):
        a = stiffness_margin(p, omega)
        _raise_at_first(
            a <= 0, h[idx], BistabilityLossError, "bi-stability lost mid-iteration"
        )
        h_eval = h[idx]
        if well:
            # a transient iterate that puts the bottom above H is treated as a
            # collapsed orbit: the bottom's period is the harmonic one
            h_eval = np.maximum(h_eval, well_bottom(p, a))
        return 2.0 * math.pi / period_integral(h_eval, p, omega, regime)

    out, stuck = _fixed_point(frequency, seed_frequency(p), h.size, _MAX_ITER)
    if stuck.size:
        raise ConvergenceError(
            f"H={h[stuck][0]}: frequency iteration did not converge for {regime.name}"
        )
    if well:
        _raise_below_bottom(
            h, well_bottom(p, stiffness_margin(p, out)),
            "below the self-consistent well bottom",
        )
    return float(out[0]) if H.ndim == 0 else out.reshape(H.shape)


def bottom_frequency(p: SystemParams) -> float:
    """Self-consistent small-oscillation frequency at the well bottom: the
    damped fixed point of omega -> sqrt(2a), stopped at a step of 1e-12."""
    omega = seed_frequency(p)
    for _ in range(200):
        a = stiffness_margin(p, omega)
        if a <= 0:
            raise BistabilityLossError(f"bi-stability lost at omega={omega}")
        omega_new = 0.5 * omega + 0.5 * math.sqrt(2.0 * a)
        if abs(omega_new - omega) <= 1e-12:
            return omega_new
        omega = omega_new
    raise ConvergenceError("well-bottom frequency iteration did not converge")


def _pchip_slopes(H: np.ndarray, om: np.ndarray) -> np.ndarray:
    """Knot slopes of the monotone cubic through (H, om), as
    scipy.interpolate.PchipInterpolator sets them (Fritsch & Butland 1984):
    the weighted harmonic mean of the neighbouring secants inside, 0 where
    they differ in sign or one is 0, and the one-sided three-point rule at
    the ends (Moler, Numerical Computing with MATLAB, 3.6)."""
    h = np.diff(H)
    m = np.diff(om) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.empty_like(om)
    d[1:-1] = np.where(flat, 0.0, inner)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class FrequencyTable:
    """Tabulated omega(H) per motion regime, read through one piecewise cubic.

    The single-well branch covers H in [H_neg[0], -band] (left and right wells are
    symmetric); the cross-well branch covers [band, H_pos[-1]], where
    band = H_pos[0] = -H_neg[-1] is the exclusion band's half-width.  The cubic
    runs over the knots concat(H_neg, H_pos): each branch is its monotone cubic
    (_pchip_slopes) and the segment [-band, band] across the band is the
    straight line between omega_neg[-1] and omega_pos[0].  coeffs[:, k]
    holds segment k's (c0, c1, c2, c3) in s = H - knots[k], so that
    omega = c0 s^3 + c1 s^2 + c2 s + c3.
    """

    H_neg: np.ndarray
    omega_neg: np.ndarray
    H_pos: np.ndarray
    omega_pos: np.ndarray
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only copies: one table may be shared by many consumers
        for name in ("H_neg", "omega_neg", "H_pos", "omega_pos"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        H = np.concatenate((self.H_neg, self.H_pos))
        om = np.concatenate((self.omega_neg, self.omega_pos))
        d = np.concatenate(
            (_pchip_slopes(self.H_neg, self.omega_neg),
             _pchip_slopes(self.H_pos, self.omega_pos))
        )
        # cubic Hermite segments, term for term as scipy's CubicHermiteSpline
        h = np.diff(H)
        secant = np.diff(om) / h
        t = (d[:-1] + d[1:] - 2 * secant) / h
        coeffs = np.stack((t / h, (secant - d[:-1]) / h - t, d[:-1], om[:-1]))
        bridge = self.H_neg.size - 1
        coeffs[:, bridge] = (0.0, 0.0, secant[bridge], om[bridge])
        for name, arr in (("knots", H), ("coeffs", coeffs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def lookup_bridged(self, H):
        """Vectorized omega(H) with the exclusion band bridged linearly.

        Energies below the deepest tabulated sample clamp to the deepest value
        (the frequency is flat at the well bottom); energies above the cross-well
        table range are an error.  Each segment is closed on the left, the
        last one on both ends, and is evaluated in the term order of scipy's
        PPoly.  The field solve (averaging._self_consistent_fields) iterates
        on it.
        """
        H = np.atleast_1d(np.asarray(H, dtype=float))
        knots = self.knots
        if np.any(H > knots[-1]):
            raise EnergyRangeError(
                f"energy above table range {knots[-1]}: max requested {H.max()}"
            )
        Hc = np.maximum(H, knots[0])
        k = np.minimum(np.searchsorted(knots, Hc, side="right") - 1, knots.size - 2)
        s = Hc - knots[k]
        c0, c1, c2, c3 = (c[k] for c in self.coeffs)
        s2 = s * s
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


# Samples per branch of build_table.
_TABLE_SAMPLES = 96


def build_table(
    p: SystemParams, H_range: tuple[float, float] | None = None
) -> FrequencyTable:
    """Tabulate solve_frequency on log-spaced |H| grids on both sides of the band.

    The default range runs from just above the self-consistent well bottom to
    50 well depths.
    """
    band = exclusion_band(p)
    if H_range is None:
        depth = well_depth(p, bottom_frequency(p))
        H_min, H_max = -depth * (1.0 - 1e-6), 50.0 * depth
    else:
        H_min, H_max = H_range
    if H_min >= -band or H_max <= band:
        raise ParameterError(
            f"H_range {H_range} must straddle the exclusion band (+-{band:.6g})"
        )
    H_neg = -np.geomspace(abs(H_min), band, _TABLE_SAMPLES)  # ascending (toward -band)
    H_pos = np.geomspace(band, H_max, _TABLE_SAMPLES)
    omega_neg = solve_frequency(H_neg, p, MotionRegime.RIGHT_WELL)
    omega_pos = solve_frequency(H_pos, p, MotionRegime.CROSS_WELL)
    return FrequencyTable(H_neg, omega_neg, H_pos, omega_pos)
