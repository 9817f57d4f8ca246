"""Energy-dependent period and frequency of the effective double-well oscillator.

The effective stiffness correction depends on the oscillation frequency, which in
turn depends on the energy through the orbit period, so the frequency at a given
energy is obtained by damped fixed-point iteration.  A tabulated version with
monotone cubic interpolation serves the grid-heavy consumers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import roots_legendre

from .errors import (
    BistabilityLossError,
    ConvergenceError,
    EnergyRangeError,
    ParameterError,
    QuadratureError,
    SeparatrixBandError,
)
from .model import MotionRegime, SystemParams, stiffness_margin, well_depth

# Relative half-width of the band around the separatrix (H = 0) excluded from
# all frequency evaluation; the period diverges logarithmically at H = 0.
BAND_FRACTION = 1e-4

_DEGENERATE_GAP = 1e-13  # orbit treated as harmonic when (H - U_min) is this small

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _leggauss_cache:
        nodes, weights = roots_legendre(n)
        # map [-1, 1] -> [0, pi/2]
        theta = 0.25 * math.pi * (nodes + 1.0)
        _leggauss_cache[n] = (theta, 0.25 * math.pi * weights)
    return _leggauss_cache[n]


@dataclass(frozen=True)
class TurningPoints:
    x_a: float
    x_b: float
    regime: MotionRegime


def exclusion_band(p: SystemParams) -> float:
    """Half-width of the excluded energy band, as a fixed fraction of the well depth.

    The well depth is evaluated at the deterministic seed frequency sqrt(2*delta1)
    so the band does not move during fixed-point iteration.
    """
    omega0 = math.sqrt(2.0 * p.delta1)
    return BAND_FRACTION * well_depth(p, omega0)


def turning_points(
    H: float, p: SystemParams, omega: float, regime: MotionRegime
) -> TurningPoints:
    """Roots of U_eff(x) = H bracketing the accessible interval of the regime.

    U_eff(x) = H is a quadratic in y = x^2 with roots y_out = (a + s) / delta3
    and y_in = -4H / (a + s), where s = sqrt(a^2 + 4 delta3 H) and
    a = delta1 - delta_eff.  The inner root is the product form of
    (a - s) / delta3, which carries no cancellation when H is near 0.
    """
    a = stiffness_margin(p, omega)
    if a <= 0:
        raise BistabilityLossError(
            f"bi-stability lost at omega={omega}: delta1 - delta_eff = {a:.6g}"
        )
    d3 = p.delta3

    if regime is MotionRegime.CROSS_WELL:
        if H <= 0.0:
            raise EnergyRangeError(f"cross-well regime requires H > 0, got H={H}")
        x_b = math.sqrt((a + math.sqrt(a * a + 4.0 * d3 * H)) / d3)
        return TurningPoints(-x_b, x_b, regime)

    if H >= 0.0:
        raise EnergyRangeError(f"single-well regime requires H < 0, got H={H}")
    u_min = -a * a / (4.0 * d3)
    gap = H - u_min
    if gap < -_DEGENERATE_GAP * max(1.0, abs(u_min)):
        raise EnergyRangeError(
            f"H={H} below the well-bottom energy {u_min} for regime {regime.name}"
        )
    if gap <= _DEGENERATE_GAP * max(1.0, abs(u_min)):
        x_a = x_b = math.sqrt(a / d3)
    else:
        s = math.sqrt(max(a * a + 4.0 * d3 * H, 0.0))
        x_a = math.sqrt(-4.0 * H / (a + s))
        x_b = math.sqrt((a + s) / d3)
    if regime is MotionRegime.LEFT_WELL:
        x_a, x_b = -x_b, -x_a
    return TurningPoints(x_a, x_b, regime)


def _orbit_integral(
    func,
    H: float,
    a: float,
    delta3: float,
    tp: TurningPoints,
    rel_tol: float = 1e-8,
    max_order: int = 2048,
) -> float:
    """Integral over the closed orbit of [func(x, v) + func(x, -v)] / v dx.

    Uses the substitution x = x_a + (x_b - x_a) sin^2(theta).  The turning points
    are roots of the quartic H - U(x), so that quartic is evaluated in factored
    form: H - U = (x - x_a)(x_b - x) * S(x) with S smooth and positive on the
    orbit.  The substitution cancels the (x - x_a)(x_b - x) factor exactly, so
    the integrand is 2*[func(x,v)+func(x,-v)] / sqrt(2 S(x)) with no endpoint
    singularity and no cancellation near the well bottom.  Gauss-Legendre order
    doubling until the relative change is below rel_tol; near the separatrix the
    integrand has a sharp (bounded) peak and an adaptive quadrature takes over.
    """
    dx = tp.x_b - tp.x_a
    q = 0.25 * delta3
    if tp.regime is MotionRegime.CROSS_WELL:
        # second root of the quartic in x^2 (negative for H > 0)
        y2 = (a - math.sqrt(a * a + 4.0 * delta3 * H)) / delta3

        def smooth_part(x):
            return q * (x * x - y2)

    else:

        def smooth_part(x):
            return q * (x + tp.x_a) * (x + tp.x_b)

    if func is None:  # period integrand: func == 1, both branches identical

        def integrand(theta):
            s = np.sin(theta)
            x = tp.x_a + dx * s * s
            return 4.0 / np.sqrt(2.0 * smooth_part(x))

        def scalar_integrand(theta):
            s = math.sin(theta)
            x = tp.x_a + dx * s * s
            return 4.0 / math.sqrt(2.0 * smooth_part(x))

    else:

        def integrand(theta):
            s = np.sin(theta)
            x = tp.x_a + dx * s * s
            S = smooth_part(x)
            v = dx * s * np.cos(theta) * np.sqrt(2.0 * S)
            return 2.0 * (func(x, v) + func(x, -v)) / np.sqrt(2.0 * S)

        def scalar_integrand(theta):
            return float(integrand(np.array([theta]))[0])

    prev = None
    order = 64
    while order <= max_order:
        theta, w = _leggauss(order)
        val = float(np.sum(w * integrand(theta)))
        if prev is not None and abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
            return val
        prev = val
        order *= 2

    val, err = quad(
        scalar_integrand, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=0.1 * rel_tol,
        limit=500,
    )
    if not math.isfinite(val) or (abs(val) > 0 and err > 10 * rel_tol * abs(val)):
        raise QuadratureError(
            f"orbit quadrature did not reach rel_tol={rel_tol} "
            f"(H={H}, regime={tp.regime.name}, err={err})"
        )
    return val


def period_integral(
    H: float, p: SystemParams, omega: float, regime: MotionRegime
) -> float:
    """Closed-loop period T(H) = 2 * int dx / sqrt(2H - 2U) over the orbit interval."""
    a = stiffness_margin(p, omega)
    if a <= 0:
        raise BistabilityLossError(
            f"bi-stability lost at omega={omega}: delta1 - delta_eff = {a:.6g}"
        )
    tp = turning_points(H, p, omega, regime)
    if tp.x_b - tp.x_a <= 1e-9 * max(1.0, abs(tp.x_b)):
        # collapsed orbit: harmonic limit, curvature U'' = 2a at the minimum
        return 2.0 * math.pi / math.sqrt(2.0 * a)
    return _orbit_integral(None, H, a, p.delta3, tp)


def orbit_average(
    f, H: float, p: SystemParams, omega: float, regime: MotionRegime
) -> float:
    """Time average (omega/2pi) * loop-integral of f(x, v)/|v| dx at energy H.

    f must accept array x and signed array v and return an array.
    """
    a = stiffness_margin(p, omega)
    if a <= 0:
        raise BistabilityLossError(
            f"bi-stability lost at omega={omega}: delta1 - delta_eff = {a:.6g}"
        )
    tp = turning_points(H, p, omega, regime)
    if tp.x_b - tp.x_a <= 1e-9 * max(1.0, abs(tp.x_b)):
        return float(f(np.array([tp.x_a]), np.array([0.0]))[0])
    val = _orbit_integral(f, H, a, p.delta3, tp)
    return omega / (2.0 * math.pi) * val


def solve_frequency(
    H: float,
    p: SystemParams,
    regime: MotionRegime,
    band: float | None = None,
    eta: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 200,
    omega0: float | None = None,
    strict: bool = True,
) -> float:
    """Fixed point of omega -> 2*pi / T(H; delta_eff(omega)), with damping eta.

    Seeded at sqrt(2*delta1) unless a warm start omega0 is given.  Raises inside
    the separatrix exclusion band, on bi-stability loss, or when the iteration
    cap is exhausted.
    """
    if band is None:
        band = exclusion_band(p)
    if abs(H) < band:
        raise SeparatrixBandError(
            f"H={H} inside the separatrix exclusion band (+-{band:.6g})"
        )
    omega = math.sqrt(2.0 * p.delta1) if omega0 is None else omega0

    def implied(om: float) -> float:
        a = stiffness_margin(p, om)
        if a <= 0:
            raise BistabilityLossError(
                f"bi-stability lost mid-iteration at omega={om}"
            )
        if regime is not MotionRegime.CROSS_WELL and H <= -a * a / (4.0 * p.delta3):
            # transient iterate put the bottom above H; treat as a collapsed orbit
            return math.sqrt(2.0 * a)
        return 2.0 * math.pi / period_integral(H, p, om, regime)

    omega_prev = None
    resid_prev = None
    for _ in range(max_iter):
        resid = implied(omega) - omega
        omega_new = omega + eta * resid
        if omega_prev is not None and resid != resid_prev:
            # secant step on the fixed-point residual; fall back to the damped
            # update whenever it misbehaves
            step = -resid * (omega - omega_prev) / (resid - resid_prev)
            cand = omega + step
            if math.isfinite(cand) and cand > 0:
                omega_new = cand
        omega_prev, resid_prev = omega, resid
        if abs(omega_new - omega) <= tol:
            omega = omega_new
            a = stiffness_margin(p, omega)
            if (
                strict
                and regime is not MotionRegime.CROSS_WELL
                and H < -a * a / (4.0 * p.delta3) * (1.0 + 1e-12)
            ):
                raise EnergyRangeError(
                    f"H={H} below the self-consistent well bottom "
                    f"{-a * a / (4.0 * p.delta3)}"
                )
            return omega
        omega = omega_new
    raise ConvergenceError(
        f"frequency iteration did not converge for H={H}, regime={regime.name}"
    )


def bottom_frequency(p: SystemParams, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Self-consistent small-oscillation frequency at the well bottom."""
    omega = math.sqrt(2.0 * p.delta1)
    for _ in range(max_iter):
        a = stiffness_margin(p, omega)
        if a <= 0:
            raise BistabilityLossError(f"bi-stability lost at omega={omega}")
        omega_new = 0.5 * omega + 0.5 * math.sqrt(2.0 * a)
        if abs(omega_new - omega) <= tol:
            return omega_new
        omega = omega_new
    raise ConvergenceError("well-bottom frequency iteration did not converge")


@dataclass(frozen=True)
class FrequencyTable:
    """Tabulated omega(H) per motion regime with monotone cubic interpolation.

    The single-well branch covers H in [H_neg[0], -band] (left and right wells are
    symmetric); the cross-well branch covers [band, H_pos[-1]].
    """

    H_neg: np.ndarray
    omega_neg: np.ndarray
    H_pos: np.ndarray
    omega_pos: np.ndarray
    band: float
    _interp_neg: PchipInterpolator = field(repr=False, compare=False, default=None)
    _interp_pos: PchipInterpolator = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        # read-only copies: one table may be shared by many consumers
        for name in ("H_neg", "omega_neg", "H_pos", "omega_pos"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name, H, om in (
            ("_interp_neg", self.H_neg, self.omega_neg),
            ("_interp_pos", self.H_pos, self.omega_pos),
        ):
            interp = PchipInterpolator(H, om)
            interp.x.flags.writeable = False
            interp.c.flags.writeable = False
            object.__setattr__(self, name, interp)

    def lookup(self, H, regime: MotionRegime):
        """Interpolated omega(H) for the given regime; no extrapolation."""
        H = np.asarray(H, dtype=float)
        if regime is MotionRegime.CROSS_WELL:
            lo, hi, interp = self.H_pos[0], self.H_pos[-1], self._interp_pos
        else:
            lo, hi, interp = self.H_neg[0], self.H_neg[-1], self._interp_neg
        if np.any(H < lo) or np.any(H > hi):
            bad = H[(np.asarray(H) < lo) | (np.asarray(H) > hi)]
            raise EnergyRangeError(
                f"energy outside table range [{lo}, {hi}] for {regime.name}: "
                f"{np.atleast_1d(bad)[:5]}"
            )
        out = interp(H)
        return float(out) if out.ndim == 0 else out

    def lookup_bridged(self, H, slope: bool = False):
        """Vectorized omega(H) with the exclusion band bridged linearly.

        Energies below the deepest tabulated sample clamp to the deepest value
        (the frequency is flat at the well bottom); energies above the cross-well
        table range are an error.  With slope=True the pair (omega, d omega/dH)
        is returned: the PCHIP derivative on the tabulated branches, the
        bridge's constant slope in the band and 0 below the clamp.
        """
        H = np.atleast_1d(np.asarray(H, dtype=float))
        if np.any(H > self.H_pos[-1]):
            raise EnergyRangeError(
                f"energy above table range {self.H_pos[-1]}: max requested {H.max()}"
            )
        out = np.empty_like(H)
        d = np.zeros_like(H) if slope else None
        neg = H <= -self.band
        pos = H >= self.band
        mid = ~(neg | pos)
        if np.any(neg):
            Hn = H[neg]
            Hc = np.clip(Hn, self.H_neg[0], None)
            out[neg] = self._interp_neg(Hc)
            if slope:
                d[neg] = np.where(Hn < self.H_neg[0], 0.0, self._interp_neg(Hc, 1))
        if np.any(pos):
            out[pos] = self._interp_pos(H[pos])
            if slope:
                d[pos] = self._interp_pos(H[pos], 1)
        if np.any(mid):
            w_lo = float(self.omega_neg[-1])
            w_hi = float(self.omega_pos[0])
            t = (H[mid] + self.band) / (2.0 * self.band)
            out[mid] = w_lo + (w_hi - w_lo) * t
            if slope:
                d[mid] = (w_hi - w_lo) / (2.0 * self.band)
        return (out, d) if slope else out

    def slope_bound(self, lo, hi):
        """Upper bound on |d omega/dH| of lookup_bridged over each [lo, hi].

        On a PCHIP segment with end slopes d0, d1 and secant s the cubic's
        derivative is d0 (1 - 4t + 3t^2) + d1 (3t^2 - 2t) + 6 s t (1 - t) for
        t in [0, 1], so it is bounded by |d0| + |d1| + 1.5 |s|.  The bridge
        has its own constant slope and the clamp below the table has slope 0.
        """
        knots = np.concatenate((self.H_neg, self.H_pos))
        seg = []
        for H, om, interp in (
            (self.H_neg, self.omega_neg, self._interp_neg),
            (self.H_pos, self.omega_pos, self._interp_pos),
        ):
            d = np.abs(interp(H, 1))
            seg.append(d[:-1] + d[1:] + 1.5 * np.abs(np.diff(om) / np.diff(H)))
        bridge = abs(self.omega_pos[0] - self.omega_neg[-1]) / (
            self.H_pos[0] - self.H_neg[-1]
        )
        seg = np.concatenate((seg[0], [bridge], seg[1]))  # one per knot interval
        # row i holds the running maximum of seg[i:], so [i, j] is max(seg[i:j+1])
        run = np.maximum.accumulate(
            np.triu(np.broadcast_to(seg, (seg.size, seg.size))), axis=1
        )
        i = np.clip(np.searchsorted(knots, lo, side="right") - 1, 0, seg.size - 1)
        j = np.clip(np.searchsorted(knots, hi, side="right") - 1, 0, seg.size - 1)
        return np.where(hi < knots[0], 0.0, run[i, j])


def build_table(
    p: SystemParams,
    H_range: tuple[float, float] | None = None,
    n: int = 96,
) -> FrequencyTable:
    """Tabulate solve_frequency on log-spaced |H| grids on both sides of the band."""
    if n < 16:
        raise ParameterError(f"table needs n >= 16 samples per branch, got {n}")
    band = exclusion_band(p)
    omega_bot = bottom_frequency(p)
    depth = well_depth(p, omega_bot)
    if H_range is None:
        H_min, H_max = -depth * (1.0 - 1e-6), 50.0 * depth
    else:
        H_min, H_max = H_range
    if H_min >= -band or H_max <= band:
        raise ParameterError(
            f"H_range {H_range} must straddle the exclusion band (+-{band:.6g})"
        )
    H_neg = -np.geomspace(abs(H_min), band, n)  # ascending (toward -band)
    H_pos = np.geomspace(band, H_max, n)
    omega_neg = np.empty(n)
    omega_pos = np.empty(n)
    # continuation along the grid: warm-start each solve at the previous sample's
    # frequency (same fixed point, far fewer iterations)
    warm = None
    for i, H in enumerate(H_neg):
        try:
            omega_neg[i] = solve_frequency(
                H, p, MotionRegime.RIGHT_WELL, band=band, omega0=warm
            )
        except (ConvergenceError, QuadratureError, EnergyRangeError) as exc:
            raise type(exc)(f"table sample H={H}: {exc}") from exc
        warm = omega_neg[i]
    warm = None
    for i in range(n - 1, -1, -1):  # high energy (easy) toward the band (hard)
        H = H_pos[i]
        try:
            omega_pos[i] = solve_frequency(
                H, p, MotionRegime.CROSS_WELL, band=band, omega0=warm
            )
        except (ConvergenceError, QuadratureError, EnergyRangeError) as exc:
            raise type(exc)(f"table sample H={H}: {exc}") from exc
        warm = omega_pos[i]
    return FrequencyTable(H_neg, omega_neg, H_pos, omega_pos, band)
