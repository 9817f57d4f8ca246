"""Energy-dependent period/frequency: closed-form period, orbit quadrature and
fixed-point solver.

High-precision reference values were computed with mpmath (50-digit elliptic
quadrature of the orbit period) and, for self-consistent cases, by iterating
that quadrature to convergence; independent cross-checks against direct
scipy.integrad quadrature of the singular integrand appear inline.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ellipkm1

from harvest import averaging, freq

from harvest.errors import (
    BistabilityLossError,
    EnergyRangeError,
    SeparatrixBandError,
)
from harvest.freq import (
    FrequencyTable,
    _ellipkm1,
    build_table,
    exclusion_band,
    orbit_average,
    period_integral,
    solve_frequency,
    turning_points,
)
from harvest.model import (
    MotionRegime,
    NoiseParams,
    SystemParams,
    effective_coeffs,
    effective_potential,
    stiffness_margin,
    well_bottom,
    well_minimum,
)

# delta1 = delta3 = 3 with no stiffness correction (kappa = mu = nu = 0):
# the orbit quadrature has a closed elliptic-integral form, evaluated with
# mpmath at 50 digits.
OMEGA_CROSSWELL_H1 = 1.446741512142533390056
# Self-consistent frequency with the circuit correction on (kappa = 0.3,
# alpha = 0.05), right well, H = -0.3; mpmath fixed point at 50 digits.
OMEGA_RIGHTWELL_SC = 2.0449217024041211195


# Orbit periods in the frozen potential, mpmath at 50 digits (rounded to 40):
# tanh-sinh quadrature of T = 2 int dx / sqrt(2H - 2U) after the substitution
# x^2 = y_in + (y_out - y_in) sin^2(t) in a well, or x = x_b sin(t) across both
# wells, which removes the endpoint singularities; the quadrature agrees with
# mpmath.ellipk in the closed form to 1e-47.
# controlled_system at omega = 2.3, at H = -+1.0001 * exclusion_band, -0.3, 0.7:
PERIODS_CONTROLLED_OMEGA_2_3 = [
    (-6.0651510339449966e-05, MotionRegime.RIGHT_WELL,
     8.144388736529957510909169125100593289675),
    (6.0651510339449966e-05, MotionRegime.CROSS_WELL,
     16.28831746500165716956784238618580693835),
    (-0.3, MotionRegime.RIGHT_WELL, 3.073749540032334465673651471368297480545),
    (0.7, MotionRegime.CROSS_WELL, 4.746506123564209573267407100544884483786),
]
# A cross-well sample of the table at tau = (0.2, 1.9) of the acceptance delay
# grid, close to the separatrix: the period at omega = 0.4270883874409262 and
# the self-consistent frequency (mpmath findroot of 2 pi / T(omega) - omega on
# the same quadrature).  A Gauss-Legendre period at rel_tol 1e-8 is 1.8e-9 off
# here, which moves the fixed point by 7.7e-10.
NEAR_BAND_SYSTEM = SystemParams(
    delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
    mu=-0.005, nu=0.005, tau1=0.2, tau2=1.9,
)
NEAR_BAND_H = 0.0002186763540192856
NEAR_BAND_PERIOD = 14.71167442605463326505684655687531002009
NEAR_BAND_OMEGA_SC = 0.4270883874409261783673211636171604945715


def bare(delta1=3.0, delta3=3.0) -> SystemParams:
    return SystemParams(delta1=delta1, delta3=delta3, kappa=0.0)


class TestTurningPoints:
    def test_roots_lie_on_the_level_set(self, baseline_system):
        p = baseline_system
        om = 2.3
        d_eff = effective_coeffs(p, om).delta_eff
        for H, regime in [
            (-0.3, MotionRegime.RIGHT_WELL),
            (-0.05, MotionRegime.LEFT_WELL),
            (0.2, MotionRegime.CROSS_WELL),
            (2.0, MotionRegime.CROSS_WELL),
        ]:
            tp = turning_points(H, p, om, regime)
            assert tp.x_a < tp.x_b
            for x in (tp.x_a, tp.x_b):
                assert effective_potential(x, p, d_eff) == pytest.approx(
                    H, abs=1e-10
                )

    def test_crosswell_is_symmetric(self, baseline_system):
        tp = turning_points(0.7, baseline_system, 2.3, MotionRegime.CROSS_WELL)
        assert tp.x_a == -tp.x_b

    def test_left_well_mirrors_right(self, baseline_system):
        tr = turning_points(-0.2, baseline_system, 2.3, MotionRegime.RIGHT_WELL)
        tl = turning_points(-0.2, baseline_system, 2.3, MotionRegime.LEFT_WELL)
        assert tl.x_a == pytest.approx(-tr.x_b, abs=1e-14)
        assert tl.x_b == pytest.approx(-tr.x_a, abs=1e-14)

    def test_energy_range_errors(self, baseline_system):
        p = baseline_system
        with pytest.raises(EnergyRangeError):
            turning_points(-0.1, p, 2.3, MotionRegime.CROSS_WELL)
        with pytest.raises(EnergyRangeError):
            turning_points(0.1, p, 2.3, MotionRegime.RIGHT_WELL)
        with pytest.raises(EnergyRangeError):
            # below the well bottom
            turning_points(-5.0, p, 2.3, MotionRegime.RIGHT_WELL)

    def test_bistability_loss(self):
        p = SystemParams(delta1=0.1, delta3=3.0, kappa=5.0)
        with pytest.raises(BistabilityLossError):
            turning_points(0.5, p, 2.0, MotionRegime.CROSS_WELL)


def brentq_turning_points(H, p, omega, regime):
    """Transcription of the bracket-growing Brent root search that the closed
    form replaced."""
    a = stiffness_margin(p, omega)
    d3 = p.delta3
    x_star = math.sqrt(a / d3)

    def g(x):
        return -0.5 * a * x * x + 0.25 * d3 * x**4 - H

    hi = math.sqrt(2.0 * a / d3)
    while g(hi) <= 0.0:
        hi *= 1.5
    x_b = brentq(g, x_star, hi, xtol=1e-14, rtol=8.9e-16)
    if regime is MotionRegime.CROSS_WELL:
        return -x_b, x_b
    x_a = brentq(g, 0.0, x_star, xtol=1e-14, rtol=8.9e-16)
    if regime is MotionRegime.LEFT_WELL:
        return -x_b, -x_a
    return x_a, x_b


class TestClosedFormTurningPoints:
    @pytest.mark.parametrize("omega", [2.3, 0.9])
    def test_matches_brentq(self, controlled_system, omega):
        """Equal to the Brent search to 1e-13: across each regime, at relative
        gaps down to 1e-6 above the well bottom and next to the band."""
        p = controlled_system
        a = stiffness_margin(p, omega)
        u_min = -a * a / (4.0 * p.delta3)
        band = exclusion_band(p)
        cases = [(u_min * (1.0 - g), r) for g in (1e-6, 1e-4, 1e-2, 0.3, 0.9)
                 for r in (MotionRegime.RIGHT_WELL, MotionRegime.LEFT_WELL)]
        cases += [(-band * f, MotionRegime.RIGHT_WELL) for f in (1.0, 1.001, 10.0)]
        cases += [(band * f, MotionRegime.CROSS_WELL)
                  for f in (1.0, 1.001, 10.0, 1e4, 1e6)]
        for H, regime in cases:
            tp = turning_points(H, p, omega, regime)
            ref = brentq_turning_points(H, p, omega, regime)
            assert tp.x_a == pytest.approx(ref[0], rel=0, abs=1e-13), (H, regime)
            assert tp.x_b == pytest.approx(ref[1], rel=0, abs=1e-13), (H, regime)


class TestPeriodIntegral:
    def test_against_direct_singular_quadrature(self):
        """Same integral via scipy quad on 2*dx/sqrt(2H-2U) with endpoint care."""
        p = bare()
        om = 1.0  # no stiffness correction, omega does not matter
        d_eff = effective_coeffs(p, om).delta_eff
        for H, regime in [(-0.4, MotionRegime.RIGHT_WELL), (0.8, MotionRegime.CROSS_WELL)]:
            tp = turning_points(H, p, om, regime)

            def integrand(x):
                return 2.0 / math.sqrt(
                    max(2.0 * H - 2.0 * effective_potential(x, p, d_eff), 1e-300)
                )

            ref, err = quad(
                integrand, tp.x_a, tp.x_b,
                points=[tp.x_a, tp.x_b], limit=400,
            )
            assert period_integral(H, p, om, regime) == pytest.approx(
                ref, rel=1e-7
            )

    def test_harmonic_limit_near_bottom(self):
        p = bare()
        a = p.delta1  # no correction
        bottom = -a * a / (4.0 * p.delta3)
        H = bottom * (1.0 - 1e-12)
        T = period_integral(H, p, 1.0, MotionRegime.RIGHT_WELL)
        assert T == pytest.approx(2.0 * math.pi / math.sqrt(2.0 * a), rel=1e-5)

    @pytest.mark.parametrize("H, regime, ref", PERIODS_CONTROLLED_OMEGA_2_3)
    def test_closed_form_against_mpmath(self, controlled_system, H, regime, ref):
        T = period_integral(H, controlled_system, 2.3, regime)
        assert T == pytest.approx(ref, rel=1e-14)

    def test_closed_form_near_band_against_mpmath(self):
        T = period_integral(
            NEAR_BAND_H, NEAR_BAND_SYSTEM, 0.4270883874409262, MotionRegime.CROSS_WELL
        )
        assert T == pytest.approx(NEAR_BAND_PERIOD, rel=1e-14)

    def test_agm_k_matches_scipy(self):
        """The arithmetic-geometric mean K is within 2 ulp of scipy's cephes
        ellipkm1 from p = 1e-300 to 1, and infinite at p = 0."""
        p = np.concatenate((
            np.geomspace(1e-300, 1.0, 4001),
            np.random.default_rng(11).uniform(0.0, 1.0, 4000),
        ))
        ref = ellipkm1(p)
        assert np.all(np.abs(_ellipkm1(p) - ref) <= 2 * np.spacing(ref))
        assert _ellipkm1(0.0) == np.inf

    @pytest.mark.parametrize(
        "regime", [MotionRegime.RIGHT_WELL, MotionRegime.LEFT_WELL]
    )
    def test_exact_bottom_is_harmonic(self, controlled_system, regime):
        p = controlled_system
        a = stiffness_margin(p, 2.3)
        T = period_integral(-a * a / (4.0 * p.delta3), p, 2.3, regime)
        assert T == pytest.approx(2.0 * math.pi / math.sqrt(2.0 * a), rel=1e-14)

    def test_period_grows_toward_separatrix(self):
        p = bare()
        periods = [
            period_integral(H, p, 1.0, MotionRegime.RIGHT_WELL)
            for H in (-0.6, -0.3, -0.1, -0.01)
        ]
        assert all(a < b for a, b in zip(periods, periods[1:]))


class TestOrbitAverage:
    def test_mean_square_velocity_virial_check(self):
        """<v^2> equals <x dU/dx> over a closed orbit (virial identity)."""
        p = bare()
        om = 1.0
        for H, regime in [(-0.3, MotionRegime.RIGHT_WELL), (0.5, MotionRegime.CROSS_WELL)]:
            msv = orbit_average(lambda x, v: v * v, H, p, om, regime)
            virial = orbit_average(
                lambda x, v: x * (-p.delta1 * x + p.delta3 * x**3),
                H, p, om, regime,
            )
            assert msv == pytest.approx(virial, rel=1e-6)

    def test_odd_velocity_moments_vanish(self):
        p = bare()
        for H, regime in [(-0.3, MotionRegime.RIGHT_WELL), (0.5, MotionRegime.CROSS_WELL)]:
            m1 = orbit_average(lambda x, v: v, H, p, 1.0, regime)
            assert abs(m1) < 1e-12

    def test_constant_averages_to_itself(self):
        p = bare()
        avg = orbit_average(
            lambda x, v: np.ones_like(x), -0.3, p, 1.0, MotionRegime.RIGHT_WELL
        )
        # <1> = (omega/2pi) * T(H) evaluated at the passed omega, which here is
        # not the self-consistent one; evaluate the ratio explicitly.
        T = period_integral(-0.3, p, 1.0, MotionRegime.RIGHT_WELL)
        assert avg == pytest.approx(1.0 / (2.0 * math.pi) * T, rel=1e-10)

    def test_constant_near_band_at_the_fixed_point(self):
        """At the self-consistent frequency omega T / (2 pi) = 1, so the time
        average of 1 is 1, also next to the separatrix."""
        avg = orbit_average(
            lambda x, v: np.ones_like(x), NEAR_BAND_H, NEAR_BAND_SYSTEM,
            float(NEAR_BAND_OMEGA_SC), MotionRegime.CROSS_WELL,
        )
        assert abs(avg - 1.0) <= 1e-12

    def test_collapse_at_the_well_bottom(self):
        """Half a _DEGENERATE_GAP above the well bottom the orbit collapses
        onto the minimum and averages to f there exactly; two gaps above it
        the quadrature over the open orbit agrees to 1e-9.  omega is the
        harmonic frequency sqrt(2a) of the bottom, where omega T / 2pi = 1."""
        p = bare()
        a = stiffness_margin(p, 1.0)
        omega = math.sqrt(2.0 * a)
        u_min = well_bottom(p, a)
        gap = freq._DEGENERATE_GAP * max(1.0, abs(u_min))

        def f(x, v):
            return 1.0 + x**3 + v * v

        at_min = float(f(np.array([well_minimum(p, a)]), np.array([0.0]))[0])
        regime = MotionRegime.RIGHT_WELL
        assert orbit_average(f, u_min + 0.5 * gap, p, omega, regime) == at_min
        tp = turning_points(u_min + 2.0 * gap, p, omega, regime)
        assert tp.x_a < tp.x_b
        assert orbit_average(f, u_min + 2.0 * gap, p, omega, regime) == (
            pytest.approx(at_min, rel=1e-9)
        )

    def test_collapse_joins_the_open_orbit(self):
        """At omega = 1, away from the harmonic sqrt(2a), the collapsed orbit
        half a gap above the bottom averages to omega / sqrt(2a) f(x_min, 0),
        which the quadrature over the open orbit two gaps above it matches
        to 1e-9."""
        p = bare()
        u_min = well_bottom(p, stiffness_margin(p, 1.0))
        gap = freq._DEGENERATE_GAP * max(1.0, abs(u_min))

        def f(x, v):
            return 1.0 + x**3 + v * v

        regime = MotionRegime.RIGHT_WELL
        collapsed = orbit_average(f, u_min + 0.5 * gap, p, 1.0, regime)
        opened = orbit_average(f, u_min + 2.0 * gap, p, 1.0, regime)
        assert collapsed == pytest.approx(opened, rel=1e-9)


def test_one_rule_below_the_well_bottom():
    """Just below the well bottom of bare(), at 1e-14 and 5e-13 of its depth,
    solve_frequency, orbit_average and drift_diffusion either all accept the
    energy or all raise EnergyRangeError."""
    p = bare()
    regime = MotionRegime.RIGHT_WELL
    noise = NoiseParams(D=0.005, c=0.3)

    def accepts(call) -> bool:
        try:
            call()
        except EnergyRangeError:
            return False
        return True

    for H in (-0.75 * (1.0 + 1e-14), -0.75 * (1.0 + 5e-13)):
        verdicts = [
            accepts(lambda: solve_frequency(H, p, regime)),
            accepts(lambda: orbit_average(
                lambda x, v: v * v, H, p, math.sqrt(6.0), regime
            )),
            accepts(lambda: averaging.drift_diffusion(H, p, noise, regime)),
        ]
        assert verdicts in ([True] * 3, [False] * 3), H


class TestSolveFrequency:
    def test_crosswell_reference_value(self):
        om = solve_frequency(1.0, bare(), MotionRegime.CROSS_WELL)
        assert om == pytest.approx(OMEGA_CROSSWELL_H1, rel=1e-12)

    def test_rightwell_self_consistent_reference(self, baseline_system):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        om = solve_frequency(-0.3, p, MotionRegime.RIGHT_WELL)
        assert om == pytest.approx(OMEGA_RIGHTWELL_SC, rel=1e-12)

    def test_fixed_point_property(self, controlled_system):
        """The returned frequency reproduces itself through the period map."""
        p = controlled_system
        for H, regime in [(-0.25, MotionRegime.RIGHT_WELL), (0.6, MotionRegime.CROSS_WELL)]:
            om = solve_frequency(H, p, regime)
            assert 2.0 * math.pi / period_integral(H, p, om, regime) == pytest.approx(
                om, abs=5e-9
            )

    def test_left_right_symmetry(self, controlled_system):
        om_r = solve_frequency(-0.2, controlled_system, MotionRegime.RIGHT_WELL)
        om_l = solve_frequency(-0.2, controlled_system, MotionRegime.LEFT_WELL)
        assert om_l == pytest.approx(om_r, rel=1e-12)

    def test_separatrix_band_excluded(self, baseline_system):
        band = exclusion_band(baseline_system)
        assert band > 0
        with pytest.raises(SeparatrixBandError):
            solve_frequency(0.5 * band, baseline_system, MotionRegime.CROSS_WELL)
        with pytest.raises(SeparatrixBandError):
            solve_frequency(-0.5 * band, baseline_system, MotionRegime.RIGHT_WELL)

    def test_below_bottom_raises(self, baseline_system):
        with pytest.raises(EnergyRangeError):
            solve_frequency(-10.0, baseline_system, MotionRegime.RIGHT_WELL)

    def test_near_band_reference(self):
        om = solve_frequency(NEAR_BAND_H, NEAR_BAND_SYSTEM, MotionRegime.CROSS_WELL)
        assert om == pytest.approx(NEAR_BAND_OMEGA_SC, rel=1e-12)

    def test_array_equals_scalar(self, controlled_system):
        p = controlled_system
        edge = 1.0001 * exclusion_band(p)
        for H, regime in [
            (-np.geomspace(0.6, edge, 24), MotionRegime.RIGHT_WELL),
            (-np.geomspace(0.6, edge, 24), MotionRegime.LEFT_WELL),
            (np.geomspace(edge, 50.0, 24), MotionRegime.CROSS_WELL),
        ]:
            arr = solve_frequency(H.reshape(4, 6), p, regime)
            assert arr.shape == (4, 6)
            scalar = [solve_frequency(float(h), p, regime) for h in H]
            assert all(type(om) is float for om in scalar)
            np.testing.assert_array_equal(arr.ravel(), scalar)

    def test_array_raises_like_scalar(self, controlled_system):
        """One bad energy in an array raises the scalar call's error, naming it."""
        p = controlled_system
        half_band = 0.5 * exclusion_band(p)
        # nu < 0 makes delta_eff overtake delta1 at the frequency of H = 100
        lossy = SystemParams(delta1=1.0, delta3=1.0, nu=-0.3, tau2=0.3)
        for system, bad, good, regime, error in [
            (p, -half_band, [-0.3, -0.1], MotionRegime.RIGHT_WELL,
             SeparatrixBandError),
            (p, -10.0, [-0.3, -0.1], MotionRegime.RIGHT_WELL, EnergyRangeError),
            (lossy, 100.0, [0.5, 5.0], MotionRegime.CROSS_WELL,
             BistabilityLossError),
        ]:
            solve_frequency(np.array(good), system, regime)
            with pytest.raises(error, match=f"H={bad}"):
                solve_frequency(bad, system, regime)
            with pytest.raises(error, match=f"H={bad}"):
                solve_frequency(np.array([good[0], bad, good[1]]), system, regime)


@pytest.fixture(scope="module")
def table(controlled_system) -> FrequencyTable:
    return build_table(controlled_system)


def scipy_lookup(table: FrequencyTable, H: np.ndarray):
    """(omega, d omega/dH) from scipy: one PchipInterpolator per branch, the
    clamp below the table and the straight line across the band."""
    neg_interp = PchipInterpolator(table.H_neg, table.omega_neg)
    pos_interp = PchipInterpolator(table.H_pos, table.omega_pos)
    om = np.empty_like(H)
    dom = np.zeros_like(H)
    neg = H <= -table.band
    pos = H >= table.band
    mid = ~(neg | pos)
    Hc = np.clip(H[neg], table.H_neg[0], None)
    om[neg] = neg_interp(Hc)
    dom[neg] = np.where(H[neg] < table.H_neg[0], 0.0, neg_interp(Hc, 1))
    om[pos] = pos_interp(H[pos])
    dom[pos] = pos_interp(H[pos], 1)
    w_lo, w_hi = table.omega_neg[-1], table.omega_pos[0]
    om[mid] = w_lo + (w_hi - w_lo) * (H[mid] + table.band) / (2.0 * table.band)
    dom[mid] = (w_hi - w_lo) / (2.0 * table.band)
    return om, dom


class TestFrequencyTable:
    def test_lookup_matches_direct_solve(self, table, controlled_system):
        p = controlled_system
        for H, regime in [
            (-0.41, MotionRegime.RIGHT_WELL),
            (-0.07, MotionRegime.RIGHT_WELL),
            (0.3, MotionRegime.CROSS_WELL),
            (4.7, MotionRegime.CROSS_WELL),
        ]:
            direct = solve_frequency(H, p, regime)
            assert table.lookup_bridged(H)[0] == pytest.approx(direct, rel=1e-5)

    def test_lookup_rejects_out_of_range(self, table):
        with pytest.raises(EnergyRangeError):
            table.lookup_bridged(1e9)

    def test_bridged_lookup_is_continuous_across_band(self, table):
        band = table.band
        H = np.array([-band, 0.0, band])
        vals = table.lookup_bridged(H)
        assert vals[0] == pytest.approx(table.omega_neg[-1], rel=1e-12)
        assert vals[2] == pytest.approx(table.omega_pos[0], rel=1e-12)
        assert min(vals[0], vals[2]) <= vals[1] <= max(vals[0], vals[2])

    def test_bridged_lookup_clamps_below_bottom(self, table):
        deep = table.H_neg[0] - 1.0
        assert table.lookup_bridged(np.array([deep]))[0] == pytest.approx(
            float(table.lookup_bridged(table.H_neg[0])[0]), rel=1e-12
        )

    def test_samples_are_fixed_points(self, table, controlled_system):
        """Every sample satisfies |2 pi / T(H; omega) - omega| <= 1e-12."""
        p = controlled_system
        T = np.concatenate([
            period_integral(table.H_neg, p, table.omega_neg, MotionRegime.RIGHT_WELL),
            period_integral(table.H_pos, p, table.omega_pos, MotionRegime.CROSS_WELL),
        ])
        omega = np.concatenate([table.omega_neg, table.omega_pos])
        assert np.max(np.abs(2.0 * math.pi / T - omega)) <= 1e-12

    def test_crosswell_branch_increases_at_high_energy(self, table):
        om = table.omega_pos
        assert om[-1] > om[len(om) // 2] > om[0]

    def test_arrays_are_read_only(self, table):
        for arr in (table.H_neg, table.omega_neg, table.H_pos, table.omega_pos,
                    table.knots, table.slopes, table.coeffs):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            table.omega_pos[0] = 1.0

    def test_lookup_is_scipy_pchip_on_grid_energies(self, controlled_system):
        """On every energy of the default grid's field solve, off the band,
        the one-cubic lookup and its slope are bit for bit scipy's."""
        p = controlled_system
        grid = averaging.GridSpec()
        table = averaging._table_for(p, grid)
        X, V = np.meshgrid(*grid.axes(), indexing="ij")
        H = averaging._self_consistent_fields(p, X, V, table)[0].ravel()
        H = H[np.abs(H) > table.band]
        assert H.size > 40000
        om, dom = table.lookup_bridged(H, slope=True)
        ref_om, ref_dom = scipy_lookup(table, H)
        assert np.array_equal(om, ref_om)
        assert np.array_equal(dom, ref_dom)

    def test_lookup_is_scipy_pchip_off_the_band(self, table):
        """Random energies on both branches, below the table and on every
        knot off the band: bit for bit scipy's value and slope."""
        rng = np.random.default_rng(5)
        H = np.concatenate((
            rng.uniform(table.H_neg[0] - 1.0, -table.band, 20000),
            rng.uniform(table.band, table.H_pos[-1], 20000),
            table.knots,
        ))
        H = H[np.abs(H) > table.band]
        om, dom = table.lookup_bridged(H, slope=True)
        ref_om, ref_dom = scipy_lookup(table, H)
        assert np.array_equal(om, ref_om)
        assert np.array_equal(dom, ref_dom)

    def test_slope_matches_finite_difference(self, table):
        band = table.band
        H = np.array([table.H_neg[0] - 1.0, -0.5, -0.05, -10 * band, 0.0,
                      10 * band, 0.3, 7.0])
        om, dom = table.lookup_bridged(H, slope=True)
        assert np.array_equal(om, table.lookup_bridged(H))
        h = 1e-7 * np.maximum(np.abs(H), band)
        fd = (table.lookup_bridged(H + h) - table.lookup_bridged(H - h)) / (2 * h)
        assert dom == pytest.approx(fd, rel=1e-5, abs=1e-9)
        assert dom[0] == 0.0  # clamped below the table

    def test_slope_bound_covers_the_slope(self, table):
        """slope_bound(lo, hi) is at least |omega'| sampled densely on [lo, hi],
        for intervals below, across and above the band."""
        centers = np.concatenate([
            -np.geomspace(table.band, -table.H_neg[0], 40),
            np.geomspace(table.band, table.H_pos[-1] / 2, 40),
        ])
        frac = np.random.default_rng(3).uniform(0.0, 0.5, centers.size)
        widths = frac * np.abs(centers)
        lo, hi = centers - widths, centers + widths
        bound = table.slope_bound(lo, hi)
        for a, b, bnd in zip(lo, hi, bound):
            Hs = np.linspace(a, min(b, table.H_pos[-1]), 2001)
            _, dom = table.lookup_bridged(Hs, slope=True)
            assert np.max(np.abs(dom)) <= bnd
        below = table.H_neg[0] - 1.0
        assert table.slope_bound(np.array([below - 1]), np.array([below]))[0] == 0.0
