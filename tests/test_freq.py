"""Energy-dependent period/frequency: closed-form period, orbit quadrature and
fixed-point solver.

High-precision reference values were computed with mpmath (50-digit elliptic
quadrature of the orbit period) and, for self-consistent cases, by iterating
that quadrature to convergence; independent cross-checks against direct
scipy.integrad quadrature of the singular integrand appear inline.
"""

import collections
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ellipkm1

from harvest import averaging, freq
from harvest.averaging import loop_average

from harvest.errors import (
    BistabilityLossError,
    ConvergenceError,
    EnergyRangeError,
    ParameterError,
    SeparatrixBandError,
)
from harvest.freq import (
    FrequencyTable,
    _ellipkm1,
    bottom_frequency,
    build_table,
    exclusion_band,
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
        with pytest.raises(BistabilityLossError, match="bi-stability lost"):
            bottom_frequency(p)


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
            msv = loop_average(lambda x, v: v * v, H, p, regime, om)
            virial = loop_average(
                lambda x, v: x * (-p.delta1 * x + p.delta3 * x**3),
                H, p, regime, om,
            )
            assert msv == pytest.approx(virial, rel=1e-6)

    def test_odd_velocity_moments_vanish(self):
        p = bare()
        for H, regime in [(-0.3, MotionRegime.RIGHT_WELL), (0.5, MotionRegime.CROSS_WELL)]:
            m1 = loop_average(lambda x, v: v, H, p, regime, 1.0)
            assert abs(m1) < 1e-12

    def test_constant_averages_to_itself(self):
        p = bare()
        avg = loop_average(
            lambda x, v: np.ones_like(x), -0.3, p, MotionRegime.RIGHT_WELL, 1.0
        )
        # <1> = (omega/2pi) * T(H) evaluated at the passed omega, which here is
        # not the self-consistent one; evaluate the ratio explicitly.
        T = period_integral(-0.3, p, 1.0, MotionRegime.RIGHT_WELL)
        assert avg == pytest.approx(1.0 / (2.0 * math.pi) * T, rel=1e-10)

    def test_constant_near_band_at_the_fixed_point(self):
        """At the self-consistent frequency omega T / (2 pi) = 1, so the time
        average of 1 is 1, also next to the separatrix."""
        avg = loop_average(
            lambda x, v: np.ones_like(x), NEAR_BAND_H, NEAR_BAND_SYSTEM,
            MotionRegime.CROSS_WELL, float(NEAR_BAND_OMEGA_SC),
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
        assert loop_average(f, u_min + 0.5 * gap, p, regime, omega) == at_min
        tp = turning_points(u_min + 2.0 * gap, p, omega, regime)
        assert tp.x_a < tp.x_b
        assert loop_average(f, u_min + 2.0 * gap, p, regime, omega) == (
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
        collapsed = loop_average(f, u_min + 0.5 * gap, p, regime, 1.0)
        opened = loop_average(f, u_min + 2.0 * gap, p, regime, 1.0)
        assert collapsed == pytest.approx(opened, rel=1e-9)

    @pytest.mark.parametrize("regime", list(MotionRegime))
    def test_array_call_is_its_scalar_calls(self, controlled_system, regime):
        """Over an array of energies, with a collapsed orbit among them in a
        well, loop_average gives its scalar calls bit for bit, at given
        frequencies and at the self-consistent ones."""
        p = controlled_system
        H, omega = orbit_energies(p, regime, 25)

        def f(x, v):
            return 1.0 + x**3 + v * v

        if regime is not MotionRegime.CROSS_WELL:
            tp = turning_points(H, p, omega, regime)
            assert np.any(tp.x_a == tp.x_b)
        scalar = [loop_average(f, h, p, regime, om) for h, om in zip(H, omega)]
        assert all(type(s) is float for s in scalar)
        assert np.array_equal(loop_average(f, H, p, regime, omega), scalar)
        H = H[1::4]
        scalar = [loop_average(f, h, p, regime) for h in H]
        assert np.array_equal(loop_average(f, H, p, regime), scalar)

    @pytest.mark.parametrize("system", ["bare", "baseline_system", "controlled_system",
                                        "near_band"])
    @pytest.mark.parametrize("regime", [MotionRegime.RIGHT_WELL, MotionRegime.CROSS_WELL])
    def test_time_average_of_one_is_the_period(self, request, system, regime):
        """<1> 2 pi / omega is the closed-form period to _ORBIT_REL_TOL from
        the well bottom to 1.0001 band widths, and from there to the top of
        the power's table."""
        p = {"bare": bare(), "near_band": NEAR_BAND_SYSTEM}.get(system)
        p = p or request.getfixturevalue(system)
        H, omega = orbit_energies(p, regime, 60)
        one = loop_average(lambda x, v: np.ones_like(x), H, p, regime, omega)
        T = period_integral(H, p, omega, regime)
        rel = np.abs(2.0 * math.pi / omega * one / T - 1.0)
        assert np.max(rel) <= freq._ORBIT_REL_TOL


def orbit_energies(p: SystemParams, regime: MotionRegime, n: int):
    """n energies of the regime and their frequencies from the power's table:
    log-spaced from the well bottom (at the first energy's frequency) up to
    1.0001 band widths below the separatrix, or from 1.0001 band widths
    above it up to the table top."""
    table = averaging._table_for(p, averaging.GridSpec())
    edge = 1.0001 * exclusion_band(p)
    if regime is MotionRegime.CROSS_WELL:
        H = np.geomspace(edge, table.H_pos[-1], n)
        return H, table.lookup_bridged(H)
    H = -np.geomspace(-table.H_neg[0], edge, n)
    omega = table.lookup_bridged(H)
    H[0] = well_bottom(p, stiffness_margin(p, omega[0]))
    return H, omega


def test_one_rule_below_the_well_bottom():
    """Just below the well bottom of bare(), at 1e-14 and 5e-13 of its depth,
    solve_frequency, loop_average and drift_diffusion either all accept the
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
            accepts(lambda: loop_average(
                lambda x, v: v * v, H, p, regime, math.sqrt(6.0)
            )),
            accepts(lambda: averaging.drift_diffusion(H, p, noise, regime)),
        ]
        assert verdicts in ([True] * 3, [False] * 3), H


class TestFixedPoint:
    """freq._fixed_point, the one iteration of solve_frequency and the field
    solve."""

    def test_contraction_freezes_every_element(self):
        target = np.array([0.5, 1.0, 2.0, 3.0])
        calls = []

        def g(omega, idx):
            calls.append(idx.size)
            return 0.5 * omega + 0.5 * target[idx]

        out, stuck = freq._fixed_point(g, 1.0, target.size, 50)
        assert stuck.size == 0
        assert np.max(np.abs(out - target)) <= 1e-12
        # a frozen element is no longer evaluated
        assert calls[0] == target.size and calls[-1] < target.size

    def test_map_without_fixed_point_leaves_every_element_stuck(self):
        out, stuck = freq._fixed_point(lambda omega, idx: omega + 1.0, 1.0, 3, 20)
        assert np.array_equal(stuck, [0, 1, 2])
        assert np.all(np.isfinite(out))

    def test_cap_raises_naming_the_first_energy_still_iterating(
        self, controlled_system, monkeypatch
    ):
        """The cross-well element at H = 10 freezes after 4 steps, the one at
        H = 1 after 5: capped at 4, the error names H = 1."""
        H = np.array([10.0, 1.0])
        regime = MotionRegime.CROSS_WELL
        solve_frequency(H, controlled_system, regime)
        monkeypatch.setattr(freq, "_MAX_ITER", 4)
        with pytest.raises(ConvergenceError, match=r"H=1\.0: frequency iteration"):
            solve_frequency(H, controlled_system, regime)


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
    """omega from scipy: one PchipInterpolator per branch, the clamp below the
    table and the straight line across the band."""
    neg_interp = PchipInterpolator(table.H_neg, table.omega_neg)
    pos_interp = PchipInterpolator(table.H_pos, table.omega_pos)
    om = np.empty_like(H)
    band = table.H_pos[0]
    neg = H <= -band
    pos = H >= band
    mid = ~(neg | pos)
    om[neg] = neg_interp(np.clip(H[neg], table.H_neg[0], None))
    om[pos] = pos_interp(H[pos])
    w_lo, w_hi = table.omega_neg[-1], table.omega_pos[0]
    om[mid] = w_lo + (w_hi - w_lo) * (H[mid] + band) / (2.0 * band)
    return om


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
        band = table.H_pos[0]
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
                    table.knots, table.coeffs):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            table.omega_pos[0] = 1.0

    def test_lookup_is_scipy_pchip_on_grid_energies(self, controlled_system):
        """On every energy of the default grid's field solve, off the band,
        the one-cubic lookup is bit for bit scipy's."""
        p = controlled_system
        grid = averaging.GridSpec()
        table = averaging._table_for(p, grid)
        X, V = np.meshgrid(*grid.axes(), indexing="ij")
        H = averaging._self_consistent_fields(p, X, V, table)[0].ravel()
        H = H[np.abs(H) > table.H_pos[0]]
        assert H.size > 40000
        assert np.array_equal(table.lookup_bridged(H), scipy_lookup(table, H))

    def test_lookup_is_scipy_pchip_off_the_band(self, table):
        """Random energies on both branches, below the table and on every
        knot off the band: bit for bit scipy's value."""
        rng = np.random.default_rng(5)
        H = np.concatenate((
            rng.uniform(table.H_neg[0] - 1.0, -table.H_pos[0], 20000),
            rng.uniform(table.H_pos[0], table.H_pos[-1], 20000),
            table.knots,
        ))
        H = H[np.abs(H) > table.H_pos[0]]
        assert np.array_equal(table.lookup_bridged(H), scipy_lookup(table, H))

    def test_table_range_must_straddle_the_band(self, controlled_system):
        band = exclusion_band(controlled_system)
        for H_range in [(-0.5, -2 * band), (2 * band, 5.0), (-0.5 * band, 5.0)]:
            with pytest.raises(ParameterError, match="must straddle"):
                build_table(controlled_system, H_range=H_range)

    def test_lookup_is_scipy_pchip_on_turning_branches(self, monkeypatch):
        """On seeded random branches that turn up and down, so that the
        three-point end slope is zeroed where it opposes the end secant and
        clamped to three times it where the secants turn, the lookup is bit
        for bit scipy's."""
        kinds = collections.Counter()
        end_slope = freq._pchip_end_slope

        def counting(h0, h1, m0, m1):
            d = end_slope(h0, h1, m0, m1)
            kinds["zero" if d == 0.0 else "3 m0" if d == 3.0 * m0 else "3-point"] += 1
            return d

        monkeypatch.setattr(freq, "_pchip_end_slope", counting)
        rng = np.random.default_rng(17)
        band = 1e-3
        for _ in range(60):
            n = rng.integers(4, 12)
            H_neg = np.r_[-2.0, np.sort(rng.uniform(-2.0, -band, n - 2)), -band]
            H_pos = np.r_[band, np.sort(rng.uniform(band, 3.0, n - 2)), 3.0]
            table = FrequencyTable(
                H_neg, rng.uniform(0.5, 2.0, n), H_pos, rng.uniform(0.5, 2.0, n)
            )
            H = np.concatenate((
                rng.uniform(H_neg[0] - 1.0, -band, 200),
                rng.uniform(band, H_pos[-1], 200),
                table.knots,
            ))
            H = H[np.abs(H) > band]
            assert np.array_equal(table.lookup_bridged(H), scipy_lookup(table, H))
        assert min(kinds["zero"], kinds["3 m0"], kinds["3-point"]) > 0, kinds
