"""Energy-envelope averaging, stationary densities, and mean power.

Reference values marked "ODE oracle" were obtained by integrating the frozen
conservative orbit with scipy.solve_ivp at rtol=1e-12 and taking time averages
over one period, independently of the quadrature under test.
"""

import math

import numpy as np
import pytest

from harvest import averaging, freq
from harvest.averaging import (
    GridSpec,
    drift_diffusion,
    effective_generalized_potential,
    energy_spd,
    joint_spd,
    loop_average,
    mean_power,
    mean_square_voltage,
)
from harvest.errors import ConvergenceError, ParameterError, SeparatrixBandError
from harvest.freq import (
    bottom_frequency, exclusion_band, period_integral, solve_frequency, turning_points,
)
from harvest.model import (
    MotionRegime,
    NoiseParams,
    SystemParams,
    bare_potential,
    effective_coeffs,
    equilibrium_for_regime,
    stiffness_margin,
    well_minimum,
)

# ODE oracle, right well, H = -0.3, kappa = 0.3, alpha = 0.05, beta = 0.02,
# no feedback; self-consistent frequency.
MSV_RIGHTWELL = 0.286790102616
DRIFT_RIGHTWELL = -0.00313113109004
DIFF_RIGHTWELL = 0.00208369519435
# ODE oracle, cross-well, H = 0.4, with feedback (mu, nu, tau1, tau2) =
# (-0.005, 0.005, 0.6, 2.5); self-consistent frequency.
OMEGA_CROSSWELL = 1.1595344176218298
MSV_CROSSWELL = 1.219723601299961
MSX_CROSSWELL = 0.7631893891025496


@pytest.fixture(scope="module")
def uncontrolled(baseline_system):
    return baseline_system


class TestOrbitAverages:
    def test_rightwell_mean_square_velocity_oracle(self, uncontrolled):
        msv = loop_average(
            lambda x, v: v * v, -0.3, uncontrolled, MotionRegime.RIGHT_WELL
        )
        assert msv == pytest.approx(MSV_RIGHTWELL, rel=1e-9)

    def test_crosswell_moments_oracle(self, controlled_system):
        p = controlled_system
        om = solve_frequency(0.4, p, MotionRegime.CROSS_WELL)
        assert om == pytest.approx(OMEGA_CROSSWELL, rel=1e-10)
        msv = loop_average(lambda x, v: v * v, 0.4, p, MotionRegime.CROSS_WELL, om)
        msx = loop_average(lambda x, v: x * x, 0.4, p, MotionRegime.CROSS_WELL, om)
        assert msv == pytest.approx(MSV_CROSSWELL, rel=1e-9)
        assert msx == pytest.approx(MSX_CROSSWELL, rel=1e-9)

    def test_velocity_center_product_vanishes(self, controlled_system, rng):
        """<v * X_center> = 0 on every closed orbit (well and cross-well)."""
        p = controlled_system
        for _ in range(20):
            if rng.random() < 0.5:
                H = float(-rng.uniform(0.05, 0.55))
                regime = (
                    MotionRegime.RIGHT_WELL
                    if rng.random() < 0.5
                    else MotionRegime.LEFT_WELL
                )
            else:
                H = float(rng.uniform(0.05, 3.0))
                regime = MotionRegime.CROSS_WELL
            xs = equilibrium_for_regime(p, regime)
            val = loop_average(lambda x, v: v * xs, H, p, regime)
            assert abs(val) <= 1e-8


class TestDriftDiffusion:
    def test_rightwell_oracle(self, uncontrolled, baseline_noise):
        dd = drift_diffusion(
            -0.3, uncontrolled, baseline_noise, MotionRegime.RIGHT_WELL
        )
        assert dd.m == pytest.approx(DRIFT_RIGHTWELL, rel=1e-9)
        assert dd.sigma2 == pytest.approx(DIFF_RIGHTWELL, rel=1e-9)

    def test_crosswell_reduced_form_matches_definition(
        self, controlled_system, baseline_noise
    ):
        """Cross-well drift equals -beta_eff<v^2> + D/chi (center term is 0)."""
        p = controlled_system
        om = solve_frequency(0.4, p, MotionRegime.CROSS_WELL)
        ec = effective_coeffs(p, om)
        chi = 1.0 + baseline_noise.c**2 * om**2
        dd = drift_diffusion(0.4, p, baseline_noise, MotionRegime.CROSS_WELL)
        expected_m = -ec.beta_eff * MSV_CROSSWELL + baseline_noise.D / chi
        expected_s2 = 2.0 * baseline_noise.D / chi * MSV_CROSSWELL
        assert dd.m == pytest.approx(expected_m, rel=1e-8)
        assert dd.sigma2 == pytest.approx(expected_s2, rel=1e-8)

    def test_requires_positive_noise(self, uncontrolled):
        with pytest.raises(ParameterError):
            drift_diffusion(
                -0.3, uncontrolled, NoiseParams(D=0.0, c=0.3),
                MotionRegime.RIGHT_WELL,
            )

    @pytest.mark.parametrize("regime", [MotionRegime.RIGHT_WELL, MotionRegime.CROSS_WELL])
    def test_array_call_is_its_scalar_calls(self, controlled_system, baseline_noise,
                                            regime):
        p = controlled_system
        H = np.linspace(0.05, 3.0, 12)
        if regime is MotionRegime.RIGHT_WELL:
            H = -0.18 * H
        dd = drift_diffusion(H, p, baseline_noise, regime)
        scalar = [drift_diffusion(h, p, baseline_noise, regime) for h in H]
        assert np.array_equal(dd.m, [s.m for s in scalar])
        assert np.array_equal(dd.sigma2, [s.sigma2 for s in scalar])


class TestEnergyIdentity:
    @pytest.mark.parametrize("regime", [MotionRegime.RIGHT_WELL, MotionRegime.CROSS_WELL])
    def test_log_derivative_identity(self, uncontrolled, regime):
        """d/dH ln[T(H) <v^2>] = 1 / <v^2> on 50 interior energies per regime.

        Checked with central differences in the frozen potential (fixed omega),
        where the identity is exact for the conservative orbit family.
        """
        p = uncontrolled
        if regime is MotionRegime.RIGHT_WELL:
            om = solve_frequency(-0.3, p, regime)
            a = p.delta1 - effective_coeffs(p, om).delta_eff
            bottom = -a * a / (4.0 * p.delta3)
            Hs = np.linspace(0.9 * bottom, 0.05 * bottom, 50)
            h_step = 1e-5 * abs(bottom)
        else:
            om = solve_frequency(0.5, p, regime)
            Hs = np.linspace(0.05, 2.5, 50)
            h_step = 1e-5

        def ln_action_and_msv(H):
            # time average over the orbit at energy H in the frozen potential:
            # <v^2> = (loop integral of |v| dx) / T(H); T(H)*<v^2> is the action
            T = period_integral(H, p, om, regime)
            loop = loop_average(lambda x, v: v * v, H, p, regime, om) * (
                2.0 * math.pi / om
            )
            msv = loop / T
            return math.log(T * msv), msv

        for H in Hs:
            up, _ = ln_action_and_msv(H + h_step)
            dn, _ = ln_action_and_msv(H - h_step)
            _, msv = ln_action_and_msv(H)
            deriv = (up - dn) / (2.0 * h_step)
            assert deriv == pytest.approx(1.0 / msv, rel=1e-3)


class TestEnergySpd:
    def test_normalized_and_positive(self, uncontrolled, baseline_noise):
        band = exclusion_band(uncontrolled)
        Hs = np.concatenate(
            [np.linspace(-0.55, -2 * band, 60), np.linspace(2 * band, 1.0, 60)]
        )
        dens = energy_spd(uncontrolled, baseline_noise, Hs)
        assert np.all(dens >= 0)
        assert np.trapezoid(dens, Hs) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_band_points(self, uncontrolled, baseline_noise):
        band = exclusion_band(uncontrolled)
        with pytest.raises(SeparatrixBandError):
            energy_spd(
                uncontrolled, baseline_noise, np.array([-0.1, 0.5 * band, 0.1])
            )

    def test_rejects_unsorted_grid(self, uncontrolled, baseline_noise):
        with pytest.raises(ParameterError):
            energy_spd(uncontrolled, baseline_noise, np.array([0.2, 0.1, 0.3]))

    def test_low_noise_concentrates_in_wells(self, uncontrolled):
        band = exclusion_band(uncontrolled)
        Hs = np.concatenate(
            [np.linspace(-0.55, -2 * band, 80), np.linspace(2 * band, 0.8, 80)]
        )
        dens = energy_spd(uncontrolled, NoiseParams(D=0.002, c=0.3), Hs)
        below = np.trapezoid(dens[Hs < 0], Hs[Hs < 0])
        assert below > 0.99


@pytest.fixture(scope="module")
def fld(controlled_system, baseline_noise):
    return joint_spd(controlled_system, baseline_noise)


class TestJointSpd:
    def test_normalized(self, fld):
        assert fld.integral() == pytest.approx(1.0, rel=1e-10)

    def test_symmetry(self, fld):
        vals = fld.values
        assert np.allclose(vals, vals[::-1, :], rtol=1e-10, atol=0)
        assert np.allclose(vals, vals[:, ::-1], rtol=1e-10, atol=0)

    def test_bimodal_peaks_at_effective_minima(
        self, fld, controlled_system
    ):
        i, j = np.unravel_index(np.argmax(fld.values), fld.values.shape)
        x_peak = abs(fld.x[i])
        assert abs(fld.v[j]) < 1.5 * (fld.v[1] - fld.v[0])
        om = solve_frequency(-0.99 * 0.6, controlled_system, MotionRegime.RIGHT_WELL)
        xm = well_minimum(controlled_system, stiffness_margin(controlled_system, om))
        assert abs(x_peak - xm) <= 1.5 * (fld.x[1] - fld.x[0])

    def test_constant_along_each_orbit(self, controlled_system, baseline_noise):
        """The joint density depends on (x, v) only through the orbit energy."""
        p = controlled_system
        from scipy.interpolate import RegularGridInterpolator

        from harvest.freq import turning_points
        from harvest.model import effective_potential

        grid = GridSpec(-2.2, 2.2, 301, -2.2, 2.2, 301)
        fld = joint_spd(p, baseline_noise, grid=grid)
        interp = RegularGridInterpolator((fld.x, fld.v), fld.values)
        for H0, regime in [
            (-0.25, MotionRegime.RIGHT_WELL),
            (0.4, MotionRegime.CROSS_WELL),
        ]:
            om = solve_frequency(H0, p, regime)
            d_eff = effective_coeffs(p, om).delta_eff
            tp = turning_points(H0, p, om, regime)
            vals = []
            for frac in (0.25, 0.5, 0.75):
                x = tp.x_a + frac * (tp.x_b - tp.x_a)
                v = math.sqrt(2.0 * (H0 - effective_potential(x, p, d_eff)))
                vals.append(float(interp([[x, v]])[0]))
                vals.append(float(interp([[x, -v]])[0]))
            assert max(vals) == pytest.approx(min(vals), rel=2e-3)

    def test_energy_dependence_matches_closed_form(
        self, controlled_system, baseline_noise
    ):
        """Density ratio between two orbits equals the closed-form exponent
        ratio chi/D * exp(-beta_eff*chi*H/D) with per-energy coefficients."""
        p = controlled_system
        from scipy.interpolate import RegularGridInterpolator

        from harvest.freq import turning_points
        from harvest.model import effective_potential

        grid = GridSpec(-2.2, 2.2, 301, -2.2, 2.2, 301)
        fld = joint_spd(p, baseline_noise, grid=grid)
        interp = RegularGridInterpolator((fld.x, fld.v), fld.values)

        def at_energy(H0, regime):
            om = solve_frequency(H0, p, regime)
            tp = turning_points(H0, p, om, regime)
            x = tp.x_a + 0.5 * (tp.x_b - tp.x_a)
            ec = effective_coeffs(p, om)
            v = math.sqrt(2.0 * (H0 - effective_potential(x, p, ec.delta_eff)))
            chi = 1.0 + baseline_noise.c**2 * om**2
            be = ec.beta_eff
            ln_closed = math.log(chi / baseline_noise.D) - (
                be * chi / baseline_noise.D * H0
            )
            return float(interp([[x, v]])[0]), ln_closed

        j0, c0 = at_energy(-0.25, MotionRegime.RIGHT_WELL)
        j1, c1 = at_energy(-0.35, MotionRegime.RIGHT_WELL)
        assert math.log(j0 / j1) == pytest.approx(c0 - c1, abs=5e-3)

    def test_rejects_zero_noise(self, controlled_system):
        with pytest.raises(ParameterError):
            joint_spd(controlled_system, NoiseParams(D=0.0, c=0.3))

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(nx=16)
        with pytest.raises(ParameterError):
            GridSpec(x_min=2.0, x_max=-2.0)

    def test_expansion_that_runs_out_raises(self, baseline_system):
        """At D = 50 the density is still above 1e-12 of its peak on the
        boundary of the fifth expansion of a 32 x 32 grid."""
        with pytest.raises(ConvergenceError, match="did not contain"):
            joint_spd(baseline_system, NoiseParams(D=50.0, c=0.3),
                      GridSpec(nx=32, nv=32))


class TestGeneralizedPotential:
    def test_reproduces_density_exponent(self, controlled_system, baseline_noise):
        """exp(-U_gen/D) is proportional to the joint density (same grid)."""
        p = controlled_system
        grid = GridSpec(-2.0, 2.0, 41, -2.0, 2.0, 41)
        x, v = grid.axes()
        X, V = np.meshgrid(x, v, indexing="ij")
        ug = effective_generalized_potential(
            X.ravel(), V.ravel(), p, baseline_noise
        ).reshape(X.shape)
        fld = joint_spd(p, baseline_noise)
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator((fld.x, fld.v), np.log(fld.values + 1e-300))
        ln_dens = interp(np.stack([X.ravel(), V.ravel()], axis=1)).reshape(X.shape)
        # ln p = const + ln(chi/D) - U/D; chi varies across the grid, so compare
        # on an iso-frequency subset: points in the deep well region
        mask = ug < 0.2 * ug.max()
        resid = ln_dens[mask] + ug[mask] / baseline_noise.D
        # allow the slowly varying ln(chi) term a small spread
        assert np.ptp(resid) < 0.15 * np.ptp(ug[mask] / baseline_noise.D)

    def test_wells_below_saddle(self, controlled_system, baseline_noise):
        p = controlled_system
        om = math.sqrt(2.0 * p.delta1)
        xm = well_minimum(p, stiffness_margin(p, om))
        u_well = effective_generalized_potential(xm, 0.0, p, baseline_noise)
        u_saddle = effective_generalized_potential(0.0, 0.0, p, baseline_noise)
        assert u_well < u_saddle
        assert u_saddle == pytest.approx(0.0, abs=1e-8)


class TestMeanPower:
    def test_grid_refinement_converged(self, controlled_system, monkeypatch):
        """Doubling the energy rule's intervals and the orbit nodes moves the
        power by at most 1e-4 at D = 0.001, 0.005 and 0.1, and
        power_accuracy's half-rule estimate bounds the move."""
        noises = [NoiseParams(D=D, c=0.3) for D in (0.001, 0.005, 0.1)]
        power = [mean_power(controlled_system, n) for n in noises]
        rel_err = [averaging.power_accuracy(controlled_system, n).rel_err for n in noises]
        monkeypatch.setattr(averaging, "_ENERGY_INTERVALS", 2 * averaging._ENERGY_INTERVALS)
        monkeypatch.setattr(averaging, "_ORBIT_NODES", 2 * averaging._ORBIT_NODES)
        averaging._energy_nodes.cache_clear()
        for n, coarse, err in zip(noises, power, rel_err):
            fine = mean_power(controlled_system, n)
            assert abs(fine / coarse - 1.0) <= min(1e-4, max(err, 1e-12))

    def test_power_is_kappa_alpha_msv(self, controlled_system, baseline_noise):
        p = controlled_system
        ev2 = mean_square_voltage(p, baseline_noise)
        assert mean_power(p, baseline_noise) == pytest.approx(
            p.kappa * p.alpha * ev2, rel=1e-12
        )

    def test_strong_coupling_stays_finite(self, baseline_noise):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=2.0, alpha=0.05, beta=0.02)
        val = mean_square_voltage(p, baseline_noise)
        assert math.isfinite(val) and val > 0

    def test_zero_coupling_zero_power(self, baseline_noise):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.0, alpha=0.05, beta=0.02)
        assert mean_power(p, baseline_noise) == 0.0


def damped_reference_fields(p, X, V, table):
    """Transcription of the damped fixed point plus straggler bisection, an
    earlier field solve.  Returns H, omega and the mask of points it
    bisected."""
    shape = X.shape
    omega = np.full(shape, math.sqrt(2.0 * p.delta1))
    kin = 0.5 * V * V
    bare = -0.5 * p.delta1 * X * X + 0.25 * p.delta3 * X**4

    def d_eff_of(om):
        return effective_coeffs(p, om).delta_eff

    def H_of(om):
        return kin + bare + 0.5 * d_eff_of(om) * X * X

    for _ in range(60):
        omega_new = table.lookup_bridged(H_of(omega)).reshape(shape)
        if np.max(np.abs(omega_new - omega)) <= 1e-12:
            omega = omega_new
            break
        omega = 0.5 * (omega + omega_new)
    resid = np.abs(table.lookup_bridged(H_of(omega)).reshape(shape) - omega)
    bad = resid > 1e-9
    if np.any(bad):
        xb = X[bad]
        base = kin[bad] + bare[bad]
        om_lo = min(float(table.omega_neg.min()), float(table.omega_pos.min()))
        om_hi = max(float(table.omega_neg.max()), float(table.omega_pos.max()))
        d_span = np.array([d_eff_of(om) for om in np.linspace(om_lo, om_hi, 64)])
        lo = base + 0.5 * d_span.min() * xb * xb - 1e-9
        hi = base + 0.5 * d_span.max() * xb * xb + 1e-9

        def F(Hq):
            return base + 0.5 * d_eff_of(table.lookup_bridged(Hq)) * xb * xb - Hq

        flo = F(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = F(mid)
            same = np.sign(fm) == np.sign(flo)
            lo = np.where(same, mid, lo)
            flo = np.where(same, fm, flo)
            hi = np.where(same, hi, mid)
        omega[bad] = table.lookup_bridged(0.5 * (lo + hi))
    return H_of(omega), omega, bad


def delayed(tau1, tau2):
    return SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
                        mu=-0.005, nu=0.005, tau1=tau1, tau2=tau2)


def fixed_point_residual(table, H, omega):
    """|omega(H) - omega| at every point of the fields."""
    return np.abs(table.lookup_bridged(H.ravel()).reshape(H.shape) - omega)


class TestFieldSolve:
    @pytest.fixture
    def bisected_bases(self, monkeypatch):
        """The base energies B of the points each _bisected_fields call gets."""
        bases = []
        bisect = averaging._bisected_fields

        def spy(p, base, *args):
            bases.append(base.copy())
            return bisect(p, base, *args)

        monkeypatch.setattr(averaging, "_bisected_fields", spy)
        return bases

    @pytest.mark.parametrize("tau", [None, (1.7, 1.6), (0.7, 0.0)])
    def test_matches_damped_solve(self, baseline_system, tau, bisected_bases):
        """The fixed-point solve equals the damped solve plus bisection to
        1e-12 in H on the default grid.  Every point it does not bisect is a
        fixed point to 1e-12, and omega equals the reference's to 1e-12 wherever
        the reference is a fixed point to 1e-12: at tau = (1.7, 1.6) the damped
        loop stops 8.5e-12 off its fixed point.  The bisected points, the four
        mirror images of one point at tau = (1.7, 1.6), where the iteration
        cycles, are fixed points to 1e-9."""
        p = baseline_system if tau is None else delayed(*tau)
        n_bisected = 4 if tau == (1.7, 1.6) else 0
        grid = GridSpec()
        x, v = grid.axes()
        X, V = np.meshgrid(x, v, indexing="ij")
        table = averaging._table_for(p, grid)
        H_ref, om_ref, _ = damped_reference_fields(p, X, V, table)
        H, om, ec = averaging._self_consistent_fields(p, X, V, table)
        assert np.max(np.abs(H - H_ref)) <= 1e-12
        assert np.array_equal(ec.omega, om)
        settled = fixed_point_residual(table, H_ref, om_ref) <= 1e-12
        assert np.max(np.abs(om - om_ref)[settled]) <= 1e-12
        assert sum(b.size for b in bisected_bases) == n_bisected
        B = 0.5 * V * V + bare_potential(X, p)
        bisected = np.isin(B, np.concatenate([np.empty(0), *bisected_bases]))
        assert np.count_nonzero(bisected) == n_bisected
        resid = fixed_point_residual(table, H, om)
        assert np.max(resid[~bisected]) <= 1e-12
        if n_bisected:
            assert np.max(resid[bisected]) <= 1e-9

    def test_multiple_roots_keep_the_damped_root(self, bisected_bases):
        """At tau = (1.7, 1.6) the points x = +-1.25, v = +-0.75 have three
        self-consistent energies.  The fixed-point iteration from
        sqrt(2 delta1) reaches H = -2.78e-3, the root the damped loop
        reached, with no bisection."""
        p = delayed(1.7, 1.6)
        table = averaging._table_for(p, GridSpec())
        X = np.array([1.25, -1.25, 1.25, -1.25])
        V = np.array([0.75, 0.75, -0.75, -0.75])
        H, om, _ = averaging._self_consistent_fields(p, X, V, table)
        H_ref, om_ref, _ = damped_reference_fields(p, X, V, table)
        assert bisected_bases == []
        assert H == pytest.approx(np.full(4, -2.7756e-3), abs=1e-6)
        assert np.max(np.abs(H - H_ref)) <= 1e-12
        assert np.max(fixed_point_residual(table, H, om)) <= 1e-12
        settled = fixed_point_residual(table, H_ref, om_ref) <= 1e-12
        assert np.max(np.abs(om - om_ref)[settled], initial=0.0) <= 1e-12

    def test_bisection_finds_a_root_outside_the_delta_eff_samples(self):
        """At tau = (1.5, 0.7) the root of x = 1.25, v = 0.75 lies at
        H = 2.8527e-3, above B + x^2/2 max delta_eff over 64 sampled
        frequencies (2.8446e-3); bisecting the frequency range reaches it."""
        p = delayed(1.5, 0.7)
        table = averaging._table_for(p, GridSpec())
        x = np.array([1.25])
        base = 0.5 * 0.75**2 + bare_potential(x, p)
        om = averaging._bisected_fields(p, base, x, table)
        H = base + 0.5 * effective_coeffs(p, om).delta_eff * x * x
        assert H == pytest.approx([2.8527e-3], abs=1e-7)
        assert np.max(fixed_point_residual(table, H, om)) <= 1e-12


class TestGridAxes:
    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(nx=64, nv=64)],
                             ids=["201", "64"])
    def test_symmetric_bounds_give_antisymmetric_axes(self, grid):
        """Symmetric bounds give exactly antisymmetric nodes, each within
        4.5e-16 of np.linspace and printed as it at the CSV's 12 digits."""
        bounds = [(grid.x_min, grid.x_max, grid.nx), (grid.v_min, grid.v_max, grid.nv)]
        for a, (lo, hi, n) in zip(grid.axes(), bounds):
            ref = np.linspace(lo, hi, n)
            assert np.array_equal(a, -a[::-1])
            assert np.max(np.abs(a - ref)) <= 4.5e-16
            assert [f"{t:.11e}" for t in a] == [f"{t:.11e}" for t in ref]

    def test_asymmetric_bounds_give_linspace(self):
        x, v = GridSpec(-2, 3, 41, -3, 2.5, 41).axes()
        assert np.array_equal(x, np.linspace(-2, 3, 41))
        assert np.array_equal(v, np.linspace(-3, 2.5, 41))


class TestMirrorDedupe:
    """_grid_fields solves once per distinct (|x|, |v|) pair and gathers the
    fields back onto the full lattice."""

    def test_solves_the_mirror_distinct_points(self, baseline_system, monkeypatch):
        sizes = []
        solve = averaging._self_consistent_fields

        def spy(p, X, V, table):
            sizes.append(X.size)
            return solve(p, X, V, table)

        monkeypatch.setattr(averaging, "_self_consistent_fields", spy)
        f = averaging._grid_fields(baseline_system, GridSpec())
        assert sizes == [101 * 101]
        assert f.H.shape == f.X.shape == (201, 201)

    @pytest.mark.parametrize(
        "grid", [GridSpec(), GridSpec(-2, 3, 41, -3, 2.5, 41)],
        ids=["symmetric", "asymmetric"],
    )
    @pytest.mark.parametrize("system", ["baseline", "controlled", "criterion_08"])
    def test_matches_the_full_solve(self, request, system, grid):
        """The gathered fields equal the solve on every lattice point to 1e-12;
        criterion 08's (tau1, tau2) = (1.7, 1.0) has points with several
        roots."""
        p = (delayed(1.7, 1.0) if system == "criterion_08"
             else request.getfixturevalue(f"{system}_system"))
        f = averaging._grid_fields(p, grid)
        X, V = np.meshgrid(*grid.axes(), indexing="ij")
        H, om, ec = averaging._self_consistent_fields(
            p, X, V, averaging._table_for(p, grid)
        )
        assert np.array_equal(f.X, X) and np.array_equal(f.V, V)
        assert np.max(np.abs(f.H - H)) <= 1e-12
        assert np.max(np.abs(f.omega - om)) <= 1e-12
        assert np.max(np.abs(f.ec.beta_eff - ec.beta_eff)) <= 1e-12
        assert np.max(np.abs(f.ec.delta_eff - ec.delta_eff)) <= 1e-12
        assert np.array_equal(f.ec.omega, f.omega)

    def test_fields_are_mirror_symmetric(self, controlled_system):
        f = averaging._grid_fields(controlled_system, GridSpec())
        for arr in (f.H, f.omega, f.ec.beta_eff, f.ec.delta_eff, f.ec.omega):
            assert np.array_equal(arr[::-1], arr)
            assert np.array_equal(arr[:, ::-1], arr)


class TestTableCache:
    def test_cached_table_is_read_only(self, controlled_system):
        table = averaging._table_for(controlled_system, GridSpec())
        for arr in (table.H_neg, table.omega_neg, table.H_pos, table.omega_pos):
            assert not arr.flags.writeable

    def test_cold_table_solves_the_bottom_once(self, controlled_system, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return bottom_frequency(p)

        monkeypatch.setattr(averaging, "bottom_frequency", counting)
        monkeypatch.setattr(freq, "bottom_frequency", counting)
        averaging._table_for(controlled_system, GridSpec())
        assert len(calls) == 1


class TestFieldCache:
    """The energy nodes of _energy_nodes, the power's per-system memo."""

    def test_cached_fields_are_read_only(self, controlled_system):
        n = averaging._energy_nodes(controlled_system, GridSpec())
        assert averaging._energy_nodes(controlled_system, GridSpec()) is n
        for arr in (n.H, n.weight, n.half, n.omega, n.beta_eff, n.period, n.volt_sq):
            assert not arr.flags.writeable

    def test_power_same_on_cold_and_warm_cache(self, controlled_system,
                                               baseline_noise):
        cold = mean_power(controlled_system, baseline_noise)
        warm = mean_power(controlled_system, baseline_noise)
        assert averaging._energy_nodes.cache_info().hits == 1
        assert warm == cold

    def test_voltage_same_on_cold_and_warm_cache(self, controlled_system,
                                                 baseline_noise):
        """A warm call reads the cached nodes; it gives the number that nodes
        built afresh give, and power_accuracy reads the same nodes."""
        cold = mean_square_voltage(controlled_system, baseline_noise)
        warm = mean_square_voltage(controlled_system, baseline_noise)
        averaging.power_accuracy(controlled_system, baseline_noise)
        assert averaging._energy_nodes.cache_info().hits == 2
        averaging._energy_nodes.cache_clear()
        fresh = mean_square_voltage(controlled_system, baseline_noise)
        assert cold == warm == fresh

    def test_joint_spd_does_not_fill_the_cache(self, baseline_system,
                                              controlled_system, baseline_noise):
        mean_power(baseline_system, baseline_noise)
        joint_spd(controlled_system, baseline_noise)
        mean_power(baseline_system, baseline_noise)
        info = averaging._energy_nodes.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def _moments(p, H, regime):
    """_orbit_moments at energies H with omega from the table, as mean_power
    reads it."""
    H = np.asarray(H, dtype=float)
    omega = averaging._table_for(p, GridSpec()).lookup_bridged(H)
    return omega, averaging._orbit_moments(p, H, omega, regime)


class TestOrbitMoments:
    """The orbit moments of the power against the closed-form period,
    loop_average and the in-well identity loop-int x dt = pi sqrt(2/delta3)."""

    @pytest.fixture
    def energies(self, controlled_system):
        p = controlled_system
        band = exclusion_band(p)
        bottom = averaging._table_for(p, GridSpec()).H_neg[0]
        return {
            MotionRegime.RIGHT_WELL: [bottom, 0.5 * bottom, -0.05, -1.01 * band, -band],
            MotionRegime.CROSS_WELL: [band, 1.01 * band, 0.05, 2.0, 40.0],
        }

    @pytest.mark.parametrize("regime", [MotionRegime.RIGHT_WELL, MotionRegime.CROSS_WELL])
    def test_period_matches_closed_form(self, controlled_system, energies, regime):
        """T(H) to 1e-10 from the well bottom to both band edges; below the
        separatrix the moments count both wells."""
        p = controlled_system
        H = energies[regime]
        omega, (T, _, _) = _moments(p, H, regime)
        wells = 1 if regime is MotionRegime.CROSS_WELL else 2
        ref = period_integral(np.asarray(H), p, omega, regime)
        assert np.max(np.abs(T / (wells * ref) - 1.0)) <= 1e-10

    def test_in_well_mean_displacement_identity(self, controlled_system, energies):
        """In y = x^2 the loop integral of x dt is int dy / v over the roots of
        a quadratic, pi sqrt(2/delta3) at every energy and frequency."""
        p = controlled_system
        H = np.asarray(energies[MotionRegime.RIGHT_WELL])
        omega = averaging._table_for(p, GridSpec()).lookup_bridged(H)
        tp = turning_points(H[:, None], p, omega[:, None], MotionRegime.RIGHT_WELL)
        theta, w = freq._leggauss(averaging._ORBIT_NODES)
        x, _, dt = freq._orbit_points(tp, p.delta3, theta)
        loop_x = 2.0 * ((x * dt) @ w)
        assert loop_x == pytest.approx(np.full(H.size, math.pi * math.sqrt(2.0 / p.delta3)),
                                       rel=1e-12)

    @pytest.mark.parametrize("regime", [MotionRegime.RIGHT_WELL, MotionRegime.CROSS_WELL])
    def test_velocity_moment_matches_loop_average(self, controlled_system, energies,
                                                  regime):
        """loop-int v^2 dt = 2 pi / omega loop_average(v^2) per orbit, the
        loop average taken at the same frozen omega."""
        p = controlled_system
        H = energies[regime][1:-1]
        omega, (_, _, V2) = _moments(p, H, regime)
        wells = 1 if regime is MotionRegime.CROSS_WELL else 2
        avg = [loop_average(lambda x, v: v * v, h, p, regime, om) for h, om in zip(H, omega)]
        assert V2 == pytest.approx(wells * 2.0 * math.pi / omega * np.array(avg), rel=1e-12)

    def test_collapsed_orbit_keeps_the_loop_average_limit(self):
        """Half a _DEGENERATE_GAP above the bottom the orbit collapses onto the
        minimum: the moments are two harmonic periods 2 pi / sqrt(2a) and no
        excursion, the limit that loop_average gives there."""
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        omega = 1.0
        a = stiffness_margin(p, omega)
        u_min = -a * a / (4.0 * p.delta3)
        H = np.array([u_min + 0.5 * freq._DEGENERATE_GAP * abs(u_min)])
        T, X2, V2 = averaging._orbit_moments(p, H, np.array([omega]),
                                             MotionRegime.RIGHT_WELL)
        assert T[0] == pytest.approx(2.0 * 2.0 * math.pi / math.sqrt(2.0 * a), rel=1e-14)
        assert X2[0] == pytest.approx(0.0, abs=1e-28) and V2[0] == 0.0
        one = loop_average(lambda x, v: np.ones_like(x), float(H[0]), p,
                           MotionRegime.RIGHT_WELL, omega)
        assert omega / (2.0 * math.pi) * T[0] / 2.0 == pytest.approx(one, rel=1e-14)


class TestEnergyRule:
    def test_power_reads_no_field_solve(self, controlled_system, baseline_noise,
                                        monkeypatch):
        def no_solve(*args):
            raise AssertionError("mean_power solved the (x, v) fields")

        monkeypatch.setattr(averaging, "_self_consistent_fields", no_solve)
        assert mean_power(controlled_system, baseline_noise) > 0

    def test_nodes_span_the_table_up_to_the_band(self, controlled_system):
        """The nodes run from the table's deepest knot to -band and from +band
        to its top, and each rule integrates dH exactly over that range."""
        table = averaging._table_for(controlled_system, GridSpec())
        n = averaging._energy_nodes(controlled_system, GridSpec())
        band = exclusion_band(controlled_system)
        well, cross = slice(0, n.split), slice(n.split, None)
        assert n.H[0] == table.H_neg[0] and n.H[-1] == table.H_pos[-1]
        assert n.H[n.split - 1] == -band and n.H[n.split] == band
        for weights in (n.weight, n.half):
            assert np.sum(weights[well]) == pytest.approx(-band - table.H_neg[0], rel=1e-9)
            assert np.sum(weights[cross]) == pytest.approx(table.H_pos[-1] - band, rel=1e-9)

    def test_half_rule_is_every_other_node(self, controlled_system):
        n = averaging._energy_nodes(controlled_system, GridSpec())
        for part in (slice(0, n.split), slice(n.split, None)):
            assert np.all(n.half[part][1::2] == 0.0) and np.all(n.half[part][::2] > 0)

    @pytest.mark.parametrize("D", [0.001, 0.0072, 0.1])
    def test_accuracy_is_small_and_unflagged(self, controlled_system, D):
        acc = averaging.power_accuracy(controlled_system, NoiseParams(D=D, c=0.3))
        assert 0.0 <= acc.rel_err <= 2e-5
        assert 0.0 <= acc.band_share <= 2e-4
        assert max(acc.rel_err, acc.band_share, acc.top_share) <= averaging.POWER_REL_TOL

    def test_high_noise_is_flagged_by_the_table_top(self, controlled_system):
        """The integrals stop at the table top, H = 50.7 here.  At D = 1 the
        density decays over D / (beta_eff chi) = 17 there, and the share
        above the top flags the power alone; at D = 0.1 it is 3e-14."""
        tol = averaging.POWER_REL_TOL
        acc = averaging.power_accuracy(controlled_system, NoiseParams(D=1.0, c=0.3))
        assert max(acc.rel_err, acc.band_share) <= tol < acc.top_share
        acc = averaging.power_accuracy(controlled_system, NoiseParams(D=0.1, c=0.3))
        assert acc.top_share <= 1e-12

    def test_low_noise_is_flagged(self, controlled_system):
        """At D = 1e-4 the density decays over about 0.004 of the well's
        depth of 0.6, finer than the rule resolves: the half-rule estimate
        says so."""
        acc = averaging.power_accuracy(controlled_system, NoiseParams(D=1e-4, c=0.3))
        assert acc.rel_err > averaging.POWER_REL_TOL
