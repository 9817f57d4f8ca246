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
    bottom_frequency, exclusion_band, period_integral, solve_frequency,
)
from harvest.model import (
    MotionRegime,
    NoiseParams,
    SystemParams,
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
    def test_grid_refinement_converged(self, controlled_system, baseline_noise):
        coarse = mean_square_voltage(
            controlled_system, baseline_noise,
            grid=GridSpec(-2.5, 2.5, 101, -3.0, 3.0, 101),
        )
        fine = mean_square_voltage(
            controlled_system, baseline_noise,
            grid=GridSpec(-2.5, 2.5, 201, -3.0, 3.0, 201),
        )
        assert abs(fine - coarse) <= 0.01 * abs(fine)

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
    """Transcription of the damped fixed point plus straggler bisection that
    solved the fields before the certified Newton solve.  Returns H, omega and
    the mask of points it bisected."""
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


class TestFieldSolve:
    @pytest.fixture
    def fallback_sizes(self, monkeypatch):
        sizes = []
        damped = averaging._damped_fields

        def spy(p, base, *args):
            sizes.append(base.size)
            return damped(p, base, *args)

        monkeypatch.setattr(averaging, "_damped_fields", spy)
        return sizes

    @pytest.mark.parametrize("tau", [None, (1.7, 1.6), (0.7, 0.0)])
    def test_matches_damped_solve(self, baseline_system, tau, fallback_sizes):
        """The certified Newton solve equals the damped solve plus bisection to
        1e-12 in omega on the default grid; only points near the separatrix
        (at most 1% of the grid) take the damped fallback."""
        p = baseline_system if tau is None else delayed(*tau)
        grid = GridSpec()
        x, v = grid.axes()
        X, V = np.meshgrid(x, v, indexing="ij")
        table = averaging._table_for(p, grid)
        H_ref, om_ref, bisected = damped_reference_fields(p, X, V, table)
        H, om, ec = averaging._self_consistent_fields(p, X, V, table)
        assert np.max(np.abs(om - om_ref)) <= 1e-12
        assert np.max(np.abs(H - H_ref)) <= 1e-12
        assert np.array_equal(ec.omega, om)
        assert 0 < fallback_sizes[0] <= 0.01 * X.size
        if tau == (0.7, 0.0):
            # the damped loop still cycles at these points, so the fallback
            # bisects them, and they are resolved
            assert np.count_nonzero(bisected) == 8
            resid = np.abs(table.lookup_bridged(H[bisected]) - om[bisected])
            assert np.max(resid) <= 1e-9

    def test_multiple_roots_keep_the_damped_root(self, fallback_sizes):
        """At tau = (1.7, 1.6) the points x = +-1.25, v = +-0.75 have three
        self-consistent energies.  Newton from the bracket would reach
        H = 1.75e-3; the certificate sends them to the damped loop, which
        reaches H = -2.78e-3."""
        p = delayed(1.7, 1.6)
        table = averaging._table_for(p, GridSpec())
        X = np.array([1.25, -1.25, 1.25, -1.25])
        V = np.array([0.75, 0.75, -0.75, -0.75])
        H, om, _ = averaging._self_consistent_fields(p, X, V, table)
        assert fallback_sizes == [4]
        assert H == pytest.approx(np.full(4, -2.7756e-3), abs=1e-6)
        assert np.array_equal(om, damped_reference_fields(p, X, V, table)[1])


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
    def test_cached_fields_are_read_only(self, controlled_system):
        f = averaging._fields_for(controlled_system, GridSpec())
        assert averaging._fields_for(controlled_system, GridSpec()) is f
        for arr in (f.x, f.v, f.X, f.V, f.H, f.omega, f.volt_sq,
                    f.ec.beta_eff, f.ec.delta_eff, f.ec.omega):
            assert not arr.flags.writeable

    def test_power_same_on_cold_and_warm_cache(self, controlled_system,
                                               baseline_noise):
        cold = mean_power(controlled_system, baseline_noise)
        warm = mean_power(controlled_system, baseline_noise)
        assert averaging._fields_for.cache_info().hits == 1
        assert warm == cold

    def test_voltage_same_on_cold_and_warm_cache(self, controlled_system,
                                                 baseline_noise):
        """A warm call reads the cached squared voltage map; it gives the
        number that the map worked out afresh gives."""
        cold = mean_square_voltage(controlled_system, baseline_noise)
        warm = mean_square_voltage(controlled_system, baseline_noise)
        assert averaging._fields_for.cache_info().hits == 1
        f = averaging._grid_fields(controlled_system, GridSpec())
        values, _ = averaging._joint_density(baseline_noise, f)
        volt_sq = averaging._squared_voltage(controlled_system, f)
        fresh = float(np.trapezoid(np.trapezoid(volt_sq * values, f.v, axis=1), f.x))
        assert f.volt_sq is None
        assert cold == warm == fresh

    def test_joint_spd_does_not_fill_the_cache(self, baseline_system,
                                              controlled_system, baseline_noise):
        mean_power(baseline_system, baseline_noise)
        before = averaging._fields_for.cache_info().currsize
        joint_spd(controlled_system, baseline_noise)
        assert averaging._fields_for.cache_info().currsize == before
