"""Parameter types, closed-form potentials, and effective coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harvest.errors import BistabilityLossError, ParameterError
from harvest.model import (
    ExcitationParams,
    MotionRegime,
    NoiseParams,
    SystemParams,
    bare_potential,
    effective_coeffs,
    effective_potential,
    equilibrium_for_regime,
    stiffness_margin,
    well_depth,
    well_minimum,
)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta1": 0.0, "delta3": 3.0},
            {"delta1": -1.0, "delta3": 3.0},
            {"delta1": 3.0, "delta3": 0.0},
            {"delta1": 3.0, "delta3": 3.0, "kappa": -0.1},
            {"delta1": 3.0, "delta3": 3.0, "alpha": 0.0},
            {"delta1": 3.0, "delta3": 3.0, "beta": -0.01},
            {"delta1": 3.0, "delta3": 3.0, "tau1": -0.5},
            {"delta1": 3.0, "delta3": 3.0, "tau2": -0.5},
        ],
    )
    def test_system_params_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            SystemParams(**kwargs)

    def test_noise_params_rejects_invalid(self):
        with pytest.raises(ParameterError):
            NoiseParams(D=-0.001, c=0.3)
        with pytest.raises(ParameterError):
            NoiseParams(D=0.005, c=0.0)

    def test_noise_zero_intensity_allowed_but_guarded(self):
        noise = NoiseParams(D=0.0, c=0.3)
        with pytest.raises(ParameterError):
            noise.require_positive_intensity()
        NoiseParams(D=0.005, c=0.3).require_positive_intensity()  # no raise

    def test_excitation_params_rejects_invalid(self):
        with pytest.raises(ParameterError):
            ExcitationParams(eps=-0.1)
        with pytest.raises(ParameterError):
            ExcitationParams(G=-0.1)
        with pytest.raises(ParameterError):
            ExcitationParams(Omega=0.0)

    def test_excitation_amplitude(self):
        assert ExcitationParams(eps=0.1, G=0.1).amplitude == pytest.approx(0.01)

    def test_effective_coeffs_rejects_nonpositive_omega(self, baseline_system):
        with pytest.raises(ParameterError):
            effective_coeffs(baseline_system, 0.0)
        with pytest.raises(ParameterError):
            effective_coeffs(baseline_system, np.array([1.0, -2.0]))


class TestBarePotential:
    def test_equilibria_are_critical_points(self, baseline_system):
        """The derivative -delta1*x + delta3*x^3 vanishes at all three equilibria."""
        p = baseline_system
        for regime in MotionRegime:
            x = equilibrium_for_regime(p, regime)
            assert abs(-p.delta1 * x + p.delta3 * x**3) < 1e-12

    def test_equilibria_locations(self, baseline_system):
        xs, xs_m, xu = (
            equilibrium_for_regime(baseline_system, regime) for regime in MotionRegime
        )
        assert xs == pytest.approx(1.0, abs=1e-15)
        assert xs_m == -xs
        assert xu == 0.0

    def test_double_well_shape(self, baseline_system):
        p = baseline_system
        xs = equilibrium_for_regime(p, MotionRegime.RIGHT_WELL)
        assert bare_potential(xs, p) < bare_potential(0.0, p) == 0.0
        assert bare_potential(xs, p) == pytest.approx(
            -p.delta1**2 / (4.0 * p.delta3)
        )

    def test_vectorized_matches_scalar(self, baseline_system):
        x = np.linspace(-2, 2, 17)
        vec = bare_potential(x, baseline_system)
        scal = np.array([bare_potential(float(xx), baseline_system) for xx in x])
        np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


class TestEffectiveCoeffs:
    def test_uncoupled_uncontrolled_limit(self):
        """With kappa = mu = nu = 0 the corrections vanish identically."""
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.0, beta=0.02)
        ec = effective_coeffs(p, 2.0)
        assert ec.beta_eff == pytest.approx(p.beta, abs=1e-15)
        assert ec.delta_eff == pytest.approx(0.0, abs=1e-15)

    def test_circuit_only_terms(self, baseline_system):
        p = baseline_system
        om = 2.2
        den = p.alpha**2 + om**2
        ec = effective_coeffs(p, om)
        assert ec.beta_eff == pytest.approx(p.beta + p.kappa * p.alpha / den)
        assert ec.delta_eff == pytest.approx(p.kappa * om**2 / den)

    def test_feedback_terms(self):
        p = SystemParams(
            delta1=3.0, delta3=3.0, kappa=0.0, beta=0.0,
            mu=0.01, nu=-0.02, tau1=1.3, tau2=0.5,
        )
        om = 1.7
        ec = effective_coeffs(p, om)
        assert ec.beta_eff == pytest.approx(
            (p.mu / om) * math.sin(om * p.tau1) - p.nu * math.cos(om * p.tau2)
        )
        assert ec.delta_eff == pytest.approx(
            -p.mu * math.cos(om * p.tau1) - p.nu * om * math.sin(om * p.tau2)
        )

    def test_array_matches_scalar_path(self, controlled_system):
        omegas = np.array([0.5, 1.0, 2.44948974278, 5.0])
        ec = effective_coeffs(controlled_system, omegas)
        for i, om in enumerate(omegas):
            ec_s = effective_coeffs(controlled_system, float(om))
            assert ec.beta_eff[i] == pytest.approx(ec_s.beta_eff, rel=1e-15)
            assert ec.delta_eff[i] == pytest.approx(ec_s.delta_eff, rel=1e-15)

    @given(
        om=st.floats(0.05, 20.0),
        kappa=st.floats(0.0, 2.0),
        mu=st.floats(-0.05, 0.05),
        nu=st.floats(-0.05, 0.05),
        tau1=st.floats(0.0, 3.0),
        tau2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_delay_free_gains_bound_the_corrections(
        self, om, kappa, mu, nu, tau1, tau2
    ):
        """Feedback contributions are bounded by the gain magnitudes."""
        p = SystemParams(
            delta1=3.0, delta3=3.0, kappa=kappa, alpha=0.05, beta=0.02,
            mu=mu, nu=nu, tau1=tau1, tau2=tau2,
        )
        base = SystemParams(
            delta1=3.0, delta3=3.0, kappa=kappa, alpha=0.05, beta=0.02
        )
        ec = effective_coeffs(p, om)
        ec0 = effective_coeffs(base, om)
        assert abs(ec.beta_eff - ec0.beta_eff) <= abs(mu) / om + abs(nu) + 1e-12
        assert abs(ec.delta_eff - ec0.delta_eff) <= abs(mu) + abs(nu) * om + 1e-12


class TestDerivedQuantities:
    def test_stiffness_margin_and_well_depth(self, baseline_system):
        p = baseline_system
        om = math.sqrt(2.0 * p.delta1)
        a = stiffness_margin(p, om)
        assert 0 < a < p.delta1
        assert well_depth(p, om) == pytest.approx(a * a / (4.0 * p.delta3))

    def test_effective_minima_are_minima(self, baseline_system):
        p = baseline_system
        om = 2.3
        d_eff = effective_coeffs(p, om).delta_eff
        xm = well_minimum(p, stiffness_margin(p, om))
        u0 = effective_potential(xm, p, d_eff)
        assert effective_potential(-xm, p, d_eff) == u0
        h = 1e-6
        assert effective_potential(xm + h, p, d_eff) > u0
        assert effective_potential(xm - h, p, d_eff) > u0

    def test_bistability_loss_raises(self):
        p = SystemParams(delta1=0.1, delta3=3.0, kappa=5.0, alpha=0.05)
        with pytest.raises(BistabilityLossError):
            well_depth(p, 2.0)
        with pytest.raises(BistabilityLossError):
            well_minimum(p, stiffness_margin(p, 2.0))

    def test_forcing_tilts_potential(self, baseline_system):
        p = baseline_system
        d_eff = effective_coeffs(p, 2.0).delta_eff
        assert effective_potential(1.0, p, d_eff, forcing=0.01) == pytest.approx(
            effective_potential(1.0, p, d_eff) - 0.01
        )

    def test_equilibrium_for_regime(self, baseline_system):
        p = baseline_system
        xs = math.sqrt(p.delta1 / p.delta3)
        assert equilibrium_for_regime(p, MotionRegime.RIGHT_WELL) == xs
        assert equilibrium_for_regime(p, MotionRegime.LEFT_WELL) == -xs
        assert equilibrium_for_regime(p, MotionRegime.CROSS_WELL) == 0.0
