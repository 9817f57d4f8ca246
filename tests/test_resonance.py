"""Two-state stochastic resonance: equilibria, rates, spectrum, SNR.

Reference values marked "mpmath oracle" were computed at 50 significant digits
from the closed-form rate and SNR expressions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harvest.errors import BistabilityLossError, ParameterError
from harvest.model import ExcitationParams, NoiseParams, SystemParams
from harvest.resonance import (
    analyze,
    linearization_eigenvalues,
    output_spectrum,
    snr,
    snr_equilibria,
    snr_vs_noise,
    transition_rates,
)

# mpmath oracle at delta1 = delta3 = 3, kappa = 0.3, alpha = 0.05, beta = 0.02,
# (mu, nu, tau1, tau2) = (-0.005, 0.005, 0.6, 2.5), D = 0.005, c = 0.3,
# excitation (eps, G, Omega) = (0.1, 0.1, 0.05).
XS_REF = 0.94870524891179259198
R0_REF = 0.020232003294026021923
R1_REF = 0.009181981809913438706
SNR_REF = 3.2733073186453446869e-5


class TestEquilibria:
    def test_reference_location(self, controlled_system):
        xs, xs_m, om = snr_equilibria(controlled_system)
        assert xs == pytest.approx(XS_REF, rel=1e-13)
        assert xs_m == -xs
        assert om == pytest.approx(math.sqrt(2.0 * controlled_system.delta1))

    def test_delays_do_not_move_equilibria(self, controlled_system):
        base = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        assert snr_equilibria(controlled_system)[0] == pytest.approx(
            snr_equilibria(base)[0], rel=1e-14
        )

    def test_loss_of_bistability(self):
        p = SystemParams(delta1=0.1, delta3=3.0, kappa=5.0, alpha=0.05)
        with pytest.raises(BistabilityLossError):
            snr_equilibria(p)


class TestEigenvalues:
    def test_stable_point_attracts(self, controlled_system):
        xs, _, om = snr_equilibria(controlled_system)
        lam = linearization_eigenvalues(controlled_system, xs, om)
        assert lam[0].real < 0 and lam[1].real < 0

    def test_saddle_has_one_unstable_direction(self, controlled_system):
        _, _, om = snr_equilibria(controlled_system)
        lam = linearization_eigenvalues(controlled_system, 0.0, om)
        reals = sorted(ell.real for ell in lam)
        assert reals[0] < 0 < reals[1]

    def test_eigenvalue_product_is_curvature(self, controlled_system):
        """Vieta: the product of the two eigenvalues equals the curvature term."""
        p = controlled_system
        xs, _, om = snr_equilibria(p)
        lam = linearization_eigenvalues(p, xs, om)
        curv = (
            -p.delta1
            + p.kappa * om**2 / (p.alpha**2 + om**2)
            + 3.0 * p.delta3 * xs**2
        )
        assert (lam[0] * lam[1]).real == pytest.approx(curv, rel=1e-12)


class TestRates:
    def test_reference_values(self, controlled_system, baseline_noise, baseline_excitation):
        R0, R1 = transition_rates(
            controlled_system, baseline_noise, baseline_excitation
        )
        assert R0 == pytest.approx(R0_REF, rel=1e-12)
        assert R1 == pytest.approx(R1_REF, rel=1e-12)

    def test_rate_increases_with_noise(self, controlled_system, baseline_excitation):
        rates = [
            transition_rates(
                controlled_system, NoiseParams(D=D, c=0.3), baseline_excitation
            )[0]
            for D in (0.002, 0.005, 0.02)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_requires_positive_noise(self, controlled_system, baseline_excitation):
        with pytest.raises(ParameterError):
            transition_rates(
                controlled_system, NoiseParams(D=0.0, c=0.3), baseline_excitation
            )

    def test_deep_well_underflows_to_zero(self, baseline_excitation):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        R0, R1 = transition_rates(
            p, NoiseParams(D=1e-7, c=0.3), baseline_excitation
        )
        assert R0 == 0.0 and R1 == 0.0


class TestSnr:
    def test_reference_value(self, controlled_system, baseline_noise, baseline_excitation):
        assert snr(
            controlled_system, baseline_noise, baseline_excitation
        ) == pytest.approx(SNR_REF, rel=1e-12)

    def test_spectrum_ratio_equals_snr_closed_form(self, rng):
        """S1/S2 equals the closed-form SNR on 100 random admissible draws."""
        count = 0
        while count < 100:
            p = SystemParams(
                delta1=float(rng.uniform(1.0, 5.0)),
                delta3=float(rng.uniform(1.0, 5.0)),
                kappa=float(rng.uniform(0.0, 0.5)),
                alpha=float(rng.uniform(0.01, 0.2)),
                beta=float(rng.uniform(0.005, 0.1)),
                mu=float(rng.uniform(-0.01, 0.01)),
                nu=float(rng.uniform(-0.01, 0.01)),
                tau1=float(rng.uniform(0.0, 3.0)),
                tau2=float(rng.uniform(0.0, 3.0)),
            )
            noise = NoiseParams(D=float(rng.uniform(0.002, 0.05)), c=float(rng.uniform(0.05, 1.0)))
            ex = ExcitationParams(
                eps=float(rng.uniform(0.01, 0.2)),
                G=float(rng.uniform(0.01, 0.2)),
                Omega=float(rng.uniform(0.01, 0.5)),
            )
            try:
                r = analyze(p, noise, ex)
            except BistabilityLossError:
                continue
            if r.R0 == 0.0 or not r.linear_response_ok:
                continue
            S1, S2 = output_spectrum(p, noise, ex)
            assert S1 / S2 == pytest.approx(r.snr, rel=1e-12)
            count += 1

    def test_noise_induced_resonance_unimodal(
        self, controlled_system, baseline_excitation
    ):
        """SNR versus noise intensity rises to one peak then falls."""
        D = np.geomspace(1e-3, 1e-1, 30)
        vals = snr_vs_noise(controlled_system, baseline_excitation, D, c=0.3)
        diffs = np.sign(np.diff(vals))
        changes = int(np.sum(diffs[1:] != diffs[:-1]))
        assert changes == 1
        assert diffs[0] > 0 and diffs[-1] < 0

    def test_zero_forcing_zero_signal(self, controlled_system, baseline_noise):
        r = analyze(controlled_system, baseline_noise, ExcitationParams(eps=0.0))
        assert r.snr == 0.0
        assert r.S1_integral == 0.0

    def test_linear_response_failure_is_nan_everywhere(
        self, controlled_system, baseline_noise
    ):
        """At q = 4 analyze, snr_vs_noise and output_spectrum agree: SNR NaN,
        the flag down, the same (negative) noise floor."""
        p, noise = controlled_system, baseline_noise
        R0, R1 = transition_rates(p, noise, ExcitationParams(G=0.1, Omega=0.05))
        eps = 2.0 * math.sqrt(2.0 * (R0 * R0 + 0.05**2)) / R1
        ex = ExcitationParams(eps=eps, G=0.1, Omega=0.05)
        r = analyze(p, noise, ex)
        assert r.R0 > 0 and not r.linear_response_ok
        assert math.isnan(r.snr)
        assert math.isnan(snr_vs_noise(p, ex, [noise.D], c=noise.c)[0])
        assert output_spectrum(p, noise, ex) == (r.S1_integral, r.S2_at_Omega)
        assert r.S2_at_Omega < 0.0

    def test_rate_underflow_is_zero_everywhere(self, baseline_excitation):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        noise = NoiseParams(D=1e-7, c=0.3)
        r = analyze(p, noise, baseline_excitation)
        assert r.underflow and r.R0 == 0.0 and r.linear_response_ok
        assert r.snr == 0.0
        assert snr_vs_noise(p, baseline_excitation, [1e-7], c=0.3)[0] == 0.0
        assert output_spectrum(p, noise, baseline_excitation) == (0.0, 0.0)

    @given(D=st.floats(1e-3, 0.1), eps=st.floats(0.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_snr_nonnegative_and_finite(self, controlled_system, D, eps):
        val = snr(
            controlled_system, NoiseParams(D=D, c=0.3),
            ExcitationParams(eps=eps, G=0.1, Omega=0.05),
        )
        assert math.isfinite(val) and val >= 0.0

    def test_analyze_reports_consistent_pieces(
        self, controlled_system, baseline_noise, baseline_excitation
    ):
        r = analyze(controlled_system, baseline_noise, baseline_excitation)
        R0, R1 = transition_rates(
            controlled_system, baseline_noise, baseline_excitation
        )
        assert r.R0 == R0 and r.R1 == R1
        lor = R0 * R0 + baseline_excitation.Omega**2
        q = R1 * R1 * baseline_excitation.eps**2 / (2.0 * lor)
        expected = (
            math.pi * R1 * R1 * baseline_excitation.eps**2 / (4.0 * R0) / (1.0 - q)
        )
        assert r.snr == pytest.approx(expected, rel=1e-14)
