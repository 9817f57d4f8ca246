"""Two-state stochastic resonance: equilibria, rates, spectrum, SNR.

Reference values marked "mpmath oracle" were computed at 50 significant digits
from the closed-form rate and SNR expressions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harvest import model, resonance
from harvest.errors import BistabilityLossError, ParameterError
from harvest.model import (
    ExcitationParams, NoiseParams, SystemParams, effective_coeffs,
)
from harvest.resonance import (
    analyze,
    linearization_eigenvalues,
    output_spectrum,
    snr,
    snr_equilibria,
    snr_vs_noise,
)

# mpmath oracle at delta1 = delta3 = 3, kappa = 0.3, alpha = 0.05, beta = 0.02,
# (mu, nu, tau1, tau2) = (-0.005, 0.005, 0.6, 2.5), D = 0.005, c = 0.3,
# excitation (eps, G, Omega) = (0.1, 0.1, 0.05).
XS_REF = 0.94870524891179259198
R0_REF = 0.020232003294026021923
R1_REF = 0.009181981809913438706
SNR_REF = 3.2733073186453446869e-5


def _failing_excitation(p, noise):
    """Excitation (G, Omega) = (0.1, 0.05) driven hard enough for q = 4 at noise."""
    r = analyze(p, noise, ExcitationParams(G=0.1, Omega=0.05))
    eps = 2.0 * math.sqrt(2.0 * (r.R0 * r.R0 + 0.05**2)) / r.R1
    return ExcitationParams(eps=eps, G=0.1, Omega=0.05)


def _assert_scan_is_analyze(p, ex, c):
    """snr_vs_noise over an underflowing D, an ordinary D and the D = 0.005 of
    _failing_excitation equals analyze(...).snr at each: 0.0, finite, NaN."""
    D = np.array([1e-7, 1e-3, 0.005])
    vals = snr_vs_noise(p, ex, D, c=c)
    expected = [analyze(p, NoiseParams(D=d, c=c), ex).snr for d in D]
    np.testing.assert_array_equal(vals, expected)
    assert vals[0] == 0.0 and 0.0 < vals[1] < math.inf and math.isnan(vals[2])


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
        ec = effective_coeffs(controlled_system, om)
        lam = linearization_eigenvalues(controlled_system, xs, om, ec)
        assert lam[0].real < 0 and lam[1].real < 0

    def test_saddle_has_one_unstable_direction(self, controlled_system):
        _, _, om = snr_equilibria(controlled_system)
        ec = effective_coeffs(controlled_system, om)
        lam = linearization_eigenvalues(controlled_system, 0.0, om, ec)
        reals = sorted(ell.real for ell in lam)
        assert reals[0] < 0 < reals[1]

    def test_eigenvalue_product_is_curvature(self, controlled_system):
        """Vieta: the product of the two eigenvalues equals the curvature term."""
        p = controlled_system
        xs, _, om = snr_equilibria(p)
        lam = linearization_eigenvalues(p, xs, om, effective_coeffs(p, om))
        curv = (
            -p.delta1
            + p.kappa * om**2 / (p.alpha**2 + om**2)
            + 3.0 * p.delta3 * xs**2
        )
        assert (lam[0] * lam[1]).real == pytest.approx(curv, rel=1e-12)


class TestRates:
    def test_reference_values(self, controlled_system, baseline_noise, baseline_excitation):
        r = analyze(controlled_system, baseline_noise, baseline_excitation)
        assert r.R0 == pytest.approx(R0_REF, rel=1e-12)
        assert r.R1 == pytest.approx(R1_REF, rel=1e-12)

    def test_rate_increases_with_noise(self, controlled_system, baseline_excitation):
        rates = [
            analyze(controlled_system, NoiseParams(D=D, c=0.3), baseline_excitation).R0
            for D in (0.002, 0.005, 0.02)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_requires_positive_noise(self, controlled_system, baseline_excitation):
        with pytest.raises(ParameterError):
            analyze(controlled_system, NoiseParams(D=0.0, c=0.3), baseline_excitation)

    def test_deep_well_underflows_to_zero(self, baseline_excitation):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        r = analyze(p, NoiseParams(D=1e-7, c=0.3), baseline_excitation)
        assert r.R0 == 0.0 and r.R1 == 0.0


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
        ex = _failing_excitation(p, noise)
        r = analyze(p, noise, ex)
        assert r.R0 > 0 and not r.linear_response_ok
        assert math.isnan(r.snr)
        _assert_scan_is_analyze(p, ex, noise.c)
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
        _assert_scan_is_analyze(
            p, _failing_excitation(p, NoiseParams(D=0.005, c=0.3)), 0.3
        )

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
        R0, R1 = r.R0, r.R1
        lor = R0 * R0 + baseline_excitation.Omega**2
        q = R1 * R1 * baseline_excitation.eps**2 / (2.0 * lor)
        expected = (
            math.pi * R1 * R1 * baseline_excitation.eps**2 / (4.0 * R0) / (1.0 - q)
        )
        assert r.snr == pytest.approx(expected, rel=1e-14)


def test_analyze_evaluates_the_coefficients_once(
    controlled_system, baseline_noise, baseline_excitation, monkeypatch
):
    calls = []
    effective_coeffs = model.effective_coeffs

    def counting(p, omega):
        calls.append(omega)
        return effective_coeffs(p, omega)

    monkeypatch.setattr(model, "effective_coeffs", counting)
    monkeypatch.setattr(resonance, "effective_coeffs", counting)
    analyze(controlled_system, baseline_noise, baseline_excitation)
    assert len(calls) == 1
