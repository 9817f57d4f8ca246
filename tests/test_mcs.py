"""Monte Carlo lane: noise generator statistics, integrator behavior,
determinism, delay handling, and the spectral SNR estimator."""

import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from harvest import _kernels, mcs
from harvest.averaging import GridSpec
from harvest.errors import ParameterError
from harvest.mcs import (
    PsdSettings,
    SimConfig,
    estimate_snr_psd,
    ou_initial_draw,
    ou_path_step,
    run_ensemble,
    simulate_trajectory,
)
from harvest.model import ExcitationParams, NoiseParams, SystemParams

EX_OFF = ExcitationParams(eps=0.0)


def small_cfg(**kw) -> SimConfig:
    base = dict(dt=0.01, t_total=200.0, t_transient=40.0, n_traj=8, seed=123)
    base.update(kw)
    return SimConfig(**base)


class TestNoiseGenerator:
    def test_variance_and_lag_autocorrelation(self):
        """Stationary variance D/c and autocorrelation e^-1 * D/c at lag c,
        both within three standard errors at 1e7 samples."""
        noise = NoiseParams(D=0.005, c=0.3)
        dt = 0.01
        n = 10_000_000
        decay = math.exp(-dt / noise.c)
        scale = math.sqrt(noise.D / noise.c * (1.0 - decay * decay))
        rng = np.random.default_rng(7)
        draws = rng.standard_normal(n) * scale
        draws[0] = ou_initial_draw(noise, rng.standard_normal())
        xi = lfilter([1.0], [1.0, -decay], draws)
        var = float(np.var(xi))
        lag = int(round(noise.c / dt))
        acf = float(np.mean(xi[:-lag] * xi[lag:]))
        target_var = noise.D / noise.c
        target_acf = math.exp(-1.0) * noise.D / noise.c
        # the process decorrelates over c/dt steps; effective sample count
        n_eff = n * dt / (2.0 * noise.c)
        se = target_var * math.sqrt(2.0 / n_eff)
        assert abs(var - target_var) <= 3.0 * se
        assert abs(acf - target_acf) <= 3.0 * se

    def test_single_step_matches_recursion(self):
        noise = NoiseParams(D=0.01, c=0.5)
        xi = 0.037
        g = -1.2
        dt = 0.02
        decay = math.exp(-dt / noise.c)
        scale = math.sqrt(noise.D / noise.c * (1.0 - math.exp(-2.0 * dt / noise.c)))
        assert ou_path_step(xi, noise, dt, g) == pytest.approx(
            xi * decay + scale * g, rel=1e-15
        )

    def test_step_rejects_bad_dt(self):
        with pytest.raises(ParameterError):
            ou_path_step(0.0, NoiseParams(D=0.01, c=0.5), -0.1, 0.0)


class TestDeterministicLimits:
    def test_rest_at_equilibrium(self):
        """Noise and forcing off, started at the stable equilibrium: the state
        stays there and no voltage builds up."""
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        cfg = SimConfig(
            dt=0.01, t_total=100.0, t_transient=0.0, n_traj=1, seed=0,
            x0=math.sqrt(p.delta1 / p.delta3),
        )
        res = simulate_trajectory(p, NoiseParams(D=0.0, c=0.3), EX_OFF, cfg, 0)
        assert not res.divergent
        assert np.max(np.abs(res.x - math.sqrt(p.delta1 / p.delta3))) < 1e-6
        assert np.max(np.abs(res.V)) < 1e-6

    def test_unforced_energy_never_increases(self):
        """With noise off the damped oscillator's mechanical energy decays."""
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.0, alpha=0.05, beta=0.05)
        cfg = SimConfig(
            dt=0.002, t_total=50.0, t_transient=0.0, n_traj=1, seed=0, x0=0.4
        )
        res = simulate_trajectory(p, NoiseParams(D=0.0, c=0.3), EX_OFF, cfg, 0)
        energy = (
            0.5 * res.v**2 - 0.5 * p.delta1 * res.x**2 + 0.25 * p.delta3 * res.x**4
        )
        assert np.max(np.diff(energy)) <= 1e-12

    def test_divergence_is_flagged(self):
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        cfg = small_cfg(x0=2000.0, n_traj=2)
        with pytest.raises(ParameterError):
            # both trajectories blow past the guard before any sample lands
            run_ensemble(p, NoiseParams(D=0.005, c=0.3), EX_OFF, cfg)


class TestDelayHandling:
    def test_zero_gain_matches_no_delay(self):
        """mu = nu = 0 makes the delay channel inert regardless of tau."""
        noise = NoiseParams(D=0.005, c=0.3)
        p0 = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        p1 = SystemParams(
            delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
            tau1=0.7, tau2=1.1,
        )
        cfg = small_cfg()
        a = run_ensemble(p0, noise, EX_OFF, cfg)
        b = run_ensemble(p1, noise, EX_OFF, cfg)
        assert a.mean_power == b.mean_power
        assert a.v_rms == b.v_rms

    def test_dt_limit_enforced(self):
        p = SystemParams(
            delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
            mu=0.01, tau1=0.1,
        )
        cfg = small_cfg(dt=0.01)  # 0.1 / 20 = 0.005 < dt
        with pytest.raises(ParameterError):
            run_ensemble(p, NoiseParams(D=0.005, c=0.3), EX_OFF, cfg)

    def test_feedback_changes_response(self):
        noise = NoiseParams(D=0.005, c=0.3)
        p0 = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        p1 = SystemParams(
            delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
            mu=-0.01, nu=0.01, tau1=0.5, tau2=0.5,
        )
        cfg = small_cfg(t_total=500.0, t_transient=100.0)
        a = run_ensemble(p0, noise, EX_OFF, cfg)
        b = run_ensemble(p1, noise, EX_OFF, cfg)
        assert a.mean_power != b.mean_power


class TestDeterminismAndConfig:
    def test_same_seed_bitwise_identical(self, baseline_system, baseline_noise):
        cfg = small_cfg()
        a = run_ensemble(baseline_system, baseline_noise, EX_OFF, cfg)
        b = run_ensemble(baseline_system, baseline_noise, EX_OFF, cfg)
        assert a.mean_power == b.mean_power
        assert a.v_rms == b.v_rms
        np.testing.assert_array_equal(a.histogram.values, b.histogram.values)

    def test_different_seeds_differ(self, baseline_system, baseline_noise):
        a = run_ensemble(baseline_system, baseline_noise, EX_OFF, small_cfg(seed=1))
        b = run_ensemble(baseline_system, baseline_noise, EX_OFF, small_cfg(seed=2))
        assert a.mean_power != b.mean_power

    def test_trajectory_reproducible_by_seed(self, baseline_system, baseline_noise):
        cfg = small_cfg(n_traj=1)
        r1 = simulate_trajectory(baseline_system, baseline_noise, EX_OFF, cfg, 42)
        r2 = simulate_trajectory(baseline_system, baseline_noise, EX_OFF, cfg, 42)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.final_state == r2.final_state

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(dt=0.0, t_total=10.0)
        with pytest.raises(ParameterError):
            SimConfig(dt=0.01, t_total=10.0, t_transient=10.0)
        with pytest.raises(ParameterError):
            SimConfig(dt=0.01, t_total=10.0, n_traj=0)
        with pytest.raises(ParameterError):
            PsdSettings(segment_time=0.0)
        with pytest.raises(ParameterError):
            PsdSettings(segment_time=100.0, overlap=1.0)

    def test_default_transient_rules(self):
        cfg = SimConfig(dt=0.01, t_total=1000.0)
        assert cfg.resolved_transient(EX_OFF) == pytest.approx(200.0)
        ex = ExcitationParams(eps=0.1, G=0.1, Omega=0.05)
        # 200 forcing periods at Omega=0.05 exceed the run; capped at 95%
        assert cfg.resolved_transient(ex) == pytest.approx(950.0)
        assert SimConfig(dt=0.01, t_total=1000.0, t_transient=17.0).resolved_transient(
            EX_OFF
        ) == pytest.approx(17.0)


class TestEstimators:
    def test_step_halving_consistent(self, baseline_system):
        """Halving dt moves the stationary power estimate only slightly."""
        noise = NoiseParams(D=0.005, c=0.3)
        kw = dict(t_total=800.0, t_transient=150.0, n_traj=24)
        a = run_ensemble(baseline_system, noise, EX_OFF, small_cfg(dt=0.01, **kw))
        b = run_ensemble(baseline_system, noise, EX_OFF, small_cfg(dt=0.005, **kw))
        assert b.mean_power == pytest.approx(a.mean_power, rel=0.15)

    def test_histogram_left_right_balance(self, baseline_system, baseline_noise):
        """Alternating-sign starts on a symmetric system fill both half-planes."""
        cfg = small_cfg(n_traj=32, t_total=400.0, t_transient=50.0)
        est = run_ensemble(baseline_system, baseline_noise, EX_OFF, cfg)
        vals = est.histogram.values
        nx = vals.shape[0]
        left = vals[: nx // 2].sum()
        right = vals[nx - nx // 2 :].sum()
        assert left > 0 and right > 0
        # occasional well hops leave residual imbalance; bound it loosely
        assert abs(left - right) / (left + right) < 0.30

    def test_power_voltage_relation(self, baseline_system, baseline_noise):
        est = run_ensemble(baseline_system, baseline_noise, EX_OFF, small_cfg())
        p = baseline_system
        assert est.mean_power == pytest.approx(
            p.kappa * p.alpha * est.v_rms**2, rel=1e-12
        )

    def test_efficiency_defined_with_noise_input(
        self, baseline_system, baseline_noise
    ):
        est = run_ensemble(baseline_system, baseline_noise, EX_OFF, small_cfg())
        assert est.efficiency_defined
        assert 0.0 < est.efficiency_pct < 100.0


class TestOnePass:
    def test_trajectory_is_one_ensemble_row(self, controlled_system):
        """A trajectory on the first spawned stream is the one-trajectory
        ensemble, bit for bit: its power sum and V series give the ensemble's
        power and RMS voltage, and its x, v series give the histogram."""
        p = controlled_system
        noise = NoiseParams(D=0.005, c=0.3)
        ex = ExcitationParams(eps=0.1, G=0.1, Omega=0.05)
        cfg = SimConfig(dt=0.01, t_total=120.0, t_transient=20.0, n_traj=1,
                        seed=321)
        traj = simulate_trajectory(
            p, noise, ex, cfg, np.random.SeedSequence(321).spawn(1)[0],
            x_init=math.sqrt(p.delta1 / p.delta3),
        )
        est = run_ensemble(p, noise, ex, cfg)
        assert not traj.divergent and est.n_divergent == 0
        assert traj.n_samples == est.n_samples
        vsq = 0.0
        for V in traj.V:  # the kernel's running sum, in step order
            vsq += V * V
        assert traj.power_sum == p.kappa * p.alpha * vsq
        assert est.mean_power == p.kappa * p.alpha * (vsq / traj.n_samples)
        assert est.v_rms == math.sqrt(vsq / traj.n_samples)
        g = cfg.grid
        dx = (g.x_max - g.x_min) / g.nx
        dv = (g.v_max - g.v_min) / g.nv
        ix = np.floor((traj.x - g.x_min) / dx).astype(np.int64)
        iv = np.floor((traj.v - g.v_min) / dv).astype(np.int64)
        ok = (ix >= 0) & (ix < g.nx) & (iv >= 0) & (iv < g.nv)
        counts = np.zeros((g.nx, g.nv), dtype=np.int64)
        np.add.at(counts, (ix[ok], iv[ok]), 1)
        np.testing.assert_array_equal(
            est.histogram.values, counts / (counts.sum() * dx * dv)
        )

    def test_psd_block_steps_once(self, baseline_system, baseline_noise,
                                  monkeypatch):
        """With a psd block the ensemble is stepped once, and storing the
        displacement leaves the pooled estimates unchanged."""
        steps = []
        kernel = _kernels._chunk_batch
        signature = inspect.signature(kernel)

        def counting(*args, **kwargs):
            steps.append(signature.bind(*args, **kwargs).arguments["n"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, "_chunk_batch", counting)
        ex = ExcitationParams(eps=1.0, G=0.3, Omega=0.5)
        cfg = SimConfig(
            dt=0.01, t_total=600.0, t_transient=100.0, n_traj=2, seed=5,
            psd=PsdSettings(segment_time=150.0, n_bootstrap=20),
        )
        with_psd = run_ensemble(baseline_system, baseline_noise, ex, cfg)
        assert sum(steps) == 60_000
        assert with_psd.psd_snr is not None
        plain = run_ensemble(
            baseline_system, baseline_noise, ex, SimConfig(
                dt=0.01, t_total=600.0, t_transient=100.0, n_traj=2, seed=5
            )
        )
        assert plain.psd_snr is None
        assert with_psd.mean_power == plain.mean_power
        assert with_psd.v_rms == plain.v_rms
        assert estimate_snr_psd(
            baseline_system, baseline_noise, ex, cfg
        ) == with_psd.psd_snr


def _assert_same_ensemble(a, b):
    assert a.mean_power == b.mean_power
    assert a.v_rms == b.v_rms
    assert a.efficiency_pct == b.efficiency_pct
    assert a.n_divergent == b.n_divergent
    assert a.n_samples == b.n_samples
    np.testing.assert_array_equal(a.histogram.values, b.histogram.values)
    assert a.psd_snr == b.psd_snr


class TestChunking:
    """Results do not depend on how the run is cut into chunks, and a row
    that diverges mid-run stops exactly where its first crossing is."""

    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_chunk_invariance(self, controlled_system, monkeypatch, chunk):
        """tau2 = 2.5 at dt = 0.01 is a 250-step delay, longer than a
        7-step chunk: the delayed reads cross several chunk boundaries."""
        p = controlled_system
        noise = NoiseParams(D=0.005, c=0.3)
        ex = ExcitationParams(eps=1.0, G=0.3, Omega=0.5)
        cfg = SimConfig(
            dt=0.01, t_total=330.0, t_transient=30.0, n_traj=3, seed=17,
            psd=PsdSettings(segment_time=150.0, n_bootstrap=20),
        )
        seed = np.random.SeedSequence(17).spawn(1)[0]
        ref_ens = run_ensemble(p, noise, ex, cfg)
        ref_traj = simulate_trajectory(p, noise, ex, cfg, seed)
        monkeypatch.setattr(mcs, "_CHUNK", chunk)
        ens = run_ensemble(p, noise, ex, cfg)
        traj = simulate_trajectory(p, noise, ex, cfg, seed)
        assert ref_ens.psd_snr is not None
        _assert_same_ensemble(ens, ref_ens)
        for name in ("x", "v", "V"):
            np.testing.assert_array_equal(getattr(traj, name),
                                          getattr(ref_traj, name))
        assert traj.power_sum == ref_traj.power_sum
        assert traj.input_power_sum == ref_traj.input_power_sum
        assert traj.final_state == ref_traj.final_state

    def test_mid_run_divergence(self, baseline_system, monkeypatch):
        """A start at x = 58.5 stays inside the divergence limit for 141
        steps and crosses it at step 141, in the third 64-step chunk.  The
        calm row beside it is its own one-row run; the diverging row keeps
        the samples up to its crossing and freezes there."""
        p = baseline_system
        noise = NoiseParams(D=0.005, c=0.3)
        cfg = SimConfig(dt=0.01, t_total=3.0, t_transient=0.5, n_traj=2,
                        seed=0)
        skip = 50
        monkeypatch.setattr(mcs, "_CHUNK", 64)
        x_calm, x_wild = 1.0, 58.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, _, divergent, series, final = mcs._ensemble_core(
                p, noise, EX_OFF, cfg,
                [np.random.default_rng(1), np.random.default_rng(3)],
                np.array([x_calm, x_wild]), _kernels.STORE_XVV,
            )
            acc1, _, div1, series1, final1 = mcs._ensemble_core(
                p, noise, EX_OFF, cfg, [np.random.default_rng(1)],
                np.array([x_calm]), _kernels.STORE_XVV,
            )
        assert divergent.tolist() == [False, True] and not div1[0]
        np.testing.assert_array_equal(acc[0], acc1[0])
        np.testing.assert_array_equal(series[0], series1[0])
        assert [a[0] for a in final] == [a[0] for a in final1]

        # the diverging row, transcribed: no delay, no forcing
        rng = np.random.default_rng(3)
        dt = cfg.dt
        decay = math.exp(-dt / noise.c)
        scale = math.sqrt(noise.D / noise.c * (1.0 - math.exp(-2.0 * dt / noise.c)))
        xi = math.sqrt(noise.D / noise.c) * rng.standard_normal()
        draws = rng.standard_normal(300)
        x, v, V = x_wild, cfg.v0, cfg.V0
        for step in range(300):
            drive = xi + 0.0
            a = (
                -p.beta * v + p.delta1 * x - p.delta3 * x * x * x
                - p.kappa * V + p.mu * x + p.nu * v + drive
            )
            V = V + dt * (v - p.alpha * V)
            v = v + dt * a
            x = x + dt * v
            xi = xi * decay + scale * draws[step]
            if not abs(x) <= _kernels.DIVERGENCE_LIMIT:
                break
        assert step == 141
        assert acc[1, 2] == step + 1 - skip
        assert np.all(series[1, :, step + 1 - skip:] == 0.0)
        assert np.all(series[1, 0, : step + 1 - skip] != 0.0)
        assert [a[1] for a in final] == [x, v, V, xi]


class TestBootstrap:
    @pytest.mark.parametrize("omega", [0.5, 0.12])
    def test_matches_full_spectrum_bootstrap(self, omega):
        """The bootstrap standard error equals resampling the whole
        periodogram matrix and reading the SNR off each resampled mean.
        omega = 0.12 puts the drive in bin 5, where the lower background
        bins stop at bin 1."""
        rng = np.random.default_rng(11)
        dt = 0.05
        n_post = 6000
        t = dt * np.arange(n_post)
        series = (0.3 * np.sin(omega * t) + rng.standard_normal((5, n_post)))[:, None, :]
        divergent = np.array([False, False, True, False, False])
        ex = ExcitationParams(eps=1.0, G=0.3, Omega=omega)
        cfg = SimConfig(dt=dt, t_total=400.0, n_traj=5, seed=9,
                        psd=PsdSettings(segment_time=250.0, n_bootstrap=40))
        out = estimate_snr_psd(series, divergent, ex, cfg)

        def snr(mean_spec, j):
            lo = np.arange(max(j - 6, 1), max(j - 1, 1))
            hi = np.arange(j + 2, min(j + 7, mean_spec.shape[0]))
            background = float(np.mean(np.concatenate([mean_spec[lo], mean_spec[hi]])))
            if background <= 0:
                return 0.0
            return (float(mean_spec[j]) - background) / background

        n_seg = 5000
        pgs = mcs._segment_periodograms(series, divergent, n_seg, 2500)
        freqs = 2.0 * math.pi * np.fft.rfftfreq(n_seg, d=dt)
        j = int(np.argmin(np.abs(freqs - omega)))
        assert (j >= 7) == (omega == 0.5)
        boot_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(2**20,)))
        boot = np.empty(40)
        for b in range(40):
            pick = boot_rng.integers(0, pgs.shape[0], pgs.shape[0])
            boot[b] = snr(pgs[pick].mean(axis=0), j)
        assert out.n_segments == pgs.shape[0] == 4
        assert out.estimate == snr(pgs.mean(axis=0), j)
        assert out.stderr == float(np.std(boot, ddof=1))


class TestSpectralSnr:
    def test_requires_settings_and_long_segments(
        self, baseline_system, baseline_noise
    ):
        ex = ExcitationParams(eps=0.1, G=0.1, Omega=0.5)
        assert run_ensemble(
            baseline_system, baseline_noise, ex, small_cfg()
        ).psd_snr is None
        with pytest.raises(ParameterError):
            estimate_snr_psd(baseline_system, baseline_noise, ex, small_cfg())
        cfg = small_cfg(psd=PsdSettings(segment_time=50.0))
        with pytest.raises(ParameterError):
            # 10 periods at Omega=0.5 need 125.7 time units
            run_ensemble(baseline_system, baseline_noise, ex, cfg)

    def test_drive_line_detected(self, baseline_system, baseline_noise):
        """A strong drive leaves a clear spectral line at its frequency."""
        ex = ExcitationParams(eps=1.0, G=0.3, Omega=0.5)
        cfg = SimConfig(
            dt=0.01, t_total=1200.0, t_transient=200.0, n_traj=4, seed=5,
            psd=PsdSettings(segment_time=150.0, n_bootstrap=50),
        )
        out = run_ensemble(baseline_system, baseline_noise, ex, cfg).psd_snr
        assert out.estimate > 5.0
        assert abs(out.bin_freq - ex.Omega) <= out.freq_resolution
        assert out.n_segments >= 4

    def test_no_drive_no_line(self, baseline_system, baseline_noise):
        """eps = 0: the drive bin is consistent with the background."""
        ex = ExcitationParams(eps=0.0, G=0.3, Omega=0.5)
        cfg = SimConfig(
            dt=0.01, t_total=1200.0, t_transient=200.0, n_traj=4, seed=5,
            psd=PsdSettings(segment_time=150.0, n_bootstrap=50),
        )
        out = run_ensemble(baseline_system, baseline_noise, ex, cfg).psd_snr
        assert abs(out.estimate) <= 5.0 * max(out.stderr, 0.05)


def _sweep_system(**kw) -> SystemParams:
    base = dict(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
                mu=-0.005, nu=0.005, tau1=0.6, tau2=2.5)
    base.update(kw)
    return SystemParams(**base)


_SWEEP_NOISE = NoiseParams(D=0.005, c=0.3)
_SWEEP_DRIVE = ExcitationParams(eps=0.1, G=0.1, Omega=0.05)


def _noise_axis():
    return [(_sweep_system(), NoiseParams(D=D, c=0.3), _SWEEP_DRIVE)
            for D in np.geomspace(1e-3, 1e-1, 6)]


def _kappa_noise_grid():
    return [(_sweep_system(kappa=k), NoiseParams(D=D, c=0.3), _SWEEP_DRIVE)
            for k in (0.1, 0.5) for D in (3e-3, 3e-2, 0.3)]


def _omega_axis():
    return [(_sweep_system(), _SWEEP_NOISE, ExcitationParams(eps=1.0, G=0.3, Omega=w))
            for w in np.linspace(0.05, 2.0, 4)]


def _tau1_axis():
    return [(_sweep_system(tau1=t), _SWEEP_NOISE, _SWEEP_DRIVE)
            for t in (0.2, 0.6, 0.6 + 1e-9, 1.0)]


class TestBatchedCells:
    """The ensembles of many cells step as the rows of one lockstep run and
    give each cell its own run_ensemble, bit for bit."""

    @pytest.mark.parametrize("cells, batches", [
        (_noise_axis, [[0, 1, 2, 3, 4, 5]]),
        (_kappa_noise_grid, [[0, 1, 2, 3, 4, 5]]),
        # per-row forcing
        (_omega_axis, [[0, 1, 2, 3]]),
        # one batch per delay offset: 0.6 and 0.6 + 1e-9 are both 60 steps
        (_tau1_axis, [[0], [1, 2], [3]]),
    ], ids=["noise.D", "kappa-x-D", "excitation.Omega", "system.tau1"])
    def test_batch_equals_per_cell_runs(self, cells, batches):
        cells = cells()
        cfg = small_cfg(t_total=40.0, t_transient=10.0, n_traj=4, seed=11)
        assert mcs.ensemble_batches(cells, cfg) == batches
        for cell, est in zip(cells, mcs.run_ensembles(cells, cfg)):
            _assert_same_ensemble(est, run_ensemble(*cell, cfg))

    def test_batches_hold_at_most_the_row_limit(self, monkeypatch):
        """A batch is cut at _BATCH_ROWS rows; the cut changes no result."""
        cells = _noise_axis()
        cfg = small_cfg(t_total=40.0, t_transient=10.0, n_traj=4, seed=11)
        whole = mcs.run_ensembles(cells, cfg)
        monkeypatch.setattr(mcs, "_BATCH_ROWS", 10)
        assert mcs.ensemble_batches(cells, cfg) == [[0, 1], [2, 3], [4, 5]]
        for a, b in zip(mcs.run_ensembles(cells, cfg), whole):
            _assert_same_ensemble(a, b)

    def test_cell_error_stays_in_its_cell(self):
        """A cell failing the step check is not stepped; a cell with no
        samples on the histogram grid and a cell whose trajectories all
        diverge share the pass with good cells, fail alone and leave the
        other rows as their own runs give them."""
        good = (_sweep_system(), _SWEEP_NOISE, _SWEEP_DRIVE)
        cells = [
            good,
            # dt = 0.01 exceeds c / 20
            (_sweep_system(), NoiseParams(D=0.005, c=0.1), _SWEEP_DRIVE),
            # wells at x = +-5, outside the grid's [-2.5, 2.5]
            (_sweep_system(delta1=25.0, delta3=1.0), _SWEEP_NOISE, _SWEEP_DRIVE),
            (_sweep_system(), NoiseParams(D=1e12, c=0.3), _SWEEP_DRIVE),
            (_sweep_system(), NoiseParams(D=0.05, c=0.3), _SWEEP_DRIVE),
        ]
        cfg = small_cfg(t_total=40.0, t_transient=10.0, n_traj=4, seed=11)
        assert mcs.ensemble_batches(cells, cfg) == [[0, 2, 3, 4]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mcs.run_ensembles(cells, cfg)
        messages = {
            1: "dt=0.01 too large",
            2: "no in-grid samples collected",
            3: "all trajectories diverged before the transient ended",
        }
        for i, start in messages.items():
            assert isinstance(out[i], ParameterError)
            assert str(out[i]).startswith(start)
            with pytest.raises(ParameterError, match=start):
                run_ensemble(*cells[i], cfg)
        for i in (0, 4):
            _assert_same_ensemble(out[i], run_ensemble(*cells[i], cfg))
