"""The stepping lane report and a hand transcription of the update equations."""

import numpy as np
import pytest

from harvest.mcs import SimConfig, lane, simulate_trajectory
from harvest.model import ExcitationParams, NoiseParams, SystemParams


class TestLaneParity:
    def test_lane_report(self):
        assert lane() == "numpy"


class TestKernelDirect:
    def test_kernel_matches_python_reference(self):
        """A few integration steps of the kernel agree with a direct
        transcription of the update equations."""
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        noise = NoiseParams(D=0.005, c=0.3)
        ex = ExcitationParams(eps=0.0)
        cfg = SimConfig(dt=0.01, t_total=0.05, t_transient=0.0, n_traj=1,
                        seed=0, x0=0.9, v0=0.1, V0=0.02)
        res = simulate_trajectory(p, noise, ex, cfg, 0)
        # replay a few steps by hand from the initial state with the same
        # noise path; stored samples hold the pre-update state of each step
        rng = np.random.default_rng(0)
        x, v, V = 0.9, 0.1, 0.02
        dt = cfg.dt
        decay = np.exp(-dt / noise.c)
        scale = np.sqrt(noise.D / noise.c * (1.0 - decay * decay))
        xi = np.sqrt(noise.D / noise.c) * rng.standard_normal()
        assert res.x[0] == 0.9 and res.v[0] == 0.1 and res.V[0] == 0.02
        n_check = 3
        for _ in range(n_check):
            acc = (
                p.delta1 * x - p.delta3 * x**3 - p.beta * v - p.kappa * V + xi
            )
            V = V + dt * (v - p.alpha * V)
            v = v + dt * acc
            x = x + dt * v
            xi = xi * decay + scale * rng.standard_normal()
        assert res.x[n_check] == pytest.approx(x, rel=1e-12)
        assert res.v[n_check] == pytest.approx(v, rel=1e-12)
        assert res.V[n_check] == pytest.approx(V, rel=1e-12)
