"""The stepping lane report, a hand transcription of the update equations and
the stepwise kernel the blocked one must reproduce bit for bit."""

import inspect

import numpy as np
import pytest

from harvest import _kernels, mcs
from harvest._kernels import DIVERGENCE_LIMIT, STORE_NONE, STORE_XVV, _running_sum
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


def _reference_chunk_batch(
    x, v, V, xi, alive, xh, vh, s0, n, forcing, draws, dt, beta, delta1,
    delta3, kappa, alpha, mu, nu, k1, f1, k2, f2, E_ou, S_ou, skip, hist,
    x_min, dx, v_min, dv, acc, series, store, sink,
):
    """The one-step-at-a-time kernel that the blocked kernel replaced, kept
    verbatim as the bit-for-bit oracle: every step reads its delayed rows and
    evaluates the whole update in one expression.  It stores every column and
    takes no sink, which the runs compared here do not use."""
    L = xh.shape[0] - n - 1
    m = x.shape[0]
    nx, nv = hist.shape[1:]
    xh[L] = x
    vh[L] = v
    xis = np.empty((n + 1, m))
    xis[0] = xi
    np.multiply(draws, S_ou, out=draws)
    for i in range(n):
        np.multiply(xis[i], E_ou, out=xis[i + 1])
        xis[i + 1] += draws[i]
    drive = xis[:n] + forcing
    Vs = np.empty((n + 1, m))
    Vs[0] = V

    c1 = 1.0 - f1
    c2 = 1.0 - f2
    nbeta = -beta
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            r = L + i
            xc = xh[r]
            vc = vh[r]
            Vc = Vs[i]
            xd = xh[r - k1] * c1 + xh[r - k1 - 1] * f1
            vd = vh[r - k2] * c2 + vh[r - k2 - 1] * f2
            a = (
                nbeta * vc
                + delta1 * xc
                - delta3 * xc * xc * xc
                - kappa * Vc
                + mu * xd
                + nu * vd
                + drive[i]
            )
            np.add(Vc, dt * (vc - alpha * Vc), out=Vs[i + 1])
            np.add(vc, dt * a, out=vh[r + 1])
            np.add(xc, dt * vh[r + 1], out=xh[r + 1])

        outside = ~(np.abs(xh[L + 1 : L + n + 1]) <= DIVERGENCE_LIMIT)
        crossed = outside.any(axis=0)
        live = np.where(alive, np.where(crossed, outside.argmax(axis=0) + 1, n), 0)
        alive &= ~crossed

        i0 = min(max(skip - s0, 0), n)
        if i0 < n:
            valid = np.arange(i0, n)[:, None] < live
            xp = xh[L + i0 : L + n]
            vp = vh[L + i0 : L + n]
            Vp = Vs[i0:n]
            acc[:, 0] = _running_sum(acc[:, 0], np.where(valid, vp * drive[i0:], 0.0))
            acc[:, 1] = _running_sum(acc[:, 1], np.where(valid, Vp * Vp, 0.0))
            acc[:, 2] += valid.sum(axis=0)

            ix = np.floor((xp - x_min) / dx).astype(np.int64)
            iv = np.floor((vp - v_min) / dv).astype(np.int64)
            ok = valid & (ix >= 0) & (ix < nx) & (iv >= 0) & (iv < nv)
            cell = np.arange(m) // (m // hist.shape[0])
            hist += np.bincount(
                (cell * (nx * nv) + ix * nv + iv)[ok], minlength=hist.size
            ).reshape(hist.shape)

            if store != STORE_NONE:
                out = slice(s0 + i0 - skip, s0 + n - skip)
                for col, rows in enumerate((xp, vp, Vp)):
                    series[:, col, out] = np.where(valid, rows, 0.0).T

    cols = np.arange(m)
    x[:] = xh[L + live, cols]
    v[:] = vh[L + live, cols]
    V[:] = Vs[live, cols]
    xi[:] = xis[live, cols]
    xh[:L] = xh[n : n + L]
    vh[:L] = vh[n : n + L]


def _reference_on_stacked(x, v, V, xi, alive, h, *rest):
    """_reference_chunk_batch on the displacement and velocity views of the
    stacked history h."""
    _reference_chunk_batch(x, v, V, xi, alive, h[:, 0], h[:, 1], *rest)


# Two cells with their own coefficients, noise and drive that share the
# offsets k1 = 53 and k2 = 121 (blocks of 54 steps) at fractions f1 = 0.7 and
# 0.2, f2 = 0.3 and 0.8.  The second cell's stiff linear and weak cubic force
# carries its rows past DIVERGENCE_LIMIT at steps that depend on their start.
_DELAYED = (
    [
        (
            SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
                         mu=-0.4, nu=0.3, tau1=0.0537, tau2=0.1213),
            NoiseParams(D=0.01, c=0.2),
            ExcitationParams(eps=1.0, G=0.3, Omega=0.5),
        ),
        (
            SystemParams(delta1=400.0, delta3=1e-6, kappa=0.2, alpha=0.07,
                         beta=0.03, mu=0.5, nu=-0.2, tau1=0.0532, tau2=0.1218),
            NoiseParams(D=0.02, c=0.25),
            ExcitationParams(eps=0.5, G=0.2, Omega=0.7),
        ),
    ],
    [0.9, -0.9, 0.5, 1.0, -2.0, 0.01],
)
# One cell without delay: blocks of one step and 0-d coefficients.
_UNDELAYED = (
    [
        (
            SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
                         mu=-0.3, nu=0.2),
            NoiseParams(D=0.005, c=0.3),
            ExcitationParams(eps=1.0, G=0.3, Omega=0.5),
        ),
    ],
    [0.9, -0.9, 0.5],
)


class TestBlockedKernel:
    @pytest.mark.parametrize(
        "cells, x0, n_traj, n_divergent",
        [
            (*_DELAYED, 3, 2),
            (*_UNDELAYED, 3, 0),
            (*_DELAYED, 1, 1),
            (*_UNDELAYED, 1, 0),
        ],
        ids=["delayed-batch", "undelayed", "delayed-batch-1-traj", "undelayed-1-traj"],
    )
    def test_bit_identical_to_the_stepwise_kernel(
        self, monkeypatch, cells, x0, n_traj, n_divergent
    ):
        """The blocked kernel reproduces the stepwise one bit for bit, with
        37-step chunks that cut the transient and the delay blocks anywhere,
        and rows that cross the divergence limit mid-chunk.  One trajectory
        of the undelayed cell is a single column, where numpy's reductions
        and loops take other paths than on a wider batch."""
        monkeypatch.setattr(mcs, "_CHUNK", 37)
        cfg = SimConfig(
            dt=0.001, t_total=0.5, t_transient=0.05, n_traj=n_traj, seed=11
        )
        # each cell's first n_traj starts
        starts = np.array(x0).reshape(len(cells), 3)[:, :n_traj].ravel()

        def run():
            gens = [
                np.random.default_rng(c)
                for c in np.random.SeedSequence(cfg.seed).spawn(cfg.n_traj)
            ]
            return mcs._step_cells(cells, cfg, gens, starts, STORE_XVV)

        acc, hist, divergent, series, final = run()
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_chunk_batch", _reference_on_stacked)
            ref = run()
        # rows of the second delayed cell cross the limit inside their
        # chunks: its first at step 380, its second at step 346
        assert int(divergent.sum()) == n_divergent
        assert not divergent[: cfg.n_traj].any()
        for got, want in zip((acc, hist, divergent, series, *final), (*ref[:4], *ref[4])):
            np.testing.assert_array_equal(got, want)


def _cumsum_running_sum(start, terms):
    """The in-order running sum that _running_sum replaced."""
    terms[0] += start
    return np.cumsum(terms, axis=0, out=terms)[-1]


@pytest.mark.parametrize("m", [1, 2, 64, 100])
def test_running_sum_adds_rows_in_order(m):
    """_running_sum equals the np.cumsum form bit for bit, for one column and
    for many, and a block summed whole equals it summed in two chunks.  The
    kernel oracle calls _running_sum itself, so only this test sees it."""
    rng = np.random.default_rng(m)
    # terms over 16 orders of magnitude, so any other order of the additions
    # rounds differently
    terms = rng.standard_normal((1000, m)) * 10.0 ** rng.uniform(-8, 8, (1000, m))
    start = rng.standard_normal(m)
    want = _cumsum_running_sum(start.copy(), terms.copy())
    assert _running_sum(start, terms.copy()).tobytes() == want.tobytes()
    split = _running_sum(_running_sum(start, terms[:389].copy()), terms[389:].copy())
    assert split.tobytes() == want.tobytes()
    # numpy's pairwise sum of a single column is another order
    column = np.concatenate([start[:1], terms[:, 0]])
    assert np.add.reduce(column) != want[0]


def test_kernel_signature_holds_the_names_the_tracer_binds():
    """The benchmark tracer reads these arguments of _kernels._chunk_batch by
    name; a rename would make it skip every chunk without an error."""
    params = inspect.signature(_kernels._chunk_batch).parameters
    for name in ("x", "s0", "n", "skip", "store", "series"):
        assert name in params
