"""The stepping lane report, a hand transcription of the update equations,
the stepwise kernel the C step loop must reproduce bit for bit, and the
loader that builds the step loop or fails with an error naming why."""

import inspect
import json
import os
import pathlib
import subprocess
import sys
import sysconfig
import time
import warnings

import numpy as np
import pytest

import harvest
from harvest import _kernels, cli, mcs
from harvest._kernels import DIVERGENCE_LIMIT, STORE_NONE, STORE_XVV, _running_sum
from harvest.errors import HarvestError
from harvest.mcs import SimConfig, lane, simulate_trajectory
from harvest.model import ExcitationParams, NoiseParams, SystemParams

from conftest import compiler_found


class TestLaneParity:
    def test_c_lane_report(self):
        assert lane() == "c"


class TestKernelDirect:
    def test_kernel_matches_python_reference(self):
        """A few integration steps of a one-trajectory run agree with a
        direct transcription of the update equations, replayed by hand from
        the initial state with the same noise path."""
        p = SystemParams(delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02)
        noise = NoiseParams(D=0.005, c=0.3)
        ex = ExcitationParams(eps=0.0)
        cfg = SimConfig(dt=0.01, t_total=0.05, t_transient=0.0, n_traj=1,
                        seed=0, x0=0.9, v0=0.1, V0=0.02)
        res = simulate_trajectory(p, noise, ex, cfg, 0)
        # stored samples hold the pre-update state of each step
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
    x, v, V, xi, alive, xh, vh, s0, n, forcing, draws, coef, dt, k1, k2, skip,
    hist, hist_grid, acc, series, store, sink,
):
    """A one-step-at-a-time kernel on separate displacement and velocity
    histories, the bit-for-bit oracle of the C step loop: every step reads
    its delayed rows and evaluates the whole update in one expression.  It stores
    every column and takes no sink, which the runs compared here do not use."""
    beta, delta1, delta3, kappa, alpha, mu, nu, f1, f2, E_ou, S_ou = coef
    x_min, dx, v_min, dv = hist_grid
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


def _reference_on_stacked(x, v, V, xi, alive, h, *rest, **kwargs):
    """_reference_chunk_batch on the displacement and velocity views of the
    stacked history h, which keeps no voltage or noise history."""
    _reference_chunk_batch(x, v, V, xi, alive, h[:, 0], h[:, 1], *rest, **kwargs)


# Two cells with their own coefficients, noise and drive that share the
# offsets k1 = 53 and k2 = 121, longer than a 37-step chunk, at fractions
# f1 = 0.7 and 0.2, f2 = 0.3 and 0.8.  The second cell's stiff linear and weak
# cubic force carries its rows past DIVERGENCE_LIMIT at steps that depend on
# their start.
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
# One cell without delay: each step reads the current row as its delayed one.
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


_BLOCKED_CASES = {
    "delayed-batch": (*_DELAYED, 3, 2),
    "undelayed": (*_UNDELAYED, 3, 0),
    "delayed-batch-1-traj": (*_DELAYED, 1, 1),
    "undelayed-1-traj": (*_UNDELAYED, 1, 0),
}


class TestBlockedKernel:
    @pytest.mark.parametrize(
        "cells, x0, n_traj, n_divergent",
        [pytest.param(*case, id=key) for key, case in _BLOCKED_CASES.items()],
    )
    def test_bit_identical_to_the_stepwise_kernel(
        self, monkeypatch, cells, x0, n_traj, n_divergent
    ):
        """The kernel reproduces the stepwise kernel bit for bit, with 37-step
        chunks that cut the transient anywhere and delayed reads that cross
        the chunk edges, and rows that cross the divergence limit mid-chunk.
        Without delay the delayed read is the current row.  One trajectory
        of the undelayed cell is a single column, where numpy's reductions
        take other paths than on a wider batch."""
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


# mcs-psd's delay offsets (tau1 = 0.6 and tau2 = 2.5 at dt = 0.01), whose
# cases carry m alone as their id; the same swapped, so tau1 > tau2; and a
# delayed displacement with the current velocity.
_OFFSETS = [(60, 250), (250, 60), (60, 0)]


@pytest.mark.parametrize(
    "m, k1, k2, layout",
    [
        pytest.param(
            m, k1, k2, "rows",
            id=str(m) if (k1, k2) == _OFFSETS[0] else f"{m}-{k1}-{k2}",
        )
        for k1, k2 in _OFFSETS
        for m in (1, 8, 100, 128)
    ] + [
        # the forcing layouts mcs passes: one column shared by every row, and
        # the columns of several drives gathered per row, not C-contiguous
        pytest.param(m, *_OFFSETS[0], layout, id=f"{m}-{layout}")
        for layout in ("column", "gathered")
        for m in (1, 8, 100, 128)
    ],
)
def test_c_lane_equals_the_stepwise_kernel(m, k1, k2, layout):
    """Two chunks of _chunk_batch at delay offsets k1 and k2 leave every
    output byte for byte as the stepwise kernel does, with per-row
    coefficients, draws passed as a strided view (as mcs tiles them) and the
    forcing in the given layout ("rows": a C-contiguous column per row).  The
    stepwise kernel keeps a displacement and velocity history only, so only
    those columns of h are compared."""
    rng = np.random.default_rng(m)
    n, L, skip = 1024, max(k1, k2) + 1, 300

    def row(lo, hi):
        return rng.uniform(lo, hi, m)

    rows = dict(
        beta=row(0.01, 0.03), delta1=row(2.5, 3.5), delta3=row(2.5, 3.5),
        kappa=row(0.2, 0.4), alpha=row(0.04, 0.06), mu=row(-0.4, 0.4),
        nu=row(-0.2, 0.2), f1=row(0.0, 1.0), f2=row(0.0, 1.0),
        E_ou=row(0.95, 0.99), S_ou=row(0.01, 0.05),
    )
    coef = np.array([rows[name] for name in _kernels.COEF_ROWS])
    h0 = np.zeros((L + n + 1, 4, m))
    h0[:L, :3] = rng.uniform(-1.0, 1.0, (L, 3, m))
    start = [rng.uniform(-1.2, 1.2, m) for _ in range(3)] + [rng.normal(0, 0.1, m)]
    draws = [rng.standard_normal((m, n)).T for _ in range(2)]
    t = 0.01 * np.arange(2 * n)
    column = 0.3 * np.cos(0.5 * t)[:, None]
    forcing = {
        "rows": column * row(0.5, 1.5),
        "column": column,
        "gathered": np.hstack([column, 0.2 * np.cos(0.7 * t)[:, None]])[
            :, np.arange(m) % 2
        ],
    }[layout]
    cells = 2 if m % 2 == 0 else 1

    def run(kernel):
        x, v, V, xi = (a.copy() for a in start)
        h = h0.copy()
        alive = np.ones(m, dtype=bool)
        hist = np.zeros((cells, 40, 30), dtype=np.int64)
        acc = np.zeros((m, 3))
        series = np.zeros((m, 3, 2 * n - skip))
        for c in range(2):
            kernel(
                x, v, V, xi, alive, h, c * n, n, forcing[c * n : (c + 1) * n],
                draws[c].T.copy().T, coef=coef, dt=0.01, k1=k1, k2=k2,
                skip=skip, hist=hist, hist_grid=(-2.0, 0.1, -1.5, 0.1), acc=acc,
                series=series, store=STORE_XVV, sink=None,
            )
        return h[:, :2], acc, hist, xi, alive, x, v, V, series

    got = run(_kernels._chunk_batch)
    want = run(_reference_on_stacked)
    assert got[2].sum() > 0 and got[4].all()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_c_lane_rejects_a_history_it_cannot_index():
    """The C loop indexes raw memory, so a history that is not C-contiguous
    or too short for the delay, a coefficient block with a row missing, a
    transposed one or a float32 one, a float32 forcing or one of width
    neither 1 nor m, and float32 draws are refused before a pointer is
    passed, and before the history or the state is written; the same call
    with good arrays runs."""
    m, n, L = 4, 8, 3
    column = [0.02, 3.0, 3.0, 0.3, 0.05, 0.0, 0.0, 0.0, 0.0, 0.9, 0.1]
    args = dict(
        x=np.full(m, 0.5), v=np.full(m, 0.1), V=np.full(m, 0.02),
        xi=np.full(m, 0.03), alive=np.ones(m, dtype=bool),
        h=np.zeros((L + n + 1, m, 4)).transpose(0, 2, 1), s0=0, n=n,
        forcing=np.zeros((n, 1)), draws=np.zeros((n, m)),
        coef=np.repeat(np.array(column)[:, None], m, axis=1),
        dt=0.01, k1=0, k2=0, skip=0, hist=np.zeros((1, 4, 4), dtype=np.int64),
        hist_grid=(-2.0, 1.0, -2.0, 1.0), acc=np.zeros((m, 3)),
        series=np.zeros((m, 1, 1)), store=STORE_NONE, sink=None,
    )

    def refused(**bad):
        call = {**args, **bad}
        before = {k: call[k].copy() for k in ("x", "v", "V", "xi", "alive", "h")}
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernels._chunk_batch(**call)
        for k, a in before.items():
            np.testing.assert_array_equal(call[k], a)

    refused()
    args.update(h=np.zeros((L + n + 1, 4, m)))
    refused(k2=L)
    good = args["coef"]
    for coef in (good[:-1], np.ascontiguousarray(good.T).T, good.astype(np.float32)):
        refused(coef=coef)
    refused(forcing=np.zeros((n, 1), dtype=np.float32))
    refused(forcing=np.zeros((n, 2)))
    refused(draws=np.zeros((n, m), dtype=np.float32))
    _kernels._chunk_batch(**args)
    assert args["acc"][:, 2].tolist() == [n] * m


def _children() -> set[int]:
    """The pids of this process's children, read from /proc."""
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                stat = f.read()
        except (OSError, ValueError):
            continue
        # after the parenthesized command come the state and the parent's pid
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.add(int(entry))
    return found


def _running(pid: int) -> bool:
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# A short delayed mcs run: mcs-psd's system on two chunks of 4 trajectories.
_MCS_DOC = {
    "system": {
        "delta1": 3.0, "delta3": 3.0, "kappa": 0.3, "alpha": 0.05,
        "beta": 0.02, "mu": -0.005, "nu": 0.005, "tau1": 0.6, "tau2": 2.5,
    },
    "noise": {"D": 0.005, "c": 0.3},
    "excitation": {"eps": 1.0, "G": 0.3, "Omega": 0.5},
    "sim": {"dt": 0.01, "t_total": 20.0, "t_transient": 2.0, "n_traj": 4, "seed": 3},
}


def _run_mcs(tmp_path, name):
    """One `harvest mcs` run of _MCS_DOC into tmp_path/name: its exit code,
    CSV bytes, recorded lane and the warnings it raised."""
    cfg = tmp_path / "mcs.json"
    cfg.write_text(json.dumps(_MCS_DOC))
    out = tmp_path / name
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["mcs", "--config", str(cfg), "--out", str(out)])
    meta = json.loads((out / "harvest_mcs.meta.json").read_text())
    return code, (out / "harvest_mcs.csv").read_bytes(), meta["lane"], caught


@pytest.fixture(scope="module")
def mcs_reference(tmp_path_factory):
    """_run_mcs on the lane this session's loader resolved."""
    return _run_mcs(tmp_path_factory.mktemp("reference"), "out")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader reads an empty cache of this test, and forgets the library
    it resolved before and after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernels._library.cache_clear()
    yield tmp_path / "cache"
    _kernels._library.cache_clear()


def _no_compiler(monkeypatch, tmp_path, cache):
    get = sysconfig.get_config_var
    missing = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: missing if name == "CC" else get(name)
    )


def _cache_is_a_file(monkeypatch, tmp_path, cache):
    cache.write_text("")


def _cache_is_shared(monkeypatch, tmp_path, cache):
    (cache / "harvest").mkdir(parents=True)
    (cache / "harvest").chmod(0o777)


# The runs that step an ensemble: mcs, compare, and a 2-D sweep of v_rms and
# efficiency on one thread and on two.
_SWEEP_DOC = {
    **_MCS_DOC,
    "sweep": {
        "axes": [
            {"param": "noise.D", "start": 0.004, "stop": 0.006, "count": 2},
            {"param": "excitation.Omega", "start": 0.4, "stop": 0.5, "count": 2},
        ],
        "quantities": ["v_rms", "efficiency"],
    },
}
_STEPPING_RUNS = [
    ("mcs", _MCS_DOC, 1), ("compare", _MCS_DOC, 1),
    ("sweep", _SWEEP_DOC, 1), ("sweep", _SWEEP_DOC, 2),
]


class TestLoader:
    @pytest.mark.parametrize(
        "setup", [_no_compiler, _cache_is_a_file, _cache_is_shared],
        ids=["no-compiler", "cache-not-writable", "cache-not-private"],
    )
    def test_exits_2_without_a_step_loop(
        self, monkeypatch, tmp_path, capsys, fresh_loader, setup
    ):
        """Without a compiler, or without a private writable cache, each run
        that steps exits 2 with an error naming the compile command and the
        cache, and leaves no CSV, no library and no process; a sweep fails
        before it submits a batch, so on two threads no worker starts.  The cache that cannot be
        written is a file where its directory goes, since permission bits do
        not stop a superuser."""
        setup(monkeypatch, tmp_path, fresh_loader)
        submitted = []
        run_tasks = cli._run_tasks
        monkeypatch.setattr(
            cli, "_run_tasks", lambda *a: submitted.append(a) or run_tasks(*a)
        )
        command = " ".join([*_kernels._compiler(), *_kernels._FLAGS])
        cache = fresh_loader / "harvest"
        cfg = tmp_path / "run.json"
        for sub, document, threads in _STEPPING_RUNS:
            cfg.write_text(json.dumps(document))
            code = cli.main([sub, "--config", str(cfg), "--out",
                             str(tmp_path / "out"), "--threads", str(threads)])
            err = capsys.readouterr().err
            assert code == 2, (sub, threads)
            assert err.startswith(
                "error: cannot build or load the Monte Carlo step loop "
                f"(compiler: {command}; cache: {cache}): "
            ), err
            assert _children() == set()
        assert submitted == []
        assert not list(tmp_path.glob("**/*.csv"))
        assert not cache.is_dir() or not any(cache.glob("*.so"))

    def test_cold_cache_builds_and_loads(self, fresh_loader, mcs_reference):
        """A first run builds into a private cache, loads the library and
        leaves neither a temporary file nor a process behind."""
        if not compiler_found():
            pytest.skip("no C compiler found, so nothing is built")
        code, csv, lane_name, caught = _run_mcs(fresh_loader.parent, "out")
        assert (code, lane_name, caught) == (0, "c", [])
        assert csv == mcs_reference[1]
        cache = fresh_loader / "harvest"
        assert cache.stat().st_mode & 0o777 == 0o700
        assert [p.name.startswith("step-") for p in cache.iterdir()] == [True]
        assert _children() == set()

    def test_compile_timeout_kills_the_compiler_group(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        """A compile past its timeout is killed with every process it
        started, and the loader raises HarvestError."""
        marker = tmp_path / "pid"
        cc = f"sh -c 'sleep 30 & echo $! > {marker}; wait' sh"
        get = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig, "get_config_var", lambda name: cc if name == "CC" else get(name)
        )
        monkeypatch.setattr(_kernels, "_BUILD_TIMEOUT_S", 0.5)
        with pytest.raises(HarvestError, match="ran past its 0.5 s timeout"):
            lane()
        assert _children() == set()
        sleeper = int(marker.read_text())
        for _ in range(100):
            if not _running(sleeper):
                break
            time.sleep(0.05)
        assert not _running(sleeper)

    def test_failed_compile_reports_its_status_and_output(
        self, monkeypatch, fresh_loader
    ):
        """A compile that fails raises HarvestError with the compiler's exit
        status and the last lines of its output, and leaves no library."""
        cc = "sh -c 'for i in $(seq 12); do echo line $i; done; exit 3' sh"
        get = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig, "get_config_var", lambda name: cc if name == "CC" else get(name)
        )
        with pytest.raises(HarvestError) as failed:
            lane()
        tail = "\n".join(f"line {i}" for i in range(3, 13))
        assert str(failed.value).endswith(
            f"the compiler exited with status 3\n{tail}"
        )
        assert not any((fresh_loader / "harvest").glob("*.so"))

    def test_warm_cache_loads_without_subprocess(self):
        """A process that loads the step loop from a warm cache imports no
        subprocess: only a compile runs one."""
        lane()
        path = [str(pathlib.Path(harvest.__file__).parents[1])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            path + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )}
        code = ("import sys; from harvest import mcs; mcs.lane(); "
                "print('subprocess' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
