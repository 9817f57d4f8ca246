"""Time-stepping kernel for the delayed-system Monte Carlo integrator.

The whole ensemble advances in lockstep, one column per trajectory; the
columns may belong to several sweep cells, each with its own parameters,
noise and forcing.  State is kept step-major in one history of shape
(rows, 3, m): row r is the contiguous [x, v, V] of the ensemble at one step,
so a delayed read is a plain row read.  The step loop does only the
dynamics, unmasked; divergence, the accumulators, the histogram, the stored
series and the rows handed to a sink are worked out once per chunk from the
recorded rows, in numpy.

The colored-noise recurrence and the step loop run in one of two lanes,
which lane() names:

- "c": the two loops of _step.c, called through ctypes on the contiguous
  history.  The library is compiled on first use (not at import) with the C
  compiler Python was built with (sysconfig's CC) and -O2 -fPIC -shared
  -ffp-contract=off, into a private per-user cache, $XDG_CACHE_HOME/harvest
  or ~/.cache/harvest, under a name keyed by the source, the compiler
  command and the machine.
- "numpy": the fallback, taken silently when no compiler is found, the
  compile fails, the cache cannot be written or is not private, or the
  library cannot be loaded.  It is also the oracle of the C lane: its step
  loop is harvest_steps transcribed statement for statement, one numpy
  expression over the whole ensemble for each C statement, one step at a
  time.  It is bound by the cost of a numpy call, not by its arithmetic.

Both lanes read the per-row coefficients from one C-contiguous float64 block
of shape (len(COEF_ROWS), m), built once per run: row r holds coefficient
COEF_ROWS[r] of every trajectory.  dt, the delay offsets k1 and k2 and the
transient skip are shared by the whole batch and stay scalars.

In both lanes each element sees the operations of the update equations in
the same order, each rounded to float64, so every result is bit-identical
across the lanes and to a step-at-a-time evaluation.
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

# Store nothing, or displacement/velocity/voltage.
STORE_NONE = 0
STORE_XVV = 2

DIVERGENCE_LIMIT = 1.0e3

# The rows of the coefficient block, in order: the model parameters, the
# delay fractions of the interpolated reads at k1 and k2, and the decay and
# scale of the colored noise's one-step update.  _step.c lists the same order.
COEF_ROWS = (
    "beta", "delta1", "delta3", "kappa", "alpha", "mu", "nu", "f1", "f2",
    "E_ou", "S_ou",
)

# The C lane's source, shipped next to this module, and its build.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120.0


def _compiler() -> list[str] | None:
    """The argv of the C compiler Python was built with, or None."""
    import shlex
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "harvest")


def _compile(argv: list[str]) -> None:
    """Run the compiler in its own process group, killed whole on timeout."""
    import signal
    import subprocess

    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True,
    ) as proc:
        try:
            # reading the output to its end returns as the compiler exits,
            # where wait(timeout) would poll at intervals of up to 50 ms
            proc.communicate(timeout=_BUILD_TIMEOUT_S)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)


def _build() -> str:
    """The path of the compiled step loop, built into the cache if missing.

    Pool workers may race on a cold cache: each compiles to a temporary name
    and renames it into place.  Raises OSError when there is no compiler or
    the cache is not writable or not private, and a SubprocessError when the
    compile fails.
    """
    import hashlib
    import platform
    import tempfile

    cc = _compiler()
    if cc is None:
        raise FileNotFoundError("sysconfig names no C compiler")
    argv = [*cc, *_FLAGS]
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update("\0".join([*argv, platform.machine()]).encode())
    cache = _cache_dir()
    os.makedirs(cache, mode=0o700, exist_ok=True)
    st = os.stat(cache)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    path = os.path.join(cache, f"step-{key.hexdigest()[:32]}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(suffix=".so", prefix=".step-", dir=cache)
        os.close(fd)
        try:
            _compile([*argv, "-o", tmp, _SOURCE])
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


@functools.cache
def _library():
    """The loaded C step loop, or None when this process runs the numpy lane."""
    import ctypes
    import subprocess

    try:
        lib = ctypes.CDLL(_build())
        ou, steps = lib.harvest_ou, lib.harvest_steps
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    n, p = ctypes.c_long, ctypes.c_void_p
    ou.argtypes = [n, n, p, p, n, n, p]
    steps.argtypes = [n, n, n, n, n, ctypes.c_double, p, p, p]
    ou.restype = steps.restype = None
    return lib


def lane() -> str:
    """The lane _chunk_batch steps with in this process: "c" or "numpy"."""
    return "numpy" if _library() is None else "c"


def _running_sum(start, terms):
    """start plus the rows of terms (n, m), added one row at a time in order.

    a + t equals a - (-t) bit for bit, and np.subtract.reduce runs in row
    order for any m, where np.add.reduce sums a single column pairwise; it
    walks whole C-ordered rows, where np.cumsum along axis 0 strides down
    each column.  terms is overwritten.
    """
    np.negative(terms, out=terms)
    np.subtract(start, terms[0], out=terms[0])
    return np.subtract.reduce(terms, axis=0)


def _numpy_ou(xis, draws, coef):
    """xis[i + 1] = xis[i]*E_ou + draws[i]*S_ou for every row of draws, which
    is overwritten."""
    E_ou, S_ou = coef[-2:]
    np.multiply(draws, S_ou, out=draws)
    mul = np.multiply
    prev = xis[0]
    for new, d in zip(xis[1:], draws):
        mul(prev, E_ou, new)
        new += d
        prev = new


def _numpy_steps(h, L, drive, k1, k2, dt, coef):
    """The step loop of the numpy lane: one step per row of drive, from row L
    of the history h on, statement for statement that of harvest_steps."""
    beta, delta1, delta3, kappa, alpha, mu, nu, f1, f2, _, _ = coef
    for i, d in enumerate(drive):
        r = L + i
        x, v, V = h[r]
        # the feedback mu*x(t - tau1) and nu*v(t - tau2)
        fx = (h[r - k1, 0] * (1.0 - f1) + h[r - k1 - 1, 0] * f1) * mu
        fv = (h[r - k2, 1] * (1.0 - f2) + h[r - k2 - 1, 1] * f2) * nu
        # a = -beta*v + delta1*x - delta3*x*x*x - kappa*V
        #     + mu*x(t - tau1) + nu*v(t - tau2) + drive, left to right
        a = -beta * v + delta1 * x
        a -= delta3 * x * x * x
        a -= kappa * V
        a += fx
        a += fv
        a += d
        b = v - alpha * V
        # [v, V] advance by dt*[a, b], then x by dt times the new v: the
        # semi-implicit step avoids the secular energy injection of the fully
        # explicit form
        vn = v + a * dt
        h[r + 1, 1] = vn
        h[r + 1, 2] = V + b * dt
        h[r + 1, 0] = x + dt * vn


def _chunk_batch(
    x, v, V, xi, alive, h, s0, n, forcing, draws, coef, dt, k1, k2, skip,
    hist, hist_grid, acc, series, store, sink,
):
    """Advance every trajectory of the ensemble by n Euler steps.

    The steps run in the lane that lane() names.  State arrays x, v, V, xi
    and alive have shape (m,).  h is the C-contiguous step-major history,
    shape (L + n + 1, 3, m), whose row h[r] is the ensemble's
    [x, v, V] at one step: on entry rows 0 .. L-1 hold steps s0-L .. s0-1
    (L > max(k1, k2)), and on exit they hold the last L steps of this chunk.
    forcing is (n, 1) or (n, m); draws is (n, m) float64 and may be overwritten;
    acc is (m, 3), series (m, 3, n_post).  coef is the C-contiguous float64
    coefficient block (len(COEF_ROWS), m), one column per trajectory; the
    step dt and the delay offsets k1 and k2 are the whole batch's.  hist is
    (cells, nx, nv): the rows are cell-major, m // cells to a cell, and each
    row counts into its cell's histogram, on the nx x nv grid of cells
    dx x dv wide from (x_min, v_min) = hist_grid (x_min, dx, v_min, dv).
    Steps s0 .. s0+n-1 are taken; samples from step skip on are accumulated.
    sink, when not None, is called once per chunk that has post-transient
    steps as sink(rows, first): rows (steps, m) are their displacements, with
    0.0 where a trajectory had stopped, and first is the post-transient index
    of rows[0].
    A trajectory whose |x| exceeds DIVERGENCE_LIMIT (NaN counts) keeps the
    samples up to that step, is frozen in the state that crossed, and is
    cleared from alive.  Mutates everything in place.
    """
    L = h.shape[0] - n - 1
    m = x.shape[0]
    nx, nv = hist.shape[1:]
    x_min, dx, v_min, dv = hist_grid
    h[L] = x, v, V
    lib = _library()
    # colored-noise path and drive: they do not depend on the state
    xis = np.empty((n + 1, m))
    xis[0] = xi
    if lib is None:
        _numpy_ou(xis, draws, coef)
    else:
        # the C loops index raw memory, so check the layout they assume
        if not (
            h.flags.c_contiguous and h.dtype == np.float64 and h.shape[1:] == (3, m)
            and draws.shape == (n, m) and draws.dtype == np.float64
            and coef.flags.c_contiguous and coef.dtype == np.float64
            and coef.shape == (len(COEF_ROWS), m)
            and 0 <= min(k1, k2) and max(k1, k2) < L
        ):
            raise ValueError(
                "h must be C-contiguous float64 of shape (L + n + 1, 3, m) with "
                "L > max(k1, k2) >= 0, draws float64 of shape (n, m) and coef "
                "C-contiguous float64 of shape (len(COEF_ROWS), m)"
            )
        di, dj = (s // draws.itemsize for s in draws.strides)
        lib.harvest_ou(n, m, xis.ctypes.data, draws.ctypes.data, di, dj,
                       coef.ctypes.data)
    drive = np.ascontiguousarray(xis[:n] + forcing)

    xh = h[:, 0]
    # Only rows past the divergence limit (dead at entry or crossing inside
    # the chunk) can overflow; their samples and state are discarded below.
    with np.errstate(over="ignore", invalid="ignore"):
        if lib is None:
            _numpy_steps(h, L, drive, k1, k2, dt, coef)
        else:
            lib.harvest_steps(n, m, L, int(k1), int(k2), dt, h.ctypes.data,
                              drive.ctypes.data, coef.ctypes.data)

        # live[j]: the steps of this chunk trajectory j took while alive; one
        # that crosses the limit at step i took steps 0 .. i
        outside = ~(np.abs(xh[L + 1 : L + n + 1]) <= DIVERGENCE_LIMIT)
        crossed = outside.any(axis=0)
        live = np.where(alive, np.where(crossed, outside.argmax(axis=0) + 1, n), 0)
        alive &= ~crossed

        i0 = min(max(skip - s0, 0), n)
        if i0 < n:
            # valid[i, j]: trajectory j took post-transient step i0 + i; None
            # when every trajectory took every step, so nothing is masked
            valid = None if live.min() == n else np.arange(i0, n)[:, None] < live

            def kept(rows):
                return rows if valid is None else np.where(valid, rows, 0.0)

            xp, vp, Vp = h[L + i0 : L + n].transpose(1, 0, 2)
            acc[:, 0] = _running_sum(acc[:, 0], kept(vp * drive[i0:]))
            acc[:, 1] = _running_sum(acc[:, 1], kept(Vp * Vp))
            # the post-transient steps each trajectory took, the count of valid
            acc[:, 2] += np.maximum(live - i0, 0)

            # floor indices as floats, bounds-tested (NaN fails every test)
            # and folded into one flat index per sample; only the kept ones
            # are cast
            fx = np.subtract(xp, x_min)
            fx /= dx
            np.floor(fx, out=fx)
            fv = np.subtract(vp, v_min)
            fv /= dv
            np.floor(fv, out=fv)
            ok = (fx >= 0) & (fx < nx) & (fv >= 0) & (fv < nv)
            if valid is not None:
                ok &= valid
            fx *= nv
            fx += fv
            fx += np.arange(m) // (m // hist.shape[0]) * float(nx * nv)
            hist += np.bincount(
                fx[ok].astype(np.int64), minlength=hist.size
            ).reshape(hist.shape)

            if store != STORE_NONE:
                out = slice(s0 + i0 - skip, s0 + n - skip)
                for col, rows in enumerate((xp, vp, Vp)):
                    series[:, col, out] = kept(rows).T
            if sink is not None:
                sink(kept(xp), s0 + i0 - skip)

    # a frozen trajectory keeps the state of the step that crossed the limit
    cols = np.arange(m)
    x[:], v[:], V[:] = h[L + live, :, cols].T
    xi[:] = xis[live, cols]
    h[:L] = h[n : n + L]
