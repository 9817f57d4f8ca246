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
  command and the machine.  Every coefficient is passed as an (m,) row.
- "numpy": the fallback, taken silently when no compiler is found, the
  compile fails, the cache cannot be written or is not private, or the
  library cannot be loaded.  It is also the oracle of the C lane.  It is
  bound by the cost of a numpy call, not by its arithmetic, so it makes 15
  calls a step, each on contiguous operands:

  - Block-precomputed feedback.  A step reads the delayed rows k1 and k2
    steps back, so a block of min(k1, k2) + 1 steps reads only rows written
    before the block starts; the interpolated feedback mu*x(t - tau1) and
    nu*v(t - tau2) of the whole block is one vectorized pass.  Without delay
    a block is one step.
  - Stacked rows.  Two multiplies of the state row by full (3, m)
    coefficient rows give delta1*x, -beta*v and kappa*V, and delta3*x and
    alpha*V; the velocity and voltage increments are one contiguous pair,
    scaled by dt in one call and added to [v, V] in another.
  - Array operands.  Every coefficient is a float64 array, 0-d for one cell
    and (m,) for a batch: a ufunc converts a Python float operand anew on
    every call.  A step writes its temporaries into preallocated rows and
    walks the state rows with iterators instead of indexing them.

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
    ou.argtypes = [n, n, p, p, n, n, p, p]
    steps.argtypes = [n, n, n, n, n, p, p, *[p] * 10]
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


def _numpy_ou(xis, draws, E_ou, S_ou):
    """xis[i + 1] = xis[i]*E_ou + draws[i]*S_ou for every row of draws, which
    is overwritten."""
    np.multiply(draws, S_ou, out=draws)
    E_ou = np.asarray(E_ou, dtype=float)
    mul = np.multiply
    prev = xis[0]
    for new, d in zip(xis[1:], draws):
        mul(prev, E_ou, new)
        new += d
        prev = new


def _numpy_steps(h, L, drive, k1, k2, dt, beta, delta1, delta3, kappa, alpha,
                 mu, nu, f1, f2):
    """The step loop of the numpy lane: one step per row of drive, from row L
    of the history h on."""
    m = h.shape[2]
    # coefficients as float64 arrays, 0-d for one cell and (m,) for a batch
    dt, mu, nu, f1, f2 = (np.asarray(c, dtype=float) for c in (dt, mu, nu, f1, f2))
    c1 = np.asarray(1.0 - f1)
    c2 = np.asarray(1.0 - f2)
    # full coefficient rows against a state row [x, v, V]: p gives
    # [delta1 x, -beta v, kappa V] and q gives [delta3 x, 0, alpha V]
    p = np.empty((3, m))
    q = np.empty((3, m))
    p[0], p[1], p[2] = delta1, -beta, kappa
    q[0], q[1], q[2] = delta3, 0.0, alpha
    dt2 = np.full((2, m), dt)

    # the ufuncs of the loop, bound once and given out by position: a module
    # lookup and a keyword argument cost about 70 ns a call
    mul, add, sub = np.multiply, np.add, np.subtract

    # Step i reads the delayed rows r - k - 1 and r - k (r = L + i), so the
    # min(k1, k2) + 1 steps of a block read only rows written before it
    # starts: the delayed feedback of a whole block is one vectorized pass.
    n = drive.shape[0]
    block = min(k1, k2) + 1
    xh = h[:, 0]
    vh = h[:, 1]
    # row iterators over the state: each step reads one row [x, v, V] and
    # writes the next, as its x and its contiguous pair [v, V]
    hs, xs, vs, vVs = iter(h[L:]), iter(xh[L:]), iter(vh[L:]), iter(h[L:, 1:])
    hc, xc, vc, vVc = next(hs), next(xs), next(vs), next(vVs)
    drives = iter(drive)
    # temporaries: t and u take the state row times p and q, and ab is the
    # contiguous pair [a, b] that advances [v, V]
    t = np.empty((3, m))
    u = np.empty((3, m))
    ab = np.empty((2, m))
    t0, t1, t2 = t
    u0, _, u2 = u
    a, b = ab
    for start in range(0, n, block):
        r0, r1 = L + start, L + min(start + block, n)
        # the feedback mu*x(t - tau1) and nu*v(t - tau2) of each step
        fx = xh[r0 - k1 : r1 - k1] * c1 + xh[r0 - k1 - 1 : r1 - k1 - 1] * f1
        fx *= mu
        fv = vh[r0 - k2 : r1 - k2] * c2 + vh[r0 - k2 - 1 : r1 - k2 - 1] * f2
        fv *= nu
        # fx leads the zip, so the shared iterators advance by one block
        for fxi, fvi, d, hn, xn, vn, vVn in zip(fx, fv, drives, hs, xs, vs, vVs):
            # a = -beta*v + delta1*x - delta3*x*x*x - kappa*V
            #     + mu*x(t - tau1) + nu*v(t - tau2) + drive, left to right
            mul(p, hc, t)
            mul(q, hc, u)
            add(t1, t0, a)
            u0 *= xc
            u0 *= xc
            a -= u0
            a -= t2
            a += fxi
            a += fvi
            a += d
            # b = v - alpha*V, and [v, V] advance by dt*[a, b]; then the
            # semi-implicit step: position advances with the updated
            # velocity, which avoids the secular energy injection of the
            # fully explicit form
            sub(vc, u2, b)
            ab *= dt2
            add(vVc, ab, vVn)
            mul(dt, vn, a)
            add(xc, a, xn)
            hc, xc, vc, vVc = hn, xn, vn, vVn


def _chunk_batch(
    x,
    v,
    V,
    xi,
    alive,
    h,
    s0,
    n,
    forcing,
    draws,
    dt,
    beta,
    delta1,
    delta3,
    kappa,
    alpha,
    mu,
    nu,
    k1,
    f1,
    k2,
    f2,
    E_ou,
    S_ou,
    skip,
    hist,
    x_min,
    dx,
    v_min,
    dv,
    acc,
    series,
    store,
    sink,
):
    """Advance every trajectory of the ensemble by n Euler steps.

    The steps run in the lane that lane() names.  State arrays x, v, V, xi
    and alive have shape (m,).  h is the C-contiguous step-major history,
    shape (L + n + 1, 3, m), whose row h[r] is the ensemble's
    [x, v, V] at one step: on entry rows 0 .. L-1 hold steps s0-L .. s0-1
    (L > max(k1, k2)), and on exit they hold the last L steps of this chunk.
    forcing is (n, 1) or (n, m); draws is (n, m) float64 and may be overwritten;
    acc is (m, 3), series (m, 3, n_post).  The model parameters, f1, f2, E_ou and
    S_ou are scalars or (m,) rows.  hist is (cells, nx, nv): the rows are
    cell-major, m // cells to a cell, and each row counts into its cell's
    histogram, on the nx x nv grid of cells dx x dv wide from (x_min, v_min).
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
    h[L] = x, v, V
    coeffs = (dt, beta, delta1, delta3, kappa, alpha, mu, nu, f1, f2)
    lib = _library()
    # colored-noise path and drive: they do not depend on the state
    xis = np.empty((n + 1, m))
    xis[0] = xi
    if lib is None:
        _numpy_ou(xis, draws, E_ou, S_ou)
    else:
        # the C loops index raw memory, so check the layout they assume
        if not (
            h.flags.c_contiguous and h.dtype == np.float64 and h.shape[1:] == (3, m)
            and draws.shape == (n, m) and draws.dtype == np.float64
            and 0 <= min(k1, k2) and max(k1, k2) < L
        ):
            raise ValueError(
                "h must be C-contiguous float64 of shape (L + n + 1, 3, m) with "
                "L > max(k1, k2) >= 0, and draws float64 of shape (n, m)"
            )
        # every coefficient as a contiguous (m,) float64 row
        E_row, S_row, *rows = (
            np.ascontiguousarray(np.broadcast_to(np.asarray(c, dtype=float), m))
            for c in (E_ou, S_ou, *coeffs)
        )
        di, dj = (s // draws.itemsize for s in draws.strides)
        lib.harvest_ou(n, m, xis.ctypes.data, draws.ctypes.data, di, dj,
                       E_row.ctypes.data, S_row.ctypes.data)
    drive = np.ascontiguousarray(xis[:n] + forcing)

    xh = h[:, 0]
    # Only rows past the divergence limit (dead at entry or crossing inside
    # the chunk) can overflow; their samples and state are discarded below.
    with np.errstate(over="ignore", invalid="ignore"):
        if lib is None:
            _numpy_steps(h, L, drive, k1, k2, *coeffs)
        else:
            lib.harvest_steps(n, m, L, int(k1), int(k2), h.ctypes.data,
                              drive.ctypes.data, *(row.ctypes.data for row in rows))

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
