"""Time-stepping kernel for the delayed-system Monte Carlo integrator.

The whole ensemble advances in lockstep, one column per trajectory; the
columns may belong to several sweep cells, each with its own parameters,
noise and forcing.  State is kept step-major in one history of shape
(rows, 4, m): row r is the contiguous [x, v, V, xi] of the ensemble at one
step, so a delayed read is a plain row read.  The step loop advances the
whole state, the dynamics and the colored noise, unmasked; divergence, the
accumulators, the histogram, the stored series and the rows handed to a
sink are worked out once per chunk from the recorded rows, in numpy.

The step loop is harvest_steps of _step.c, called through ctypes on the
contiguous history.  The library is compiled on first use (not at import)
with the C compiler Python was built with (sysconfig's CC) and -O2 -fPIC
-shared -ffp-contract=off, into a private per-user cache, $XDG_CACHE_HOME/
harvest or ~/.cache/harvest, under a name keyed by the source, the compiler
command and the machine.  When it cannot be built or loaded, stepping raises
HarvestError naming the compiler command, the cache and the reason.

The loop reads the per-row coefficients from one C-contiguous float64 block
of shape (len(COEF_ROWS), m), built once per run: row r holds coefficient
COEF_ROWS[r] of every trajectory.  dt, the delay offsets k1 and k2 and the
transient skip are shared by the whole batch and stay scalars.

Each element sees the operations of the update equations in order, each
rounded to float64, so every result is bit-identical to a step-at-a-time
evaluation.
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

from .errors import HarvestError

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

# The step loop's source, shipped next to this module, and its build.
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_step.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120.0
# The lines of a failed compile's output that its error quotes, from the end.
_OUTPUT_LINES = 10


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


def _failure(reason: str) -> HarvestError:
    """The error of a step loop that cannot be built or loaded: the compile
    command, the cache directory and the reason."""
    cc = _compiler()
    command = " ".join([*cc, *_FLAGS]) if cc else "none"
    return HarvestError(
        f"cannot build or load the Monte Carlo step loop (compiler: {command}; "
        f"cache: {_cache_dir()}): {reason}"
    )


def _compile(argv: list[str]) -> None:
    """Run the compiler in its own process group, killed whole on timeout.
    Raises HarvestError when it cannot be run, runs past its timeout or exits
    with an error."""
    import signal
    import subprocess

    try:
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
    except OSError as e:
        raise _failure(f"the compiler cannot be run: {e}") from None
    with proc:
        try:
            # reading the output to its end returns as the compiler exits,
            # where wait(timeout) would poll at intervals of up to 50 ms
            output = proc.communicate(timeout=_BUILD_TIMEOUT_S)[0]
        except BaseException as e:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            if isinstance(e, subprocess.TimeoutExpired):
                raise _failure(
                    f"the compile ran past its {_BUILD_TIMEOUT_S:g} s timeout "
                    "and was killed"
                ) from None
            raise
    if proc.returncode:
        tail = output.decode(errors="replace").splitlines()[-_OUTPUT_LINES:]
        raise _failure(
            "\n".join([f"the compiler exited with status {proc.returncode}", *tail])
        )


def _build() -> str:
    """The path of the compiled step loop, built into the cache if missing.

    Pool workers may race on a cold cache: each compiles to a temporary name
    and renames it into place.  Raises HarvestError when there is no
    compiler, the cache is not writable or not private, or the compile fails.
    """
    import hashlib
    import platform
    import tempfile

    cc = _compiler()
    if cc is None:
        raise _failure("sysconfig names no C compiler")
    argv = [*cc, *_FLAGS]
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update("\0".join([*argv, platform.machine()]).encode())
    cache = _cache_dir()
    path = os.path.join(cache, f"step-{key.hexdigest()[:32]}.so")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            raise _failure("the cache is not private to this user")
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".so", prefix=".step-", dir=cache)
            os.close(fd)
            try:
                _compile([*argv, "-o", tmp, _SOURCE])
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
    except OSError as e:
        raise _failure(f"the cache cannot be written: {e}") from None
    return path


@functools.cache
def _library():
    """The loaded C step loop, built on first use.  Raises HarvestError when
    it cannot be built or loaded; that is not cached, so a later call tries
    again."""
    import ctypes

    path = _build()
    try:
        lib = ctypes.CDLL(path)
        steps = lib.harvest_steps
    except (OSError, AttributeError) as e:
        raise _failure(f"the library does not load: {e}") from None
    n, p = ctypes.c_long, ctypes.c_void_p
    steps.argtypes = [n, n, n, n, n, ctypes.c_double, p, p, n, n, p, n, n, p]
    steps.restype = None
    return lib


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


def _chunk_batch(
    x, v, V, xi, alive, h, s0, n, forcing, draws, coef, dt, k1, k2, skip,
    hist, hist_grid, acc, series, store, sink,
):
    """Advance every trajectory of the ensemble by n Euler steps.

    State arrays x, v, V, xi and alive have shape (m,).  h is the
    C-contiguous step-major history, shape (L + n + 1, 4, m), whose row h[r]
    is the ensemble's [x, v, V, xi] at one step: on entry rows 0 .. L-1 hold
    steps s0-L .. s0-1 (L > max(k1, k2)), and on exit they hold the last L
    steps of this chunk.
    Step i drives xi with forcing[i], (n, 1) or (n, m), and advances it with
    the normals draws[i], (n, m); both are float64 in any layout.  acc is
    (m, 3), series (m, 3, n_post).  coef is the C-contiguous float64
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
    cleared from alive.  Mutates everything in place but forcing and draws.
    Raises HarvestError, before anything is written, when the step loop
    cannot be built or loaded (_library).
    """
    L = h.shape[0] - n - 1
    m = x.shape[0]
    nx, nv = hist.shape[1:]
    x_min, dx, v_min, dv = hist_grid
    lib = _library()
    # the C loop indexes raw memory, so check the layout it assumes before
    # anything is written
    if not (
        h.flags.c_contiguous and h.dtype == np.float64 and h.shape[1:] == (4, m)
        and 0 <= min(k1, k2) and max(k1, k2) < L
        and forcing.dtype == np.float64 and forcing.shape in ((n, 1), (n, m))
        and draws.dtype == np.float64 and draws.shape == (n, m)
        and coef.flags.c_contiguous and coef.dtype == np.float64
        and coef.shape == (len(COEF_ROWS), m)
    ):
        raise ValueError(
            "h must be C-contiguous float64 of shape (L + n + 1, 4, m) with "
            "L > max(k1, k2) >= 0, forcing float64 of shape (n, 1) or (n, m), "
            "draws float64 of shape (n, m) and coef C-contiguous float64 of "
            "shape (len(COEF_ROWS), m)"
        )
    h[L] = x, v, V, xi

    # Only rows past the divergence limit (dead at entry or crossing inside
    # the chunk) can overflow; their samples and state are discarded below.
    with np.errstate(over="ignore", invalid="ignore"):
        # an (n, 1) forcing broadcasts to stride 0 across the rows
        fi, fj = (s // 8 for s in np.broadcast_to(forcing, (n, m)).strides)
        di, dj = (s // 8 for s in draws.strides)
        lib.harvest_steps(
            n, m, L, int(k1), int(k2), dt, h.ctypes.data, forcing.ctypes.data,
            fi, fj, draws.ctypes.data, di, dj, coef.ctypes.data,
        )

        # live[j]: the steps of this chunk trajectory j took while alive; one
        # that crosses the limit at step i took steps 0 .. i
        outside = ~(np.abs(h[L + 1 : L + n + 1, 0]) <= DIVERGENCE_LIMIT)
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

            xp, vp, Vp, xip = h[L + i0 : L + n].transpose(1, 0, 2)
            acc[:, 0] = _running_sum(acc[:, 0], kept(vp * (xip + forcing[i0:])))
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
    x[:], v[:], V[:], xi[:] = h[L + live, :, cols].T
    h[:L] = h[n : n + L]
