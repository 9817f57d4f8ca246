"""Time-stepping kernel for the delayed-system Monte Carlo integrator.

The whole ensemble advances in lockstep, one column per trajectory.  State is
kept step-major: row i of each per-chunk array is the ensemble at step s0 + i,
so a delayed read is a plain row read.  The step loop does only the dynamics,
unmasked; divergence, the accumulators, the histogram and the stored series
are worked out once per chunk from the recorded rows.
"""

from __future__ import annotations

import numpy as np

# Store nothing, the displacement only, or displacement/velocity/voltage.
STORE_NONE = 0
STORE_X = 1
STORE_XVV = 2

DIVERGENCE_LIMIT = 1.0e3


def _running_sum(start, terms):
    """start plus the rows of terms (n, m), added one row at a time in order.

    Step order keeps the sums bit-identical for any chunking: np.sum would
    switch to pairwise summation on a single column.
    """
    terms[0] += start
    return np.cumsum(terms, axis=0, out=terms)[-1]


def _chunk_batch(
    x,
    v,
    V,
    xi,
    alive,
    xh,
    vh,
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
    nx,
    v_min,
    dv,
    nv,
    acc,
    series,
    store,
):
    """Advance every trajectory of the ensemble by n Euler steps.

    State arrays x, v, V, xi and alive have shape (m,).  xh and vh are the
    step-major displacement and velocity histories, shape (L + n + 1, m): on
    entry rows 0 .. L-1 hold steps s0-L .. s0-1 (L > max(k1, k2)), and on
    exit they hold the last L steps of this chunk.  draws is (n, m) and is
    overwritten; acc is (m, 3), series (m, 3 or 1, n_post).  Steps s0 ..
    s0+n-1 are taken; samples from step skip on are accumulated.  A
    trajectory whose |x| exceeds DIVERGENCE_LIMIT (NaN counts) keeps the
    samples up to that step, is frozen in the state that crossed, and is
    cleared from alive.  Mutates everything in place.
    """
    L = xh.shape[0] - n - 1
    m = x.shape[0]
    xh[L] = x
    vh[L] = v
    # colored-noise path and drive: they do not depend on the state
    xis = np.empty((n + 1, m))
    xis[0] = xi
    np.multiply(draws, S_ou, out=draws)
    for i in range(n):
        np.multiply(xis[i], E_ou, out=xis[i + 1])
        xis[i + 1] += draws[i]
    drive = xis[:n] + forcing[:, None]
    Vs = np.empty((n + 1, m))
    Vs[0] = V

    c1 = 1.0 - f1
    c2 = 1.0 - f2
    nbeta = -beta
    # Only rows past the divergence limit (dead at entry or crossing inside
    # the chunk) can overflow; their samples and state are discarded below.
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
            # semi-implicit step: position advances with the updated velocity,
            # which avoids the secular energy injection of the fully explicit form
            np.add(Vc, dt * (vc - alpha * Vc), out=Vs[i + 1])
            np.add(vc, dt * a, out=vh[r + 1])
            np.add(xc, dt * vh[r + 1], out=xh[r + 1])

        # live[j]: the steps of this chunk trajectory j took while alive; one
        # that crosses the limit at step i took steps 0 .. i
        outside = ~(np.abs(xh[L + 1 : L + n + 1]) <= DIVERGENCE_LIMIT)
        crossed = outside.any(axis=0)
        live = np.where(alive, np.where(crossed, outside.argmax(axis=0) + 1, n), 0)
        alive &= ~crossed

        i0 = min(max(skip - s0, 0), n)
        if i0 < n:
            # valid[i, j]: trajectory j took post-transient step i0 + i
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
            hist += np.bincount(
                (ix * nv + iv)[ok], minlength=nx * nv
            ).reshape(hist.shape)

            if store != STORE_NONE:
                out = slice(s0 + i0 - skip, s0 + n - skip)
                stored = (xp, vp, Vp) if store == STORE_XVV else (xp,)
                for col, rows in enumerate(stored):
                    series[:, col, out] = np.where(valid, rows, 0.0).T

    # a frozen trajectory keeps the state of the step that crossed the limit
    cols = np.arange(m)
    x[:] = xh[L + live, cols]
    v[:] = vh[L + live, cols]
    V[:] = Vs[live, cols]
    xi[:] = xis[live, cols]
    xh[:L] = xh[n : n + L]
    vh[:L] = vh[n : n + L]
