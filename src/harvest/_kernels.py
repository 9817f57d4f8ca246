"""Time-stepping kernel for the delayed-system Monte Carlo integrator.

The whole ensemble advances in lockstep: each step is a handful of numpy
operations over the trajectory axis, reading pregenerated standard-normal
streams, one row per trajectory.
"""

from __future__ import annotations

import numpy as np

# Store nothing, the displacement only, or displacement/velocity/voltage.
STORE_NONE = 0
STORE_X = 1
STORE_XVV = 2

DIVERGENCE_LIMIT = 1.0e3


def _chunk_batch(
    x,
    v,
    V,
    xi,
    alive,
    xbuf,
    vbuf,
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

    State arrays have shape (m,), buffers (m, L), draws (m, n), acc (m, 3),
    series (m, 3 or 1, n_post).  Steps s0 .. s0+n-1 are taken; samples from
    step skip on are accumulated.  A trajectory whose |x| exceeds
    DIVERGENCE_LIMIT is frozen and cleared from alive.  Mutates everything in
    place.
    """
    L = xbuf.shape[1]
    for i in range(n):
        s = s0 + i
        j = s % L
        xbuf[alive, j] = x[alive]
        vbuf[alive, j] = v[alive]
        j1 = (s - k1) % L
        j1m = (s - k1 - 1) % L
        xd = xbuf[:, j1] * (1.0 - f1) + xbuf[:, j1m] * f1
        j2 = (s - k2) % L
        j2m = (s - k2 - 1) % L
        vd = vbuf[:, j2] * (1.0 - f2) + vbuf[:, j2m] * f2
        drive = xi + forcing[i]
        if s >= skip:
            acc[alive, 0] += (v * drive)[alive]
            acc[alive, 1] += (V * V)[alive]
            acc[alive, 2] += 1.0
            ix = np.floor((x - x_min) / dx).astype(np.int64)
            iv = np.floor((v - v_min) / dv).astype(np.int64)
            ok = alive & (ix >= 0) & (ix < nx) & (iv >= 0) & (iv < nv)
            np.add.at(hist, (ix[ok], iv[ok]), 1)
            if store >= STORE_X:
                series[alive, 0, s - skip] = x[alive]
            if store == STORE_XVV:
                series[alive, 1, s - skip] = v[alive]
                series[alive, 2, s - skip] = V[alive]
        a = (
            -beta * v
            + delta1 * x
            - delta3 * x * x * x
            - kappa * V
            + mu * xd
            + nu * vd
            + drive
        )
        # semi-implicit step: position advances with the updated velocity,
        # which avoids the secular energy injection of the fully explicit form
        np.copyto(V, V + dt * (v - alpha * V), where=alive)
        np.copyto(v, v + dt * a, where=alive)
        np.copyto(x, x + dt * v, where=alive)
        np.copyto(xi, xi * E_ou + S_ou * draws[:, i], where=alive)
        alive &= np.abs(x) <= DIVERGENCE_LIMIT
