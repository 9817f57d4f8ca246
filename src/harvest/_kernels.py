"""Time-stepping kernel for the delayed-system Monte Carlo integrator.

The whole ensemble advances in lockstep, one column per trajectory; the
columns may belong to several sweep cells, each with its own parameters,
noise and forcing.  State is kept step-major: row i of each per-chunk array
is the ensemble at step s0 + i, so a delayed read is a plain row read.  The
step loop does only the dynamics, unmasked; divergence, the accumulators,
the histogram, the stored series and the rows handed to a sink are worked
out once per chunk from the recorded rows.

The loop is bound by the cost of a numpy call, not by its arithmetic, so it
makes few and cheap ones:

- Block-precomputed feedback.  A step reads the delayed rows k1 and k2 steps
  back, so a block of min(k1, k2) + 1 steps reads only rows written before
  the block starts; the interpolated feedback mu*x(t - tau1) and
  nu*v(t - tau2) of the whole block is one vectorized pass.  Without delay a
  block is one step.
- Array operands.  Every coefficient is a float64 array, 0-d for one cell and
  (m,) for a batch: a ufunc converts a Python float operand anew on every
  call.  A step writes its temporaries into two preallocated rows and walks
  the state rows with iterators instead of indexing them.

Each element still sees the operations of the update equations in their
order, so every result is bit-identical to a step-at-a-time evaluation.
"""

from __future__ import annotations

import numpy as np

# Store nothing, or displacement/velocity/voltage.
STORE_NONE = 0
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
    v_min,
    dv,
    acc,
    series,
    store,
    sink,
):
    """Advance every trajectory of the ensemble by n Euler steps.

    State arrays x, v, V, xi and alive have shape (m,).  xh and vh are the
    step-major displacement and velocity histories, shape (L + n + 1, m): on
    entry rows 0 .. L-1 hold steps s0-L .. s0-1 (L > max(k1, k2)), and on
    exit they hold the last L steps of this chunk.  forcing is (n, 1) or
    (n, m); draws is (n, m) and is overwritten; acc is (m, 3), series
    (m, 3, n_post).  The model parameters, f1, f2, E_ou and S_ou are
    scalars or (m,) rows.  hist is (cells, nx, nv): the rows are cell-major,
    m // cells to a cell, and each row counts into its cell's histogram, on
    the nx x nv grid of cells dx x dv wide from (x_min, v_min).
    Steps s0 .. s0+n-1 are taken; samples from step skip on are accumulated.
    sink, when not None, is called once per chunk that has post-transient
    steps as sink(rows, first): rows (steps, m) are their displacements, with
    0.0 where a trajectory had stopped, and first is the post-transient index
    of rows[0].
    A trajectory whose |x| exceeds DIVERGENCE_LIMIT (NaN counts) keeps the
    samples up to that step, is frozen in the state that crossed, and is
    cleared from alive.  Mutates everything in place.
    """
    L = xh.shape[0] - n - 1
    m = x.shape[0]
    nx, nv = hist.shape[1:]
    xh[L] = x
    vh[L] = v
    # coefficients as float64 arrays, 0-d for one cell and (m,) for a batch
    dt, nbeta, delta1, delta3, kappa, alpha, mu, nu, f1, f2, E_ou = (
        np.asarray(c, dtype=float)
        for c in (dt, -beta, delta1, delta3, kappa, alpha, mu, nu, f1, f2, E_ou)
    )
    c1 = np.asarray(1.0 - f1)
    c2 = np.asarray(1.0 - f2)

    # colored-noise path and drive: they do not depend on the state
    xis = np.empty((n + 1, m))
    xis[0] = xi
    np.multiply(draws, S_ou, out=draws)
    prev = xis[0]
    for new, d in zip(xis[1:], draws):
        np.multiply(prev, E_ou, out=new)
        new += d
        prev = new
    drive = xis[:n] + forcing
    Vs = np.empty((n + 1, m))
    Vs[0] = V

    # Step i reads the delayed rows r - k - 1 and r - k (r = L + i), so the
    # min(k1, k2) + 1 steps of a block read only rows written before it
    # starts: the delayed feedback of a whole block is one vectorized pass.
    block = min(k1, k2) + 1
    # row iterators over the state: each step reads one row and writes the next
    xs, vs, Vi, drives = iter(xh[L:]), iter(vh[L:]), iter(Vs), iter(drive)
    xc, vc, Vc = next(xs), next(vs), next(Vi)
    a = np.empty(m)
    b = np.empty(m)
    # Only rows past the divergence limit (dead at entry or crossing inside
    # the chunk) can overflow; their samples and state are discarded below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            r0, r1 = L + start, L + min(start + block, n)
            # the feedback mu*x(t - tau1) and nu*v(t - tau2) of each step
            fx = xh[r0 - k1 : r1 - k1] * c1 + xh[r0 - k1 - 1 : r1 - k1 - 1] * f1
            fx *= mu
            fv = vh[r0 - k2 : r1 - k2] * c2 + vh[r0 - k2 - 1 : r1 - k2 - 1] * f2
            fv *= nu
            # fx leads the zip, so the shared iterators advance by one block
            for fxi, fvi, d, xn, vn, Vn in zip(fx, fv, drives, xs, vs, Vi):
                # a = nbeta*vc + delta1*xc - delta3*xc*xc*xc - kappa*Vc
                #     + mu*x(t - tau1) + nu*v(t - tau2) + drive, left to right
                np.multiply(nbeta, vc, out=a)
                np.multiply(delta1, xc, out=b)
                a += b
                np.multiply(delta3, xc, out=b)
                b *= xc
                b *= xc
                a -= b
                np.multiply(kappa, Vc, out=b)
                a -= b
                a += fxi
                a += fvi
                a += d
                # semi-implicit step: position advances with the updated
                # velocity, which avoids the secular energy injection of the
                # fully explicit form
                np.multiply(alpha, Vc, out=b)
                np.subtract(vc, b, out=b)
                b *= dt
                np.add(Vc, b, out=Vn)
                a *= dt
                np.add(vc, a, out=vn)
                np.multiply(dt, vn, out=a)
                np.add(xc, a, out=xn)
                xc, vc, Vc = xn, vn, Vn

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

            xp = xh[L + i0 : L + n]
            vp = vh[L + i0 : L + n]
            Vp = Vs[i0:n]
            acc[:, 0] = _running_sum(acc[:, 0], kept(vp * drive[i0:]))
            acc[:, 1] = _running_sum(acc[:, 1], kept(Vp * Vp))
            # the post-transient steps each trajectory took, the count of valid
            acc[:, 2] += np.maximum(live - i0, 0)

            ix = np.floor((xp - x_min) / dx).astype(np.int64)
            iv = np.floor((vp - v_min) / dv).astype(np.int64)
            ok = (ix >= 0) & (ix < nx) & (iv >= 0) & (iv < nv)
            if valid is not None:
                ok &= valid
            cell = np.arange(m) // (m // hist.shape[0])
            hist += np.bincount(
                (cell * (nx * nv) + ix * nv + iv)[ok], minlength=hist.size
            ).reshape(hist.shape)

            if store != STORE_NONE:
                out = slice(s0 + i0 - skip, s0 + n - skip)
                for col, rows in enumerate((xp, vp, Vp)):
                    series[:, col, out] = kept(rows).T
            if sink is not None:
                sink(kept(xp), s0 + i0 - skip)

    # a frozen trajectory keeps the state of the step that crossed the limit
    cols = np.arange(m)
    x[:] = xh[L + live, cols]
    v[:] = vh[L + live, cols]
    V[:] = Vs[live, cols]
    xi[:] = xis[live, cols]
    xh[:L] = xh[n : n + L]
    vh[:L] = vh[n : n + L]
