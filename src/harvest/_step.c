/* The compiled lane of harvest._kernels._chunk_batch: its colored-noise
 * recurrence and its step loop, each a transcription of the numpy lane.
 *
 * Every element sees the operations of the numpy lane in their order, each
 * rounded to double: build with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math, and the results are bit-identical to it.
 *
 * Arrays are C-ordered float64.  m is the ensemble width; every coefficient
 * is an (m,) row, one entry per trajectory.
 */

/* xis[i + 1] = xis[i] * E + draws[i] * S for i = 0 .. n-1.  xis is
 * (n + 1, m); draw (i, j) sits at draws[i * di + j * dj]. */
void harvest_ou(long n, long m, double *xis, const double *draws, long di,
                long dj, const double *E, const double *S)
{
    for (long i = 0; i < n; i++) {
        const double *prev = xis + i * m;
        double *next = xis + (i + 1) * m;
        const double *d = draws + i * di;
        for (long j = 0; j < m; j++)
            next[j] = prev[j] * E[j] + d[j * dj] * S[j];
    }
}

/* n semi-implicit Euler steps on the step-major history h of shape
 * (rows, 3, m): step i reads row L + i = [x, v, V] and the delayed rows
 * L + i - k and L + i - k - 1, and writes row L + i + 1.  drive is (n, m). */
void harvest_steps(long n, long m, long L, long k1, long k2, double *h,
                   const double *drive, const double *dt, const double *beta,
                   const double *delta1, const double *delta3,
                   const double *kappa, const double *alpha, const double *mu,
                   const double *nu, const double *f1, const double *f2)
{
    const long row = 3 * m;
    for (long i = 0; i < n; i++) {
        const double *hc = h + (L + i) * row;
        double *hn = h + (L + i + 1) * row;
        const double *x1 = h + (L + i - k1) * row;
        const double *x0 = x1 - row;
        const double *v2 = h + (L + i - k2) * row + m;
        const double *v0 = v2 - row;
        const double *d = drive + i * m;
        for (long j = 0; j < m; j++) {
            double x = hc[j], v = hc[m + j], V = hc[2 * m + j];
            /* the feedback mu*x(t - tau1) and nu*v(t - tau2) */
            double fx = (x1[j] * (1.0 - f1[j]) + x0[j] * f1[j]) * mu[j];
            double fv = (v2[j] * (1.0 - f2[j]) + v0[j] * f2[j]) * nu[j];
            /* a = -beta*v + delta1*x - delta3*x*x*x - kappa*V
             *     + mu*x(t - tau1) + nu*v(t - tau2) + drive, left to right */
            double a = -beta[j] * v + delta1[j] * x;
            a -= delta3[j] * x * x * x;
            a -= kappa[j] * V;
            a += fx;
            a += fv;
            a += d[j];
            double b = v - alpha[j] * V;
            /* [v, V] advance by dt*[a, b], then x by dt times the new v */
            double vn = v + a * dt[j];
            hn[m + j] = vn;
            hn[2 * m + j] = V + b * dt[j];
            hn[j] = x + dt[j] * vn;
        }
    }
}
