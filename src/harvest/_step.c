/* The step loop of harvest._kernels._chunk_batch.
 *
 * Every element sees the operations of the update equations in their order,
 * each rounded to double: build with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math, and the results are bit-identical
 * to a step-at-a-time evaluation in numpy.
 *
 * Arrays are float64.  m is the ensemble width.  coef is the C-ordered
 * coefficient block of shape (rows, m): coefficient r of trajectory j is
 * coef[r * m + j], and the rows are those of _kernels.COEF_ROWS, in order:
 * beta, delta1, delta3, kappa, alpha, mu, nu, f1, f2, E_ou, S_ou.
 */
enum { BETA, DELTA1, DELTA3, KAPPA, ALPHA, MU, NU, F1, F2, E_OU, S_OU };

/* n steps on the C-ordered step-major history h of shape (rows, 4, m): step
 * i reads row L + i = [x, v, V, xi] and the delayed rows L + i - k and
 * L + i - k - 1, and writes row L + i + 1: a semi-implicit Euler step of
 * size dt of [x, v, V], and the colored noise's exact one-step update of xi.
 * The forcing of (i, j) sits at forcing[i * fi + j * fj], and its normal
 * draw at draws[i * di + j * dj]. */
void harvest_steps(long n, long m, long L, long k1, long k2, double dt,
                   double *h, const double *forcing, long fi, long fj,
                   const double *draws, long di, long dj, const double *coef)
{
    const double *beta = coef + BETA * m, *delta1 = coef + DELTA1 * m,
                 *delta3 = coef + DELTA3 * m, *kappa = coef + KAPPA * m,
                 *alpha = coef + ALPHA * m, *mu = coef + MU * m,
                 *nu = coef + NU * m, *f1 = coef + F1 * m, *f2 = coef + F2 * m,
                 *E = coef + E_OU * m, *S = coef + S_OU * m;
    const long row = 4 * m;
    for (long i = 0; i < n; i++) {
        const double *hc = h + (L + i) * row;
        double *hn = h + (L + i + 1) * row;
        const double *x1 = h + (L + i - k1) * row;
        const double *x0 = x1 - row;
        const double *v2 = h + (L + i - k2) * row + m;
        const double *v0 = v2 - row;
        const double *F = forcing + i * fi, *N = draws + i * di;
        for (long j = 0; j < m; j++) {
            double x = hc[j], v = hc[m + j], V = hc[2 * m + j],
                   xi = hc[3 * m + j];
            /* the feedback mu*x(t - tau1) and nu*v(t - tau2) */
            double fx = (x1[j] * (1.0 - f1[j]) + x0[j] * f1[j]) * mu[j];
            double fv = (v2[j] * (1.0 - f2[j]) + v0[j] * f2[j]) * nu[j];
            /* the drive: colored noise plus the periodic forcing */
            double d = xi + F[j * fj];
            /* a = -beta*v + delta1*x - delta3*x*x*x - kappa*V
             *     + mu*x(t - tau1) + nu*v(t - tau2) + drive, left to right */
            double a = -beta[j] * v + delta1[j] * x;
            a -= delta3[j] * x * x * x;
            a -= kappa[j] * V;
            a += fx;
            a += fv;
            a += d;
            double b = v - alpha[j] * V;
            /* [v, V] advance by dt*[a, b], then x by dt times the new v */
            double vn = v + a * dt;
            hn[m + j] = vn;
            hn[2 * m + j] = V + b * dt;
            hn[j] = x + dt * vn;
            hn[3 * m + j] = xi * E[j] + N[j * dj] * S[j];
        }
    }
}
