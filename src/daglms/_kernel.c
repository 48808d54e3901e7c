/* One run of daglms.sim._adapt_loop in C, and the whole-signal filters of
   TransferOperator.filter_signal and dsp_core._sosfilt, each with the bits
   of its Python loop.

   Every dot product is np.dot's: the product itself for length 1, else
   0.0 + the cblas_ddot that np.dot calls, passed in as `ddot`. Every other
   operation is an IEEE double operation in the order of the Python loop;
   built with -ffp-contract=off, so that no product is fused into an FMA. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);

double daglms_dot(ddot_fn ddot, int64_t n, const double *x, const double *y)
{
    return n == 1 ? x[0] * y[0] : 0.0 + ddot(n, x, 1, y, 1);
}

/* One step of TransferOperator.filter_step over its order delays z, updated in place: direct
   form II transposed in its expression order; at order 0, b0 * u + 0.0. */
static double filter_step(int64_t order, const double *b, const double *a, double *z, double u)
{
    const double y = b[0] * u + (order ? z[0] : 0.0);
    for (int64_t k = 0; k < order - 1; k++)
        z[k] = b[k + 1] * u + z[k + 1] - a[k + 1] * y;
    if (order)
        z[order - 1] = b[order] * u - a[order] * y;
    return y;
}

/* TransferOperator.filter_step for a[0] == 1 over n samples into y, z updated in place. */
void daglms_lfilter(int64_t order, const double *b, const double *a, double *z, int64_t n,
                    const double *x, double *y)
{
    for (int64_t t = 0; t < n; t++)
        y[t] = filter_step(order, b, a, z, x[t]);
}

/* dsp_core._sosfilt's loop over n samples into y, in its expression order: each section a
   row (b0, b1, b2, 1, a1, a2) of sos, its two delays a row of zi, updated in place. */
void daglms_sosfilt(int64_t sections, const double *sos, double *zi, int64_t n, const double *x,
                    double *y)
{
    for (int64_t t = 0; t < n; t++) {
        double v = x[t];
        for (int64_t s = 0; s < sections; s++) {
            const double *c = sos + 6 * s;
            double *z = zi + 2 * s;
            const double w = c[0] * v + z[0];
            z[0] = c[1] * v - c[4] * w + z[1];
            z[1] = c[2] * v - c[5] * w;
            v = w;
        }
        y[t] = v;
    }
}

/* dim: n taps, T samples, prefix, K history slots, depth, path order (-1: no path).
   par: mu, a, b of the gain mu / (a + b phi_f.phi_f), divergence limit.
   hist: the (K, n) history block, updated in place; w: its K gain weights, all summed.
   b, a, z: the path's coefficients and its state after the prefix, updated in place.
   target, e_post, err: NULL when not recorded. work: 2n doubles.
   Returns the diverging step (from 1), with its estimate norm in *norm, or 0. */
int64_t daglms_adapt(ddot_fn ddot, const int64_t *dim, const double *par, const double *x,
                     const double *rev, const double *rev_f, const double *w, double *hist,
                     const double *b, const double *a, double *z, const double *target,
                     double *e0_rec, double *e_post, double *err, double *work, double *norm)
{
    const int64_t n = dim[0], T = dim[1], prefix = dim[2], K = dim[3], depth = dim[4], order = dim[5];
    double *base = work, *corr = work + n;
    for (int64_t t = prefix; t < T; t++) {
        const double *phi = rev + (T - 1 - t), *phi_f = rev_f + (T - 1 - t);
        for (int64_t i = 0; i < n; i++) {  /* the gain sum, in order of k */
            double s = w[0] * hist[i];
            for (int64_t k = 1; k < K; k++)
                s += w[k] * hist[k * n + i];
            base[i] = s;
        }
        double y = daglms_dot(ddot, n, base, phi);
        if (order >= 0)
            y = filter_step(order, b, a, z, y);
        const double e0 = x[t] - y;
        double mu_t = par[0], scale = 1.0;
        if (par[2] != 0.0) {  /* the constant rule never reads the power */
            scale = par[1] + par[2] * daglms_dot(ddot, n, phi_f, phi_f);
            mu_t /= scale;
        }
        const double g = mu_t * e0;
        for (int64_t i = 0; i < n; i++) {
            corr[i] = g * phi_f[i];
            base[i] += corr[i];
        }
        *norm = sqrt(daglms_dot(ddot, n, base, base));
        if (!(isfinite(*norm) && *norm <= par[3]))
            return t - prefix + 1;
        memmove(hist + n, hist, (size_t)((K - 1) * n) * sizeof *hist);
        memcpy(hist, base, (size_t)n * sizeof *hist);
        if (depth < K)
            memcpy(hist + depth * n, corr, (size_t)n * sizeof *hist);
        e0_rec[t] = e0;
        if (e_post)
            e_post[t] = e0 / scale;
        if (target) {
            for (int64_t i = 0; i < n; i++)
                base[i] = target[i] - hist[i];
            err[t] = sqrt(daglms_dot(ddot, n, base, base));
        }
    }
    return 0;
}
