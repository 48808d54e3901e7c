/* One run of daglms.sim._adapt_loop in C, the whole-signal filters of
   TransferOperator.filter_signal and dsp_core._sosfilt, each with the bits of its Python
   loop, the trace CSV rows of daglms.cli._trace_rows with the bytes of repr, and the
   real-part minimum of daglms.spr_design._real_part_minimum with its bits.

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

/* A bound below which a sum of n squares s, added in any order, shows that the norm the
   Python loop checks, sqrt(ddot(n, v, v)), is finite and at most limit; 0 where none is
   derived, as no sum of squares lies below 0.

   With u = 2^-53 and g = nu / (1 - nu), each order of summing n products, with or without
   FMA, lies within g S of the exact sum S (Higham, Accuracy and Stability of Numerical
   Algorithms, 2nd ed., section 3.1). So ddot's d <= (1 + g) S and s >= (1 - g) S, and
   d <= s (1 + g) / (1 - g) <= s (1 + 3nu) for nu <= 2^-12. The bound is
   limit^2 (1 - m) with m = (4n + 8) u, computed with three roundings: s < bound gives
   d < limit^2 (1 - m) (1 + u)^3 (1 + 3nu) <= limit^2 (1 - m) (1 + (3n + 4) u) < limit^2.
   So d is finite and sqrt(d) <= limit, as sqrt rounds correctly to the double limit.
   Underflow adds at most n 2^-1074 to either sum, far below the slack limit^2 n u for
   limit >= 2^-400; limit <= 2^500 keeps limit^2 finite. */
static double norm_bound(int64_t n, double limit)
{
    if (!(0x1p-400 <= limit && limit <= 0x1p500 && n <= INT64_C(1) << 40))
        return 0.0;
    return limit * limit * (1.0 - (double)(4 * n + 8) * 0x1p-53);
}

/* n taps, T samples, the first adapting at prefix; K history slots, the first depth of
   them estimates; path order (-1: no path). mu, rule_a, rule_b: the gain
   mu / (rule_a + rule_b phi_f.phi_f); limit: the divergence limit.
   hist: the (K, n) history block, newest first, updated in place; w: its K gain weights.
   b, a, z: the path's coefficients and its state after the prefix, updated in place.
   target, e_post, err: NULL when not recorded. work: (K + 2) n doubles.
   Returns the diverging step (from 1), with its estimate norm in *norm, or 0.

   The block is a ring while the loop runs: slot j, newest first, is row (head + j) mod K,
   so a step writes two rows where the Python loop shifts the block. Its rows go back in
   order before the return. The loops over the taps run inside the loops over the slots,
   so the compiler can vectorize them; each tap keeps its order of operations. */
int64_t daglms_adapt(ddot_fn ddot, int64_t n, int64_t T, int64_t prefix, int64_t K, int64_t depth,
                     int64_t order, double mu, double rule_a, double rule_b, double limit,
                     const double *x, const double *rev, const double *rev_f, const double *target,
                     const double *w, double *hist, const double *b, const double *a, double *z,
                     double *e0_rec, double *e_post, double *err, double *work, double *norm)
{
    double *restrict base = work, *restrict corr = work + n;
    const double bound = norm_bound(n, limit);
    int64_t head = 0, step = 0;
    for (int64_t t = prefix; t < T; t++) {
        const double *phi = rev + (T - 1 - t), *phi_f = rev_f + (T - 1 - t);
        const double *h = hist + head * n;
        for (int64_t i = 0; i < n; i++)  /* the gain sum, in order of the slots */
            base[i] = w[0] * h[i];
        for (int64_t k = 1; k < K; k++) {
            h = hist + (head + k) % K * n;
            for (int64_t i = 0; i < n; i++)
                base[i] += w[k] * h[i];
        }
        double y = daglms_dot(ddot, n, base, phi);
        if (order >= 0)
            y = filter_step(order, b, a, z, y);
        const double e0 = x[t] - y;
        double mu_t = mu, scale = 1.0;
        if (rule_b != 0.0) {  /* the constant rule never reads the power */
            scale = rule_a + rule_b * daglms_dot(ddot, n, phi_f, phi_f);
            mu_t /= scale;
        }
        const double g = mu_t * e0;
        for (int64_t i = 0; i < n; i++) {
            corr[i] = g * phi_f[i];
            base[i] += corr[i];
        }
        double acc[4] = {0.0, 0.0, 0.0, 0.0};  /* four partial sums: norm_bound takes any order */
        int64_t i = 0;
        for (; i + 4 <= n; i += 4)
            for (int j = 0; j < 4; j++)
                acc[j] += base[i + j] * base[i + j];
        for (; i < n; i++)
            acc[0] += base[i] * base[i];
        const double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        if (!(s < bound)) {  /* NaN and inf included */
            *norm = sqrt(daglms_dot(ddot, n, base, base));
            if (!(isfinite(*norm) && *norm <= limit)) {
                step = t - prefix + 1;
                break;
            }
        }
        head = head ? head - 1 : K - 1;  /* the oldest row becomes the newest */
        memcpy(hist + head * n, base, (size_t)n * sizeof *hist);
        if (depth < K)
            memcpy(hist + (head + depth) % K * n, corr, (size_t)n * sizeof *hist);
        e0_rec[t] = e0;
        if (e_post)
            e_post[t] = e0 / scale;
        if (target) {
            for (int64_t i = 0; i < n; i++)
                base[i] = target[i] - base[i];
            err[t] = sqrt(daglms_dot(ddot, n, base, base));
        }
    }
    if (head) {  /* the ring back in order, through the spare rows of work */
        double *spare = work + 2 * n;
        for (int64_t j = 0; j < K; j++)
            memcpy(spare + j * n, hist + (head + j) % K * n, (size_t)n * sizeof *hist);
        memcpy(hist, spare, (size_t)(K * n) * sizeof *hist);
    }
    return step;
}

/* The trace CSV rows of daglms.cli._trace_rows, each double with the bytes of Python's
   repr: the shortest decimal that reads back as the same double, the closest such one, ties
   to an even last digit. The digits come from Schubfach (R. Giulietti, "The Schubfach way to
   render doubles", 2020). g is its table of 128-bit powers of ten, two words (high, low) per
   exponent E = -292...324: floor(10^E * 2^(127 - floor(log2 10^E))) + 1. */
#define POW10_MIN (-292)

/* floor(g * cp / 2^128), its lowest bit set where the rest is inexact; unsigned __int128 is
   there on every 64-bit gcc or clang target, and the library loads only on 64-bit NumPy */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    const unsigned __int128 x = (unsigned __int128)g[1] * cp,
                            y = (unsigned __int128)g[0] * cp + (uint64_t)(x >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
}

static int64_t floor_shift(int64_t x, int n)  /* floor(x / 2^n), shifting no negative value */
{
    return x >= 0 ? x >> n : ~(~x >> n);
}

/* The digits s and exponent k of a finite nonzero double's shortest decimal s * 10^k
   (s may end in zeros). bits: the double's bits without the sign. */
static uint64_t shortest(const uint64_t *g, uint64_t bits, int64_t *exp10)
{
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const int64_t biased = (int64_t)(bits >> 52);
    uint64_t c = frac;
    int64_t q = 1 - 1075;
    if (biased) {
        c |= UINT64_C(1) << 52;
        q = biased - 1075;
        if (-52 <= q && q <= 0 && !(c & ((UINT64_C(1) << -q) - 1))) {  /* an integer below 2^53 */
            *exp10 = 0;
            return c >> -q;
        }
    }
    const int closer = frac == 0 && biased > 1;  /* the lower neighbour is half as far */
    /* the value c 2^q and the ends of the interval that reads back as it, in units of 2^(q-2) */
    const uint64_t even = !(c & 1), cbl = 4 * c - 2 + closer, cb = 4 * c, cbr = 4 * c + 2;
    /* k = floor(log10(2^q)), or of 3/4 2^q where the lower neighbour is closer; h makes
       g(-k) (x << h) / 2^128 equal to x 2^q 10^-k: four times x 2^(q-2) in units of 10^k */
    const int64_t k = floor_shift(q * 1262611 - (closer ? 524031 : 0), 22);
    const int h = (int)(q + floor_shift(-k * 1741647, 19) + 1);
    const uint64_t *pow10 = g + 2 * (-k - POW10_MIN);
    const uint64_t vbl = round_to_odd(pow10, cbl << h), vb = round_to_odd(pow10, cb << h),
                   vbr = round_to_odd(pow10, cbr << h);
    /* the ends are in the interval for an even c, as round-half-even reads them back */
    const uint64_t lower = vbl + !even, upper = vbr - !even;
    const uint64_t s = vb / 4;  /* the value in units of 10^k, truncated */
    if (s >= 10) {  /* one digit fewer, at 10^(k + 1) */
        const uint64_t sp = s / 10;
        const int up_inside = lower <= 40 * sp, wp_inside = 40 * sp + 40 <= upper;
        if (up_inside != wp_inside) {
            *exp10 = k + 1;
            return sp + wp_inside;
        }
    }
    const int u_inside = lower <= 4 * s, w_inside = 4 * s + 4 <= upper;
    *exp10 = k;
    if (u_inside != w_inside)
        return s + w_inside;
    /* both s and s + 1 read back: the closer, or the even one at a tie */
    const uint64_t mid = 4 * s + 2;
    return s + (vb > mid || (vb == mid && (s & 1)));
}

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of v, written to end at end; returns where they start. */
static char *digits_to(char *end, uint64_t v)
{
    while (v >= 100000000) {  /* eight digits at a time in 32 bits */
        const uint32_t r = (uint32_t)(v % 100000000), hi = r / 10000, lo = r % 10000;
        v /= 100000000;
        end -= 8;
        memcpy(end, DIGIT_PAIRS + 2 * (hi / 100), 2);
        memcpy(end + 2, DIGIT_PAIRS + 2 * (hi % 100), 2);
        memcpy(end + 4, DIGIT_PAIRS + 2 * (lo / 100), 2);
        memcpy(end + 6, DIGIT_PAIRS + 2 * (lo % 100), 2);
    }
    uint32_t w = (uint32_t)v;
    for (; w >= 100; w /= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (w % 100), 2);
    }
    if (w >= 10) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * w, 2);
    } else {
        *--end = (char)('0' + w);
    }
    return end;
}

static char *write_uint(char *p, uint64_t v)
{
    char d[20];
    const char *start = digits_to(d + 20, v);
    memcpy(p, start, (size_t)(d + 20 - start));
    return p + (d + 20 - start);
}

/* repr(v) at p, or nothing for a NaN; returns its end, at most 24 bytes on. The digits go
   in copies of a fixed size, which may write junk up to 34 bytes past p; what follows
   overwrites it. */
static char *write_double(char *p, const uint64_t *g, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t mag = bits & ~(UINT64_C(1) << 63);
    if (mag > UINT64_C(0x7ff0000000000000))
        return p;
    if (bits >> 63)
        *p++ = '-';
    if (mag == UINT64_C(0x7ff0000000000000)) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (mag == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int64_t k;
    uint64_t s = shortest(g, mag, &k);
    while (s >= 10 && s % 10 == 0) {  /* s >= 10: it ends even on a table gone wrong */
        s /= 10;
        k++;
    }
    char buf[40];  /* the digits end at buf + 20; the copies below read at most 17 bytes on */
    const char *d = digits_to(buf + 20, s);
    const int n = (int)(buf + 20 - d);  /* at most 17 */
    const int64_t e = k + n - 1;  /* the decimal exponent: s * 10^k = d.ddd * 10^e */
    if (e < -4 || e >= 16) {  /* d[.ddd]e-XX, d[.ddd]e+XX, at least two exponent digits */
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, 16);
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        const int64_t a = e < 0 ? -e : e;
        if (a < 10)
            *p++ = '0';
        return write_uint(p, (uint64_t)a);
    }
    if (e < 0) {  /* 0.ddd, with -e - 1 zeros after the point */
        memcpy(p, "0.0000", 6);
        p += 1 - e;
        memcpy(p, d, 17);
        return p + n;
    }
    if (n <= e + 1) {  /* an integral value: ddd000.0 */
        memcpy(p, d, 17);
        p += n;
        memset(p, '0', (size_t)(e + 1 - n));
        p += e + 1 - n;
        memcpy(p, ".0", 2);
        return p + 2;
    }
    memcpy(p, d, 16);  /* ddd.ddd */
    p += e + 1;
    *p++ = '.';
    memcpy(p, d + e + 1, 16);
    return p + n - e - 1;
}

/* Rows start...start + rows - 1 (start >= 0) of a trace CSV into out: row i's lead, the
   bytes lead[ends[i]...ends[i + 1] - 1] (ends increase), or its step where ends is NULL,
   then each of the ncols (at most MAX_COLS) columns of cols, a (ncols, rows) block, as repr
   writes it, NaN as an empty field; a field whose bits equal an earlier field of its row is
   copied from that field. A window column follows (len >= 1): step s reads
   win[(s - first) / len] where s >= first and that index is below nwin, else an empty field;
   each window is formatted once and its bytes copied to its rows. Fields are joined by ",",
   rows end in "\r\n". A row takes its lead (a step at most 20 bytes) and at most
   2 + 25 * (ncols + 1) bytes more, and the last field's junk at most 16 more, so out holds
   the leads' bytes and rows * (2 + 25 * (ncols + 1)) + 16. Returns the bytes written. */
#define MAX_COLS 16

int64_t daglms_trace_rows(const uint64_t *g, int64_t start, int64_t rows, int64_t ncols,
                          const double *cols, const double *win, int64_t nwin, int64_t first,
                          int64_t len, const char *lead, const int64_t *ends, char *out)
{
    char *p = out, *field[MAX_COLS];
    char window[64];  /* the field of window k_shown, and write_double's junk after it */
    int64_t k_shown = -1, shown = 0;
    for (int64_t i = 0; i < rows; i++) {
        const int64_t step = start + i;
        if (ends) {
            memcpy(p, lead + ends[i], (size_t)(ends[i + 1] - ends[i]));
            p += ends[i + 1] - ends[i];
        } else {
            p = write_uint(p, (uint64_t)step);
        }
        for (int64_t j = 0; j < ncols; j++) {
            const double *v = cols + j * rows + i;
            int64_t same = 0;
            while (same < j && memcmp(cols + same * rows + i, v, sizeof *v))
                same++;
            *p++ = ',';
            field[j] = p;
            if (same < j) {  /* field[same + 1] - 1 is the comma that ends field same */
                const size_t n = (size_t)(field[same + 1] - 1 - field[same]);
                memcpy(p, field[same], n);
                p += n;
            } else {
                p = write_double(p, g, *v);
            }
        }
        *p++ = ',';
        const int64_t k = step >= first ? (step - first) / len : -1;
        if (0 <= k && k < nwin) {
            if (k != k_shown) {
                shown = write_double(window, g, win[k]) - window;
                k_shown = k;
            }
            memcpy(p, window, (size_t)shown);
            p += shown;
        }
        *p++ = '\r';
        *p++ = '\n';
    }
    return p - out;
}

/* spr_design._real_part_minimum for series of at most RPM_MAX_LEN coefficients, with its bits:
   each helper below is the Python function of its name, in its order of operations. The
   largest magnitude, the clip to [-1, 1] and the smallest value follow Python's max, min and
   _smallest, where a NaN is kept only as the first item. */
#define RPM_MAX_LEN 8
#define RPM_TERMS (2 * RPM_MAX_LEN)  /* room for each series below */

static double py_max(double a, double b)  /* max(a, b): a unless b is larger */
{
    return b > a ? b : a;
}

static double py_min(double a, double b)
{
    return b < a ? b : a;
}

static double largest_magnitude(int64_t len, const double *a)  /* max(map(abs, a)) */
{
    double m = fabs(a[0]);
    for (int64_t i = 1; i < len; i++)
        m = py_max(m, fabs(a[i]));
    return m;
}

/* out = c 2^-e with the largest magnitude in [1, 2); returns e (math.frexp's exponent of a
   zero, an infinity or a NaN is 0) */
static int scaled(int64_t len, const double *c, double *out)
{
    const double m = largest_magnitude(len, c);
    int e = 0;
    if (isfinite(m) && m != 0.0)
        frexp(m, &e);
    e -= 1;
    for (int64_t i = 0; i < len; i++)
        out[i] = ldexp(c[i], -e);
    return e;
}

static void lags(int64_t lu, const double *u, int64_t lv, const double *v, int64_t half, double *w)
{
    for (int64_t i = 0; i <= 2 * half; i++)
        w[i] = 0.0;
    for (int64_t i = 0; i < lu; i++)
        for (int64_t k = 0; k < lv; k++)
            w[half + i - k] += u[i] * v[k];
}

static void cos_series(const double *w, int64_t half, double *out)  /* half + 1 terms */
{
    out[0] = w[half];
    for (int64_t k = 1; k <= half; k++)
        out[k] = w[half + k] + w[half - k];
}

static int64_t cheb_mul(int64_t la, const double *a, int64_t lb, const double *b, double *out)
{
    for (int64_t i = 0; i < la + lb - 1; i++)
        out[i] = 0.0;
    for (int64_t i = 0; i < la; i++)
        for (int64_t j = 0; j < lb; j++) {
            const double half_product = 0.5 * a[i] * b[j];
            out[i + j] += half_product;
            out[i > j ? i - j : j - i] += half_product;
        }
    return la + lb - 1;
}

static int64_t cheb_der(int64_t la, const double *a_in, double *der)  /* la >= 2 */
{
    double a[RPM_TERMS];
    memcpy(a, a_in, (size_t)la * sizeof *a);
    const int64_t n = la - 1;
    for (int64_t j = 0; j < n; j++)
        der[j] = 0.0;
    for (int64_t j = n; j > 2; j--) {
        der[j - 1] = (double)(2 * j) * a[j];
        a[j - 2] += (double)j * a[j] / (double)(j - 2);
    }
    if (n > 1)
        der[1] = 4.0 * a[2];
    der[0] = a[1];
    return n;
}

static void u_to_t(int64_t len, const double *b, double *t)
{
    memcpy(t, b, (size_t)len * sizeof *t);
    for (int64_t k = len - 3; k >= 0; k--)
        t[k] += t[k + 2];
    for (int64_t k = 1; k < len; k++)
        t[k] = 2.0 * t[k];
}

static double cheb_val(int64_t la, const double *a, double x)
{
    double b1 = 0.0, b2 = 0.0;
    for (int64_t i = la - 1; i >= 1; i--) {
        const double next = 2.0 * x * b1 - b2 + a[i];
        b2 = b1;
        b1 = next;
    }
    return x * b1 - b2 + a[0];
}

/* The real parts of the roots of a T series of finite coefficients, at most two, in *roots;
   returns their number, or -1 where _root_real_parts takes the colleague matrix (degree 3 or
   more) or a root is not finite. */
static int64_t root_real_parts(int64_t la, const double *a, double *roots)
{
    const double floor = 0x1p-52 * largest_magnitude(la, a);
    int64_t n = la - 1, count;
    while (n > 0 && fabs(a[n]) <= floor)
        n--;
    if (n == 0) {
        count = 0;
    } else if (n == 1) {
        roots[0] = -a[0] / a[1];
        count = 1;
    } else if (n == 2) {
        const double qa = 2.0 * a[2], qb = a[1], qc = a[0] - a[2];
        const double disc = qb * qb - 4.0 * qa * qc;
        if (disc < 0.0) {
            roots[0] = -qb / (2.0 * qa);
            count = 1;
        } else {
            const double s = -0.5 * (qb + copysign(sqrt(disc), qb));
            if (s != 0.0) {  /* NaN included, as Python's truth test reads it */
                roots[0] = s / qa;
                roots[1] = qc / s;
                count = 2;
            } else {
                roots[0] = 0.0;
                count = 1;
            }
        }
    } else {
        return -1;
    }
    for (int64_t i = 0; i < count; i++)
        if (!isfinite(roots[i]))
            return -1;
    return count;
}

/* _critical_points of T series p and q of len >= 2 terms into xs; returns their number, or
   -1 where root_real_parts declines. */
static int64_t critical_points(int64_t len, const double *p, const double *q, double *xs)
{
    double dp[RPM_TERMS], dq[RPM_TERMS], ddp[RPM_TERMS] = {0.0}, ddq[RPM_TERMS] = {0.0};
    double lhs[RPM_TERMS], rhs[RPM_TERMS], roots[2];
    const int64_t ld = cheb_der(len, p, dp);
    cheb_der(len, q, dq);
    const int64_t ldd = ld > 1 ? cheb_der(ld, dp, ddp) : 1;
    if (ld > 1)
        cheb_der(ld, dq, ddq);
    const int64_t lc = cheb_mul(ld, dp, len, q, lhs);
    cheb_mul(len, p, ld, dq, rhs);
    for (int64_t i = 0; i < lc; i++) {
        lhs[i] -= rhs[i];
        if (!isfinite(lhs[i]))  /* Python's floor and divisions differ on these: the twin takes them */
            return -1;
    }
    const int64_t count = root_real_parts(lc, lhs, roots);
    if (count < 0)
        return -1;
    int64_t m = 0;
    xs[m++] = 1.0;
    xs[m++] = -1.0;
    for (int64_t r = 0; r < count; r++) {
        double x = py_min(1.0, py_max(-1.0, roots[r]));
        xs[m++] = x;
        double last = INFINITY;
        for (int it = 0; it < 8; it++) {
            const double p0 = cheb_val(len, p, x), p1 = cheb_val(ld, dp, x), p2 = cheb_val(ldd, ddp, x);
            const double q0 = cheb_val(len, q, x), q1 = cheb_val(ld, dq, x), q2 = cheb_val(ldd, ddq, x);
            const double slope = p2 * q0 - p0 * q2;
            const double step = slope != 0.0 ? (p1 * q0 - p0 * q1) / slope : 0.0;  /* NaN is true */
            if (!(0.0 < fabs(step) && fabs(step) < 0.5 * last))
                break;
            x = py_min(1.0, py_max(-1.0, x - step));
            last = fabs(step);
        }
        xs[m++] = x;
    }
    return m;
}

/* Horner's rule at zr + j zi in CPython 3.11's complex order: y * z by _Py_c_prod, and c added
   as complex(c, 0.0) */
static void at(int64_t len, const double *c, double zr, double zi, double *yr_out, double *yi_out)
{
    double yr = 0.0, yi = 0.0;
    for (int64_t i = len - 1; i >= 0; i--) {
        const double r = yr * zr - yi * zi + c[i];
        yi = yr * zi + yi * zr + 0.0;
        yr = r;
    }
    *yr_out = yr;
    *yi_out = yi;
}

/* The minimum and its x in out[0], out[1] for N of ln and D of ld coefficients, N then D in
   coeffs, the real part of N / ((1 - q^-1) D) where unit_pole is set. Returns 0, or 1 where
   the Python twin must answer: a series too long, a critical series of degree 3 or more or
   with a non-finite coefficient or root, or a pole on a candidate. */
int64_t daglms_real_part_minimum(int64_t ln, int64_t ld, const double *coeffs, int64_t unit_pole,
                                 double *out)
{
    if (!(0 < ln && ln <= RPM_MAX_LEN && 0 < ld && ld <= RPM_MAX_LEN))
        return 1;
    double n[RPM_MAX_LEN], d[RPM_MAX_LEN], w[RPM_TERMS], dd[RPM_TERMS], p[RPM_TERMS], q[RPM_TERMS];
    double diff[RPM_MAX_LEN], sine[RPM_MAX_LEN], xs[6], values[6];
    const int n_exp = scaled(ln, coeffs, n), d_exp = scaled(ld, coeffs + ln, d);
    const int64_t longer = ln > ld ? ln : ld, half = (longer > 2 ? longer : 2) - 1;
    lags(ln, n, ld, d, half, w);
    cos_series(w, half, p);
    lags(ld, d, ld, d, half, dd);
    cos_series(dd, half, q);
    if (unit_pole) {
        double shifted[RPM_TERMS];
        for (int64_t k = 1; k <= half; k++)
            diff[k - 1] = w[half - k] - w[half + k];
        u_to_t(half, diff, sine);
        const double one_plus_x[2] = {1.0, 1.0};
        cheb_mul(2, one_plus_x, half, sine, shifted);
        for (int64_t k = 0; k <= half; k++) {
            p[k] = p[k] + shifted[k];
            q[k] = 2.0 * q[k];
        }
    }
    const int64_t m = critical_points(half + 1, p, q, xs);
    if (m < 0)
        return 1;
    for (int64_t i = 0; i < m; i++) {
        const double x = xs[i], zi = -sqrt((1.0 - x) * (1.0 + x));
        double nr, ni, dr, di;
        at(ln, n, x, zi, &nr, &ni);
        at(ld, d, x, zi, &dr, &di);
        const double abs2 = dr * dr + di * di;
        if (abs2 == 0.0)
            return 1;
        const double re = nr * dr - ni * -di;
        values[i] = unit_pole ? (re + (1.0 + x) * cheb_val(half, sine, x)) / (2.0 * abs2) : re / abs2;
    }
    int64_t k = 0;
    for (int64_t i = 0; i < m; i++) {
        if (values[i] != values[i]) {
            k = i;
            break;
        }
        if (values[i] < values[k])
            k = i;
    }
    out[0] = ldexp(values[k], n_exp - d_exp);  /* +-inf beyond the double range */
    out[1] = xs[k];
    return 0;
}
