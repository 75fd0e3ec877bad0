/* One inner pass of svrg, bit for bit the numpy loop of
 * incgrad.solvers._svrg_passes.
 *
 * Every dot product is the BLAS ddot that numpy calls, added to a zero
 * sum as numpy's DOUBLE_dot does; the logistic derivative takes the
 * branches of objectives._sigmoid_scalar with libm exp; elementwise
 * updates keep numpy's order of operations and its sign/maximum rules.
 * Build with -ffp-contract=off: a fused multiply-add rounds once where
 * numpy rounds twice.
 */
#include <math.h>
#include <stdint.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* numpy's NPY_CBLAS_CHUNK */
#define CHUNK ((int64_t)1 << 30)

double incgrad_dot(ddot_fn ddot, int64_t n, const double *a, const double *b)
{
    double sum = 0.0;
    while (n > 0) {
        int64_t chunk = n < CHUNK ? n : CHUNK;
        sum += ddot(chunk, a, 1, b, 1);
        a += chunk;
        b += chunk;
        n -= chunk;
    }
    return sum;
}

static double sigmoid(double u)
{
    if (u >= 0)
        return 1.0 / (1.0 + exp(-u));
    double e = exp(u);
    return e / (1.0 + e);
}

static double loss_deriv(int logistic, double t, double b)
{
    return logistic ? -b * sigmoid(-b * t) : t - b;
}

/* np.sign */
static double sign(double v)
{
    return v > 0 ? 1.0 : v < 0 ? -1.0 : v == 0 ? 0.0 : v;
}

enum { OK = 0, MARGIN = 1, DIVERGED = 2 };

/* m steps x <- prox(x - gamma * (f_j'(x) - f_j'(snap) + g_full)), with
 * j = idx[s], xsum += x and the divergence check after each; the prox
 * is the soft threshold at thr when l1 is set (svrg's split form leaves
 * h no L2 term).  Returns the number of steps taken; *why says how the
 * pass ended: OK, MARGIN (a margin was not finite, the step was not
 * taken) or DIVERGED (the last step's x @ x was not below limit). */
int64_t incgrad_svrg_pass(
    ddot_fn ddot, int64_t m, const int64_t *idx, int64_t d,
    const double *points, const double *labels, int logistic, double split,
    double gamma, int l1, double thr,
    const double *snap, const double *g_full, double *x, double *xsum,
    double limit, int *why)
{
    for (int64_t s = 0; s < m; s++) {
        const double *a = points + idx[s] * d;
        double b = labels[idx[s]];
        double t = incgrad_dot(ddot, d, a, x);
        double t0 = incgrad_dot(ddot, d, a, snap);
        if (!isfinite(t) || !isfinite(t0)) {
            *why = MARGIN;
            return s;
        }
        double c = loss_deriv(logistic, t, b);
        double c0 = loss_deriv(logistic, t0, b);
        for (int64_t i = 0; i < d; i++) {
            double gx = c * a[i], gs = c0 * a[i];
            if (split != 0) {
                gx = gx + split * x[i];
                gs = gs + split * snap[i];
            }
            double v = x[i] - gamma * ((gx - gs) + g_full[i]);
            if (l1) {  /* np.sign(v) * np.maximum(np.abs(v) - thr, 0.0) */
                double r = fabs(v) - thr;
                v = sign(v) * ((r > 0 || isnan(r)) ? r : 0.0);
            }
            x[i] = v;
            xsum[i] += v;
        }
        if (!(incgrad_dot(ddot, d, x, x) < limit)) {
            *why = DIVERGED;
            return s + 1;
        }
    }
    *why = OK;
    return m;
}
