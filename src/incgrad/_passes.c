/* Whole passes of incgrad's engines, each bit for bit the numpy loop it
 * replaces: the svrg inner pass (solvers._svrg_passes), a pass of the
 * saga_u, finito, sdca_variant5, sag, midpoint or saga_explicit_l2 step
 * (solvers._table_passes) and a pass of the lazy engine
 * (lazy.sparse_saga_lstsq_epoch).
 *
 * Every dot product is the BLAS ddot that numpy calls, added to a zero
 * sum as numpy's DOUBLE_dot does; the logistic derivative takes the
 * branches of objectives._sigmoid_scalar with libm exp, and midpoint's
 * margin solve those of objectives._solve_margin; elementwise updates
 * keep numpy's order of operations and its sign/maximum rules.
 * Build with -ffp-contract=off: a fused multiply-add rounds once where
 * numpy rounds twice.
 */
#include <math.h>
#include <stddef.h>
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

/* How a pass ended: OK; MARGIN, a margin was not finite (the step was
 * not taken); DIVERGED, the last step failed its check; GAP, a lag gap
 * reached past the scaling table (nothing of that catch-up applied);
 * NO_ROOT, a prox step's margin solve did not converge (the step was
 * not taken). */
enum { OK = 0, MARGIN = 1, DIVERGED = 2, GAP = 3, NO_ROOT = 4 };

/* m steps x <- prox(x - gamma * (f_j'(x) - f_j'(snap) + g_full)), with
 * j = idx[s], xsum += x and the divergence check after each; the prox
 * is the soft threshold at thr when l1 is set (svrg's split form leaves
 * h no L2 term).  The arguments from m on change from pass to pass.
 * Returns the number of steps taken; DIVERGED when the last step's
 * x @ x was not below limit. */
int64_t incgrad_svrg_pass(
    ddot_fn ddot, int64_t d, const double *points, const double *labels,
    int logistic, double split, double gamma, int l1, double thr,
    double limit, int *why, int64_t m, const int64_t *idx,
    const double *snap, const double *g_full, double *x, double *xsum)
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

/* objectives._solve_margin: the root t of shrink*t + gq*psi'(t) - az for
 * the logistic psi', by Newton steps that bisect the bracket instead
 * when they leave it or |g| does not halve against the best iterate.
 * Once no double lies strictly between the bracket's ends, the end
 * with the smaller |g|.  NO_ROOT, with the last |g| in res[0] and the
 * cap in res[1], when the cap's steps and the check after them do not
 * reach |g| <= tol; the cap is the iteration bound of _solve_margin's
 * docstring, rounded down, and 0 for a gq that is not finite. */
static int solve_margin(double b, double shrink, double gq, double az,
                        double tol, double *t, double *res)
{
    if (gq == 0.0) {
        *t = az / shrink;
        return OK;
    }
    int64_t max_iter = 0;
    if (gq < INFINITY) {
        double lg = log2(gq), lt = log2(tol);
        max_iter = (int64_t)floor(
            2 + lg - lt + ceil(1 + lg + log2(1 + gq / (4 * shrink)) - lt));
    }
    /* |psi'| <= 1 for logistic, so the root lies in this bracket */
    double lo = (az - gq) / shrink, hi = (az + gq) / shrink, best = INFINITY;
    *t = az / shrink;
    for (int64_t it = 0; it < max_iter; it++) {
        double s = sigmoid(-b * *t);
        double g = shrink * *t + gq * (-b * s) - az, size = fabs(g);
        if (size <= tol)
            return OK;
        if (g > 0)
            hi = *t;
        else
            lo = *t;
        double t_new = *t - g / (shrink + gq * s * (1.0 - s));
        if (!(lo < t_new && t_new < hi && size < 0.5 * best)) {
            if (size < INFINITY && nextafter(lo, INFINITY) >= hi
                && nextafter(hi, INFINITY) >= lo) {
                /* no double lies strictly between lo and hi (t is one of
                 * them), so the iterates can only revisit them; an
                 * initial end may not have been evaluated yet */
                double g_lo = fabs(shrink * lo + gq * (-b * sigmoid(-b * lo))
                                   - az);
                double g_hi = fabs(shrink * hi + gq * (-b * sigmoid(-b * hi))
                                   - az);
                *t = g_lo <= g_hi ? lo : hi;
                return OK;
            }
            t_new = 0.5 * (lo + hi);
        }
        if (size < best)
            best = size;
        *t = t_new;
    }
    res[0] = fabs(shrink * *t + gq * (-b * sigmoid(-b * *t)) - az);
    res[1] = (double)max_iter;
    return res[0] <= tol ? OK : NO_ROOT;
}

/* the table steps, by their codes in solvers.COMPILED_STEPS */
enum {
    SAGA_U = 0, FINITO = 1, SDCA_VARIANT5 = 2, SAG = 3, MIDPOINT = 4,
    SAGA_EXPLICIT_L2 = 5
};

/* m steps of one table method, with j = idx[s], each followed by the
 * divergence check and xsum += x.  The table is dense (vecs, n x d) for
 * saga_u and sag with a split L2 term, else scalar (coeffs, n), whose
 * mean avg moves over the nonzeros of the CSC column j when indptr is
 * set (saga_explicit_l2's on dense data only).  A scalar table holds the
 * loss part c_j a_j of each stored gradient; finito and midpoint, which
 * keep phi, add split * phi_j where they read one, and split * phi_mean
 * to the mean.  saga_u, finito, sag and saga_explicit_l2 step with
 * gamma, the last scaling x by 1 - gamma * mu, mu its explicit L2 term
 * (numpy skips the scaling at mu = 0, where it is 1.0 * x, the same
 * bits); sdca_variant5 and midpoint derive their steps from mu (and L),
 * as their numpy steps do.
 * u is saga_u's, phi (n x d) and phi_mean finito's and midpoint's;
 * sqnorms (the |a_j|^2) and tol are midpoint's prox, which leaves the
 * residual and the cap of a failed margin solve in res[0..1]; g holds d
 * doubles of scratch, and the arguments from m on change from pass to
 * pass.  Returns the number of steps taken; MARGIN when the step's
 * margin was not finite in a dense table (component_gradient's
 * ValueError), DIVERGED when the last step's x @ x was not below limit,
 * NO_ROOT when a midpoint margin solve failed (ProxSolveError). */
int64_t incgrad_table_pass(
    ddot_fn ddot, int method, int64_t n, int64_t d, const double *points,
    const double *labels, int logistic, double split, double gamma,
    double mu, double L, double *vecs, double *coeffs,
    const int64_t *indptr, const int64_t *indices, const double *values,
    double *u, double *phi, const double *sqnorms, double tol,
    double *res, double *g, double *xsum, double limit,
    int *why, int64_t m, const int64_t *idx, double *x, double *avg,
    double *phi_mean)
{
    double dn = (double)n, dn1 = (double)(n - 1), beta = 0.0;
    double scale = 1.0 - gamma * mu;  /* saga_explicit_l2's, as numpy's */
    if (method == SDCA_VARIANT5) {  /* its weights, as the step forms them */
        beta = mu * dn / (L + mu * dn);
        gamma = 1.0 / (mu * dn);
    } else if (method == MIDPOINT)  /* the prox weight 1 / (mu (n - 1)) */
        gamma = 1.0 / (mu * dn1);
    double shrink = 1.0 + gamma * split;  /* midpoint's prox shrink */
    for (int64_t s = 0; s < m; s++) {
        int64_t j = idx[s];
        const double *a = points + j * d;
        double b = labels[j];
        double *row = vecs ? vecs + j * d : NULL;
        double *pj = phi ? phi + j * d : NULL;
        if (method == SAGA_U)  /* u <- u + (x - u) / n, at the old x */
            for (int64_t i = 0; i < d; i++)
                u[i] = u[i] + (x[i] - u[i]) / dn;
        else if (method == FINITO)  /* x <- mean(phi) - gamma * sum */
            for (int64_t i = 0; i < d; i++)
                x[i] = phi_mean[i]
                       - gamma * ((avg[i] + split * phi_mean[i]) * dn);
        else if (method == MIDPOINT)  /* z, from the other points, in g */
            for (int64_t i = 0; i < d; i++)
                g[i] = (phi_mean[i] * dn - pj[i]) / dn1
                       - ((avg[i] + split * phi_mean[i]) * dn
                          - (coeffs[j] * a[i] + split * pj[i])) / (mu * dn1);
        double t = incgrad_dot(ddot, d, a, method == MIDPOINT ? g : x);
        if (method == MIDPOINT) {  /* the margin of the prox of f_j at z */
            double gq = gamma * sqnorms[j];
            if (!logistic)
                t = (t + gq * b) / (shrink + gq);
            else if (solve_margin(b, shrink, gq, t, tol, &t, res) != OK) {
                *why = NO_ROOT;
                return s;
            }
        }
        if (coeffs) {  /* scalar: no margin check, as GradientTable.entry */
            double c = loss_deriv(logistic, t, b), old = coeffs[j];
            if (method == SDCA_VARIANT5) {  /* blend, then move x along a_j */
                c = (1.0 - beta) * old + beta * c;
                for (int64_t i = 0; i < d; i++)
                    x[i] = x[i] - (gamma * (c - old)) * a[i];
            } else if (method == MIDPOINT)  /* x <- the prox of f_j at z */
                for (int64_t i = 0; i < d; i++)
                    x[i] = (g[i] - (gamma * c) * a[i]) / shrink;
            double q = (c - old) / dn;
            if (method == SAG && indptr) {  /* as saga_step's support branch */
                for (int64_t i = 0; i < d; i++)
                    g[i] = avg[i];
                for (int64_t p = indptr[j]; p < indptr[j + 1]; p++)
                    g[indices[p]] = (c * values[p] - old * values[p]) / dn
                                    + g[indices[p]];
                for (int64_t i = 0; i < d; i++)
                    x[i] = x[i] - g[i] * gamma;
            } else if (method == SAG)  /* x - gamma ((g - g_old) / n + avg) */
                for (int64_t i = 0; i < d; i++)
                    x[i] = x[i]
                           - gamma * ((c * a[i] - old * a[i]) / dn + avg[i]);
            else if (method == SAGA_EXPLICIT_L2)  /* scale = 1 - gamma mu */
                for (int64_t i = 0; i < d; i++)
                    x[i] = scale * x[i]
                           - gamma * ((c * a[i] - old * a[i]) + avg[i]);
            if (indptr)
                for (int64_t p = indptr[j]; p < indptr[j + 1]; p++)
                    avg[indices[p]] = avg[indices[p]] + q * values[p];
            else
                for (int64_t i = 0; i < d; i++)
                    avg[i] = avg[i] + q * a[i];
            coeffs[j] = c;
        } else {
            if (!isfinite(t)) {
                *why = MARGIN;
                return s;
            }
            double c = loss_deriv(logistic, t, b);
            for (int64_t i = 0; i < d; i++) {
                double gi = c * a[i];  /* f_j'(x) */
                if (split != 0)
                    gi = gi + split * x[i];
                if (method == SAG)
                    x[i] = x[i] - gamma * ((gi - row[i]) / dn + avg[i]);
                g[i] = gi;
            }
            for (int64_t i = 0; i < d; i++) {
                avg[i] = avg[i] + (g[i] - row[i]) / dn;
                row[i] = g[i];
            }
        }
        if (method == SAGA_U)  /* x <- u - gamma * sum */
            for (int64_t i = 0; i < d; i++)
                x[i] = u[i] - gamma * (avg[i] * dn);
        else if (method == FINITO || method == MIDPOINT)  /* phi_j <- x */
            for (int64_t i = 0; i < d; i++) {
                phi_mean[i] = phi_mean[i] + (x[i] - pj[i]) / dn;
                pj[i] = x[i];
            }
        if (!(incgrad_dot(ddot, d, x, x) < limit)) {
            *why = DIVERGED;
            return s + 1;
        }
        for (int64_t i = 0; i < d; i++)
            xsum[i] += x[i];
    }
    *why = OK;
    return m;
}

/* lazy.lagged_update on the cnt coordinates at rows (all d when rows is
 * NULL) at step k; GAP, before any change, when a gap is out of the
 * table's len entries. */
static int catch_up(const int64_t *rows, int64_t cnt, int64_t k,
                    double *x, int64_t *lag, const double *g_avg,
                    const double *entries, int64_t len, double a,
                    int64_t *touches)
{
    for (int64_t p = 0; p < cnt; p++) {
        int64_t gap = k - lag[rows ? rows[p] : p];
        if (gap < 0 || gap >= len)
            return GAP;
    }
    for (int64_t p = 0; p < cnt; p++) {
        int64_t i = rows ? rows[p] : p;
        x[i] = x[i] + entries[k - lag[i]] * (a * g_avg[i]);
        lag[i] = k;
    }
    *touches += cnt;
    return OK;
}

/* The m lagged steps of one pass of lazy.sparse_saga_lstsq_epoch over
 * the points order[s] of the CSC matrix (d rows), with the iterate beta
 * * x, the lags, the stored margins c, the mean g_avg, and *k, *beta,
 * *touches kept as the numpy loop keeps them, including the
 * renormalisation whenever beta falls below threshold.  buf holds the
 * gathered x[idx] of the longest column.  Returns the number of steps
 * taken; DIVERGED when the next step's coefficient was not finite (its
 * catch-up, margin and beta applied, as in numpy), GAP when a catch-up
 * gap reached past the scaling table. */
int64_t incgrad_lazy_pass(
    ddot_fn ddot, int64_t m, const int64_t *order, int64_t n, int64_t d,
    const int64_t *indptr, const int64_t *indices, const double *values,
    double gamma, double rho, double threshold,
    const double *entries, int64_t len,
    double *x, int64_t *lag, double *c, double *g_avg, double *buf,
    int64_t *k, double *beta, int64_t *touches, int *why)
{
    for (int64_t s = 0; s < m; s++) {
        int64_t i = order[s];
        int64_t lo = indptr[i], cnt = indptr[i + 1] - lo;
        const int64_t *rows = indices + lo;
        const double *vals = values + lo;
        if (catch_up(rows, cnt, *k, x, lag, g_avg, entries, len,
                     -gamma / *beta, touches) != OK) {
            *why = GAP;
            return s;
        }
        for (int64_t p = 0; p < cnt; p++)
            buf[p] = x[rows[p]];
        double aix = *beta * incgrad_dot(ddot, cnt, vals, buf);
        double cchange = aix - c[i];
        c[i] = aix;
        *beta *= rho;
        double coef = -cchange * gamma / *beta;
        if (!isfinite(coef)) {
            *why = DIVERGED;
            return s;
        }
        for (int64_t p = 0; p < cnt; p++)
            x[rows[p]] = x[rows[p]] + coef * vals[p];
        *touches += cnt;
        *k += 1;
        double share = -gamma / *beta;
        for (int64_t p = 0; p < cnt; p++)
            x[rows[p]] = x[rows[p]] + share * g_avg[rows[p]];
        for (int64_t p = 0; p < cnt; p++)
            lag[rows[p]] = *k;
        double q = cchange / (double)n;
        for (int64_t p = 0; p < cnt; p++)
            g_avg[rows[p]] = g_avg[rows[p]] + q * vals[p];
        *touches += 2 * cnt;
        if (*beta < threshold) {  /* lazy._renormalize */
            if (catch_up(NULL, d, *k, x, lag, g_avg, entries, len,
                         -gamma / *beta, touches) != OK) {
                *why = GAP;
                return s + 1;
            }
            for (int64_t p = 0; p < d; p++)
                x[p] = x[p] * *beta;
            *beta = 1.0;
        }
    }
    *why = OK;
    return m;
}
