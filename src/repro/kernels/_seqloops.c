/*
 * Compiled sequential loops of the reproduction (docs/KERNELS.md §7).
 *
 * Four per-step recurrences that cannot be vectorized across time:
 *
 *   workfunction_sweep  the Section 3 hat-C^L sweep and its LCP bounds
 *   window_dp           the Section 2.2 window DP (forward pass + backtrack)
 *   threshold_walk      the threshold rule's clamped accumulation
 *   memoryless_walk     the memoryless baseline's balance walk
 *
 * Each loop performs, per element, exactly the IEEE-754 double operations
 * of its NumPy/Python reference, in the same order: no operation is
 * reordered, fused or folded (the loader builds with -O2
 * -ffp-contract=off and without -ffast-math), so the results are bit for
 * bit those of the reference.  Arrays are C-contiguous and validated by
 * the Python callers, which own every buffer.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy.minimum(a, b): a when a < b or a is NaN, else b -- so b on ties
 * (minimum(+0.0, -0.0) is -0.0) and on a NaN b. */
static inline double
minimum(double a, double b)
{
    return (a < b || a != a) ? a : b;
}

/* Switching cost beta * (b - a)^+ as numpy.maximum(b - a, 0.0) * beta
 * computes it for finite a, b. */
static inline double
switch_cost(double beta, double a, double b)
{
    double d = b - a;
    return beta * (d > 0.0 ? d : 0.0);
}

/* numpy.argmin over v[0..n): first minimum, or the first NaN if any. */
static int64_t
argmin_first(const double *v, int64_t n)
{
    double best = v[0];
    int64_t k = 0;
    if (best != best)
        return 0;
    for (int64_t i = 1; i < n; i++) {
        double x = v[i];
        if (x < best) {
            best = x;
            k = i;
        } else if (x != x) {
            return i;
        }
    }
    return k;
}

/* numpy.argmin over the reversed row v - bs, reflected to an index of v:
 * the last minimum of v[0..m] - bs[0..m], or the last NaN if any. */
static int64_t
argmin_last_shifted(const double *v, const double *bs, int64_t m)
{
    double best = v[m] - bs[m];
    int64_t k = m;
    if (best != best)
        return m;
    for (int64_t i = m - 1; i >= 0; i--) {
        double x = v[i] - bs[i];
        if (x < best) {
            best = x;
            k = i;
        } else if (x != x) {
            return i;
        }
    }
    return k;
}

/*
 * hat-C^L work-function sweep over the cost table F (T x (m+1)), with
 * bs[x] = beta * x.  Mirrors the NumPy loop of
 * repro.kernels.vectorized.sweep_workfunction, row by row:
 *
 *   D_0[x] = F[0, x] + bs[x]
 *   up[x]  = prefix_min(D_{t-1} - bs)[x] + bs[x]
 *   dn[x]  = suffix_min(D_{t-1})[x]
 *   D_t[x] = minimum(up[x], dn[x]) + F[t, x]
 *
 * and each row's bounds: lo[t] = argmin(D_t) (first minimum) and
 * hi[t] = the last minimum of D_t - bs (Lemma 7).  Only three rows of
 * rows (3 x (m+1) scratch) are live, never the (T, m+1) table; the last
 * row D_{T-1} is left in rows[0..m].
 */
void
workfunction_sweep(int64_t T, int64_t m, const double *F, const double *bs,
                   double *rows, int64_t *lo, int64_t *hi)
{
    int64_t n = m + 1;
    double *prev = rows, *cur = rows + n, *up = rows + 2 * n;
    for (int64_t x = 0; x < n; x++)
        prev[x] = F[x] + bs[x];
    lo[0] = argmin_first(prev, n);
    hi[0] = argmin_last_shifted(prev, bs, m);
    for (int64_t t = 1; t < T; t++) {
        const double *f = F + t * n;
        double run = prev[0] - bs[0];
        up[0] = run + bs[0];
        for (int64_t x = 1; x < n; x++) {
            run = minimum(run, prev[x] - bs[x]);
            up[x] = run + bs[x];
        }
        double dn = prev[m];
        cur[m] = minimum(up[m], dn) + f[m];
        for (int64_t x = m - 1; x >= 0; x--) {
            dn = minimum(dn, prev[x]);
            cur[x] = minimum(up[x], dn) + f[x];
        }
        lo[t] = argmin_first(cur, n);
        hi[t] = argmin_last_shifted(cur, bs, m);
        double *tmp = prev;
        prev = cur;
        cur = tmp;
    }
    if (prev != rows)
        memcpy(rows, prev, (size_t)n * sizeof(double));
}

/*
 * Window DP over per-column states S (T x w, row-major) with operating
 * costs op (T x w).  parents (T x w) and D (2 x w) are scratch; the
 * optimal schedule is written to schedule (T) and its cost returned.
 * Mirrors the NumPy loop of repro.offline.binary_search.windowed_dp:
 *
 *   D_0[j]   = op[0, j] + beta * S[0, j]
 *   trans[i] = D_{t-1}[i] + beta * (S[t, j] - S[t-1, i])^+
 *   par[j]   = argmin_i trans[i]           (first minimum)
 *   D_t[j]   = op[t, j] + trans[par[j]]
 */
double
window_dp(int64_t T, int64_t w, const int64_t *S, const double *op,
          double beta, int64_t *parents, double *D, int64_t *schedule)
{
    double *cur = D, *nxt = D + w;
    for (int64_t j = 0; j < w; j++)
        cur[j] = op[j] + beta * (double)S[j];
    for (int64_t t = 1; t < T; t++) {
        const int64_t *prev_s = S + (t - 1) * w, *s = S + t * w;
        const double *op_t = op + t * w;
        int64_t *par = parents + t * w;
        for (int64_t j = 0; j < w; j++) {
            double sj = (double)s[j];
            double best = cur[0] + switch_cost(beta, (double)prev_s[0], sj);
            int64_t k = 0;
            if (best == best) {
                for (int64_t i = 1; i < w; i++) {
                    double v = cur[i]
                        + switch_cost(beta, (double)prev_s[i], sj);
                    if (v < best) {
                        best = v;
                        k = i;
                    } else if (v != v) {
                        best = v;
                        k = i;
                        break;
                    }
                }
            }
            par[j] = k;
            nxt[j] = op_t[j] + best;
        }
        double *tmp = cur;
        cur = nxt;
        nxt = tmp;
    }
    int64_t k = argmin_first(cur, w);
    double cost = cur[k];
    schedule[T - 1] = S[(T - 1) * w + k];
    for (int64_t t = T - 1; t > 0; t--) {
        k = parents[t * w + k];
        schedule[t - 1] = S[(t - 1) * w + k];
    }
    return cost;
}

/*
 * Threshold rule over the drift table G (T x m, G[t, s] = g_s / beta):
 * q <- clip(q - G[t], 0, 1) per step, as numpy.clip evaluates it
 * (max then min, NaN passed through).  Each clamped profile overwrites
 * its row of G; q ends as the last profile.
 */
void
threshold_walk(int64_t T, int64_t m, double *G, double *q)
{
    for (int64_t t = 0; t < T; t++) {
        double *row = G + t * m;
        for (int64_t s = 0; s < m; s++) {
            double v = q[s] - row[s];
            v = (v > 0.0 || v != v) ? v : 0.0;
            v = (v < 1.0 || v != v) ? v : 1.0;
            q[s] = v;
            row[s] = v;
        }
    }
}

/* MemorylessBalance._fbar: the piecewise-linear extension of one row. */
static inline double
fbar(const double *row, int64_t m, double x)
{
    int64_t i = (int64_t)x;
    if (i >= m)
        return row[m];
    double y0 = row[i];
    return y0 + (x - (double)i) * (row[i + 1] - y0);
}

/*
 * Memoryless balance walk over F (T x (m+1)) from state x, given each
 * row's minimizer-plateau ends lo[t] <= hi[t]; writes the states to out.
 * A literal transcription of MemorylessBalance._step_core.
 */
void
memoryless_walk(int64_t T, int64_t m, const double *F, const int64_t *lo,
                const int64_t *hi, double beta, double x, double *out)
{
    for (int64_t t = 0; t < T; t++) {
        const double *row = F + t * (m + 1);
        if ((double)lo[t] <= x && x <= (double)hi[t]) {
            out[t] = x;
            continue;
        }
        double target = x < (double)lo[t] ? (double)lo[t] : (double)hi[t];
        double unit = 0.5 * beta;
        double direction = target > x ? 1.0 : -1.0;
        double y = direction > 0.0 ? floor(x) + 1.0 : ceil(x) - 1.0;
        double h_prev = unit * 0.0 - fbar(row, m, x);
        double y_prev = x;
        double chosen = target;
        if (h_prev >= 0.0) {
            chosen = x;
        } else {
            /* the cells x < y, y + 1, ... < target, then target itself */
            for (;;) {
                int last = !((direction > 0.0 && y < target)
                             || (direction < 0.0 && y > target));
                double c = last ? target : y;
                double h = unit * fabs(c - x) - fbar(row, m, c);
                if (h >= 0.0) {
                    double frac = -h_prev / (h - h_prev);
                    chosen = y_prev + frac * (c - y_prev);
                    break;
                }
                h_prev = h;
                y_prev = c;
                if (last) {
                    chosen = target;
                    break;
                }
                y += direction;
            }
        }
        if (0.0 > chosen)
            chosen = 0.0;
        if ((double)m < chosen)
            chosen = (double)m;
        out[t] = chosen;
        x = chosen;
    }
}
