/*
 * Single-pass Laplacian and mass stencils and the CG vector updates for
 * masspcg.operators.
 *
 * operators.py compiles this file the first time a kernel runs and calls it
 * through ctypes; the numpy code of _sweeps.py is the fallback. The bitwise
 * reference is the whole-array numpy stencils of tests/oracle.py and the
 * numpy expressions x + p*alpha, r - Ap*alpha and p*beta + z. Every element
 * gets the same floating-point operations in the same order as those, so the
 * results are bit-identical: a missing Dirichlet neighbour is skipped, or a
 * zero subtracted, which is exact and keeps -0.0. That holds only without FMA
 * contraction or reassociation, so build with -ffp-contract=off and never with
 * -ffast-math.
 *
 * The grid is viewed as m0 planes of m1 lines of n contiguous values:
 * (1, 1, n) in 1D, (1, n, n) in 2D and (n, n, n) in 3D. The numpy axes map to
 * plane, line and element in that order.
 *
 * Results go through a LINE-element stack buffer and are copied out with
 * memcpy. Storing straight into the output, the stores trail the loads from
 * another vector by a few bytes modulo 4096 when the two sit that far apart
 * (adjacent 16 MiB work vectors do, and in plain CG z is r); the loads then
 * wait on false store forwarding (4K aliasing) and the naive kernel runs
 * slower than numpy.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define LINE 256

/* stands in for a missing neighbour line of a chunk */
static const double zeros[LINE];

/* One Laplacian value: diag*x[k] minus the neighbour lines q[0..m), then the
 * +1 and the -1 neighbour along the line where present, divided by h2. */
static double lap_point(const double *x, const double *const *q, int m, ptrdiff_t k,
                        int next, int prev, double diag, double h2)
{
    double t = diag * x[k];
    for (int j = 0; j < m; j++)
        t -= q[j][k];
    if (next)
        t -= x[k + 1];
    if (prev)
        t -= x[k - 1];
    return t / h2;
}

/* Laplacian of len values of one line chunk into buf; next/prev say whether
 * the line goes on past the chunk's last/first value. */
static void lap_chunk(double *restrict buf, const double *x, const double *const *q, int m,
                      ptrdiff_t len, int next, int prev, double diag, double h2)
{
    ptrdiff_t lo = prev ? 0 : 1, hi = next ? len : len - 1;
    const double *q0 = q[0], *q1 = q[1], *q2 = q[2], *q3 = q[3];
    if (m == 4) {
        for (ptrdiff_t k = lo; k < hi; k++)
            buf[k] = (diag * x[k] - q0[k] - q1[k] - q2[k] - q3[k] - x[k + 1] - x[k - 1]) / h2;
    } else if (m == 2) {
        for (ptrdiff_t k = lo; k < hi; k++)
            buf[k] = (diag * x[k] - q0[k] - q1[k] - x[k + 1] - x[k - 1]) / h2;
    } else {
        for (ptrdiff_t k = lo; k < hi; k++)
            buf[k] = (diag * x[k] - x[k + 1] - x[k - 1]) / h2;
    }
    if (!prev)
        buf[0] = lap_point(x, q, m, 0, len > 1 || next, 0, diag, h2);
    if (!next && (len > 1 || prev))
        buf[len - 1] = lap_point(x, q, m, len - 1, 0, 1, diag, h2);
}

/* out = A_d u: diag*u minus the axis-0, axis-1, ... neighbours (+1 before -1
 * on each axis), divided by h2. diag = 2d and h2 = h**2 come from the caller,
 * computed as the numpy path computes them. */
void masspcg_laplacian(int64_t d, int64_t n, const double *restrict u, double *restrict out,
                       double diag, double h2)
{
    ptrdiff_t m0 = d == 3 ? n : 1, m1 = d >= 2 ? n : 1, plane = m1 * n;
    double buf[LINE];
    for (ptrdiff_t i0 = 0; i0 < m0; i0++) {
        for (ptrdiff_t i1 = 0; i1 < m1; i1++) {
            ptrdiff_t start = i0 * plane + i1 * n;
            const double *x = u + start;
            const double *nb[4] = {NULL, NULL, NULL, NULL};
            int m = 0;
            if (d == 3) {
                nb[m++] = i0 + 1 < n ? x + plane : NULL;
                nb[m++] = i0 > 0 ? x - plane : NULL;
            }
            if (d >= 2) {
                nb[m++] = i1 + 1 < n ? x + n : NULL;
                nb[m++] = i1 > 0 ? x - n : NULL;
            }
            for (ptrdiff_t a = 0; a < n; a += LINE) {
                ptrdiff_t len = n - a < LINE ? n - a : LINE;
                const double *q[4] = {zeros, zeros, zeros, zeros};
                for (int j = 0; j < m; j++)
                    q[j] = nb[j] ? nb[j] + a : zeros;
                lap_chunk(buf, x + a, q, m, len, a + len < n, a > 0, diag, h2);
                memcpy(out + start + a, buf, (size_t)len * sizeof(double));
            }
        }
    }
}

/* One sweep across lines or planes: dst = ((4*mid + next) + prev) * c over
 * len values, a missing neighbour (NULL) skipped. */
static void mass_across(double *restrict dst, const double *mid, const double *next,
                        const double *prev, ptrdiff_t len, double c)
{
    if (next && prev) {
        for (ptrdiff_t k = 0; k < len; k++)
            dst[k] = (4.0 * mid[k] + next[k] + prev[k]) * c;
    } else if (next) {
        for (ptrdiff_t k = 0; k < len; k++)
            dst[k] = (4.0 * mid[k] + next[k]) * c;
    } else if (prev) {
        for (ptrdiff_t k = 0; k < len; k++)
            dst[k] = (4.0 * mid[k] + prev[k]) * c;
    } else {
        for (ptrdiff_t k = 0; k < len; k++)
            dst[k] = 4.0 * mid[k] * c;
    }
}

/* One mass value along a line, then the dimensional scale s. */
static double mass_point(const double *x, ptrdiff_t k, int next, int prev, double c, double s)
{
    double t = 4.0 * x[k];
    if (next)
        t += x[k + 1];
    if (prev)
        t += x[k - 1];
    return t * c * s;
}

/* The sweep along one line of n values, times s, into dst through the stack
 * buffer. */
static void mass_line(double *restrict dst, const double *x, ptrdiff_t n, double c, double s)
{
    double buf[LINE];
    for (ptrdiff_t a = 0; a < n; a += LINE) {
        ptrdiff_t len = n - a < LINE ? n - a : LINE;
        int next = a + len < n, prev = a > 0;
        const double *y = x + a;
        ptrdiff_t lo = prev ? 0 : 1, hi = next ? len : len - 1;
        for (ptrdiff_t k = lo; k < hi; k++)
            buf[k] = (4.0 * y[k] + y[k + 1] + y[k - 1]) * c * s;
        if (!prev)
            buf[0] = mass_point(y, 0, len > 1 || next, 0, c, s);
        if (!next && (len > 1 || prev))
            buf[len - 1] = mass_point(y, len - 1, 0, 1, c, s);
        memcpy(dst + a, buf, (size_t)len * sizeof(double));
    }
}

/* out = M_d u: the sweep across planes into the plane buffer A (3D), across
 * lines into the line buffer B (2D and 3D), then along each line, each sweep
 * rounded to ((4*x + next) + prev) * c, and last times s. c = h/6 and
 * s = h**(2-d) come from the caller. scratch holds n*n + n values in 3D and
 * n in 2D. */
void masspcg_mass(int64_t d, int64_t n, const double *restrict u, double *restrict out,
                  double c, double s, double *restrict scratch)
{
    ptrdiff_t m0 = d == 3 ? n : 1, m1 = d >= 2 ? n : 1, plane = m1 * n;
    double *A = scratch, *B = scratch + (d == 3 ? plane : 0);
    for (ptrdiff_t i0 = 0; i0 < m0; i0++) {
        const double *P = u + i0 * plane;
        if (d == 3) {
            mass_across(A, P, i0 + 1 < n ? P + plane : NULL, i0 > 0 ? P - plane : NULL, plane, c);
            P = A;
        }
        for (ptrdiff_t i1 = 0; i1 < m1; i1++) {
            const double *x = P + i1 * n;
            if (d >= 2) {
                mass_across(B, x, i1 + 1 < n ? x + n : NULL, i1 > 0 ? x - n : NULL, n, c);
                x = B;
            }
            mass_line(out + i0 * plane + i1 * n, x, n, c, s);
        }
    }
}

/* The CG step x = x + p*alpha, r = r - Ap*alpha over N values, each product
 * rounded before the sum as numpy rounds x += p*alpha. */
void masspcg_cg_update(int64_t N, double *x, double *r, const double *p, const double *Ap,
                       double alpha)
{
    double buf[LINE];
    for (ptrdiff_t a = 0; a < N; a += LINE) {
        ptrdiff_t len = N - a < LINE ? N - a : LINE;
        for (ptrdiff_t k = 0; k < len; k++)
            buf[k] = x[a + k] + p[a + k] * alpha;
        memcpy(x + a, buf, (size_t)len * sizeof(double));
        for (ptrdiff_t k = 0; k < len; k++)
            buf[k] = r[a + k] - Ap[a + k] * alpha;
        memcpy(r + a, buf, (size_t)len * sizeof(double));
    }
}

/* The new search direction p = p*beta + z over N values. */
void masspcg_p_update(int64_t N, double *p, const double *z, double beta)
{
    double buf[LINE];
    for (ptrdiff_t a = 0; a < N; a += LINE) {
        ptrdiff_t len = N - a < LINE ? N - a : LINE;
        for (ptrdiff_t k = 0; k < len; k++)
            buf[k] = p[a + k] * beta + z[a + k];
        memcpy(p + a, buf, (size_t)len * sizeof(double));
    }
}
