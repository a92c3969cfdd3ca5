/*
 * Single-pass Laplacian and mass stencils, the CG residual update, and the
 * x and p update fused into the Laplacian sweep, for masspcg.operators.
 *
 * _native.py compiles this file the first time a kernel runs, and
 * operators.py calls it through ctypes; the numpy code of _sweeps.py is the
 * fallback. The bitwise reference is the whole-array numpy stencils of
 * tests/oracle.py and the numpy expressions x + p*alpha, r - Ap*alpha and
 * p*beta + z. Every element gets the same floating-point operations in the
 * same order as those, so the results are bit-identical. That holds only
 * without FMA contraction or reassociation, so build with -ffp-contract=off
 * and never with -ffast-math.
 *
 * Each exported kernel is marked KERNEL, which on x86-64 compiles it once per
 * vector width (AVX-512F, AVX2 and the baseline SSE2), and the loader picks
 * the widest clone the CPU runs. An IEEE add, subtract, multiply or divide
 * rounds each element alike at every width, and -ffp-contract=off holds for
 * every clone, so all clones give the same bits. tests/test_operators.py
 * builds each clone alone and checks it against the reference. The static
 * helpers must be inlined into each clone: one left out of line is built
 * for the baseline target alone, and tests/test_tooling.py checks for that.
 *
 * A missing Dirichlet neighbour line, and each axis absent in 1D and 2D, is
 * read as an identity, not branched around: the Laplacian subtracts +0.0 and
 * the mass sweeps add -0.0. Under round-to-nearest x - (+0.0) and x + (-0.0)
 * are x for every double, -0.0 included: one loop serves every d, same bits.
 *
 * The grid is viewed as m0 planes of m1 lines of n contiguous values:
 * (1, 1, n) in 1D, (1, n, n) in 2D and (n, n, n) in 3D. The numpy axes map to
 * plane, line and element in that order.
 *
 * Every kernel keeps its temporaries on its stack, and stores straight into
 * its output. A store stalls later loads that map to its address modulo 4096
 * (4K aliasing): at 3D n=128 the Laplacian ran 4-6 times as slow with out
 * 8-32 bytes past u modulo 4096, and the x and p update twice as slow with z
 * 16 bytes before p, as consecutive heap blocks lie. So operators.py starts
 * every vector it allocates, the work vectors and a fresh out alike, on a page.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Clones are picked by the loader's ifunc resolver, so they need x86-64,
 * glibc (whose headers above define __GLIBC__) and a compiler that knows
 * target_clones. Elsewhere KERNEL is empty and each kernel is built once, for
 * the compiler's default target. */
#if defined(__has_attribute)
#if __has_attribute(target_clones) && defined(__x86_64__) && defined(__GLIBC__)
#define KERNEL __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef KERNEL
#define KERNEL
#endif

#define LINE 256

/* The missing neighbour lines of a chunk: +0.0 for the Laplacian, and -0.0
 * for the mass sweeps, LINE + 2 values to cover a chunk and its two ends. */
static const double zeros[LINE];
#define NEG4 -0.0, -0.0, -0.0, -0.0
#define NEG16 NEG4, NEG4, NEG4, NEG4
#define NEG64 NEG16, NEG16, NEG16, NEG16
static const double negzeros[LINE + 2] = {NEG64, NEG64, NEG64, NEG64, -0.0, -0.0};

/* One Laplacian value: diag*x minus the neighbour lines q0..q3 (axis 0 then
 * axis 1, +1 before -1), then the +1 and -1 neighbours along the line, over
 * h2. An absent axis reads the +0.0 line, as an absent boundary line does. */
static inline double lap(double diag, double x, double q0, double q1, double q2, double q3,
                         double next, double prev, double h2)
{
    return (diag * x - q0 - q1 - q2 - q3 - next - prev) / h2;
}

/* The solution and direction updates x = x + p*alpha, then p = p*beta + z,
 * over values lo..hi-1, in one pass that reads p once. z is not restrict: it
 * may be r or share the Laplacian's out. */
static inline void xp(double *restrict x, double *restrict p, const double *z, ptrdiff_t lo,
                      ptrdiff_t hi, double alpha, double beta)
{
    for (ptrdiff_t k = lo; k < hi; k++) {
        double pk = p[k];
        x[k] = x[k] + pk * alpha;
        p[k] = pk * beta + z[k];
    }
}

/* out = A_d p, a line chunk at a time. Unless x is NULL, each chunk first runs
 * the x and p update up to the last value of p the chunk reads, one neighbour
 * reach ahead (a plane in 3D, a line in 2D, a value in 1D); z[j] is then read
 * before out[j] is written, so z may share out's buffer. */
static inline void sweep(int64_t d, int64_t n, double *restrict p, double *out, double diag,
                         double h2, double *restrict x, const double *z, double alpha, double beta)
{
    ptrdiff_t m0 = d == 3 ? n : 1, m1 = d >= 2 ? n : 1, plane = m1 * n;
    ptrdiff_t size = m0 * plane, reach = d == 3 ? plane : d == 2 ? n : 1, done = 0;
    for (ptrdiff_t i0 = 0; i0 < m0; i0++) {
        for (ptrdiff_t i1 = 0; i1 < m1; i1++) {
            for (ptrdiff_t a = 0; a < n; a += LINE) {
                ptrdiff_t len = n - a < LINE ? n - a : LINE, start = i0 * plane + i1 * n + a;
                if (x) {
                    ptrdiff_t ahead = size - start - len > reach ? start + len + reach : size;
                    xp(x, p, z, done, ahead, alpha, beta);
                    done = ahead;
                }
                const double *u = p + start;
                double *o = out + start;
                const double *q0 = i0 + 1 < m0 ? u + plane : zeros;
                const double *q1 = i0 > 0 ? u - plane : zeros;
                const double *q2 = i1 + 1 < m1 ? u + n : zeros, *q3 = i1 > 0 ? u - n : zeros;
                /* the values whose line neighbours are both in p; then the line ends */
                ptrdiff_t lo = a == 0, hi = a + len < n ? len : len - 1;
                for (ptrdiff_t k = lo; k < hi; k++)
                    o[k] = lap(diag, u[k], q0[k], q1[k], q2[k], q3[k], u[k + 1], u[k - 1], h2);
                if (a == 0)
                    o[0] = lap(diag, u[0], q0[0], q1[0], q2[0], q3[0],
                               n > 1 ? u[1] : 0.0, 0.0, h2);
                if (a + len == n)
                    o[len - 1] = lap(diag, u[len - 1], q0[len - 1], q1[len - 1], q2[len - 1],
                                     q3[len - 1], 0.0, n > 1 ? u[len - 2] : 0.0, h2);
            }
        }
    }
}

/* out = A_d u. diag = 2d and h2 = h**2 come from the caller, computed as the
 * numpy path computes them. */
KERNEL
void masspcg_laplacian(int64_t d, int64_t n, const double *restrict u, double *restrict out,
                       double diag, double h2)
{
    sweep(d, n, (double *)u, out, diag, h2, NULL, NULL, 0.0, 0.0);
}

/* x = x + p*alpha and p = p*beta + z, then out = A_d p, in one sweep that
 * reads p once: the CG direction update fused into the next Laplacian. */
KERNEL
void masspcg_xp_laplacian(int64_t d, int64_t n, double *restrict x, double *restrict p,
                          const double *z, double *out, double alpha, double beta, double diag,
                          double h2)
{
    sweep(d, n, p, out, diag, h2, x, z, alpha, beta);
}

/* One sweep across lines or planes: dst = ((4*mid + next) + prev) * c over
 * len values. */
static void mass_across(double *restrict dst, const double *mid, const double *next,
                        const double *prev, ptrdiff_t len, double c)
{
    for (ptrdiff_t k = 0; k < len; k++)
        dst[k] = (4.0 * mid[k] + next[k] + prev[k]) * c;
}

/* out = M_d u, a line chunk at a time, chunk column outer and line inner.
 * Each line's chunk and one neighbour on each side, values lo..hi-1, is swept
 * across planes in 3D, once, into slot i1 % 3 of a ring of three buffers (in
 * 2D the slots are the lines of u themselves); then across lines, from the
 * previous, current and next slots, into the LINE + 2 buffer y (in 1D the
 * chunk is copied in), -0.0 past the line's ends; then along the line from y
 * into out, times s. Each sweep is rounded to ((4*x + next) + prev) * c.
 * c = h/6 and s = h**(2-d) come from the caller. */
KERNEL
void masspcg_mass(int64_t d, int64_t n, const double *restrict u, double *restrict out,
                  double c, double s)
{
    ptrdiff_t m0 = d == 3 ? n : 1, m1 = d >= 2 ? n : 1, plane = m1 * n;
    double ring[3][LINE + 2], y[LINE + 2];
    for (ptrdiff_t i0 = 0; i0 < m0; i0++) {
        for (ptrdiff_t a = 0; a < n; a += LINE) {
            ptrdiff_t len = n - a < LINE ? n - a : LINE;
            /* y[j] stands for line value a - 1 + j, a slot's [j] for lo + j */
            ptrdiff_t lo = a > 0 ? a - 1 : a, hi = a + len < n ? a + len + 1 : n;
            for (ptrdiff_t i1 = 0; i1 < m1; i1++) {
                const double *x = u + i0 * plane + i1 * n + lo, *mid = x;
                const double *next = i1 + 1 < m1 ? x + n : negzeros;
                const double *prev = i1 > 0 ? x - n : negzeros;
                if (d == 3) {
                    /* line i1 + 1 into its slot, over line i1 - 2, and line 0 first */
                    for (ptrdiff_t i = i1 ? i1 + 1 : 0; i <= i1 + 1 && i < m1; i++) {
                        const double *v = x + (i - i1) * n;
                        mass_across(ring[i % 3], v, i0 + 1 < m0 ? v + plane : negzeros,
                                    i0 > 0 ? v - plane : negzeros, hi - lo, c);
                    }
                    mid = ring[i1 % 3];
                    next = i1 + 1 < m1 ? ring[(i1 + 1) % 3] : negzeros;
                    prev = i1 > 0 ? ring[(i1 + 2) % 3] : negzeros;
                }
                y[0] = y[len + 1] = -0.0;
                if (d >= 2)
                    mass_across(y + 1 + lo - a, mid, next, prev, hi - lo, c);
                else
                    memcpy(y + 1 + lo - a, x, (size_t)(hi - lo) * sizeof(double));
                double *o = out + i0 * plane + i1 * n + a;
                for (ptrdiff_t k = 0; k < len; k++)
                    o[k] = (4.0 * y[k + 1] + y[k + 2] + y[k]) * c * s;
            }
        }
    }
}

/* The residual update r = r - Ap*alpha over size values, each product rounded
 * before the difference as numpy rounds r - Ap*alpha. */
KERNEL
void masspcg_r_update(int64_t size, double *restrict r, const double *Ap, double alpha)
{
    for (ptrdiff_t k = 0; k < size; k++)
        r[k] = r[k] - Ap[k] * alpha;
}

