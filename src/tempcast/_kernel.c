/* The smoother's one-step kernel, for tempcast.models._one_step_errors_batch.

   Steps one window of n values through the additive Holt-Winters recursion
   for `width` coefficient triples at once. level, trend and ring (season x
   width, ring[p * width + j] the correction for phase p) hold column j's
   initial state and are updated in place; sq_sum[j] gets each scored day's
   squared one-step error, day after day.

   The days go in passes of up to four: each pass runs over the columns, and
   a column's level, trend and error sum stay in registers through the pass's
   days, so only its ring slots and coefficients are loaded per day. Each
   step is hw_update's arithmetic in the same order: build with
   -ffp-contract=off and without -ffast-math, so that it stays bit for bit
   the same. On x86-64 with glibc, GCC and Clang build AVX-512, AVX2 and
   baseline clones of one_step_errors and the dynamic loader picks the widest
   that the CPU runs; every clone gives the same bits, and every other host
   builds the baseline loop alone. */

/* The clones need an ifunc, so ELF and glibc: musl has none. <limits.h>
   is there to define __GLIBC__. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#include <limits.h>
#if defined(__GLIBC__) && __has_attribute(target_clones)
#define WIDEST __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef WIDEST
#define WIDEST
#endif

/* Days t .. t + count - 1, scoring each one's error if `scored`. The rows
   are not restrict: with a season of 2 or 3, two days of one pass share a
   ring row, and the second must read what the first wrote. */
static inline void pass(const double *restrict values, long t, const int count,
                        long season, long width, const double *restrict alpha,
                        const double *restrict beta, const double *restrict gamma,
                        double *restrict level, double *restrict trend, double *ring,
                        double *restrict sq_sum, const int scored)
{
    double *rows[4];
    double a[4];
    for (int k = 0; k < count; k++) {
        rows[k] = ring + ((t + k) % season) * width;
        a[k] = values[t + k];
    }
    for (long j = 0; j < width; j++) {
        double l = level[j], tr = trend[j], s = sq_sum[j];
        for (int k = 0; k < count; k++) {
            double *c = rows[k];
            const double forecast = l + tr;
            if (scored) {
                const double error = (forecast + c[j]) - a[k];
                s += error * error;
            }
            const double next = alpha[j] * (a[k] - c[j]) + (1.0 - alpha[j]) * forecast;
            tr = beta[j] * (next - l) + (1.0 - beta[j]) * tr;
            c[j] = gamma[j] * (a[k] - next) + (1.0 - gamma[j]) * c[j];
            l = next;
        }
        level[j] = l;
        trend[j] = tr;
        sq_sum[j] = s;
    }
}

WIDEST
void one_step_errors(const double *restrict values, long n, long season, long width,
                     const double *restrict alpha, const double *restrict beta,
                     const double *restrict gamma, double *restrict level,
                     double *restrict trend, double *restrict ring,
                     double *restrict sq_sum)
{
    const long warm = n < 2 * season ? n : 2 * season;
    long t = 0;
    for (; t + 4 <= warm; t += 4)
        pass(values, t, 4, season, width, alpha, beta, gamma, level, trend, ring, sq_sum, 0);
    for (; t < warm; t++)
        pass(values, t, 1, season, width, alpha, beta, gamma, level, trend, ring, sq_sum, 0);
    for (; t + 4 <= n; t += 4)
        pass(values, t, 4, season, width, alpha, beta, gamma, level, trend, ring, sq_sum, 1);
    for (; t < n; t++)
        pass(values, t, 1, season, width, alpha, beta, gamma, level, trend, ring, sq_sum, 1);
}
