/* The smoother's one-step kernel, for tempcast.models._one_step_errors_batch.

   Steps one window of n values through the additive Holt-Winters recursion
   for `width` coefficient triples at once. coefficients holds the alphas,
   betas and gammas as three rows of `width`; state holds column j's initial
   level, trend and error sum as three such rows (state[j],
   state[width + j], state[2 * width + j]) and gets their final values;
   each scored day's squared one-step error is added to the error sum, day
   after day. ring (season x width, ring[p * width + j] the correction for
   phase p) gets each column's final corrections. It need not be
   initialized: the first season's days read their old correction from
   seasonal, the start state's ring that all columns share, and each later
   day reads the slot that its phase's day one season earlier wrote.

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

/* Days t .. t + count - 1, scoring each one's error if `scored`. If
   `seeded`, the days lie in the first season and read their old correction
   from seasonal; otherwise they read it from the ring. The rows are not
   restrict: with a season of 2 or 3, two days of one pass share a ring row,
   and the second must read what the first wrote. */
static inline void pass(const double *restrict values, long t, const int count,
                        long season, long width, const double *restrict alpha,
                        const double *restrict beta, const double *restrict gamma,
                        const double *restrict seasonal, double *restrict level,
                        double *restrict trend, double *ring, double *restrict sq_sum,
                        const int scored, const int seeded)
{
    double *rows[4];
    double a[4], old[4];
    for (int k = 0; k < count; k++) {
        rows[k] = ring + ((t + k) % season) * width;
        a[k] = values[t + k];
        old[k] = seeded ? seasonal[t + k] : 0.0;
    }
    for (long j = 0; j < width; j++) {
        double l = level[j], tr = trend[j], s = sq_sum[j];
        for (int k = 0; k < count; k++) {
            double *c = rows[k];
            const double c_old = seeded ? old[k] : c[j];
            const double forecast = l + tr;
            if (scored) {
                const double error = (forecast + c_old) - a[k];
                s += error * error;
            }
            const double next = alpha[j] * (a[k] - c_old) + (1.0 - alpha[j]) * forecast;
            tr = beta[j] * (next - l) + (1.0 - beta[j]) * tr;
            c[j] = gamma[j] * (a[k] - next) + (1.0 - gamma[j]) * c_old;
            l = next;
        }
        level[j] = l;
        trend[j] = tr;
        sq_sum[j] = s;
    }
}

/* Days t .. end - 1 in passes of four, then one at a time; returns end. */
static inline long span(const double *restrict values, long t, long end, long season,
                        long width, const double *restrict coefficients,
                        const double *restrict seasonal, double *restrict state,
                        double *ring, const int scored, const int seeded)
{
    const double *alpha = coefficients, *beta = alpha + width, *gamma = beta + width;
    double *level = state, *trend = level + width, *sq_sum = trend + width;
    for (; t + 4 <= end; t += 4)
        pass(values, t, 4, season, width, alpha, beta, gamma, seasonal, level, trend,
             ring, sq_sum, scored, seeded);
    for (; t < end; t++)
        pass(values, t, 1, season, width, alpha, beta, gamma, seasonal, level, trend,
             ring, sq_sum, scored, seeded);
    return t;
}

WIDEST
void one_step_errors(const double *restrict values, long n, long season, long width,
                     const double *restrict coefficients,
                     const double *restrict seasonal, double *restrict state,
                     double *restrict ring)
{
    const long first = n < season ? n : season;
    const long warm = n < 2 * season ? n : 2 * season;
    long t = span(values, 0, first, season, width, coefficients, seasonal, state, ring, 0, 1);
    t = span(values, t, warm, season, width, coefficients, seasonal, state, ring, 0, 0);
    span(values, t, n, season, width, coefficients, seasonal, state, ring, 1, 0);
}
