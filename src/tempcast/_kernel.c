/* The smoother's one-step kernel, for tempcast.models._one_step_errors_batch.

   Steps one window of n values through the additive Holt-Winters recursion
   for `width` coefficient triples at once, days outer and columns inner.
   level, trend and ring (season x width, ring[p * width + j] the correction
   for phase p) hold column j's initial state and are updated in place;
   sq_sum[j] gets each scored day's squared one-step error, day after day.
   Each step is hw_update's arithmetic: build with -ffp-contract=off and
   without -ffast-math, so that it stays bit for bit the same. */

void one_step_errors(const double *restrict values, long n, long season, long width,
                     const double *restrict alpha, const double *restrict beta,
                     const double *restrict gamma, double *restrict level,
                     double *restrict trend, double *restrict ring,
                     double *restrict sq_sum)
{
    for (long t = 0; t < n; t++) {
        const double a = values[t];
        double *restrict c = ring + (t % season) * width;
        const int scored = t >= 2 * season;
        for (long j = 0; j < width; j++) {
            const double forecast = level[j] + trend[j];
            if (scored) {
                const double error = (forecast + c[j]) - a;
                sq_sum[j] += error * error;
            }
            const double next = alpha[j] * (a - c[j]) + (1.0 - alpha[j]) * forecast;
            trend[j] = beta[j] * (next - level[j]) + (1.0 - beta[j]) * trend[j];
            c[j] = gamma[j] * (a - next) + (1.0 - gamma[j]) * c[j];
            level[j] = next;
        }
    }
}
