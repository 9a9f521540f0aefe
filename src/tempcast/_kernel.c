/* The shared library behind tempcast.models._kernel: two loops in one
   source, so one build and one load serve both.

   one_step_errors, for tempcast.models._one_step_errors_batch, steps one
   window of n values through the additive Holt-Winters recursion
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
   builds the baseline loop alone.

   read_export, for tempcast.series._plain_rows, reads a plain CSV file in
   one pass over its bytes and gives up on anything else: a daily-summaries
   export for tempcast.ingest, whose parse_cdo_csv then reads any other, and
   a series file for tempcast.series, whose read_csv reads any other. */

/* strtod as <stdlib.h> declares it, declared here as C allows: a build
   with __x86_64__ undefined, as the tests make to check the baseline loop
   on an x86-64 host, cannot include that header. */
double strtod(const char *restrict text, char **restrict end);

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


/* Days in each month of a common year, January at 1. */
static const long month_days[13] = {0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

/* The number that the `count` decimal digits at p spell, or -1 if one of
   them is not a digit. */
static long number(const unsigned char *p, int count)
{
    long v = 0;
    for (int k = 0; k < count; k++) {
        if (p[k] < '0' || p[k] > '9')
            return -1;
        v = v * 10 + (p[k] - '0');
    }
    return v;
}

/* The index of the first byte from i on that is not a digit. */
static long digits(const unsigned char *data, long i, long length)
{
    while (i < length && data[i] >= '0' && data[i] <= '9')
        i++;
    return i;
}

/* The index just past the plain decimal -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?
   that starts at i, or -1 if none starts there. */
static long decimal(const unsigned char *data, long i, long length)
{
    const long integer = i + (i < length && data[i] == '-');
    i = digits(data, integer, length);
    if (i == integer)
        return -1;
    if (i < length && data[i] == '.') {
        const long fraction = i + 1;
        i = digits(data, fraction, length);
        if (i == fraction)
            return -1;
    }
    if (i < length && (data[i] == 'e' || data[i] == 'E')) {
        long exponent = i + 1;
        exponent += exponent < length && (data[exponent] == '-' || data[exponent] == '+');
        i = digits(data, exponent, length);
        if (i == exponent)
            return -1;
    }
    return i;
}

/* Stores strtod's reading of the `size` bytes at p in *value and returns 1
   if they are shorter than 64 bytes and strtod reads them whole; returns 0
   otherwise. */
static int read_decimal(const unsigned char *p, long size, double *value)
{
    char text[64], *end;
    if (size >= (long)sizeof text)
        return 0;
    for (long k = 0; k < size; k++)
        text[k] = (char)p[k];
    text[size] = '\0';
    *value = strtod(text, &end);
    return end == text + size;
}

/* Whether year y of the Gregorian calendar has a February 29. */
static int leap(long y)
{
    return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
}

/* One field of a CSV record: its bytes from start to end, without the
   quotes of a quoted field. */
struct cell {
    long start, end;
};

/* Whether a field starts or ends with a space, which str.strip would take
   off. */
static int padded(const unsigned char *data, struct cell c)
{
    return c.end > c.start && (data[c.start] == ' ' || data[c.end - 1] == ' ');
}

/* date.toordinal() of the YYYY-MM-DD date a field spells, or -1 if it
   spells no real Gregorian date of a year from 1 on. */
static long ordinal(const unsigned char *data, struct cell c)
{
    static const long before[13] = {0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334};
    const unsigned char *p = data + c.start;
    if (c.end - c.start != 10 || p[4] != '-' || p[7] != '-')
        return -1;
    const long y = number(p, 4), m = number(p + 5, 2), d = number(p + 8, 2);
    if (y < 1 || m < 1 || m > 12 || d < 1 || d > month_days[m] + (m == 2 && leap(y)))
        return -1;
    const long past = y - 1;
    return past * 365 + past / 4 - past / 100 + past / 400 + before[m] +
           (m > 2 && leap(y)) + d;
}

/* The number of fields in the record that starts at data[*at], as the csv
   module splits it, with *at moved to the record's \n or to length, and
   field wanted[k] stored in cells[k] for k < 3. Returns -1 for a record
   that is not plainly in that form: a blank line, a byte outside
   0x20-0x7e, a " that does not open a field, a \n or " inside quotes, text
   after a closing quote, or a field longer than field_limit. */
static long record(const unsigned char *data, long *at, long length, long field_limit,
                   const long *wanted, struct cell *cells)
{
    long i = *at, fields = 0;
    if (i == length || data[i] == '\n')
        return -1;
    for (;;) {
        struct cell c = {i, i};
        if (i < length && data[i] == '"') {
            c.start = ++i;
            while (i < length && data[i] != '"') {
                if (data[i] < 0x20 || data[i] > 0x7e)
                    return -1;
                i++;
            }
            if (i == length)
                return -1;
            c.end = i++;
            if (i < length && data[i] != ',' && data[i] != '\n')
                return -1;
        } else {
            while (i < length && data[i] != ',' && data[i] != '\n') {
                if (data[i] < 0x20 || data[i] > 0x7e || data[i] == '"')
                    return -1;
                i++;
            }
            c.end = i;
        }
        if (c.end - c.start > field_limit)
            return -1;
        for (int k = 0; k < 3; k++)
            if (fields == wanted[k])
                cells[k] = c;
        fields++;
        if (i == length || data[i] == '\n')
            break;
        i++; /* past the comma */
    }
    *at = i;
    return fields;
}

/* The kept rows of the `length` bytes at `bytes`, if they are a plain
   CSV file: a header line the caller has read, of n_fields fields, then
   data rows of n_fields fields each, each line ended by \n but the last,
   which may lack it, and every record of the form that record() reads.
   In every data row the fields i_station, i_date and i_tavg must not
   start or end with a space; the date must be a real YYYY-MM-DD date of a
   year from 1 on, and the value empty or a plain decimal as decimal()
   reads one, shorter than 64 bytes in a kept row. A field index of -1
   names no field, and its cell reads as empty. A row is kept if its
   station field equals the station_length bytes at station; with station
   NULL, the first data row's station is the one kept, and any other gives
   up. Stores each kept row's date.toordinal() in ordinals and its value
   as strtod reads it in values, NaN for an empty field; stores the number
   of data rows in counts[0] and, with station NULL, the offset and length
   of the kept station's field in counts[1] and counts[2]. Returns the
   number of rows kept, or -1 for any other bytes, also if more than
   `capacity` rows are kept or strtod stops short of the end of a kept
   value, as it does under a locale whose decimal point is not ".". Reads
   no byte past `length`. */
long read_export(const char *bytes, long length, long n_fields, long i_station,
                 long i_date, long i_tavg, const char *station, long station_length,
                 long field_limit, long capacity, long *ordinals, double *values,
                 long *counts)
{
    const unsigned char *data = (const unsigned char *)bytes;
    const unsigned char *name = (const unsigned char *)station;
    const int adopt = station == 0;
    const long wanted[3] = {i_station, i_date, i_tavg};
    /* record() sets each wanted cell on every row; one wanted as -1 stays empty */
    struct cell cells[3] = {{0, 0}, {0, 0}, {0, 0}};
    long i = 0, rows = 0, kept = 0;
    if (record(data, &i, length, field_limit, wanted, cells) != n_fields)
        return -1;
    for (i++; i < length; i++) { /* i++ steps past each record's \n */
        if (record(data, &i, length, field_limit, wanted, cells) != n_fields)
            return -1;
        rows++;
        const struct cell s = cells[0], d = cells[1], t = cells[2];
        if (padded(data, s) || padded(data, d) || padded(data, t))
            return -1;
        const long day = ordinal(data, d), size = t.end - t.start;
        if (day < 0 || (size && decimal(data, t.start, t.end) != t.end))
            return -1;

        if (name == 0) {
            name = data + s.start;
            station_length = s.end - s.start;
            counts[1] = s.start;
            counts[2] = station_length;
        }
        int match = s.end - s.start == station_length;
        for (long k = 0; match && k < station_length; k++)
            match = data[s.start + k] == name[k];
        if (!match) {
            if (adopt)
                return -1;
            continue;
        }
        if (kept == capacity)
            return -1;
        values[kept] = __builtin_nan("");
        if (size && !read_decimal(data + t.start, size, values + kept))
            return -1;
        ordinals[kept++] = day;
    }
    counts[0] = rows;
    return kept;
}
