"""Every figure the benchmark prints: name, unit, direction and why.

``BENCHMARK.json`` lists the same names and units; ``smoke.py`` checks
that the two agree. End-to-end metrics come from untraced repetitions
(``--trace 0``), per-layer metrics from a run that alternates untraced
and traced repetitions (``--trace 1``). End-to-end times are scaled to
the reference host speed (``reference.py``); per-layer times are raw.
"""

from __future__ import annotations

# name: (unit, better, why)
END_TO_END = {
    "wall_s": (
        "s", "lower",
        "wall time of the workload's CLI commands, timed around cli.main "
        "in a fresh process: each command's fastest repetition, summed, at "
        "reference host speed; what a user waits for",
    ),
    "setup_s": (
        "s", "lower",
        "child start to ready: interpreter, import tempcast, loading or "
        "ingesting inputs; fastest repetition at reference host speed; "
        "shows work moved out of the timed commands",
    ),
    "peak_rss_mb": (
        "MB", "lower",
        "median ru_maxrss of the child; shows memory traded for speed, e.g. "
        "experiments stacked into one kernel call",
    ),
    "ok_frac": (
        "ratio", "higher",
        "commands that exit 0 and pass every output check, over commands "
        "attempted (1 - failed fraction, so it is never 0 when healthy)",
    ),
}

PER_LAYER = {
    "tuning.grid_search.s": (
        "s", "lower", "time inside grid_search; the kernel's share of wall_s",
    ),
    "tuning.grid_search.calls": (
        "count", "lower", "tuning runs; 0 marks a workload that bypasses the kernel",
    ),
    "tuning.evaluations": (
        "count", "lower", "sum of FitResult.evaluations (coefficient triples scored)",
    ),
    "tuning.triple_steps": (
        "count", "lower", "evaluations x window length: the kernel's unit of work",
    ),
    "tuning.ns_per_triple_step": (
        "ns", "lower",
        "grid_search time per triple-step; replaces a standalone kernel "
        "microbenchmark",
    ),
    "tuning.ring_mb_computed": (
        "MB", "lower",
        "season x widest sweep x 8 B, computed not measured; compare with "
        "the L2 size in the host line",
    ),
    "models.hw_fit.s": ("s", "lower", "time replaying the winner through hw_fit"),
    "models.hw_fit.calls": ("count", "lower", "hw_fit replays"),
    "models.hw_update.calls": (
        "count", "lower", "per-step HWState updates made by hw_fit",
    ),
    "models.forecast.s": (
        "s", "lower",
        "time in hw_forecast, persistence_forecast and average_forecast",
    ),
    "series.next_calendar_day.calls": (
        "count", "lower", "day-by-day calendar steps; 0 once dates are closed-form",
    ),
    "series.date_at.s": ("s", "lower", "time in TimeSeries.date_at"),
    "series.dates.s": ("s", "lower", "time in TimeSeries.dates"),
    "series.drop_leap_days.s": ("s", "lower", "time in drop_leap_days"),
    "series.validate_series.s": ("s", "lower", "time in validate_series"),
    "ingest.parse_cdo_csv.s": ("s", "lower", "time parsing the CDO export"),
    "ingest.parse_cdo_csv.us_per_row": ("us", "lower", "parse time per export row"),
    "ingest.clean_report.self_s": (
        "s", "lower",
        "clean_report minus its series calls: filtering, sorting, gap scan "
        "and interpolation",
    ),
    "ingest.clean_report.us_per_day": (
        "us", "lower", "clean_report time per calendar day cleaned",
    ),
    "ingest.rows": ("count", "lower", "export rows parsed"),
    "ingest.interpolated_days": ("count", "lower", "days filled by interpolation"),
    "backtest.run_experiment.p50_ms": ("ms", "lower", "median experiment time"),
    "backtest.run_experiment.p80_ms": (
        "ms", "lower", "80th percentile experiment time (10 of 50 samples beyond it)",
    ),
    "backtest.run_experiment.self_s": (
        "s", "lower", "run_experiment minus tuning, models and series calls",
    ),
    "backtest.select_origins.s": ("s", "lower", "time sampling origins"),
    "backtest.collect_report.s": ("s", "lower", "time pooling errors into RMSE"),
    "backtest.experiments": ("count", "lower", "experiments run"),
    "cli.main.self_s": (
        "s", "lower",
        "cli.main minus every other layer's spans: CSV I/O, hashing, manifests",
    ),
    "cli.bytes_written": ("B", "lower", "artifact bytes written by the timed commands"),
    "cli.cpu_s": (
        "s", "lower",
        "user + sys CPU of the timed commands; rises if a process pool buys "
        "wall time with CPU",
    ),
    "cli.digest_match": (
        "ratio", "higher",
        "1 when every repetition, traced or not, wrote byte-identical artifacts",
    ),
    "trace.wall_s": ("s", "lower", "median wall time of the traced repetitions"),
    "trace.overhead_frac": (
        "ratio", "lower",
        "fastest traced / fastest untraced repetition - 1; the fastest, "
        "because host slowdowns would swamp the difference",
    ),
}
