"""Ingest a daily-summaries CSV export and project a week ahead.

Uses the bundled synthetic station export (tests/data/) so the demo is
self-contained; point INPUT at your own NOAA Climate Data Online export
to run it on real observations.

Run from the repository root:  python demos/station_pipeline.py
"""

from pathlib import Path

from tempcast import (
    CleanConfig,
    GridSpec,
    clean_report,
    calendar_dates,
    grid_search,
    hw_forecast,
    parse_cdo_csv,
)

INPUT = Path("tests/data/synthetic_station_daily.csv")
UNIT = "celsius"

records = parse_cdo_csv(INPUT.read_text(encoding="utf-8"), unit=UNIT)
series, stats = clean_report(records, CleanConfig(max_gap=7))
print(f"parsed {stats.raw_rows} rows from {INPUT}")
print(
    f"clean series: {len(series)} days ({series.start_date} .. {series.end_date}), "
    f"{stats.interpolated_days} interpolated, {stats.leap_days_dropped} leap days dropped"
)

fit = grid_search(series, GridSpec.default(), season_length=365)
print(
    f"tuned coefficients: alpha={fit.params.alpha:.3f} "
    f"beta={fit.params.beta:.3f} gamma={fit.params.gamma:.3f}"
)

print("\nnext week:")
days = calendar_dates(series.start_date, len(series), len(series) + 7)
for m, day in enumerate(days, start=1):
    kelvin = hw_forecast(fit.state, m, fit.params)
    print(f"  {day}  {kelvin:6.2f} K  ({kelvin - 273.15:+5.1f} C)")
