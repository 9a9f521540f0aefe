"""End-to-end tour on synthetic data: fit, forecast, benchmark.

Builds four years of daily "temperatures" with an annual cycle, a faint
trend and weather noise, tunes the smoother on the first three years,
forecasts two weeks ahead, then runs a small rolling-origin benchmark
against the persistence and average baselines.

Run from the repository root:  python demos/synthetic_workflow.py
"""

import datetime as dt

import numpy as np

from tempcast import (
    BacktestConfig,
    GridSpec,
    TimeSeries,
    grid_search,
    hw_forecast,
    run_backtest,
)

rng = np.random.default_rng(42)
n_days = 4 * 365
t = np.arange(n_days)
values = (
    279.0
    + 16.0 * np.cos(2 * np.pi * (t - 198) / 365.0)
    + 0.0003 * t
    + rng.normal(0.0, 3.0, n_days)
)
series = TimeSeries(dt.date(2018, 1, 1), values, station_id="DEMO0001")
print(f"series: {len(series)} days, {series.start_date} .. {series.end_date}")

# --- tune coefficients on the first three years, forecast the rest ---
# (a window needs to reach well past two seasons: the tuning objective
# only scores observations after the two-season warm-up)
fit = grid_search(series.values[: 3 * 365], GridSpec.default(), season_length=365)
print(
    f"tuned: alpha={fit.params.alpha:.3f} beta={fit.params.beta:.3f} "
    f"gamma={fit.params.gamma:.3f}  in-sample one-step rmse={fit.in_sample_rmse:.2f} K "
    f"({fit.evaluations} objective evaluations)"
)

print("\nlead  forecast   actual")
for m in range(1, 15):
    predicted = hw_forecast(fit.state, m, fit.params)
    actual = series.values[3 * 365 + m - 1]
    print(f"{m:>4}  {predicted:8.2f}  {actual:7.2f}")

# --- small benchmark: 10 origins, three-year training windows ---
config = BacktestConfig(
    train_length=1096,
    n_experiments=10,
    seed=1,
    grid=GridSpec.coarse(),
)
report = run_backtest(series, config)
print("\npooled RMSE (K) over 10 experiments, 1096-day windows")
print("lead  " + "  ".join(f"{m:>11}" for m in report.config.models))
for lead in report.config.leads:
    cells = "  ".join(f"{report.rmse[m][lead]:>11.2f}" for m in report.config.models)
    print(f"{lead:>4}  {cells}")
