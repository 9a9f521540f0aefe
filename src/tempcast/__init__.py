"""Seasonal day-ahead air-temperature forecasting toolkit.

A small numpy library plus CLI that ingests NOAA Climate Data Online
daily-summary exports, forecasts ground temperature with additive
seasonal exponential smoothing, and benchmarks the smoother against
persistence and historical-average baselines under a rolling-origin
protocol.
"""

__version__ = "0.1.0"

from . import errors
from .backtest import (
    MODEL_NAMES,
    BacktestConfig,
    BacktestReport,
    ExperimentResult,
    collect_report,
    run_backtest,
    run_experiment,
    select_origins,
)
from .ingest import (
    UNITS,
    CleanConfig,
    CleanStats,
    RawRecordSet,
    clean,
    clean_report,
    parse_cdo_csv,
    to_kelvin,
)
from .models import (
    HWState,
    SmoothingParams,
    average_forecast,
    hw_fit,
    hw_forecast,
    hw_update,
    init_state,
    persistence_forecast,
)
from .series import (
    TimeSeries,
    calendar_dates,
    drop_leap_days,
    is_leap_day,
    next_calendar_day,
    rmse,
    split_at_origin,
    validate_series,
)
from .tuning import (
    FitResult,
    GridSpec,
    grid_search,
    grid_search_windows,
    one_step_rmse,
)

__all__ = [
    "__version__",
    "errors",
    "MODEL_NAMES",
    "BacktestConfig",
    "BacktestReport",
    "ExperimentResult",
    "collect_report",
    "run_backtest",
    "run_experiment",
    "select_origins",
    "UNITS",
    "CleanConfig",
    "CleanStats",
    "RawRecordSet",
    "clean",
    "clean_report",
    "parse_cdo_csv",
    "to_kelvin",
    "HWState",
    "SmoothingParams",
    "average_forecast",
    "hw_fit",
    "hw_forecast",
    "hw_update",
    "init_state",
    "persistence_forecast",
    "TimeSeries",
    "calendar_dates",
    "drop_leap_days",
    "is_leap_day",
    "next_calendar_day",
    "rmse",
    "split_at_origin",
    "validate_series",
    "FitResult",
    "GridSpec",
    "grid_search",
    "grid_search_windows",
    "one_step_rmse",
]
