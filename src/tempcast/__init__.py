"""Seasonal day-ahead air-temperature forecasting toolkit.

A small numpy library plus CLI that ingests NOAA Climate Data Online
daily-summary exports, forecasts ground temperature with additive
seasonal exponential smoothing, and benchmarks the smoother against
persistence and historical-average baselines under a rolling-origin
protocol.
"""

__version__ = "0.1.0"

from . import errors
from .backtest import MODEL_NAMES, BacktestConfig, BacktestReport, run_backtest
from .ingest import (
    UNITS,
    CleanConfig,
    CleanStats,
    RawRecordSet,
    clean_report,
    parse_cdo_csv,
)
from .models import (
    HWState,
    SmoothingParams,
    average_forecast,
    hw_fit,
    hw_forecast,
    persistence_forecast,
)
from .series import TimeSeries, read_csv
from .tuning import FitResult, GridSpec, grid_search

__all__ = [
    "__version__",
    "errors",
    "MODEL_NAMES",
    "BacktestConfig",
    "BacktestReport",
    "run_backtest",
    "UNITS",
    "CleanConfig",
    "CleanStats",
    "RawRecordSet",
    "parse_cdo_csv",
    "clean_report",
    "TimeSeries",
    "read_csv",
    "SmoothingParams",
    "HWState",
    "hw_fit",
    "hw_forecast",
    "persistence_forecast",
    "average_forecast",
    "GridSpec",
    "FitResult",
    "grid_search",
]
