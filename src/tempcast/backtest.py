"""Rolling-origin benchmark harness.

Each experiment cuts the series at a sampled origin, trains every
requested model on the trailing fixed-length window before it, forecasts
each requested lead, and records the signed error (forecast minus
actual). Per-(model, lead) errors are pooled across experiments into a
single RMSE, matching a one-forecast-per-experiment protocol.

Models are rows of one table, a ``{name: forecaster}`` map; its order
is ``MODEL_NAMES``, the default model order and so the default column
order of every report.

Experiments are independent of one another; the report is assembled in
origin order, so running them in any order (or in parallel) yields the
same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    EmptyInputError,
    InsufficientDataError,
    OutOfRangeError,
    _instance,
    _one_of,
    _whole,
)
from .models import average_forecast, hw_forecast, persistence_forecast
from .series import TimeSeries, rmse, validate_series
from .tuning import FitResult, GridSpec, grid_search, grid_search_windows

# Model name -> forecast from (training window, tuned fit, lead).
# "proposed" is the tuned seasonal smoother, under the name it carries in
# comparison tables; the other two are its baselines. Each entry looks its
# forecaster up by module-level name when called, so a wrapper rebound
# over that name (a tracer, a test spy) sees every call.
_FORECASTERS = {
    "proposed": lambda window, fit, m: hw_forecast(fit.state, m, fit.params),
    "persistence": lambda window, fit, m: persistence_forecast(window, m),
    "average": lambda window, fit, m: average_forecast(window, m),
}
MODEL_NAMES = tuple(_FORECASTERS)


@dataclass(frozen=True)
class BacktestConfig:
    """Rolling-origin protocol parameters.

    ``train_length`` is the exact number of trailing observations each
    experiment trains on (default five 365-day years); origins are drawn
    without replacement from every index that leaves a full window
    behind it and all leads ahead of it.
    """

    train_length: int = 1825
    leads: tuple[int, ...] = (1, 2, 3, 4)
    n_experiments: int = 50
    seed: int = 0
    models: tuple[str, ...] = MODEL_NAMES
    grid: GridSpec = field(default_factory=GridSpec.default)
    season_length: int = 365

    def __post_init__(self):
        if isinstance(self.models, str):
            raise ArgumentError(
                "models must be a sequence of model names, "
                f"not the string {self.models!r}"
            )
        object.__setattr__(self, "models", tuple(self.models))
        _instance(self.grid, GridSpec, "grid")
        L = _whole(self.season_length, "season_length", minimum=2)
        object.__setattr__(self, "season_length", L)
        train_length = _whole(self.train_length, "train_length", minimum=2 * L + 1)
        object.__setattr__(self, "train_length", train_length)
        message = "leads must be a nonempty list of whole days >= 1"
        try:
            leads = tuple(_whole(m, "lead", minimum=1) for m in self.leads)
        except ArgumentError as exc:
            raise ArgumentError(message) from exc
        if not leads:
            raise ArgumentError(message)
        object.__setattr__(self, "leads", leads)
        if any(b <= a for a, b in zip(self.leads, self.leads[1:])):
            raise ArgumentError("leads must be strictly increasing")
        for name, minimum in (("n_experiments", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, minimum))
        if not self.models:
            raise ArgumentError("at least one model is required")
        for model in self.models:
            _one_of(model, MODEL_NAMES, "model")
        if len(set(self.models)) != len(self.models):
            raise ArgumentError("models must not repeat")


@dataclass(frozen=True)
class ExperimentResult:
    """Signed forecast errors for one origin, keyed model then lead."""

    origin: int
    errors: dict[str, dict[int, float]]
    fit: FitResult | None = None


@dataclass(frozen=True)
class BacktestReport:
    """Pooled benchmark results.

    ``errors[model][lead]`` holds one signed error per experiment, in
    origin order; ``rmse[model][lead]`` pools them. ``fits`` carries the
    tuned coefficients per experiment when the smoother ran.
    """

    config: BacktestConfig
    origins: tuple[int, ...]
    errors: dict[str, dict[int, np.ndarray]]
    rmse: dict[str, dict[int, float]]
    fits: tuple[FitResult, ...] | None = None


def select_origins(series_length: int, config: BacktestConfig) -> np.ndarray:
    """Sample distinct forecast origins, sorted ascending.

    Uniform without replacement over the feasible range, from a
    generator seeded by ``config.seed``; deterministic for fixed inputs.
    """
    lo = config.train_length
    hi = series_length - max(config.leads)
    available = hi - lo + 1
    if available < config.n_experiments:
        required = config.train_length + max(config.leads) + config.n_experiments - 1
        raise InsufficientDataError(required=required, available=series_length)
    rng = np.random.default_rng(config.seed)
    offsets = rng.choice(available, size=config.n_experiments, replace=False)
    origins = np.sort(offsets.astype(np.int64)) + lo
    return origins


def run_experiment(
    series: TimeSeries,
    origin: int,
    config: BacktestConfig,
    fit: FitResult | None = None,
) -> ExperimentResult:
    """Forecast every requested (model, lead) pair from one origin.

    Models see only the trailing ``train_length`` observations before
    the origin, and each one is called through the module's model table
    (``MODEL_NAMES`` lists it in order). The smoother forecasts every
    lead from ``fit.state``; ``fit`` must come from tuning this origin's
    training window under ``config``, as :func:`run_backtest` does for
    all origins at once. When it is omitted the window is tuned here
    with :func:`~tempcast.tuning.grid_search`. It is ignored when
    ``"proposed"`` is not among the requested models.
    """
    max_lead = max(config.leads)
    if origin < 1 or origin + max_lead > len(series):
        raise OutOfRangeError(
            f"origin {origin} with max lead {max_lead} does not fit a "
            f"series of length {len(series)}"
        )
    if origin < config.train_length:
        raise OutOfRangeError(
            f"origin {origin} leaves only {origin} observations for a "
            f"{config.train_length}-day training window"
        )
    values = series.values
    window = values[origin - config.train_length : origin]

    if "proposed" not in config.models:
        fit = None
    elif fit is None:
        fit = grid_search(window, config.grid, config.season_length)
    errors = {
        model: {
            m: _FORECASTERS[model](window, fit, m) - float(values[origin + m - 1])
            for m in config.leads
        }
        for model in config.models
    }
    return ExperimentResult(origin=int(origin), errors=errors, fit=fit)


def collect_report(
    config: BacktestConfig, results: list[ExperimentResult]
) -> BacktestReport:
    """Pool per-experiment errors into a report, insensitive to the
    order the experiments were run in. Raises :class:`EmptyInputError`
    when there are no results to pool."""
    if not results:
        raise EmptyInputError("no experiment results to pool")
    ordered = sorted(results, key=lambda r: r.origin)
    origins = tuple(r.origin for r in ordered)
    errors: dict[str, dict[int, np.ndarray]] = {}
    pooled: dict[str, dict[int, float]] = {}
    for model in config.models:
        errors[model] = {}
        pooled[model] = {}
        for lead in config.leads:
            cell = np.array([r.errors[model][lead] for r in ordered])
            cell.flags.writeable = False
            errors[model][lead] = cell
            # the RMS of the errors, exactly: cell - 0.0 is cell bit for bit
            pooled[model][lead] = rmse(cell, np.zeros_like(cell))
    fits = tuple(r.fit for r in ordered) if "proposed" in config.models else None
    return BacktestReport(
        config=config, origins=origins, errors=errors, rmse=pooled, fits=fits
    )


def run_backtest(series: TimeSeries, config: BacktestConfig) -> BacktestReport:
    """Run the full protocol: validate, sample origins, tune every
    origin's window in one :func:`~tempcast.tuning.grid_search_windows`
    call, run every experiment, pool. Deterministic given
    (series, config)."""
    validate_series(series)
    origins = [int(o) for o in select_origins(len(series), config)]
    fits: tuple[FitResult | None, ...] = (None,) * len(origins)
    if "proposed" in config.models:
        fits = grid_search_windows(
            [series.values[o - config.train_length : o] for o in origins],
            config.grid,
            config.season_length,
        )
    results = [
        run_experiment(series, o, config, fit) for o, fit in zip(origins, fits)
    ]
    return collect_report(config, results)
