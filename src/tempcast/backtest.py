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
origin order, so running them in any order yields the same result.
:func:`run_backtest` runs them on two threads where two cores are
usable: the experiments' C loops run without the GIL, so one
experiment's loop overlaps another's Python. The first failing origin
in origin order raises, as it would if they ran one after another.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    EmptyInputError,
    InsufficientDataError,
    NonFiniteError,
    OutOfRangeError,
    _instance,
    _one_of,
    _real,
    _whole,
)
from .models import average_forecast, hw_forecast, persistence_forecast
from .series import TimeSeries, rmse, validate_series
from .tuning import FitResult, GridSpec, grid_search

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
        try:
            object.__setattr__(self, "models", tuple(self.models))
        except TypeError:
            raise ArgumentError(
                f"models must be a sequence of model names, got {self.models!r}"
            ) from None
        _instance(self.grid, GridSpec, "grid")
        L = _whole(self.season_length, "season_length", minimum=2)
        object.__setattr__(self, "season_length", L)
        train_length = _whole(self.train_length, "train_length", minimum=2 * L + 1)
        object.__setattr__(self, "train_length", train_length)
        message = "leads must be a nonempty list of whole days >= 1"
        try:
            leads = tuple(_whole(m, "lead", minimum=1) for m in self.leads)
        except (ArgumentError, TypeError) as exc:  # TypeError: not a sequence
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
    A ``series_length`` that is not a whole number below 2**63, or a
    ``config`` that is not a :class:`BacktestConfig`, raises ``ArgumentError``.
    """
    series_length = _whole(series_length, "series_length", minimum=0)
    if series_length > np.iinfo(np.int64).max:  # Generator.choice takes a C long
        raise ArgumentError(f"series_length must be below 2**63, got {series_length}")
    _instance(config, BacktestConfig, "config")
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
    series: TimeSeries, origin: int, config: BacktestConfig
) -> ExperimentResult:
    """Forecast every requested (model, lead) pair from one origin.

    Models see only the trailing ``train_length`` observations before
    the origin, and each one is called through the module's model table
    (``MODEL_NAMES`` lists it in order). When ``"proposed"`` is requested,
    the window is tuned here with :func:`~tempcast.tuning.grid_search`,
    looked up by module-level name, and the smoother forecasts every lead
    from the fit's state. A ``series``, ``origin`` or ``config`` of the
    wrong type (an origin must be a whole number) raises
    ``ArgumentError``. A value in the training window or an actual that
    is NaN or infinite raises :class:`NonFiniteError` naming the first
    one's series index, before any model runs.
    """
    _instance(series, TimeSeries, "series")
    _instance(config, BacktestConfig, "config")
    origin = _whole(origin, "origin")
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
    start = origin - config.train_length
    used = np.r_[start:origin, [origin + m - 1 for m in config.leads]]
    bad = used[~np.isfinite(values[used])]
    if bad.size:
        raise NonFiniteError(f"value {bad[0]} is not finite: {float(values[bad[0]])!r}")
    window = values[start:origin]
    actuals = {m: float(values[origin + m - 1]) for m in config.leads}

    fit = None
    if "proposed" in config.models:
        fit = grid_search(window, config.grid, config.season_length)
    errors = {
        model: {
            m: _FORECASTERS[model](window, fit, m) - actuals[m] for m in config.leads
        }
        for model in config.models
    }
    return ExperimentResult(origin=int(origin), errors=errors, fit=fit)


def collect_report(
    config: BacktestConfig, results: list[ExperimentResult]
) -> BacktestReport:
    """Pool per-experiment errors into a report, insensitive to the
    order the experiments were run in. Raises :class:`EmptyInputError`
    when there are no results to pool, and ``ArgumentError`` on a
    ``config`` that is not a :class:`BacktestConfig`, ``results`` that
    are not a sequence of :class:`ExperimentResult`, a result whose
    origin is not a whole number, one whose errors are not a
    model → lead → real number mapping holding each of the config's
    (model, lead) pairs, or, when ``"proposed"`` is pooled, one whose fit
    is neither None nor a :class:`~tempcast.tuning.FitResult`."""
    _instance(config, BacktestConfig, "config")
    if not _instance(results, Sequence, "results"):
        raise EmptyInputError("no experiment results to pool")
    ordered = sorted(results, key=lambda r: _whole(
        _instance(r, ExperimentResult, "each result").origin, "each result's origin"
    ))
    origins = tuple(r.origin for r in ordered)
    errors: dict[str, dict[int, np.ndarray]] = {}
    pooled: dict[str, dict[int, float]] = {}
    for model in config.models:
        errors[model] = {}
        pooled[model] = {}
        for lead in config.leads:
            try:
                cell = np.array(
                    [_real(r.errors[model][lead], "each error") for r in ordered]
                )
            except (LookupError, TypeError):  # not a model -> lead mapping
                raise ArgumentError(
                    f"every result must hold an error for {model} at lead {lead}"
                ) from None
            cell.flags.writeable = False
            errors[model][lead] = cell
            # the RMS of the errors, exactly: cell - 0.0 is cell bit for bit
            pooled[model][lead] = rmse(cell, np.zeros_like(cell))
    fits = None
    if "proposed" in config.models:
        fits = tuple(
            r.fit if r.fit is None else _instance(r.fit, FitResult, "each result's fit")
            for r in ordered
        )
    return BacktestReport(
        config=config, origins=origins, errors=errors, rmse=pooled, fits=fits
    )


def run_backtest(series: TimeSeries, config: BacktestConfig) -> BacktestReport:
    """Run the full protocol: validate, sample origins, run one
    :func:`run_experiment` per origin (each tuning its own window), pool.
    Deterministic given (series, config). A ``series`` or ``config`` of
    the wrong type raises ``ArgumentError``.

    The experiments run on ``min(usable cores, 2, n_experiments)``
    workers: the calling thread and, with two, one ``threading.Thread``
    take origins in order from one queue, and each result is stored at
    its origin's place, so the report does not depend on the core count.
    With one usable core no thread starts. Once an experiment fails, no
    further origin is handed out; the ones already running finish, and
    the error of the first failing origin in origin order is raised.
    Each worker holds one sweep's ring at a time (season × sweep width
    float64s).
    """
    validate_series(series)
    _instance(config, BacktestConfig, "config")
    origins = select_origins(len(series), config)
    results: list[ExperimentResult | None] = [None] * len(origins)
    failures: dict[int, BaseException] = {}
    queue = iter(range(len(origins)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if failures else next(queue, None)
            if i is None:
                return
            try:
                results[i] = run_experiment(series, origins[i], config)
            except BaseException as exc:  # raised below, in origin order
                with lock:
                    failures[i] = exc

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    # Two workers were measured (paired bench runs on a 2-vCPU host);
    # the GIL-held Python around each C loop bounds what more could buy,
    # and each further worker holds one more ring.
    workers = min(cores, 2, len(origins))
    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return collect_report(config, results)
