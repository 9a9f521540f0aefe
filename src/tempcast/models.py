"""Additive seasonal exponential smoothing and two naive baselines.

The smoother keeps three components: a level (de-seasonalized value at
the most recent observation), a linear trend in Kelvin per day, and a
ring of one additive correction per season phase. Consuming observation
``a`` updates them as

    level' = alpha * (a - c_old) + (1 - alpha) * (level + trend)
    trend' = beta  * (level' - level) + (1 - beta) * trend
    c_new  = gamma * (a - level') + (1 - gamma) * c_old

where ``c_old`` is the ring slot written one full season earlier for the
same phase. A lead-``m`` forecast is ``level + m * trend`` plus the
stored correction for the target day's phase; the ring wraps, so the
seasonal shape repeats verbatim beyond one season while the trend keeps
extrapolating.

The baselines repeat the last observed value (persistence) or the mean
of the whole training window (average), independent of the lead; both
are one function of the window, :func:`_baseline`.

Every entry point either returns finite values or raises a
``TempcastError``: a window or argument of the wrong type or shape
raises ``ArgumentError``, and a forecast, initial state or fitted state
that is not finite (NaN, infinite, or past the float range) raises
:class:`NonFiniteError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    EmptyInputError,
    InvalidLeadError,
    NonFiniteError,
    TooShortError,
    _instance,
    _real,
    _whole,
)
from .series import _ByValue, _vector


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing coefficients plus the season length in days.

    Coefficients are real numbers in [0, 1], stored as floats; zero
    freezes a component at its initialized value, one makes it follow
    the data with no memory. A bool, like any other non-number, raises
    ``ArgumentError``.
    """

    alpha: float
    beta: float
    gamma: float
    season_length: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = _real(getattr(self, name), name)
            if not 0.0 <= value <= 1.0:
                raise ArgumentError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        L = _whole(self.season_length, "season_length", minimum=2)
        object.__setattr__(self, "season_length", L)


@dataclass(frozen=True, eq=False)
class HWState(_ByValue):
    """Smoother state between observations.

    ``seasonal[phase]`` is the correction for the next incoming
    observation's season phase. Instances are immutable, and equal when
    their level, trend, phase and ring bytes are. Level and trend are
    stored as floats and the ring as ``series._vector`` reads values;
    anything else raises ``ArgumentError``.
    """

    level: float
    trend: float
    seasonal: np.ndarray
    phase: int

    def __post_init__(self):
        object.__setattr__(self, "level", _real(self.level, "level"))
        object.__setattr__(self, "trend", _real(self.trend, "trend"))
        ring = np.array(_vector(self.seasonal, "seasonal"))
        ring.flags.writeable = False
        object.__setattr__(self, "seasonal", ring)
        object.__setattr__(self, "phase", _whole(self.phase, "phase"))
        if ring.size < 2:
            raise ArgumentError("seasonal ring needs at least two phases")
        if not 0 <= self.phase < ring.size:
            raise ArgumentError(
                f"phase {self.phase} outside ring of length {ring.size}"
            )


def _initial_components(
    values: np.ndarray, season_length: int
) -> tuple[float, float, np.ndarray]:
    """Level, trend and seasonal ring estimated from a training prefix.

    Trend is the per-day gap between the first two season means. Each
    ring slot averages its phase's deviation from the season mean over
    every complete season, minus the within-season ramp the trend itself
    explains; without that subtraction a trending series would leak a
    sawtooth into the ring. The level is the first season's mean pulled
    back to the day before the first observation, so an update pass may
    start at the very first training value. On a series that is exactly
    linear plus a zero-sum cycle these estimates recover the generating
    components, and the update recursions then hold them fixed at every
    step for any coefficients. Values near the float limit may give
    infinite or NaN components; that raises no warning.
    """
    L = season_length
    n = values.size
    if n < 2 * L:
        raise TooShortError(
            f"need at least {2 * L} observations to initialize, got {n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        first_mean = float(values[:L].mean())
        second_mean = float(values[L : 2 * L].mean())
        trend = (second_mean - first_mean) / L

        n_seasons = n // L
        by_season = values[: n_seasons * L].reshape(n_seasons, L)
        deviations = by_season - by_season.mean(axis=1, keepdims=True)
        ramp = trend * (np.arange(L, dtype=np.float64) - (L - 1) / 2.0)
        seasonal = deviations.mean(axis=0) - ramp

    level = first_mean - trend * (L + 1) / 2.0
    return level, trend, seasonal


def init_state(train, params: SmoothingParams) -> HWState:
    """Estimate a starting state from at least two full seasons.

    The returned state is positioned before the first observation
    (phase 0): folding the training values through
    :func:`hw_update` replays the window from the top. A state that is
    not finite raises :class:`NonFiniteError`.
    """
    values = _vector(train, "each window")
    L = _instance(params, SmoothingParams, "params").season_length
    level, trend, seasonal = _initial_components(values, L)
    state = HWState(level=level, trend=trend, seasonal=seasonal, phase=0)
    return _finite(state, "initial state")


def _finite(state: HWState, what: str) -> HWState:
    """``state``, once its level, trend and ring are checked to be
    finite; otherwise :class:`NonFiniteError` names it as ``what``."""
    if not (
        math.isfinite(state.level)
        and math.isfinite(state.trend)
        and np.isfinite(state.seasonal).all()
    ):
        raise NonFiniteError(f"{what} is not finite")
    return state


def _season_length(state: HWState, params: SmoothingParams) -> int:
    """``params.season_length``, once checked to be the state's ring
    length; a mismatch, or arguments that are not an :class:`HWState`
    and :class:`SmoothingParams`, raise :class:`ArgumentError`."""
    _instance(state, HWState, "state")
    L = _instance(params, SmoothingParams, "params").season_length
    if state.seasonal.size != L:
        raise ArgumentError(
            f"state ring has {state.seasonal.size} slots, params expect {L}"
        )
    return L


def hw_update(
    state: HWState, observation: float, params: SmoothingParams
) -> HWState:
    """Consume one observation and return the advanced state.

    Pure: the input state is untouched. The ring slot at the current
    phase is read as the season-old correction and replaced with the
    fresh one; the phase cursor then advances by one, modulo the season
    length.
    """
    if not math.isfinite(observation):
        raise NonFiniteError(f"observation is not finite: {observation!r}")
    L = _season_length(state, params)
    c_old = float(state.seasonal[state.phase])
    level = params.alpha * (observation - c_old) + (1.0 - params.alpha) * (
        state.level + state.trend
    )
    trend = params.beta * (level - state.level) + (1.0 - params.beta) * state.trend
    c_new = params.gamma * (observation - level) + (1.0 - params.gamma) * c_old
    ring = np.array(state.seasonal)
    ring[state.phase] = c_new
    return HWState(level, trend, ring, (state.phase + 1) % L)


def hw_fit(train, params: SmoothingParams) -> HWState:
    """Initialize on the training window, then fold every observation
    through :func:`hw_update` in order. Deterministic.

    Tuned fits never come through here: ``FitResult.state`` already
    holds the winner's state, computed by the tuning kernel with the
    same arithmetic. This per-step path serves explicit coefficients
    (``tempcast forecast --alpha/--beta/--gamma``) and is the tests'
    reference for that state. NaN or infinity raises :class:`NonFiniteError`
    before initializing, as :func:`hw_update` would; so does an initial
    or fitted state that is not finite, as values near the float limit
    may give.
    """
    values = _vector(train, "each window")
    non_finite = values[~np.isfinite(values)]
    if non_finite.size:
        raise NonFiniteError(f"observation is not finite: {float(non_finite[0])!r}")
    state = init_state(values, params)
    for observation in values.tolist():
        state = hw_update(state, observation, params)
    return _finite(state, "fitted state")


# The largest lead: leads are computed on as int64.
_MAX_LEAD = np.iinfo(np.int64).max


def _leads(m) -> np.ndarray:
    """``m`` as an int64 array of leads, each a whole number of days from
    1 to the int64 limit; anything else raises :class:`InvalidLeadError`,
    so no unsigned lead wraps negative."""
    leads = np.asarray(m)
    if leads.dtype.kind not in "iu" or (leads < 1).any() or (leads > _MAX_LEAD).any():
        raise InvalidLeadError(
            f"lead must be a whole number of days from 1 to {_MAX_LEAD}, got {m!r}"
        )
    return leads.astype(np.int64, copy=False)


def hw_forecast(state: HWState, m, params: SmoothingParams):
    """Project the state ``m`` days ahead.

    Level plus ``m`` times the trend plus the ring correction for the
    target day's phase, which sits ``m - 1`` slots past the cursor.
    ``m`` is an int, giving a float, or an integer array of leads,
    giving an array of the same shape; each element is computed with
    the scalar's arithmetic, so the two agree bit for bit. A lead that
    is not an integer or is below 1 raises :class:`InvalidLeadError`;
    a state whose ring length is not ``params.season_length`` raises
    that error's base, :class:`ArgumentError`, as in :func:`hw_update`.
    A forecast that is not finite raises :class:`NonFiniteError`.
    """
    leads = _leads(m)
    L = _season_length(state, params)
    # reduced before the phase is added, so no lead up to the int64 limit
    # overflows
    slots = (state.phase + (leads - 1) % L) % L
    with np.errstate(over="ignore", invalid="ignore"):
        forecast = state.level + leads * state.trend + state.seasonal[slots]
    if not np.isfinite(forecast).all():
        raise NonFiniteError("smoother forecast is not finite")
    return forecast if leads.ndim else float(forecast)


def _baseline(train, m, statistic, name: str):
    """``statistic`` of the training window for every lead in ``m``.

    The leads are checked and the result shaped as in :func:`hw_forecast`:
    a float for an int lead, an array of the leads' shape for an integer
    array. An empty window raises :class:`EmptyInputError`, and a forecast
    that is not finite (a NaN or infinite value, or a sum past the float
    range) raises :class:`NonFiniteError`.
    """
    leads = _leads(m)
    values = _vector(train, "each window")
    if values.size == 0:
        raise EmptyInputError(f"{name} forecast needs an observation")
    with np.errstate(over="ignore", invalid="ignore"):
        forecast = float(statistic(values))
    if not math.isfinite(forecast):
        raise NonFiniteError(f"{name} forecast is not finite: {forecast!r}")
    return np.full(leads.shape, forecast) if leads.ndim else forecast


def persistence_forecast(train, m=1):
    """Repeat the last observed value, whatever the lead; see :func:`_baseline`."""
    return _baseline(train, m, lambda values: values[-1], "persistence")


def average_forecast(train, m=1):
    """Predict the mean of the whole training window, whatever the lead;
    see :func:`_baseline`."""
    return _baseline(train, m, np.mean, "average")
