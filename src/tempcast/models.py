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
of the whole training window (average), independent of the lead.
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
    _whole,
)
from .series import TimeSeries, _ByValue


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing coefficients plus the season length in days.

    Coefficients live in [0, 1]; zero freezes a component at its
    initialized value, one makes it follow the data with no memory.
    """

    alpha: float
    beta: float
    gamma: float
    season_length: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ArgumentError(f"{name} must lie in [0, 1], got {value}")
        L = _whole(self.season_length, "season_length", minimum=2)
        object.__setattr__(self, "season_length", L)


@dataclass(frozen=True, eq=False)
class HWState(_ByValue):
    """Smoother state between observations.

    ``seasonal[phase]`` is the correction for the next incoming
    observation's season phase. Instances are immutable, and equal when
    their level, trend, phase and ring bytes are.
    """

    level: float
    trend: float
    seasonal: np.ndarray
    phase: int

    def __post_init__(self):
        ring = np.array(self.seasonal, dtype=np.float64)
        ring.flags.writeable = False
        object.__setattr__(self, "seasonal", ring)
        object.__setattr__(self, "phase", _whole(self.phase, "phase"))
        if ring.ndim != 1 or ring.size < 2:
            raise ArgumentError("seasonal ring needs at least two phases")
        if not 0 <= self.phase < ring.size:
            raise ArgumentError(
                f"phase {self.phase} outside ring of length {ring.size}"
            )


def _train_values(train) -> np.ndarray:
    """A window's values as a one-dimensional float64 array: a scalar
    reads as one value, more than one dimension is an ArgumentError."""
    values = train.values if isinstance(train, TimeSeries) else train
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if values.ndim != 1:
        raise ArgumentError("each window must be one-dimensional")
    return values


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
    step for any coefficients.
    """
    L = season_length
    n = values.size
    if n < 2 * L:
        raise TooShortError(
            f"need at least {2 * L} observations to initialize, got {n}"
        )
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
    :func:`hw_update` replays the window from the top.
    """
    values = _train_values(train)
    level, trend, seasonal = _initial_components(values, params.season_length)
    return HWState(level=level, trend=trend, seasonal=seasonal, phase=0)


def _season_length(state: HWState, params: SmoothingParams) -> int:
    """``params.season_length``, once checked to be the state's ring
    length; a mismatch raises :class:`ArgumentError`."""
    L = params.season_length
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
    return HWState(
        level=level,
        trend=trend,
        seasonal=ring,
        phase=(state.phase + 1) % L,
    )


def hw_fit(train, params: SmoothingParams) -> HWState:
    """Initialize on the training window, then fold every observation
    through :func:`hw_update` in order. Deterministic.

    Tuned fits never come through here: ``FitResult.state`` already
    holds the winner's state, computed by the tuning kernel with the
    same arithmetic. This per-step path serves explicit coefficients
    (``tempcast forecast --alpha/--beta/--gamma``) and is the tests'
    reference for that state. NaN or infinity raises :class:`NonFiniteError`
    before initializing, as :func:`hw_update` would.
    """
    values = _train_values(train)
    non_finite = values[~np.isfinite(values)]
    if non_finite.size:
        raise NonFiniteError(f"observation is not finite: {float(non_finite[0])!r}")
    state = init_state(values, params)
    for observation in values.tolist():
        state = hw_update(state, observation, params)
    return state


def _leads(m) -> np.ndarray:
    """``m`` as an int64 array of leads, each a whole number of days
    >= 1; anything else raises :class:`InvalidLeadError`."""
    leads = np.asarray(m)
    if leads.dtype.kind not in "iu" or (leads < 1).any():
        raise InvalidLeadError(f"lead must be a whole number of days >= 1, got {m!r}")
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
    """
    leads = _leads(m)
    slots = (state.phase + leads - 1) % _season_length(state, params)
    forecast = state.level + leads * state.trend + state.seasonal[slots]
    return forecast if leads.ndim else float(forecast)


def _repeat(value: float, leads: np.ndarray):
    """``value`` for every lead: a float for a scalar lead, else an
    array of the leads' shape."""
    return np.full(leads.shape, value) if leads.ndim else value


def persistence_forecast(train, m=1):
    """Repeat the last observed value, whatever the lead.

    ``m`` is checked and shaped as in :func:`hw_forecast`.
    """
    leads = _leads(m)
    values = _train_values(train)
    if values.size == 0:
        raise EmptyInputError("persistence forecast needs an observation")
    return _repeat(float(values[-1]), leads)


def average_forecast(train, m=1):
    """Predict the mean of the whole training window, whatever the lead.

    ``m`` is checked and shaped as in :func:`hw_forecast`.
    """
    leads = _leads(m)
    values = _train_values(train)
    if values.size == 0:
        raise EmptyInputError("average forecast needs an observation")
    return _repeat(float(values.mean()), leads)
