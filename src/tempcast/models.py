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

The recursion has one production implementation,
:func:`_one_step_errors_batch`: a kernel that steps k windows × W
coefficient triples through time together and scores their one-step
errors. :func:`hw_fit` runs it on one column, and
:mod:`tempcast.tuning` on whole grids of them. :func:`hw_update` is the
same recursion one observation at a time, kept as the readable
reference that the kernel's results equal bit for bit.

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
    length. The readable reference for :func:`_one_step_errors_batch`,
    which fits and tunes; nothing else in the package calls this.
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


# Elements in each per-day buffer of one kernel block: 24 days at the
# default grid's width, 12 at two windows, so the two (days, k, W)
# buffers and the block's ring rows (0.75 MB together) stay well inside
# a 2 MB L2 whatever the width. On a 2-vCPU Xeon (48 KB L1d, 2 MB L2 per
# core), 24 and 32 days tied at 1331 columns, while at 2662 the default
# backtest's kernel took 1.54 s with 12-day blocks against 1.61 s with 8
# and 1.63 s with 16; a whole 365-day season is slower still.
_BLOCK_ELEMENTS = 24 * 11**3


@np.errstate(over="ignore", invalid="ignore")
def _one_step_errors_batch(
    values: np.ndarray,
    season_length: int,
    alphas: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
    ring: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-step RMSE and final state for k windows × W triples in one sweep.

    ``values`` is (k, n), one equal-length window per row; ``alphas``,
    ``betas`` and ``gammas`` are (k, W), row ``i`` holding the triples
    scored on window ``i``. ``ring`` is the flat float64 buffer to work
    in, of at least ``season_length * k * W`` elements.

    Returns ``(rmse, level, trend, ring)``: the first three are (k, W),
    the ring is (season_length, k, W) with ``ring[p]`` the correction for
    phase ``p`` (a view into the buffer, overwritten by the next call
    that reuses it). Per column this performs bit-for-bit the same
    arithmetic as folding :func:`hw_update` one observation at a time
    from :func:`init_state`'s state and scoring each pre-update lead-1
    forecast from the third season onward, so the column's final level,
    trend and ring equal that fold's, whose phase is ``n % season_length``.
    It runs under its own ``np.errstate(over="ignore", invalid="ignore")``,
    whatever the caller's: values near the float limit may overflow, as
    they do silently in the fold, and a window of exactly two seasons
    scores no day, so its RMSE is 0 / 0, NaN.

    Time is stepped in blocks that never cross a season boundary and
    hold at most ``_BLOCK_ELEMENTS // (k * W)`` days (at least one, at
    most a season), so the block buffers keep one size whatever the
    width. The ring slot read on day ``t`` was last written on day
    ``t - L``, before the block began, so every season-old correction
    of the block is known at its start: the ``alpha * (a - c_old)``
    terms, the scored errors and the ring update are each a few calls
    over the whole block, and only the level and trend recursion runs
    day by day. The warm-up ends on a season boundary, so a block is
    either all warm-up or all scored. Each element still sees the
    per-step expression with its operands at most commuted, never
    reassociated, and a scored block's squared errors are added to the
    running sum one day after another in time order, so the results are
    unchanged by the blocking.
    """
    L = season_length
    k, n = values.shape
    shape = alphas.shape
    ring = ring[: L * alphas.size].reshape(L, *shape)
    level = np.empty(shape)
    trend = np.empty(shape)
    for i in range(k):
        level[i], trend[i], seasonal = _initial_components(values[i], L)
        ring[:, i, :] = seasonal[:, None]

    one_m_alpha = 1.0 - alphas
    one_m_beta = 1.0 - betas
    one_m_gamma = 1.0 - gammas

    warmup = 2 * L
    block = min(max(_BLOCK_ELEMENTS // alphas.size, 1), L)
    sq_sum = np.zeros(shape)
    scratch = np.empty(shape)
    # Per day of the block: level + trend (later the squared error and
    # the ring increment), and the new level.
    level_trends = np.empty((block, *shape))
    levels = np.empty((block, *shape))
    lt_rows = list(level_trends)
    day_rows = list(zip(lt_rows, levels))
    observations = np.ascontiguousarray(values.T)[:, :, None]  # (n, k, 1)
    start = 0
    while start < n:
        # A block ends at the next season boundary at the latest, so no
        # ring slot it reads was written inside it, and it is either all
        # warm-up or all scored: warmup is itself a season boundary.
        stop = min(start + block, n, (start // L + 1) * L)
        days = stop - start
        obs = observations[start:stop]
        c_old = ring[start % L : start % L + days]
        lt = level_trends[:days]
        new = levels[:days]
        # level' = alpha * (a - c_old) + (1 - alpha) * (level + trend);
        # the first term is known for the whole block before it starts
        np.subtract(obs, c_old, new)
        new *= alphas
        prev = level
        for lt_d, new_d in day_rows[:days]:
            np.add(prev, trend, lt_d)
            np.multiply(one_m_alpha, lt_d, scratch)
            new_d += scratch
            # trend' = beta * (level' - level) + (1 - beta) * trend.
            # Operands appear in another order than in hw_update, which
            # is exact: IEEE addition and multiplication are commutative.
            np.subtract(new_d, prev, scratch)
            scratch *= betas
            trend *= one_m_beta
            trend += scratch
            prev = new_d
        # carry the level out: the next block rewrites the block buffers
        level[...] = prev
        if start >= warmup:
            # ((level + trend) + c_old - a)^2, added to the running sum
            # one day at a time so the summation order stays that of a
            # per-day fold. One np.add.reduce over [sq_sum; block] keeps
            # that order only at two or more columns (one column is summed
            # pairwise), and measured slower here at 1331 and 2662 columns.
            lt += c_old
            lt -= obs
            lt *= lt
            for row in lt_rows[:days]:
                sq_sum += row
        # c_new = gamma * (a - level') + (1 - gamma) * c_old
        np.subtract(obs, new, lt)
        lt *= gammas
        c_old *= one_m_gamma
        c_old += lt
        start = stop
    sq_sum /= n - warmup
    return np.sqrt(sq_sum, out=sq_sum), level, trend, ring


def hw_fit(train, params: SmoothingParams) -> HWState:
    """Initialize on the training window, then run every observation
    through :func:`_one_step_errors_batch` as its one column.
    Deterministic, and bit for bit the state of folding the window
    through :func:`hw_update` from :func:`init_state`'s.

    This serves explicit coefficients (``tempcast forecast
    --alpha/--beta/--gamma``); a tuned fit's ``FitResult.state`` comes
    out of the same kernel. A window of exactly two seasons fits. NaN or
    infinity raises :class:`NonFiniteError` before initializing, as
    :func:`hw_update` would; so does an initial or fitted state that is
    not finite, as values near the float limit may give.
    """
    values = _vector(train, "each window")
    non_finite = values[~np.isfinite(values)]
    if non_finite.size:
        raise NonFiniteError(f"observation is not finite: {float(non_finite[0])!r}")
    init_state(values, params)
    L = params.season_length
    triple = np.reshape([params.alpha, params.beta, params.gamma], (3, 1, 1))
    _, level, trend, ring = _one_step_errors_batch(
        values[None, :], L, *triple, np.empty(L)
    )
    state = HWState(level[0, 0], trend[0, 0], ring[:, 0, 0], values.size % L)
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
