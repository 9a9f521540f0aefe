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
:func:`_one_step_errors_batch`: a kernel that steps one window's W
coefficient triples through time together and scores their one-step
errors, in a small C loop (``_kernel.c``) that :func:`_kernel` compiles
on first use, so running it needs a C compiler once per host. The loop
takes the days four at a time, each pass over all W columns, and on
x86-64 with glibc the dynamic loader picks its AVX-512, AVX2 or
baseline build, whichever is the widest that the CPU runs; all give the
same bits. The library also holds ``read_export``, the one-pass reader
of plain CSV files, exports and series files alike
(:func:`tempcast.series._plain_rows`).
:func:`_sweep` picks one call's winning column and its final state;
:func:`hw_fit` runs it on one column, and :mod:`tempcast.tuning` on
whole grids of them. :func:`hw_update` is the same recursion one
observation at a time, kept as the readable reference that the kernel's
results equal bit for bit.

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

import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

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


def _initial_state(values: np.ndarray, season_length: int) -> HWState:
    """The phase-0 state estimated from a training prefix.

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
    infinite or NaN components, unchecked and with no warning.
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
    return HWState(level, trend, seasonal, 0)


def init_state(train, params: SmoothingParams) -> HWState:
    """:func:`_initial_state` of at least two full seasons, checked finite.

    The returned state is positioned before the first observation
    (phase 0): folding the training values through :func:`hw_update`
    from it, as :func:`hw_fit` does, replays the window from the top.
    A state that is not finite raises :class:`NonFiniteError`.
    """
    values = _vector(train, "each window")
    L = _instance(params, SmoothingParams, "params").season_length
    return _finite(_initial_state(values, L), "initial state")


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
    observation = _real(observation, "observation")
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


# The kernel's C source and compile flags: no FMA contraction and no
# -ffast-math, so each step is hw_update's arithmetic on any host. There
# is no -march either: the source asks for its own AVX-512 and AVX2
# clones where it can, and the loader picks one by the CPU it runs on, so
# the cached library serves any x86-64 CPU.
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# Held while loading or building: a backtest's workers first reach a cold
# cache together, and the later ones then load what the first one built.
_kernel_lock = threading.Lock()


@functools.cache
def _kernel():
    """``_kernel.c``'s shared library, with ``one_step_errors`` and
    ``read_export`` (the one-pass reader of plain CSV files behind
    :func:`tempcast.series._plain_rows`) typed for ctypes.

    The shared library is built with ``sysconfig``'s ``CC`` (else ``cc``)
    and ``_KERNEL_FLAGS`` into ``$XDG_CACHE_HOME/tempcast/`` (by default
    ``~/.cache/tempcast/``), under a SHA-256 of the source, the command,
    the Python platform and the machine, so hosts sharing a cache each
    load their own build. It is built in a temporary directory there and
    renamed into place, so processes building at once never load a
    partial file. Later calls and processes only load it; a cached file
    that cannot be loaded (missing, truncated, built for another machine)
    is rebuilt once, and a second failure to load raises ``OSError``.
    Threads that reach a cold cache at once take turns, so they build it
    once between them. A missing compiler, a failed compile or an
    unwritable cache raises ``OSError`` naming the command and the
    compiler's stderr.
    """
    import ctypes
    import hashlib
    import platform
    import shlex
    import sysconfig

    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_KERNEL_FLAGS]
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes())
    for part in (shlex.join(command), sysconfig.get_platform(), platform.machine()):
        digest.update(part.encode() + b"\0")
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    library = cache / "tempcast" / f"kernel-{digest.hexdigest()}.so"
    with _kernel_lock:
        try:
            loaded = ctypes.CDLL(str(library))
        except OSError:
            _build(command, library)
            loaded = ctypes.CDLL(str(library))
    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    long = ctypes.c_long
    loaded.one_step_errors.argtypes = [array, long, long, long, *[array] * 4]
    loaded.one_step_errors.restype = None
    longs = np.ctypeslib.ndpointer(long, flags="C_CONTIGUOUS")
    loaded.read_export.argtypes = [
        ctypes.c_char_p, *[long] * 5, ctypes.c_char_p, *[long] * 3, longs, array,
        ctypes.POINTER(long),
    ]
    loaded.read_export.restype = long
    return loaded


def _build(command: list[str], library: Path) -> None:
    """Compile ``_KERNEL_SOURCE`` with ``command`` into ``library``."""
    import shlex
    import subprocess
    import tempfile

    shown = shlex.join([*command, "-o", str(library), str(_KERNEL_SOURCE)])
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=library.parent) as scratch:
            partial = os.path.join(scratch, library.name)
            done = subprocess.run(
                [*command, "-o", partial, str(_KERNEL_SOURCE)],
                capture_output=True, text=True,
            )
            if done.returncode:
                raise OSError(f"exit status {done.returncode}: {done.stderr.strip()}")
            os.replace(partial, library)
    except OSError as exc:
        raise OSError(f"cannot build the smoother kernel with `{shown}`: {exc}") from None


def _one_step_errors_batch(
    values: np.ndarray,
    start: HWState,
    alphas: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-step RMSE and final state for W coefficient triples in one sweep.

    ``values`` is one window of at least two seasons, ``start`` a phase-0
    state whose ring length L is the season length, and ``alphas``,
    ``betas`` and ``gammas`` the W triples' coefficients. The recursion
    runs in the C loop of :func:`_kernel`, in passes of four days over all
    W columns, with the vector width the loader picked for this CPU. The
    loop runs without the GIL. It gets the coefficients as one (3, W)
    array, the start's level and trend with the error sums as another,
    and a ring allocated here but not filled: the first season's days
    read their old correction from ``start.seasonal``, and every later
    day reads the slot that the same phase wrote one season earlier.

    Returns ``(rmse, level, trend, ring)``: the first three have shape
    (W,), the ring is (L, W) with ``ring[p]`` the correction for phase
    ``p``. Each column is bit for bit the fold of :func:`hw_update` one
    observation at a time from ``start``, scoring each pre-update lead-1
    forecast from the third season onward, its squared errors summed in
    time order: its final level, trend and ring are that fold's, whose
    phase is ``n % L``. Values near the float limit may overflow, as they
    do silently in the fold, and a window of exactly two seasons scores
    no day, so its RMSE is 0 / 0, NaN; neither warns, whatever the
    caller's ``np.errstate``.
    """
    L = start.seasonal.size
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.size
    # contiguous float64 rows of one length, or a ValueError, as the C
    # loop reads them unchecked
    coefficients = np.array([alphas, betas, gammas], dtype=np.float64)
    width = coefficients[0].size
    state = np.zeros((3, width))
    state[0], state[1] = start.level, start.trend
    ring = np.empty((L, width))
    _kernel().one_step_errors(
        values, n, L, width, coefficients, start.seasonal, state, ring
    )
    level, trend, sq_sum = state
    with np.errstate(invalid="ignore"):
        sq_sum /= n - 2 * L
    return np.sqrt(sq_sum, out=sq_sum), level, trend, ring


def _best_of_batch(
    scores: np.ndarray, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[float, float, float, float, int]:
    """``(score, alpha, beta, gamma, column)`` of the first column with
    the lowest score, column 0 if all are NaN: on the columns that
    :func:`_sweep` lays out, the smallest such tuple among the lowest
    scores, NaN ranking last."""
    j = int(np.argmax(scores == np.fmin.reduce(scores)))
    return float(scores[j]), float(a[j]), float(b[j]), float(g[j]), j


def _sweep(values, start, axes):
    """The :func:`_best_of_batch` tuple of one :func:`_one_step_errors_batch`
    call from ``start`` over the alpha, beta and gamma ``axes``' triples,
    gamma fastest, so that increasing axes give the increasing columns its
    tie rule relies on, and the :class:`HWState` the winner ended in. The
    ring is freed on return, so a thread never holds two sweeps' rings at once."""
    alphas, betas, gammas = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
    scores, level, trend, ring = _one_step_errors_batch(
        values, start, alphas, betas, gammas
    )
    best = _best_of_batch(scores, alphas, betas, gammas)
    j = best[-1]
    return best, HWState(level[j], trend[j], ring[:, j], len(values) % ring.shape[0])


def hw_fit(train, params: SmoothingParams) -> HWState:
    """Run every observation of the training window through
    :func:`_one_step_errors_batch` as its one column, from
    :func:`init_state`'s state. Deterministic, and bit for bit the state
    of folding the window through :func:`hw_update` from that state.

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
    start = init_state(values, params)
    _, state = _sweep(values, start, [[params.alpha], [params.beta], [params.gamma]])
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
