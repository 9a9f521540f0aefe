"""Smoothing-coefficient selection by in-sample one-step error.

The objective replays the training window: after initialization, every
observation is forecast one day ahead before being consumed, and the
forecasts made once the first two seasons have passed are scored against
the actuals. Coefficients are picked by exhaustive grid evaluation
followed by a few rounds of local re-gridding around the incumbent.

Additive Holt-Winters is a linear innovations state-space model, so
every (window, coefficient triple) pair is an independent column of one
recursion. :func:`_one_step_errors_batch` is the only implementation of
that recursion here: one in-place pass over ``k`` equal-length windows
times ``W`` triples, returning each column's RMSE together with its
final level, trend and seasonal ring. The winner's fitted state
therefore comes out of the sweep itself; no replay is needed.

The pass steps through time in blocks that stay inside one season and
hold about ``_BLOCK_ELEMENTS`` elements per buffer, whatever the width.
Day ``t`` reads the seasonal slot written on day ``t - L``, so a block's
seasonal terms, ring update and error scoring are each computed for the
whole block at once, and only the level-and-trend recursion runs day by
day; a scored block's squared errors are added to the running sum one
day after another, in time order. The results stay bit-for-bit those of
folding :func:`~tempcast.models.hw_update`.

A window's winner is the smallest ``(score, alpha, beta, gamma)``: the
lowest score, exact ties going to the smallest triple. That one order
picks the best column of a sweep and decides between rounds.

:func:`grid_search_windows` tunes many windows together, round by
round: round ``r`` runs for every window before round ``r + 1`` starts,
because each window's refined grid is centred on its incumbent. The
refined spacing does not depend on the incumbent, so one schedule
serves every window. Each round is one ``(3, windows, width)`` block of
triples, every window's sweep padded to the round's widest by repeating
its last triple, and each kernel call takes the next ``budget // width``
windows in order. The budget is the larger of the first-round width (the
product of the axis cardinalities) and ``_CHUNK_COLUMNS``, two
default-grid sweeps: the default protocol runs two windows per kernel
call in the first round and six in each refinement round, and
``GridSpec.fine``, wider than ``_CHUNK_COLUMNS``, one. When a round's
widths differ (an incumbent on a grid edge clips its refined axes),
every window pays for the widest sweep; that is never wider than the
first round, so the seasonal ring, allocated once and reused by every
kernel call, never exceeds season length × the budget floats, and a
one-window search allocates one sweep's. Padding is sliced off before a
winner is picked and before ``evaluations`` is counted, and no column's
arithmetic depends on its neighbours, so the blocking changes no result.
:func:`grid_search` is the one-window call of the same code, and
:func:`one_step_rmse` the one-triple :func:`grid_search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    LengthMismatchError,
    NonFiniteError,
    TooShortError,
    _instance,
    _real,
    _whole,
)
from .models import HWState, SmoothingParams, _finite, _initial_components
from .series import _vector


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per coefficient axis, plus refinement policy.

    After the full grid is scored, each refinement round lays a grid of
    the same per-axis cardinality across ±(axis spacing × refine_shrink)
    around the incumbent, clipped to [0, 1]; duplicate points collapse.
    """

    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    refine_rounds: int = 0
    refine_shrink: float = 0.5

    def __post_init__(self):
        for name in ("alpha_grid", "beta_grid", "gamma_grid"):
            given = getattr(self, name)
            try:
                axis = tuple(_real(v, f"each {name} value") for v in given)
            except TypeError:
                raise ArgumentError(
                    f"{name} must be a sequence of real numbers, got {given!r}"
                ) from None
            object.__setattr__(self, name, axis)
            if not axis:
                raise ArgumentError(f"{name} is empty")
            if any(not 0.0 <= v <= 1.0 for v in axis):
                raise ArgumentError(f"{name} values must lie in [0, 1]")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ArgumentError(f"{name} must be strictly increasing")
        rounds = _whole(self.refine_rounds, "refine_rounds", minimum=0)
        object.__setattr__(self, "refine_rounds", rounds)
        if not 0.0 < self.refine_shrink < 1.0:
            raise ArgumentError("refine_shrink must lie strictly in (0, 1)")

    @classmethod
    def default(cls) -> "GridSpec":
        """Eleven points per axis (step 0.1), two refinement rounds."""
        axis = tuple(round(0.1 * i, 1) for i in range(11))
        return cls(axis, axis, axis, refine_rounds=2, refine_shrink=0.5)

    @classmethod
    def coarse(cls) -> "GridSpec":
        """Six points per axis (step 0.2), one refinement round."""
        axis = tuple(round(0.2 * i, 1) for i in range(6))
        return cls(axis, axis, axis, refine_rounds=1, refine_shrink=0.5)

    @classmethod
    def fine(cls) -> "GridSpec":
        """Twenty-one points per axis (step 0.05), three refinement rounds."""
        axis = tuple(round(0.05 * i, 2) for i in range(21))
        return cls(axis, axis, axis, refine_rounds=3, refine_shrink=0.5)


@dataclass(frozen=True)
class FitResult:
    """Winning coefficients with their objective value and search cost.

    ``state`` is the smoother after the winner has consumed the whole
    training window, equal to ``hw_fit(train, params)``; it takes part
    in equality, so equal results also hold equal fitted states.
    """

    params: SmoothingParams
    in_sample_rmse: float
    evaluations: int
    state: HWState = field(repr=False)

    def __post_init__(self):
        if self.in_sample_rmse < 0.0:
            raise ArgumentError("in_sample_rmse cannot be negative")
        if self.evaluations < 1:
            raise ArgumentError("at least one evaluation is required")


# Columns of one chunk of grid_search_windows, unless the first round is
# wider: two sweeps of the default 11 x 11 x 11 grid. Each ufunc call of
# the kernel's per-day loop pays a fixed dispatch cost, so two windows
# per call halve that cost per column. The seasonal ring grows with the
# chunk: 365 x 2662 floats (7.8 MB), and another 3.9 MB for each further
# window.
_CHUNK_COLUMNS = 2 * 11**3

# Elements in each per-day buffer of one kernel block: 24 days at the
# default grid's width, 12 at two windows, so the two (days, k, W)
# buffers and the block's ring rows (0.75 MB together) stay well inside
# a 2 MB L2 whatever the width. On a 2-vCPU Xeon (48 KB L1d, 2 MB L2 per
# core), 24 and 32 days tied at 1331 columns, while at 2662 the default
# backtest's kernel took 1.54 s with 12-day blocks against 1.61 s with 8
# and 1.63 s with 16; a whole 365-day season is slower still.
_BLOCK_ELEMENTS = 24 * 11**3


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
    arithmetic as folding ``hw_update`` one observation at a time and
    scoring each pre-update lead-1 forecast from the third season
    onward, so the column's final state equals ``hw_fit``'s.

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


def _mesh(axis_a, axis_b, axis_g) -> np.ndarray:
    """The axes' triples as a (3, W) array, gamma fastest."""
    return np.array(np.meshgrid(axis_a, axis_b, axis_g, indexing="ij")).reshape(3, -1)


def _best_of_batch(
    scores: np.ndarray, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[float, float, float, float, int]:
    """The smallest ``(score, alpha, beta, gamma, column)`` among the
    columns with the lowest score; NaN scores rank last."""
    low = np.fmin.reduce(scores)
    tied = np.flatnonzero((scores == low) | np.isnan(low))
    j = min(tied.tolist(), key=lambda j: (a[j], b[j], g[j], j))
    return float(scores[j]), float(a[j]), float(b[j]), float(g[j]), j


def _refine(center, cardinalities, spacings, shrink) -> list[np.ndarray]:
    """Axes of the next refinement round around ``center``: each axis's
    cardinality of points across ±(spacing × shrink), clipped to [0, 1],
    or the center alone for a one-point or zero-spacing axis."""
    refined = []
    for point, n_points, spacing in zip(center, cardinalities, spacings):
        half = spacing * shrink
        if n_points == 1 or half == 0.0:
            refined.append(np.array([point]))
        else:
            points = np.linspace(point - half, point + half, n_points)
            refined.append(np.unique(np.clip(points, 0.0, 1.0)))
    return refined


def _stack_windows(windows) -> np.ndarray:
    rows = [_vector(window, "each window") for window in windows]
    for row in rows:
        if row.size != rows[0].size:
            raise LengthMismatchError(
                f"windows must share one length, got {rows[0].size} and {row.size}"
            )
    return np.stack(rows) if rows else np.empty((0, 0))


def grid_search_windows(
    windows, spec: GridSpec, season_length: int = 365
) -> tuple[FitResult, ...]:
    """:func:`grid_search` on each of several equal-length windows,
    sweeping them together.

    Returns one result per window, in input order, each identical to
    ``grid_search(window, spec, season_length)``. Raises
    :class:`NonFiniteError` on a NaN or infinite value in any window, or
    when a window's winning score or fitted state is not finite, as values
    near the float limit may give (``hw_fit`` raises on them too);
    :class:`LengthMismatchError` when lengths differ, ``ArgumentError``
    when ``spec`` is not a :class:`GridSpec` or ``season_length`` is not a
    whole number of at least 2.
    """
    _instance(spec, GridSpec, "spec")
    season_length = _whole(season_length, "season_length", minimum=2)
    values = _stack_windows(windows)
    k, n = values.shape
    if k == 0:
        return ()
    if n < 2 * season_length + 1:
        raise TooShortError(
            f"need at least {2 * season_length + 1} observations to score one-step "
            f"forecasts (two seasons of warm-up plus one), got {n}"
        )
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        window, index = (int(i) for i in bad[0])
        raise NonFiniteError(
            f"window {window} value {index} is not finite: {values[window, index]!r}"
        )

    axes = [
        np.asarray(spec.alpha_grid, dtype=np.float64),
        np.asarray(spec.beta_grid, dtype=np.float64),
        np.asarray(spec.gamma_grid, dtype=np.float64),
    ]
    cardinalities = [axis.size for axis in axes]
    first_width = math.prod(cardinalities)
    budget = max(first_width, _CHUNK_COLUMNS)
    # No call is wider than k first-round sweeps, so one window touches
    # one sweep's ring.
    ring = np.empty(season_length * min(budget, k * first_width))

    # The spacings shrink by the same rule for every window, whatever its
    # incumbent: one schedule serves them all.
    spacings = [
        float(axis[-1] - axis[0]) / (axis.size - 1) if axis.size > 1 else 0.0
        for axis in axes
    ]
    sweeps = [_mesh(*axes)] * k
    evaluations = [0] * k
    # Per window: the best (score, alpha, beta, gamma, column) so far and
    # the state its column ended in.
    best: list = [None] * k

    for round_index in range(spec.refine_rounds + 1):
        if round_index:
            sweeps = [
                _mesh(*_refine(won[1:4], cardinalities, spacings, spec.refine_shrink))
                for won, _ in best
            ]
            spacings = [
                2.0 * (spacing * spec.refine_shrink) / (size - 1) if size > 1 else 0.0
                for spacing, size in zip(spacings, cardinalities)
            ]
        # each sweep padded to the round's widest by repeating its last triple
        width = max(sweep.shape[1] for sweep in sweeps)
        block = np.stack(
            [np.pad(s, ((0, 0), (0, width - s.shape[1])), "edge") for s in sweeps], axis=1
        )
        per_call = budget // width
        for lo in range(0, k, per_call):
            hi = lo + per_call
            # Finite values near the float limit may overflow to an inf
            # or NaN score, which ranks as _best_of_batch says.
            with np.errstate(over="ignore", invalid="ignore"):
                scores, level, trend, final_ring = _one_step_errors_batch(
                    values[lo:hi], season_length, *block[:, lo:hi], ring
                )
            for row, (a, b, g) in enumerate(sweeps[lo:hi]):
                i = lo + row
                evaluations[i] += a.size
                candidate = _best_of_batch(scores[row, : a.size], a, b, g)
                if best[i] is None or candidate < best[i][0]:
                    j = candidate[-1]
                    state = HWState(
                        level=float(level[row, j]),
                        trend=float(trend[row, j]),
                        seasonal=final_ring[:, row, j],
                        phase=n % season_length,
                    )
                    best[i] = (candidate, state)

    # As in hw_fit, a window whose values overflow the float range raises.
    for i, ((score, *_), state) in enumerate(best):
        if not math.isfinite(score):
            raise NonFiniteError(f"window {i} in-sample error is not finite")
        _finite(state, f"window {i} fitted state")
    return tuple(
        FitResult(
            params=SmoothingParams(alpha, beta, gamma, season_length=season_length),
            in_sample_rmse=score,
            evaluations=count,
            state=state,
        )
        for ((score, alpha, beta, gamma, _), state), count in zip(best, evaluations)
    )


def grid_search(train, spec: GridSpec, season_length: int = 365) -> FitResult:
    """Pick the coefficient triple with the lowest in-sample one-step
    error over the grid, then refine locally.

    Deterministic: identical inputs give identical results, including
    the evaluation count. Refinement rounds never worsen the incumbent
    (its point stays in every refined grid, or it simply keeps the
    title). Non-uniform axes refine by their average spacing. Raises
    :class:`NonFiniteError` on a NaN or infinite value, or on a window
    whose winning score or fitted state overflows.
    """
    return grid_search_windows([train], spec, season_length)[0]


def one_step_rmse(train, params: SmoothingParams) -> float:
    """In-sample one-step error of the smoother under ``params``: the
    one-triple :func:`grid_search`.

    The first two seasons only warm the state up, so the window must
    extend at least one observation past the initialization span.
    Raises :class:`NonFiniteError` on a NaN or infinite value, or on a
    score or fitted state that overflows.
    """
    grid = GridSpec((params.alpha,), (params.beta,), (params.gamma,))
    return grid_search(train, grid, params.season_length).in_sample_rmse
