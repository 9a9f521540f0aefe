"""Smoothing-coefficient selection by in-sample one-step error.

The objective replays the training window: after initialization, every
observation is forecast one day ahead before being consumed, and the
forecasts made once the first two seasons have passed are scored against
the actuals. Coefficients are picked by exhaustive grid evaluation
followed by a few rounds of local re-gridding, each across ±half the
last round's spacing around the incumbent.

Additive Holt-Winters is a linear innovations state-space model, so
every coefficient triple is an independent column of one recursion.
That recursion lives in :mod:`tempcast.models`, beside
:func:`~tempcast.models.hw_update`, as the kernel
:func:`~tempcast.models._one_step_errors_batch`: one pass over a window
for ``W`` triples, returning each column's RMSE together with its final
level, trend and seasonal ring, bit for bit those of folding
``hw_update`` from the state it is handed. Each window is initialized
once, before its first round, and each round is one
:func:`~tempcast.models._sweep` from that start. This module keeps only
the search: the grid, its refinement and the order between rounds.

A window's winner is the smallest ``(score, alpha, beta, gamma)``: the
lowest score, exact ties going to the smallest triple. That one order
decides between rounds; within a sweep, whose triples :func:`_sweep`
lays out in increasing order, it picks the first column with the lowest score.
:func:`one_step_rmse` is the one-triple :func:`grid_search`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    NonFiniteError,
    TooShortError,
    _instance,
    _real,
    _whole,
)
from .models import HWState, SmoothingParams, _finite, _initial_state, _sweep
from .series import _vector


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per coefficient axis, plus refinement rounds.

    After the full grid is scored, each refinement round lays a grid of
    the same per-axis cardinality across ±half the axis spacing around
    the incumbent, clipped to [0, 1]; duplicate points collapse. Axis
    values are stored as floats, ``-0.0`` as ``0.0``.
    """

    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    refine_rounds: int = 0

    def __post_init__(self):
        for name in ("alpha_grid", "beta_grid", "gamma_grid"):
            given = getattr(self, name)
            try:
                # + 0.0 stores -0.0 as 0.0, so no winner reports a signed zero
                axis = tuple(_real(v, f"each {name} value") + 0.0 for v in given)
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

    @classmethod
    def default(cls) -> "GridSpec":
        """Eleven points per axis (step 0.1), two refinement rounds."""
        axis = tuple(round(0.1 * i, 1) for i in range(11))
        return cls(axis, axis, axis, refine_rounds=2)

    @classmethod
    def coarse(cls) -> "GridSpec":
        """Six points per axis (step 0.2), one refinement round."""
        axis = tuple(round(0.2 * i, 1) for i in range(6))
        return cls(axis, axis, axis, refine_rounds=1)

    @classmethod
    def fine(cls) -> "GridSpec":
        """Twenty-one points per axis (step 0.05), three refinement rounds."""
        axis = tuple(round(0.05 * i, 2) for i in range(21))
        return cls(axis, axis, axis, refine_rounds=3)


@dataclass(frozen=True)
class FitResult:
    """Winning coefficients with their objective value and search cost.

    ``state`` is the smoother after the winner has consumed the whole
    training window: bit for bit the state of folding the window through
    :func:`~tempcast.models.hw_update` from
    :func:`~tempcast.models.init_state`'s, as ``hw_fit(train, params)``
    also returns it. It takes part in equality, so equal results also
    hold equal fitted states. The score is stored as a float and the
    evaluations as an int; a field of another type, a score that is
    negative or not finite, and no evaluation raise ``ArgumentError``.
    """

    params: SmoothingParams
    in_sample_rmse: float
    evaluations: int
    state: HWState = field(repr=False)

    def __post_init__(self):
        _instance(self.params, SmoothingParams, "params")
        score = _real(self.in_sample_rmse, "in_sample_rmse")
        if not 0.0 <= score < math.inf:
            raise ArgumentError(f"in_sample_rmse must be finite and >= 0, got {score}")
        object.__setattr__(self, "in_sample_rmse", score)
        evaluations = _whole(self.evaluations, "evaluations", minimum=1)
        object.__setattr__(self, "evaluations", evaluations)
        _instance(self.state, HWState, "state")


def _refine(center, cardinalities, spacings):
    """Axes of the next refinement round around ``center``, and their
    unclipped spacings: each axis's cardinality of points across
    ±half its spacing, clipped to [0, 1], or the center alone for a
    zero-spacing axis, as every one-point axis is. Clipping keeps the
    points sorted, so equal ones are neighbours and only the first of
    each run is kept."""
    axes, refined_spacings = [], []
    for point, n_points, spacing in zip(center, cardinalities, spacings):
        half = spacing * 0.5
        points = np.clip(np.linspace(point - half, point + half, n_points), 0.0, 1.0)
        axes.append(points[np.r_[True, points[1:] != points[:-1]]])
        refined_spacings.append(2.0 * half / (n_points - 1) if n_points > 1 else 0.0)
    return axes, refined_spacings


def grid_search(train, spec: GridSpec, season_length: int = 365) -> FitResult:
    """Pick the coefficient triple with the lowest in-sample one-step
    error over the grid, then refine locally.

    Deterministic: identical inputs give identical results, including
    the evaluation count. Refinement rounds never worsen the incumbent
    (its point stays in every refined grid, or it simply keeps the
    title). Non-uniform axes refine by their average spacing. Raises
    :class:`NonFiniteError` on a NaN or infinite value, or when the
    winning score or fitted state is not finite, as values near the float
    limit may give (``hw_fit`` raises on them too); :class:`TooShortError`
    on a window shorter than two seasons plus one day; ``ArgumentError``
    when ``spec`` is not a :class:`GridSpec` or ``season_length`` is not a
    whole number of at least 2. A kernel that cannot be built raises
    ``OSError``.
    """
    _instance(spec, GridSpec, "spec")
    season_length = _whole(season_length, "season_length", minimum=2)
    window = _vector(train, "each window")
    n = window.size
    if n < 2 * season_length + 1:
        raise TooShortError(
            f"need at least {2 * season_length + 1} observations to score one-step "
            f"forecasts (two seasons of warm-up plus one), got {n}"
        )
    bad = np.flatnonzero(~np.isfinite(window))
    if bad.size:
        raise NonFiniteError(f"value {bad[0]} is not finite: {float(window[bad[0]])!r}")

    axes = spec.alpha_grid, spec.beta_grid, spec.gamma_grid
    cardinalities = [len(axis) for axis in axes]
    spacings = [
        (axis[-1] - axis[0]) / (len(axis) - 1) if len(axis) > 1 else 0.0
        for axis in axes
    ]
    start = _initial_state(window, season_length)
    evaluations = 0
    # The best (score, alpha, beta, gamma, column) so far, and the state
    # its column ended in.
    best = state = None
    for round_index in range(spec.refine_rounds + 1):
        if round_index:
            axes, spacings = _refine(best[1:4], cardinalities, spacings)
        # Finite values near the float limit may overflow to an inf
        # or NaN score, which ranks as _best_of_batch says.
        candidate, candidate_state = _sweep(window, start, axes)
        evaluations += math.prod(map(len, axes))
        if best is None or candidate < best:
            best, state = candidate, candidate_state

    score, alpha, beta, gamma, _ = best
    # As in hw_fit, a window whose values overflow the float range raises.
    if not math.isfinite(score):
        raise NonFiniteError("in-sample error is not finite")
    return FitResult(
        params=SmoothingParams(alpha, beta, gamma, season_length=season_length),
        in_sample_rmse=score,
        evaluations=evaluations,
        state=_finite(state, "fitted state"),
    )


def one_step_rmse(train, params: SmoothingParams) -> float:
    """In-sample one-step error of the smoother under ``params``: the
    one-triple :func:`grid_search`.

    The first two seasons only warm the state up, so the window must
    extend at least one observation past the initialization span.
    Raises :class:`NonFiniteError` on a NaN or infinite value, or on a
    score or fitted state that overflows.
    """
    _instance(params, SmoothingParams, "params")
    grid = GridSpec((params.alpha,), (params.beta,), (params.gamma,))
    return grid_search(train, grid, params.season_length).in_sample_rmse
