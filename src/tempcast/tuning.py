"""Smoothing-coefficient selection by in-sample one-step error.

The objective replays the training window: after initialization, every
observation is forecast one day ahead before being consumed, and the
forecasts made once the first two seasons have passed are scored against
the actuals. Coefficients are picked by exhaustive grid evaluation
followed by a few rounds of local re-gridding around the incumbent.

Additive Holt-Winters is a linear innovations state-space model, so
every coefficient triple is an independent column of one recursion.
That recursion lives in :mod:`tempcast.models`, beside
:func:`~tempcast.models.hw_update`, as the kernel
:func:`~tempcast.models._one_step_errors_batch`: one pass over a window
for ``W`` triples, returning each column's RMSE together with its final
level, trend and seasonal ring, bit for bit those of folding
``hw_update``. ``hw_fit`` runs the same kernel on one column. This
module keeps only the search: the grid, its refinement, the split
across processes and the choice of winner. Each round of a window's
search is one kernel call over its sweep, and the winner's fitted state
comes out of that call itself; no replay is needed.

A window's winner is the smallest ``(score, alpha, beta, gamma)``: the
lowest score, exact ties going to the smallest triple. That one order
decides between rounds; within a sweep, whose triples :func:`_mesh`
lists in increasing order, it picks the first column with the lowest score.
A refined sweep keeps the axes' cardinalities and clipping only drops
points, so none is wider than the first, and one seasonal ring of
season length × first-round width floats serves every kernel call of a
process. :func:`grid_search` is the one-window call of
:func:`grid_search_windows`, and :func:`one_step_rmse` the one-triple
:func:`grid_search`.

No window's search depends on another's, so :func:`grid_search_windows`
splits its windows into equal contiguous shares, one process each. It
runs as many processes as the smallest of the usable cores, the
windows, and the round-0 triple-steps (windows × first-round width ×
window length) divided by ``_SHARE_TRIPLE_STEPS``, and at least one:
a backtest on the fine grid splits, the default backtest and a
one-window search do not. The calling process tunes the first share and
a worker process each other one, all through :func:`_tune_share`; the
results are put back in window order, so the split changes no result,
and with one process nothing else runs. Input checks and the final
finiteness checks stay in the calling process, so errors name global
window indices; it also loads the kernel, building it if need be,
before any worker starts, so a worker only loads it. Workers are plain
subprocesses, ``sys.executable -c``, sent their share and returning
their results as pickles over stdin and stdout, not
:mod:`multiprocessing` ones: forking a process that holds threads
(numpy's BLAS starts some) is deprecated from CPython 3.12 with a
warning, an error under ``python -W error``, and the spawn and
forkserver methods re-run an unguarded ``__main__`` script inside every
worker.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path

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
from .models import HWState, SmoothingParams, _finite, _kernel, _one_step_errors_batch
from .series import _vector


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per coefficient axis, plus refinement policy.

    After the full grid is scored, each refinement round lays a grid of
    the same per-axis cardinality across ±(axis spacing × refine_shrink)
    around the incumbent, clipped to [0, 1]; duplicate points collapse.
    Axis values are stored as floats, ``-0.0`` as ``0.0``.
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
        shrink = _real(self.refine_shrink, "refine_shrink")
        if not 0.0 < shrink < 1.0:
            raise ArgumentError("refine_shrink must lie strictly in (0, 1)")
        object.__setattr__(self, "refine_shrink", shrink)

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
    training window: bit for bit the state of folding the window through
    :func:`~tempcast.models.hw_update` from
    :func:`~tempcast.models.init_state`'s, as ``hw_fit(train, params)``
    also returns it. It takes part in equality, so equal results also
    hold equal fitted states.
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


# Round-0 triple-steps (windows x first-round width x window length) per
# process: grid_search_windows splits into at most that many processes.
# On a 2-vCPU Xeon (CPython 3.11, numpy 2.4.6) a worker took 0.24-0.29 s
# to start, import numpy and tempcast and load the kernel, and the kernel
# 1.8-2.6 ns per triple-step at the default grid's width, so a share
# pays for its start-up from about 125M triple-steps: 78M round-0 ones,
# as the default grid's refinement rounds add 60% to round 0. The
# constant sits above that, for hosts that start processes more slowly.
# The default backtest's 121M round-0 triple-steps run in one process,
# which measured faster there than two; the fine grid's 845M split.
_SHARE_TRIPLE_STEPS = 100_000_000

# What a worker process runs, after the directory holding this tempcast
# is put first on its path.
_WORKER_ENTRY = "from tempcast.tuning import _tune_worker; _tune_worker()"


def _mesh(axis_a, axis_b, axis_g) -> np.ndarray:
    """The axes' triples as a (3, W) array, gamma fastest: strictly
    increasing axes give strictly increasing triples."""
    return np.array(np.meshgrid(axis_a, axis_b, axis_g, indexing="ij")).reshape(3, -1)


def _best_of_batch(
    scores: np.ndarray, a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[float, float, float, float, int]:
    """``(score, alpha, beta, gamma, column)`` of the first column with
    the lowest score, column 0 if all are NaN: on a :func:`_mesh` sweep,
    the smallest such tuple among the lowest scores, NaN ranking last."""
    j = int(np.argmax(scores == np.fmin.reduce(scores)))
    return float(scores[j]), float(a[j]), float(b[j]), float(g[j]), j


def _refine(center, cardinalities, spacings, shrink) -> list[np.ndarray]:
    """Axes of the next refinement round around ``center``: each axis's
    cardinality of points across ±(spacing × shrink), clipped to [0, 1],
    or the center alone for a zero-spacing axis, as every one-point axis
    is. Clipping keeps the points sorted, so equal ones are neighbours
    and only the first of each run is kept."""
    refined = []
    for point, n_points, spacing in zip(center, cardinalities, spacings):
        half = spacing * shrink
        points = np.clip(np.linspace(point - half, point + half, n_points), 0.0, 1.0)
        refined.append(points[np.r_[True, points[1:] != points[:-1]]])
    return refined


def _stack_windows(windows) -> np.ndarray:
    try:
        rows = [_vector(window, "each window") for window in windows]
    except TypeError:  # from iterating windows: _vector raises ArgumentError
        raise ArgumentError(
            f"windows must be a sequence of windows, got {windows!r}"
        ) from None
    for row in rows:
        if row.size != rows[0].size:
            raise LengthMismatchError(
                f"windows must share one length, got {rows[0].size} and {row.size}"
            )
    return np.stack(rows) if rows else np.empty((0, 0))


def _tune_share(values: np.ndarray, spec: GridSpec, season_length: int) -> tuple:
    """The search of each row of a ``(k, n)`` block of windows.

    Returns ``(best, evaluations, levels, trends, rings)``: per window,
    its winning ``(score, alpha, beta, gamma, column)`` and evaluation
    count as lists, and the winner's final level, trend and seasonal ring
    as arrays of shape (k,), (k,) and (k, season_length). Only plain
    values and arrays, so a worker process can pickle them.
    """
    k = len(values)
    axes = [
        np.asarray(spec.alpha_grid, dtype=np.float64),
        np.asarray(spec.beta_grid, dtype=np.float64),
        np.asarray(spec.gamma_grid, dtype=np.float64),
    ]
    cardinalities = [axis.size for axis in axes]
    first_sweep = _mesh(*axes)
    ring = np.empty(season_length * first_sweep.shape[1])
    first_spacings = [
        float(axis[-1] - axis[0]) / (axis.size - 1) if axis.size > 1 else 0.0
        for axis in axes
    ]
    evaluations = [0] * k
    # Per window: the best (score, alpha, beta, gamma, column) so far, and
    # the level, trend and ring its column ended in.
    best: list = [None] * k
    levels = np.empty(k)
    trends = np.empty(k)
    rings = np.empty((k, season_length))

    for i, window in enumerate(values):
        sweep, spacings = first_sweep, first_spacings
        for round_index in range(spec.refine_rounds + 1):
            if round_index:
                sweep = _mesh(
                    *_refine(best[i][1:4], cardinalities, spacings, spec.refine_shrink)
                )
                spacings = [
                    2.0 * (spacing * spec.refine_shrink) / (size - 1) if size > 1 else 0.0
                    for spacing, size in zip(spacings, cardinalities)
                ]
            # Finite values near the float limit may overflow to an inf
            # or NaN score, which ranks as _best_of_batch says.
            scores, level, trend, final_ring = _one_step_errors_batch(
                window, season_length, *sweep, ring
            )
            evaluations[i] += sweep.shape[1]
            candidate = _best_of_batch(scores, *sweep)
            if best[i] is None or candidate < best[i]:
                j = candidate[-1]
                best[i] = candidate
                levels[i] = level[j]
                trends[i] = trend[j]
                rings[i] = final_ring[:, j]
    return best, evaluations, levels, trends, rings


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tune_in_processes(
    values: np.ndarray, spec: GridSpec, season_length: int, processes: int
) -> list[tuple]:
    """:func:`_tune_share` on ``processes`` equal contiguous shares of
    the windows, in order: the first share here, each other one in a
    worker process started meanwhile, so with one share no worker
    starts. Every worker is killed and reaped before this returns or
    raises; one that exits non-zero raises ``ChildProcessError`` naming
    its exit status."""
    k = len(values)
    bounds = [k * share // processes for share in range(processes + 1)]
    shares = [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    workers = []
    try:
        for share in shares[1:]:
            # Only a worker needs these.
            import subprocess
            import tempfile

            # The directory holding this tempcast goes first on the
            # worker's path, so it imports the same code even when that
            # directory was added to sys.path rather than to PYTHONPATH.
            home = str(Path(__file__).resolve().parents[1])
            command = [
                sys.executable,
                *(f"-W{option}" for option in sys.warnoptions),
                "-c",
                f"import sys; sys.path.insert(0, {home!r}); {_WORKER_ENTRY}",
            ]
            # A pipe holds 64 KB, so writing a share into one would stall
            # until the worker has imported numpy; a file is read at once.
            with tempfile.TemporaryFile() as stdin:
                pickle.dump((share, spec, season_length), stdin)
                stdin.seek(0)
                workers.append(
                    subprocess.Popen(command, stdin=stdin, stdout=subprocess.PIPE)
                )
        results = [_tune_share(shares[0], spec, season_length)]
        for worker in workers:
            reply = worker.stdout.read()
            if worker.wait():
                raise ChildProcessError(
                    f"tuning worker exited with status {worker.returncode}"
                )
            results.append(pickle.loads(reply))
        return results
    finally:
        for worker in workers:
            worker.kill()  # a no-op once it has been waited for
            worker.stdout.close()
            worker.wait()


def _tune_worker() -> None:
    """A worker process's entry: tune the share pickled on stdin and
    pickle :func:`_tune_share`'s result to stdout. Ctrl-C is left to the
    parent, which kills its workers."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    share, spec, season_length = pickle.load(sys.stdin.buffer)
    pickle.dump(_tune_share(share, spec, season_length), sys.stdout.buffer)


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
    when ``windows`` is not a sequence, ``spec`` is not a :class:`GridSpec`
    or ``season_length`` is not a whole number of at least 2. Large
    searches run in several processes, as the module docstring says; a
    worker that fails raises ``ChildProcessError``, and a kernel that
    cannot be built raises ``OSError``.
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

    first_width = len(spec.alpha_grid) * len(spec.beta_grid) * len(spec.gamma_grid)
    processes = min(_usable_cores(), k, k * first_width * n // _SHARE_TRIPLE_STEPS)
    _kernel()  # built, if need be, before any worker starts
    shares = _tune_in_processes(values, spec, season_length, max(processes, 1))

    fits = []
    # As in hw_fit, a window whose values overflow the float range raises.
    windows_in_order = (window for share in shares for window in zip(*share))
    for i, (won, count, level, trend, ring) in enumerate(windows_in_order):
        score, alpha, beta, gamma, _ = won
        if not math.isfinite(score):
            raise NonFiniteError(f"window {i} in-sample error is not finite")
        state = HWState(level, trend, ring, phase=n % season_length)
        fits.append(
            FitResult(
                params=SmoothingParams(alpha, beta, gamma, season_length=season_length),
                in_sample_rmse=score,
                evaluations=count,
                state=_finite(state, f"window {i} fitted state"),
            )
        )
    return tuple(fits)


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
    _instance(params, SmoothingParams, "params")
    grid = GridSpec((params.alpha,), (params.beta,), (params.gamma,))
    return grid_search(train, grid, params.season_length).in_sample_rmse
