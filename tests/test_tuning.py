import dataclasses
import itertools
import math
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tempcast import (
    GridSpec,
    SmoothingParams,
    grid_search,
    hw_fit,
    hw_forecast,
)
from tempcast.errors import LengthMismatchError, NonFiniteError, TooShortError
from tempcast import models, tuning
from tempcast.models import HWState, _one_step_errors_batch, hw_update, init_state
from tempcast.tuning import FitResult, grid_search_windows, one_step_rmse


def fold_scored(values, params):
    """Reference objective and final state: replay with hw_update, score
    lead-1 forecasts from the third season onward, accumulating in time
    order. A window of exactly two seasons scores no day: NaN."""
    L = params.season_length
    state = init_state(values, params)
    total = 0.0
    scored = 0
    for t, obs in enumerate(np.asarray(values, dtype=float).tolist()):
        if t >= 2 * L:
            err = hw_forecast(state, 1, params) - obs
            total += err * err
            scored += 1
        state = hw_update(state, obs, params)
    return (math.sqrt(total / scored) if scored else math.nan), state


def fold_scored_rmse(values, params):
    return fold_scored(values, params)[0]


def exhaustive_search(values, spec, season_length):
    """Brute-force oracle for round-0 grid search: full triple loop over
    the hw_update fold with explicit lexicographic tie-breaking; each
    fold score is also one_step_rmse's, exactly."""
    best = None
    count = 0
    for a in spec.alpha_grid:
        for b in spec.beta_grid:
            for g in spec.gamma_grid:
                params = SmoothingParams(a, b, g, season_length=season_length)
                score = fold_scored_rmse(values, params)
                assert one_step_rmse(values, params) == score
                count += 1
                key = (score, a, b, g)
                if best is None or key < best:
                    best = key
    return best, count


def refined_search(values, spec, season_length):
    """Plain-Python oracle for every round: each round after the first
    lays each axis's cardinality of points across ±(spacing × shrink)
    around the incumbent, clipped to [0, 1] and deduplicated, or the
    incumbent alone for a one-point or zero-spacing axis; the spacing
    then becomes the refined grid's. Triples are scored by the hw_update
    fold, and the smallest (score, alpha, beta, gamma) wins."""
    axes = [list(spec.alpha_grid), list(spec.beta_grid), list(spec.gamma_grid)]
    sizes = [len(axis) for axis in axes]
    spacings = [
        (axis[-1] - axis[0]) / (len(axis) - 1) if len(axis) > 1 else 0.0
        for axis in axes
    ]
    best = None
    count = 0
    for round_index in range(spec.refine_rounds + 1):
        if round_index:
            axes = []
            for center, size, spacing in zip(best[1:], sizes, spacings):
                half = spacing * spec.refine_shrink
                if size == 1 or half == 0.0:
                    axes.append([center])
                else:
                    points = np.linspace(center - half, center + half, size)
                    axes.append(np.unique(np.clip(points, 0.0, 1.0)).tolist())
            spacings = [
                2.0 * (spacing * spec.refine_shrink) / (size - 1) if size > 1 else 0.0
                for spacing, size in zip(spacings, sizes)
            ]
        for a in axes[0]:
            for b in axes[1]:
                for g in axes[2]:
                    params = SmoothingParams(a, b, g, season_length=season_length)
                    key = (fold_scored_rmse(values, params), a, b, g)
                    count += 1
                    if best is None or key < best:
                        best = key
    return best, count


class TestOneStepRmse:
    def test_constant_series_scores_zero(self):
        values = np.full(2 * 4 + 5, 280.0)
        params = SmoothingParams(0.3, 0.2, 0.7, season_length=4)
        assert one_step_rmse(values, params) == 0.0

    def test_noiseless_signal_scores_nearly_zero(self, trend_seasonal):
        values, _ = trend_seasonal(30, 4, slope=0.1)
        params = SmoothingParams(0.6, 0.4, 0.3, season_length=4)
        assert one_step_rmse(values, params) < 1e-6

    def test_exactly_two_seasons_is_too_short(self):
        params = SmoothingParams(0.3, 0.2, 0.7, season_length=4)
        with pytest.raises(TooShortError):
            one_step_rmse(np.full(8, 280.0), params)
        # one extra observation gives exactly one scored step
        assert one_step_rmse(np.full(9, 280.0), params) == 0.0

    @given(
        triple=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        season_length=st.sampled_from([2, 3, 5]),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_update_fold(self, triple, season_length, seed):
        gen = np.random.default_rng(seed)
        values = 280.0 + gen.normal(0, 3, 2 * season_length + 13)
        params = SmoothingParams(*triple, season_length=season_length)
        assert one_step_rmse(values, params) == fold_scored_rmse(values, params)


class TestKernelBlocks:
    """Blocks shorter than a season: ``_BLOCK_ELEMENTS`` is patched so the
    drawn widths get blocks of one day, of odd lengths and of many days,
    each season is split into several blocks and the last one is cut
    short by the end of the window."""

    @given(
        season_length=st.sampled_from([67, 130, 365]),
        block_days=st.sampled_from([1, 2, 7, 13, 32]),
        extra=st.integers(min_value=1, max_value=150),
        k=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_update_folds(
        self, season_length, block_days, extra, k, width, seed
    ):
        n = 2 * season_length + extra
        assume(n % season_length)
        gen = np.random.default_rng(seed)
        cycle = 6 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        values = 280.0 + cycle + 0.01 * np.arange(n) + gen.normal(0, 2, (k, n))
        alphas, betas, gammas = gen.uniform(0, 1, (3, k, width))
        alphas[0, 0], betas[-1, -1], gammas[0, -1] = 0.0, 1.0, 1.0
        with mock.patch.object(models, "_BLOCK_ELEMENTS", block_days * k * width):
            rmse, level, trend, ring = _one_step_errors_batch(
                values, season_length, alphas, betas, gammas,
                np.empty(season_length * k * width),
            )
        for i in range(k):
            for j in range(width):
                params = SmoothingParams(
                    alphas[i, j], betas[i, j], gammas[i, j],
                    season_length=season_length,
                )
                expected_rmse, state = fold_scored(values[i], params)
                assert rmse[i, j] == expected_rmse
                assert level[i, j] == state.level
                assert trend[i, j] == state.trend
                assert ring[:, i, j].tobytes() == state.seasonal.tobytes()


# edge coefficients: frozen, memoryless, and subnormal
coefficients = st.one_of(st.sampled_from([0.0, 1.0, 1e-320]), st.floats(0.0, 1.0))


class TestHwFit:
    @given(
        season_length=st.integers(min_value=2, max_value=7),
        triple=st.tuples(coefficients, coefficients, coefficients),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_update_fold(self, season_length, triple, data, seed):
        # from exactly two seasons, with no scored day, to five
        n = data.draw(st.integers(2 * season_length, 5 * season_length), label="n")
        gen = np.random.default_rng(seed)
        values = 280.0 + gen.normal(0, 3, n)
        params = SmoothingParams(*triple, season_length=season_length)
        # HWState equality: level, trend, phase and ring bytes
        assert hw_fit(values, params) == fold_scored(values, params)[1]


class TestGridSpec:
    def test_presets_are_valid_and_sized(self):
        assert len(GridSpec.default().alpha_grid) == 11
        assert GridSpec.default().refine_rounds == 2
        assert len(GridSpec.coarse().alpha_grid) == 6
        assert len(GridSpec.fine().alpha_grid) == 21

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GridSpec((), (0.5,), (0.5,))
        with pytest.raises(ValueError):
            GridSpec((0.5, 0.4), (0.5,), (0.5,))
        with pytest.raises(ValueError):
            GridSpec((0.5, 1.2), (0.5,), (0.5,))
        with pytest.raises(ValueError):
            GridSpec((0.5,), (0.5,), (0.5,), refine_rounds=-1)
        with pytest.raises(ValueError):
            GridSpec((0.5,), (0.5,), (0.5,), refine_shrink=1.0)


# one to three distinct points in [0, 1], spaced unevenly
thousandths_axis = st.lists(
    st.integers(0, 1000), min_size=1, max_size=3, unique=True
).map(lambda points: tuple(sorted(p / 1000 for p in points)))


class TestGridSearch:
    def test_constant_series_breaks_tie_lexicographically(self):
        values = np.full(20, 280.0)
        spec = GridSpec((0.0, 0.5, 1.0), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
        result = grid_search(values, spec, season_length=4)
        assert (result.params.alpha, result.params.beta, result.params.gamma) == (
            0.0,
            0.0,
            0.0,
        )
        assert result.in_sample_rmse == 0.0
        assert result.evaluations == 27

    def test_overflowed_scores_raise_non_finite_error(self):
        # every triple's squared error overflows to NaN on these values,
        # and hw_fit raises on the same window
        values = np.array([1e308, -1e308] * 10)
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=2)
        with pytest.raises(NonFiniteError, match="window 0 in-sample error"):
            grid_search(values, GridSpec.coarse(), season_length=2)
        with pytest.raises(NonFiniteError, match="window 0 in-sample error"):
            one_step_rmse(values, params)
        with pytest.raises(NonFiniteError):
            hw_fit(values, params)

    @pytest.mark.filterwarnings("error")
    def test_overflow_near_the_float_limit_warns_nothing(self):
        # the winner, alpha = 0.1, scores inf: an error, not a warning
        with pytest.raises(NonFiniteError, match="window 0 in-sample error"):
            grid_search([1e308, -1e308] * 20, GridSpec.coarse(), 7)

    def test_singleton_grids_return_that_point(self, rng):
        values = 280.0 + rng.normal(0, 3, 25)
        spec = GridSpec((0.5,), (0.1,), (0.3,))
        result = grid_search(values, spec, season_length=4)
        assert result.params.alpha == 0.5
        assert result.params.beta == 0.1
        assert result.params.gamma == 0.3
        assert result.evaluations == 1

    @given(seed=st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_round_zero_matches_exhaustive_oracle(self, seed):
        gen = np.random.default_rng(seed)
        L = 3
        values = 280.0 + gen.normal(0, 2, 2 * L + int(gen.integers(5, 20)))
        axes = tuple(sorted(set(np.round(gen.uniform(0, 1, 3), 3))))
        spec = GridSpec(axes, axes, axes, refine_rounds=0)
        result = grid_search(values, spec, season_length=L)
        (score, a, b, g), count = exhaustive_search(values, spec, L)
        assert result.in_sample_rmse == score
        assert (result.params.alpha, result.params.beta, result.params.gamma) == (a, b, g)
        assert result.evaluations == count

    @given(
        season_length=st.integers(min_value=2, max_value=4),
        axes=st.tuples(thousandths_axis, thousandths_axis, thousandths_axis),
        refine_rounds=st.integers(min_value=1, max_value=3),
        shrink=st.sampled_from([0.25, 0.5, 0.9]),
        extra=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_refinement_rounds_match_plain_oracle(
        self, season_length, axes, refine_rounds, shrink, extra, seed
    ):
        gen = np.random.default_rng(seed)
        n = 2 * season_length + extra
        cycle = 4 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        values = 280.0 + cycle + gen.normal(0, 2, n)
        spec = GridSpec(*axes, refine_rounds=refine_rounds, refine_shrink=shrink)
        result = grid_search(values, spec, season_length)
        (score, a, b, g), count = refined_search(values, spec, season_length)
        assert result.in_sample_rmse == score
        assert (result.params.alpha, result.params.beta, result.params.gamma) == (a, b, g)
        assert result.evaluations == count

    def test_refinement_never_worsens_and_is_deterministic(self, rng):
        values = 280.0 + 10 * np.sin(np.arange(80) * 2 * np.pi / 8) + rng.normal(0, 2, 80)
        axes = tuple(np.round(np.linspace(0, 1, 5), 2))
        scores = []
        for rounds in (0, 1, 2, 3):
            spec = GridSpec(axes, axes, axes, refine_rounds=rounds)
            scores.append(grid_search(values, spec, season_length=8).in_sample_rmse)
        assert all(b <= a + 1e-15 for a, b in zip(scores, scores[1:]))
        spec = GridSpec(axes, axes, axes, refine_rounds=2)
        first = grid_search(values, spec, season_length=8)
        second = grid_search(values, spec, season_length=8)
        assert first == second

    def test_evaluation_budget_respected(self, rng):
        values = 280.0 + rng.normal(0, 2, 40)
        axes = tuple(np.round(np.linspace(0, 1, 4), 3))
        spec = GridSpec(axes, axes, axes, refine_rounds=3)
        result = grid_search(values, spec, season_length=4)
        assert 64 <= result.evaluations <= 64 * 4

    def test_too_short_propagates(self):
        spec = GridSpec((0.5,), (0.5,), (0.5,))
        with pytest.raises(TooShortError):
            grid_search(np.full(8, 280.0), spec, season_length=4)

    def test_refinement_improves_on_noisy_seasonal_series(self, rng):
        t = np.arange(200)
        values = 280.0 + 8 * np.sin(2 * np.pi * t / 10) + rng.normal(0, 1.5, 200)
        coarse = GridSpec.coarse()
        base = grid_search(
            values,
            GridSpec(coarse.alpha_grid, coarse.beta_grid, coarse.gamma_grid),
            season_length=10,
        )
        refined = grid_search(values, coarse, season_length=10)
        assert refined.in_sample_rmse <= base.in_sample_rmse


# centres at and next to both ends of [0, 1], and anywhere between
centres = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1e-3),
    st.floats(1.0 - 1e-3, 1.0),
    st.floats(0.0, 1.0),
)


class TestRefine:
    @given(
        center=centres,
        n_points=st.integers(min_value=2, max_value=25),
        spacing=st.floats(min_value=1e-300, max_value=1.0),
        shrink=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_axis_is_the_unique_clipped_points(self, center, n_points, spacing, shrink):
        (axis,) = tuning._refine([center], [n_points], [spacing], shrink)
        half = spacing * shrink
        points = np.linspace(center - half, center + half, n_points)
        assert axis.tobytes() == np.unique(np.clip(points, 0.0, 1.0)).tobytes()

    def test_refined_search_imports_neither_numpy_ma_nor_subprocess(self):
        # np.unique imports numpy.ma on first use, a cost every tuning
        # process would pay; subprocess is only needed to start a worker
        home = str(Path(tuning.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {home!r}); import numpy as np; "
            "from tempcast import GridSpec, grid_search; "
            "before = set(sys.modules); "
            "grid_search(280.0 + np.sin(np.arange(30.0)), GridSpec.coarse(), 4); "
            "print(sorted({'numpy.ma', 'subprocess'} & (set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"


def assert_state_is_hw_fit(state, values, params):
    """``state`` and hw_fit's both equal the hw_update fold's: hw_fit runs
    the tuner's kernel, so it is no oracle for the tuner's state."""
    expected = fold_scored(values, params)[1]
    assert state == expected
    assert hw_fit(values, params) == expected


class TestFittedState:
    def test_state_takes_part_in_equality(self):
        params = SmoothingParams(0.3, 0.2, 0.7, season_length=2)
        ring = np.array([1.0, -1.0])
        first = FitResult(params, 0.5, 9, HWState(280.0, 0.1, ring, 0))
        same = FitResult(params, 0.5, 9, HWState(280.0, 0.1, ring.copy(), 0))
        other = FitResult(params, 0.5, 9, HWState(280.0, 0.1, -ring, 0))
        assert first == same
        assert hash(first) == hash(same)
        assert first != other

    def test_grid_search_state_is_the_winners_hw_fit(self, rng):
        values = 280.0 + 6 * np.sin(np.arange(60) * 2 * np.pi / 7) + rng.normal(0, 1, 60)
        spec = GridSpec((0.0, 0.4, 0.8), (0.0, 0.5), (0.2, 0.9), refine_rounds=2)
        fit = grid_search(values, spec, season_length=7)
        assert_state_is_hw_fit(fit.state, values, fit.params)
        assert hw_forecast(fit.state, 3, fit.params) == hw_forecast(
            hw_fit(values, fit.params), 3, fit.params
        )


boundary_axis = st.lists(
    st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), max_size=3, unique=True
).map(lambda inner: tuple(sorted({0.0, 1.0, *inner})))


class TestGridSearchWindows:
    @given(
        season_length=st.sampled_from([2, 3, 5]),
        n_windows=st.integers(min_value=2, max_value=5),
        extra=st.integers(min_value=1, max_value=12),
        axes=st.tuples(boundary_axis, boundary_axis, boundary_axis),
        refine_rounds=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=40, deadline=None)
    def test_packing_does_not_change_results(
        self, season_length, n_windows, extra, axes, refine_rounds, seed
    ):
        gen = np.random.default_rng(seed)
        n = 2 * season_length + extra
        cycle = 5 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        windows = 280.0 + cycle + gen.normal(0, gen.uniform(0, 4), (n_windows, n))
        spec = GridSpec(*axes, refine_rounds=refine_rounds)
        many = grid_search_windows(windows, spec, season_length)
        assert len(many) == n_windows
        for window, fit in zip(windows, many):
            alone = grid_search(window, spec, season_length)
            assert fit.params == alone.params
            assert fit.in_sample_rmse == alone.in_sample_rmse
            assert fit.evaluations == alone.evaluations
            assert_state_is_hw_fit(fit.state, window, fit.params)

    @given(
        season_length=st.sampled_from([2, 3, 5]),
        n_windows=st.integers(min_value=2, max_value=5),
        extra=st.integers(min_value=1, max_value=12),
        axes=st.tuples(boundary_axis, boundary_axis, boundary_axis),
        refine_rounds=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=30, deadline=None)
    def test_windows_per_chunk_do_not_change_results(
        self, season_length, n_windows, extra, axes, refine_rounds, seed
    ):
        gen = np.random.default_rng(seed)
        n = 2 * season_length + extra
        cycle = 5 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        windows = 280.0 + cycle + gen.normal(0, gen.uniform(0, 4), (n_windows, n))
        spec = GridSpec(*axes, refine_rounds=refine_rounds)
        # one first-round sweep per chunk, then every window of a round in one
        with mock.patch.object(tuning, "_CHUNK_COLUMNS", 1):
            narrow = grid_search_windows(windows, spec, season_length)
        with mock.patch.object(tuning, "_CHUNK_COLUMNS", 10**6):
            wide = grid_search_windows(windows, spec, season_length)
        assert narrow == wide
        for one, many in zip(narrow, wide):
            assert one.state.level == many.state.level
            assert one.state.trend == many.state.trend
            assert one.state.seasonal.tobytes() == many.state.seasonal.tobytes()

    @pytest.fixture
    def workers(self, monkeypatch):
        """Split every search into three processes, whatever its size and
        the host's cores, and collect the worker processes started."""
        started = []
        popen = subprocess.Popen

        def spy(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", spy)
        monkeypatch.setattr(tuning, "_SHARE_TRIPLE_STEPS", 1)
        monkeypatch.setattr(tuning, "_usable_cores", lambda: 3)
        return started

    @staticmethod
    def assert_reaped(workers):
        assert len(workers) == 2
        for worker in workers:
            assert worker.returncode is not None  # set once waited for
            assert worker.stdout.closed

    def test_split_across_processes_does_not_change_results(self, rng, workers):
        season_length, n = 7, 30
        cycle = 5 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        windows = 280.0 + cycle + rng.normal(0, 2, (5, n))
        spec = GridSpec((0.0, 0.3, 1.0), (0.0, 0.5), (0.1, 0.2, 0.9), refine_rounds=2)
        with mock.patch.object(tuning, "_usable_cores", lambda: 1):
            alone = grid_search_windows(windows, spec, season_length)
        assert workers == []
        split = grid_search_windows(windows, spec, season_length)
        self.assert_reaped(workers)
        assert [worker.returncode for worker in workers] == [0, 0]
        assert split == alone
        for one, other in zip(split, alone):
            assert one.state.seasonal.tobytes() == other.state.seasonal.tobytes()

    def test_overflow_in_last_share_names_its_window(self, rng, workers):
        windows = [280.0 + rng.normal(0, 2, 20) for _ in range(3)]
        windows.append(np.array([1e308, -1e308] * 10))
        # shares: window 0, window 1, windows 2 and 3
        with pytest.raises(NonFiniteError, match="window 3 in-sample error"):
            grid_search_windows(windows, GridSpec.coarse(), season_length=2)
        self.assert_reaped(workers)

    def test_failing_worker_raises_and_is_reaped(self, rng, workers, monkeypatch):
        monkeypatch.setattr(tuning, "_WORKER_ENTRY", "raise SystemExit(1)")
        with pytest.raises(ChildProcessError, match="exited with status 1"):
            grid_search_windows(280.0 + rng.normal(0, 2, (3, 20)), GridSpec.coarse(), 2)
        self.assert_reaped(workers)

    def test_interrupted_parent_kills_its_workers(self, rng, workers, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(tuning, "_tune_share", interrupted)
        with pytest.raises(KeyboardInterrupt):
            grid_search_windows(280.0 + rng.normal(0, 2, (3, 20)), GridSpec.coarse(), 2)
        self.assert_reaped(workers)
        # killed while still starting up, not left to finish
        assert [worker.returncode for worker in workers] == [-signal.SIGKILL] * 2

    @pytest.mark.parametrize(
        "preset, round_zero",
        [(GridSpec.default, [(2, 1331), (1, 1331)]), (GridSpec.fine, [(1, 9261)] * 3)],
        ids=["default", "fine"],
    )
    def test_round_zero_chunk_widths(self, rng, preset, round_zero):
        calls = []

        def spy(values, season_length, alphas, *rest, **kwargs):
            calls.append(alphas.shape)
            return _one_step_errors_batch(values, season_length, alphas, *rest, **kwargs)

        spec = dataclasses.replace(preset(), refine_rounds=0)
        values = 280.0 + rng.normal(0, 2, (3, 9))
        with mock.patch.object(tuning, "_one_step_errors_batch", spy):
            grid_search_windows(values, spec, season_length=4)
        assert calls == round_zero

    def test_refinement_round_is_one_padded_block(self, rng):
        """Windows 0 and 1 refine to one point and the others to 27, so
        the refinement round is one block 27 wide and each call takes the
        next 60 // 27 windows: the narrow windows get no narrower call."""
        windows = 280.0 + rng.normal(0, 2, (5, 12))
        axis = (0.1, 0.5, 0.9)
        spec = GridSpec(axis, axis, axis, refine_rounds=1)
        real_refine = tuning._refine
        refined = itertools.count()
        widths = []

        def cut_first_two(*args):
            axes = real_refine(*args)
            if next(refined) < 2:
                axes = [points[:1] for points in axes]
            widths.append(math.prod(points.size for points in axes))
            return axes

        calls = []

        def spy(values, season_length, alphas, *rest):
            calls.append((values.copy(), alphas.copy()))
            return _one_step_errors_batch(values, season_length, alphas, *rest)

        with mock.patch.object(tuning, "_CHUNK_COLUMNS", 60), mock.patch.object(
            tuning, "_refine", cut_first_two
        ), mock.patch.object(tuning, "_one_step_errors_batch", spy):
            fits = grid_search_windows(windows, spec, season_length=4)
        assert widths == [1, 1, 27, 27, 27]
        # both rounds: calls of 60 // 27 windows, in order, 27 columns each
        assert [alphas.shape for _, alphas in calls] == [(2, 27), (2, 27), (1, 27)] * 2
        for lo, (values, _) in zip(range(0, 5, 2), calls[3:]):
            assert np.array_equal(values, windows[lo : lo + 2])
        # a one-point sweep is padded by repeating it
        narrow = calls[3][1][:2]
        assert (narrow == narrow[:, :1]).all()
        assert [fit.evaluations for fit in fits] == [27 + w for w in widths]

    def test_accepts_time_series_windows(self, make_series, rng):
        values = 280.0 + rng.normal(0, 2, (2, 20))
        spec = GridSpec((0.0, 0.5, 1.0), (0.0, 0.5), (0.5,), refine_rounds=1)
        from_series = grid_search_windows([make_series(v) for v in values], spec, 4)
        assert from_series == grid_search_windows(values, spec, 4)

    def test_no_windows_gives_no_results(self):
        assert grid_search_windows([], GridSpec.coarse(), season_length=4) == ()

    def test_unequal_lengths_rejected(self):
        with pytest.raises(LengthMismatchError):
            grid_search_windows(
                [np.full(20, 280.0), np.full(21, 280.0)], GridSpec.coarse(), 4
            )

    def test_too_short_propagates(self):
        with pytest.raises(TooShortError):
            grid_search_windows([np.full(8, 280.0)] * 2, GridSpec.coarse(), 4)

    @pytest.mark.parametrize("season_length", [1, 0, -2])
    def test_season_below_two_rejected(self, season_length):
        with pytest.raises(ValueError, match="season_length must be at least 2"):
            grid_search_windows([np.full(20, 280.0)], GridSpec.coarse(), season_length)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_search_rejects(self, bad):
        values = np.full(20, 280.0)
        values[11] = bad
        with pytest.raises(NonFiniteError, match="value 11"):
            grid_search(values, GridSpec.coarse(), season_length=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_search_windows_rejects(self, bad):
        windows = np.full((3, 20), 280.0)
        windows[2, 5] = bad
        with pytest.raises(NonFiniteError, match="window 2 value 5"):
            grid_search_windows(windows, GridSpec.coarse(), season_length=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_step_rmse_rejects(self, bad):
        values = np.full(20, 280.0)
        values[0] = bad
        params = SmoothingParams(0.3, 0.2, 0.7, season_length=4)
        with pytest.raises(NonFiniteError):
            one_step_rmse(values, params)
