import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcast import (
    GridSpec,
    SmoothingParams,
    grid_search,
    hw_fit,
    hw_forecast,
)
from tempcast.errors import NonFiniteError, TooShortError
from tempcast import models, tuning
from tempcast.models import (
    HWState,
    _best_of_batch,
    _initial_state,
    _kernel,
    _one_step_errors_batch,
    hw_update,
    init_state,
)
from tempcast.tuning import FitResult, one_step_rmse


def fold_scored(values, params, start=None):
    """Reference objective and final state: replay with hw_update from
    ``start``, by default init_state's, score lead-1 forecasts from the
    third season onward, accumulating in time order. A window of exactly
    two seasons scores no day: NaN."""
    L = params.season_length
    state = init_state(values, params) if start is None else start
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


@pytest.fixture
def initial_state_calls(monkeypatch):
    """The season length of every ``_initial_state`` call, whichever
    module looks it up."""
    calls = []
    initial_state = models._initial_state

    def spy(values, season_length):
        calls.append(season_length)
        return initial_state(values, season_length)

    for module in (models, tuning):
        monkeypatch.setattr(module, "_initial_state", spy)
    return calls


def refined_search(values, spec, season_length):
    """Plain-Python oracle for every round: each round after the first
    lays each axis's cardinality of points across ±half the spacing
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
                half = spacing * 0.5
                if size == 1 or half == 0.0:
                    axes.append([center])
                else:
                    points = np.linspace(center - half, center + half, size)
                    axes.append(np.unique(np.clip(points, 0.0, 1.0)).tolist())
            spacings = [
                2.0 * (spacing * 0.5) / (size - 1) if size > 1 else 0.0
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
    """The kernel against hw_update folds, column by column: widths below,
    at and past the 4- and 8-lane vectors' lengths, seasons of 2 and 3
    that put two days of one 4-day pass on one ring row, and windows from
    exactly two seasons (no day scored, so a NaN RMSE) to beyond the last
    season boundary."""

    @given(
        season_length=st.sampled_from([2, 3, 67, 130, 365]),
        extra=st.integers(min_value=0, max_value=150),
        width=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 17]),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_update_folds(self, season_length, extra, width, seed):
        n = 2 * season_length + extra
        gen = np.random.default_rng(seed)
        cycle = 6 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        values = 280.0 + cycle + 0.01 * np.arange(n) + gen.normal(0, 2, n)
        alphas, betas, gammas = gen.uniform(0, 1, (3, width))
        alphas[0], betas[-1], gammas[-1] = 0.0, 1.0, 1.0
        rmse, level, trend, ring = _one_step_errors_batch(
            values, _initial_state(values, season_length), alphas, betas, gammas
        )
        for j in range(width):
            params = SmoothingParams(
                alphas[j], betas[j], gammas[j], season_length=season_length
            )
            expected_rmse, state = fold_scored(values, params)
            assert np.array_equal(rmse[j], expected_rmse, equal_nan=True)
            assert math.isnan(rmse[j]) == (extra == 0)
            assert level[j] == state.level
            assert trend[j] == state.trend
            assert ring[:, j].tobytes() == state.seasonal.tobytes()

    def test_folds_from_the_start_it_is_handed(self):
        # not the window's own estimate: level and trend moved, ring reversed
        values = 280.0 + np.sin(np.arange(40.0)) + 0.01 * np.arange(40.0)
        estimate = init_state(values, SmoothingParams(0.5, 0.5, 0.5, 7))
        start = HWState(
            estimate.level + 3.0, estimate.trend - 0.25, estimate.seasonal[::-1], 0
        )
        alphas, betas, gammas = np.random.default_rng(5).uniform(0, 1, (3, 9))
        rmse, level, trend, ring = _one_step_errors_batch(
            values, start, alphas, betas, gammas
        )
        for j in range(9):
            params = SmoothingParams(alphas[j], betas[j], gammas[j], 7)
            expected_rmse, state = fold_scored(values, params, start)
            assert expected_rmse != fold_scored(values, params)[0]
            assert rmse[j].tobytes() == np.float64(expected_rmse).tobytes()
            assert level[j].tobytes() == np.float64(state.level).tobytes()
            assert trend[j].tobytes() == np.float64(state.trend).tobytes()
            assert ring[:, j].tobytes() == state.seasonal.tobytes()

    def test_sets_its_own_float_policy(self):
        # these values overflow, and their squared errors are inf - inf;
        # the caller's policy would raise on both
        values = np.array([1e308, -1e308] * 10)
        with np.errstate(over="raise", invalid="raise"):
            start = _initial_state(values, 2)
            rmse, _, _, _ = _one_step_errors_batch(values, start, *np.full((3, 1), 0.5))
        assert np.isnan(rmse).all()


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

    def test_initializes_once(self, initial_state_calls):
        values = 280.0 + np.sin(np.arange(40.0))
        hw_fit(values, SmoothingParams(0.3, 0.1, 0.2, 7))
        assert initial_state_calls == [7]


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

    def test_negative_zero_is_stored_as_zero(self):
        spec = GridSpec((-0.0, 0.5), (-0.0,), (-0.0,), refine_rounds=1)
        axes = (*spec.alpha_grid, *spec.beta_grid, *spec.gamma_grid)
        assert [math.copysign(1.0, v) for v in axes] == [1.0] * 4
        # a refined one-point axis keeps the stored zero
        fit = grid_search(280.0 + np.sin(np.arange(30.0)), spec, season_length=4)
        assert math.copysign(1.0, fit.params.beta) == 1.0


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
        with pytest.raises(NonFiniteError, match="^in-sample error is not finite$"):
            grid_search(values, GridSpec.coarse(), season_length=2)
        with pytest.raises(NonFiniteError, match="^in-sample error is not finite$"):
            one_step_rmse(values, params)
        with pytest.raises(NonFiniteError):
            hw_fit(values, params)

    @pytest.mark.filterwarnings("error")
    def test_overflow_near_the_float_limit_warns_nothing(self):
        # the winner, alpha = 0.1, scores inf: an error, not a warning
        with pytest.raises(NonFiniteError, match="^in-sample error is not finite$"):
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
        extra=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_refinement_rounds_match_plain_oracle(
        self, season_length, axes, refine_rounds, extra, seed
    ):
        gen = np.random.default_rng(seed)
        n = 2 * season_length + extra
        cycle = 4 * np.sin(np.arange(n) * 2 * np.pi / season_length)
        values = 280.0 + cycle + gen.normal(0, 2, n)
        spec = GridSpec(*axes, refine_rounds=refine_rounds)
        result = grid_search(values, spec, season_length)
        (score, a, b, g), count = refined_search(values, spec, season_length)
        assert result.in_sample_rmse == score
        assert (result.params.alpha, result.params.beta, result.params.gamma) == (a, b, g)
        assert result.evaluations == count

    @pytest.mark.parametrize("preset", ["coarse", "default", "fine"])
    def test_shipped_presets_match_plain_oracle(self, preset):
        # the presets' own spacings, 0.2, 0.1 and 0.05, each round spanning
        # ±half the last spacing and clipped where a coefficient sits on
        # the grid's edge: here gamma ends at 0, and beta at 1 from the
        # default preset on
        values = [280.7, 281.6, 280.7, 277.4, 281.8, 280.9, 278.9]
        spec = getattr(GridSpec, preset)()
        result = grid_search(values, spec, season_length=2)
        (score, a, b, g), count = refined_search(values, spec, 2)
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

    def test_initializes_once_before_every_round(self, rng, initial_state_calls):
        values = 280.0 + np.sin(np.arange(40.0)) + rng.normal(0, 0.5, 40)
        axis = (0.0, 0.5, 1.0)
        fit = grid_search(values, GridSpec(axis, axis, axis, refine_rounds=2), 7)
        assert fit.evaluations > 27  # the refinement rounds ran
        assert initial_state_calls == [7]

    def test_too_short_propagates(self):
        spec = GridSpec((0.5,), (0.5,), (0.5,))
        with pytest.raises(TooShortError):
            grid_search(np.full(8, 280.0), spec, season_length=4)

    @pytest.mark.parametrize("season_length", [1, 0, -2])
    def test_season_below_two_rejected(self, season_length):
        with pytest.raises(ValueError, match="season_length must be at least 2"):
            grid_search(np.full(20, 280.0), GridSpec.coarse(), season_length)

    def test_accepts_a_time_series(self, make_series, rng):
        values = 280.0 + rng.normal(0, 2, 20)
        spec = GridSpec((0.0, 0.5, 1.0), (0.0, 0.5), (0.5,), refine_rounds=1)
        assert grid_search(make_series(values), spec, 4) == grid_search(values, spec, 4)

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
        # a one-point axis always has spacing 0, and a wider one may shrink to it
        n_points_spacing=st.tuples(st.just(1), st.just(0.0))
        | st.tuples(
            st.integers(min_value=2, max_value=25),
            st.just(0.0) | st.floats(min_value=1e-300, max_value=1.0),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_axis_is_the_unique_clipped_points(self, center, n_points_spacing):
        n_points, spacing = n_points_spacing
        (axis,), (next_spacing,) = tuning._refine([center], [n_points], [spacing])
        half = spacing * 0.5
        points = np.linspace(center - half, center + half, n_points)
        assert axis.tobytes() == np.unique(np.clip(points, 0.0, 1.0)).tobytes()
        if spacing == 0.0:
            assert axis.tobytes() == np.array([center]).tobytes()
        # the unclipped points' step, clipping or not; 0 for one point
        step = 2.0 * half / (n_points - 1) if n_points > 1 else 0.0
        assert np.float64(next_spacing).tobytes() == np.float64(step).tobytes()

    def test_refined_search_imports_neither_numpy_ma_nor_subprocess(self):
        # np.unique imports numpy.ma on first use, a cost every search
        # would pay; subprocess and tempfile are only needed to build the
        # kernel, which is built here first
        _kernel()
        home = str(Path(tuning.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {home!r}); import numpy as np; "
            "from tempcast import GridSpec, grid_search; "
            "before = set(sys.modules); "
            "grid_search(280.0 + np.sin(np.arange(30.0)), GridSpec.coarse(), 4); "
            "print(sorted({'numpy.ma', 'subprocess', 'tempfile'} "
            "& (set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"


def smallest_tied_triple(scores, a, b, g):
    """The winner rule _best_of_batch once spelt out: the smallest
    ``(score, alpha, beta, gamma, column)`` among the columns with the
    lowest score, NaN scores ranking last."""
    low = np.fmin.reduce(scores)
    tied = np.flatnonzero((scores == low) | np.isnan(low))
    j = min(tied.tolist(), key=lambda j: (a[j], b[j], g[j], j))
    return float(scores[j]), float(a[j]), float(b[j]), float(g[j]), j


class TestBestOfBatch:
    @given(
        axes=st.tuples(thousandths_axis, thousandths_axis, thousandths_axis),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_lowest_column_is_the_smallest_tied_triple(self, axes, data):
        # the columns _sweep lays out: gamma fastest
        a, b, g = (grid.ravel() for grid in np.meshgrid(*axes, indexing="ij"))
        # few distinct scores, so ties, NaN and infinities are common
        scores = np.array(data.draw(st.lists(
            st.sampled_from([0.5, 1.0, math.nan, math.inf, -math.inf]),
            min_size=a.size, max_size=a.size,
        )))
        got = _best_of_batch(scores, a, b, g)
        expected = smallest_tied_triple(scores, a, b, g)
        assert got[-1] == expected[-1]
        assert np.array(got[:-1]).tobytes() == np.array(expected[:-1]).tobytes()


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


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_search_rejects(self, bad):
        values = np.full(20, 280.0)
        values[11] = bad
        with pytest.raises(NonFiniteError, match=f"^value 11 is not finite: {bad!r}$"):
            grid_search(values, GridSpec.coarse(), season_length=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_step_rmse_rejects(self, bad):
        values = np.full(20, 280.0)
        values[0] = bad
        params = SmoothingParams(0.3, 0.2, 0.7, season_length=4)
        with pytest.raises(NonFiniteError):
            one_step_rmse(values, params)
