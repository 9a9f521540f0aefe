import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcast import (
    UNITS,
    GridSpec,
    HWState,
    RawRecordSet,
    SmoothingParams,
    TimeSeries,
    average_forecast,
    clean_report,
    grid_search,
    hw_fit,
    hw_forecast,
    parse_cdo_csv,
    persistence_forecast,
    read_csv,
)
from tempcast.errors import (
    ArgumentError,
    EmptyInputError,
    InvalidLeadError,
    NonFiniteError,
    TempcastError,
    TooShortError,
)
from tempcast.backtest import (
    MODEL_NAMES,
    BacktestConfig,
    ExperimentResult,
    collect_report,
    run_backtest,
    run_experiment,
)
from tempcast.models import hw_update, init_state
from tempcast.series import drop_leap_days, rmse, validate_series
from tempcast.tuning import FitResult, one_step_rmse

unit_floats = st.floats(min_value=0.0, max_value=1.0)
param_triples = st.tuples(unit_floats, unit_floats, unit_floats)


def linear_plus_cycle(n, season_length, slope, seed):
    gen = np.random.default_rng(seed)
    cycle = gen.normal(0.0, 2.0, season_length)
    cycle = cycle - cycle.mean()

    def truth(i):
        return 280.0 + slope * i + cycle[i % season_length]

    return np.array([truth(i) for i in range(n)]), truth


def textbook_fold(values, alpha, beta, gamma, L, level, trend, seasonal):
    """Independent reference fold, growing the correction history.

    Returns (level, trend, ring, history) where history[i] is the
    correction written while consuming values[i].
    """
    ring = list(seasonal)
    history = []
    for t, a in enumerate(values):
        c_old = ring[t % L]
        new_level = alpha * (a - c_old) + (1 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1 - beta) * trend
        c_new = gamma * (a - new_level) + (1 - gamma) * c_old
        ring[t % L] = c_new
        history.append(c_new)
        level = new_level
    return level, trend, ring, history


class TestSmoothingParams:
    def test_bounds_enforced(self):
        SmoothingParams(0.0, 1.0, 0.5, season_length=2)
        with pytest.raises(ValueError):
            SmoothingParams(-0.1, 0.5, 0.5, season_length=4)
        with pytest.raises(ValueError):
            SmoothingParams(0.5, 1.1, 0.5, season_length=4)
        with pytest.raises(ValueError):
            SmoothingParams(0.5, 0.5, 0.5, season_length=1)


class TestInitState:
    def test_two_identical_seasons(self):
        state = init_state(
            [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0],
            SmoothingParams(0.5, 0.5, 0.5, season_length=4),
        )
        assert state.level == pytest.approx(2.5, abs=1e-12)
        assert state.trend == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(state.seasonal, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)
        assert state.phase == 0

    def test_linear_ramp_with_cycle_recovers_generators(self):
        # 10,10,12,12 decomposes as 9.5 + i + [0.5, -0.5][i % 2]; the
        # initializer must hand back those generating components (level
        # positioned one step before the first observation) so that a
        # subsequent update pass is a fixed point.
        state = init_state(
            [10.0, 10.0, 12.0, 12.0], SmoothingParams(0.5, 0.5, 0.5, season_length=2)
        )
        assert state.trend == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.seasonal, [0.5, -0.5], atol=1e-12)
        assert state.level == pytest.approx(8.5, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            init_state(np.zeros(7), SmoothingParams(0.5, 0.5, 0.5, season_length=4))

    @given(
        season_length=st.integers(min_value=2, max_value=12),
        n_seasons=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_ring_sums_to_zero(self, season_length, n_seasons, seed):
        gen = np.random.default_rng(seed)
        values = 280.0 + gen.normal(0.0, 5.0, season_length * n_seasons)
        params = SmoothingParams(0.2, 0.1, 0.3, season_length=season_length)
        state = init_state(values, params)
        assert abs(state.seasonal.sum()) <= 1e-6 * season_length


class TestHwUpdate:
    def test_alpha_one_copies_deseasonalized_observation(self):
        params = SmoothingParams(1.0, 0.0, 0.0, season_length=4)
        state = HWState(level=250.0, trend=0.0, seasonal=np.zeros(4), phase=0)
        updated = hw_update(state, 300.0, params)
        assert updated.level == 300.0
        assert updated.trend == 0.0
        np.testing.assert_array_equal(updated.seasonal, np.zeros(4))

    def test_zero_coefficients_reduce_to_drift(self):
        params = SmoothingParams(0.0, 0.0, 0.0, season_length=4)
        state = HWState(level=280.0, trend=0.5, seasonal=np.zeros(4), phase=0)
        updated = hw_update(state, 999.0 / 3.0, params)
        assert updated.level == 280.5
        assert updated.trend == 0.5
        np.testing.assert_array_equal(updated.seasonal, np.zeros(4))

    def test_hand_worked_half_coefficients(self):
        # s = .5*(14-2) + .5*(10+1) = 11.5; b = .5*1.5 + .5*1 = 1.25;
        # c0 = .5*(14-11.5) + .5*2 = 2.25
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=2)
        state = HWState(level=10.0, trend=1.0, seasonal=np.array([2.0, -2.0]), phase=0)
        updated = hw_update(state, 14.0, params)
        assert updated.level == 11.5
        assert updated.trend == 1.25
        np.testing.assert_array_equal(updated.seasonal, [2.25, -2.0])
        assert updated.phase == 1

    def test_pure_update_leaves_input_state_alone(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=2)
        ring = np.array([2.0, -2.0])
        state = HWState(level=10.0, trend=1.0, seasonal=ring, phase=0)
        hw_update(state, 14.0, params)
        np.testing.assert_array_equal(state.seasonal, [2.0, -2.0])
        assert state.level == 10.0 and state.trend == 1.0 and state.phase == 0

    def test_non_finite_observation_rejected(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=2)
        state = HWState(level=10.0, trend=1.0, seasonal=np.zeros(2), phase=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteError):
                hw_update(state, bad, params)

    def test_ring_length_must_match_params(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        state = HWState(level=10.0, trend=1.0, seasonal=np.zeros(2), phase=0)
        with pytest.raises(ValueError):
            hw_update(state, 280.0, params)

    @given(
        season_length=st.integers(min_value=2, max_value=9),
        triple=param_triples,
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_each_slot_rewritten_exactly_once_per_season(
        self, season_length, triple, seed
    ):
        gen = np.random.default_rng(seed)
        params = SmoothingParams(*triple, season_length=season_length)
        state = HWState(
            level=280.0,
            trend=0.1,
            seasonal=gen.normal(0, 1, season_length),
            phase=0,
        )
        seen = state
        touched_per_step = []
        for obs in 280.0 + gen.normal(0, 3, season_length):
            nxt = hw_update(seen, float(obs), params)
            touched = np.flatnonzero(nxt.seasonal != seen.seasonal)
            touched_per_step.append(
                touched[0] if touched.size else seen.phase
            )
            assert touched.size <= 1
            seen = nxt
        assert sorted(touched_per_step) == list(range(season_length))
        assert seen.phase == state.phase


class TestHwFit:
    @pytest.mark.parametrize(
        "bad, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
    )
    def test_non_finite_window_raises_before_initializing(self, bad, shown):
        # Initializing on the window first would warn (inf - inf); pytest
        # turns that warning into a failure.
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=7)
        with pytest.raises(NonFiniteError, match=f"^observation is not finite: {shown}$"):
            hw_fit([280.0] * 20 + [bad, 281.0], params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values, triple, what",
        [
            ([1e308] * 21, (0.1, 0.1, 0.1), "initial state"),
            ([1e308, -1e308] * 20, (1.0, 0.0, 0.0), "fitted state"),
        ],
        ids=["initial-overflows", "fold-overflows"],
    )
    def test_state_that_is_not_finite_is_non_finite_error(self, values, triple, what):
        params = SmoothingParams(*triple, season_length=7)
        with pytest.raises(NonFiniteError, match=f"^{what} is not finite$"):
            hw_fit(values, params)

    def test_deterministic_bit_for_bit(self, rng):
        values = 280.0 + rng.normal(0, 3, 60)
        params = SmoothingParams(0.4, 0.2, 0.6, season_length=5)
        one = hw_fit(values, params)
        two = hw_fit(values, params)
        assert one.level == two.level and one.trend == two.trend
        np.testing.assert_array_equal(one.seasonal, two.seasonal)

    def test_matches_textbook_fold(self, rng):
        values = 280.0 + rng.normal(0, 3, 47)
        params = SmoothingParams(0.35, 0.15, 0.55, season_length=6)
        state = hw_fit(values, params)
        init = init_state(values, params)
        level, trend, ring, _ = textbook_fold(
            values.tolist(), 0.35, 0.15, 0.55, 6,
            init.level, init.trend, init.seasonal,
        )
        assert state.level == level
        assert state.trend == trend
        np.testing.assert_array_equal(state.seasonal, ring)

    def test_noiseless_signal_is_fixed_point(self, trend_seasonal):
        cycle = [1.0, -1.0, 2.0, -2.0]
        n = 40
        values, truth = trend_seasonal(n, 4, base=100.0, slope=0.5, cycle=cycle)
        for triple in [(0, 0, 0), (1, 1, 1), (0.3, 0.7, 0.2)]:
            params = SmoothingParams(*triple, season_length=4)
            state = hw_fit(values, params)
            assert state.level == pytest.approx(100.0 + 0.5 * (n - 1), abs=1e-6)
            assert state.trend == pytest.approx(0.5, abs=1e-6)

    def test_too_short_propagates(self):
        with pytest.raises(
            TooShortError, match="^need at least 8 observations to initialize, got 7$"
        ):
            hw_fit(np.zeros(7), SmoothingParams(0.5, 0.5, 0.5, season_length=4))

    @pytest.mark.filterwarnings("error")
    def test_two_seasons_fit_without_a_warning(self):
        # no day is scored, so the kernel's unused RMSE is 0 / 0
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        state = hw_fit(np.full(8, 280.0), params)
        assert state == HWState(280.0, 0.0, np.zeros(4), 0)

    @given(
        triple=param_triples,
        season_length=st.sampled_from([3, 4, 7]),
        extra=st.integers(min_value=0, max_value=9),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_recovery_for_any_coefficients(
        self, triple, season_length, extra, seed
    ):
        n = 2 * season_length + extra
        values, truth = linear_plus_cycle(n, season_length, slope=0.05, seed=seed)
        params = SmoothingParams(*triple, season_length=season_length)
        state = hw_fit(values, params)
        for m in range(1, 2 * season_length + 1):
            assert hw_forecast(state, m, params) == pytest.approx(
                truth(n - 1 + m), abs=1e-6
            )

    @given(
        shift=st.floats(min_value=-30.0, max_value=30.0),
        triple=param_triples,
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_equivariance(self, shift, triple, seed):
        gen = np.random.default_rng(seed)
        L = 5
        values = 280.0 + gen.normal(0, 3, 3 * L + 2)
        params = SmoothingParams(*triple, season_length=L)
        base_init = init_state(values, params)
        moved_init = init_state(values + shift, params)
        assert moved_init.level == pytest.approx(base_init.level + shift, abs=1e-9)
        assert moved_init.trend == pytest.approx(base_init.trend, abs=1e-9)
        np.testing.assert_allclose(
            moved_init.seasonal, base_init.seasonal, atol=1e-9
        )
        base_fit = hw_fit(values, params)
        moved_fit = hw_fit(values + shift, params)
        for m in (1, 3, 2 * L):
            assert hw_forecast(moved_fit, m, params) == pytest.approx(
                hw_forecast(base_fit, m, params) + shift, abs=1e-9
            )
        assert persistence_forecast(values + shift, 1) == pytest.approx(
            persistence_forecast(values, 1) + shift, abs=1e-9
        )
        assert average_forecast(values + shift, 1) == pytest.approx(
            average_forecast(values, 1) + shift, abs=1e-9
        )


class TestHwForecast:
    def make_state(self):
        return HWState(
            level=280.0, trend=0.5, seasonal=np.array([1.0, -1.0, 2.0, -2.0]), phase=0
        )

    def test_lead_one(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        assert hw_forecast(self.make_state(), 1, params) == 281.5

    def test_seasonal_index_wraps(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        assert hw_forecast(self.make_state(), 5, params) == 283.5

    def test_degenerate_state_is_flat(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        state = HWState(level=280.0, trend=0.0, seasonal=np.zeros(4), phase=2)
        for m in range(1, 9):
            assert hw_forecast(state, m, params) == 280.0

    def test_invalid_lead(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        with pytest.raises(InvalidLeadError):
            hw_forecast(self.make_state(), 0, params)

    @pytest.mark.parametrize(
        "lead",
        [1.5, 2.0, -1, np.array([1.0, 2.0]), np.array([1, 0, 2]), np.array([[3], [-2]])],
        ids=["half", "float", "negative", "float-array", "zero-in-array", "negative-2d"],
    )
    def test_non_integer_or_nonpositive_leads_raise(self, lead):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        with pytest.raises(InvalidLeadError):
            hw_forecast(self.make_state(), lead, params)

    @pytest.mark.parametrize("lead", [3, np.arange(1, 8)], ids=["scalar", "array"])
    def test_ring_length_must_match_params(self, lead):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=7)
        state = HWState(level=280.0, trend=0.5, seasonal=np.zeros(5), phase=0)
        with pytest.raises(ValueError, match="state ring has 5 slots, params expect 7"):
            hw_forecast(state, lead, params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "level, trend, lead",
        [
            (math.nan, 0.0, 1),
            (280.0, math.inf, np.arange(1, 4)),
            (1e308, 1e308, 2),
        ],
        ids=["nan-level", "infinite-trend", "overflow"],
    )
    def test_forecast_that_is_not_finite_is_non_finite_error(self, level, trend, lead):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        state = HWState(level=level, trend=trend, seasonal=np.zeros(4), phase=0)
        with pytest.raises(NonFiniteError, match="smoother forecast is not finite"):
            hw_forecast(state, lead, params)

    @pytest.mark.parametrize("lead", [2**63 - 1, np.array([2**63 - 1, 2**63 - 2])])
    def test_lead_at_the_int64_limit_reads_its_own_slot(self, lead):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=7)
        state = HWState(level=280.0, trend=0.0, seasonal=np.arange(7.0), phase=3)
        slots = [(3 + m - 1) % 7 for m in np.atleast_1d(lead).tolist()]
        got = hw_forecast(state, lead, params)
        assert np.atleast_1d(got).tolist() == [280.0 + slot for slot in slots]

    def test_array_of_leads_keeps_its_shape(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=4)
        leads = np.array([[1, 5], [2, 6]])
        got = hw_forecast(self.make_state(), leads, params)
        assert got.shape == (2, 2)
        assert got.tolist() == [[281.5, 283.5], [280.0, 282.0]]
        assert hw_forecast(self.make_state(), leads[:0], params).size == 0

    def test_unsigned_leads_match_signed(self):
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=400)
        state = HWState(level=280.0, trend=0.5, seasonal=np.arange(400.0), phase=300)
        leads = np.arange(1, 256)
        got = hw_forecast(state, leads.astype(np.uint8), params)
        assert got.tolist() == hw_forecast(state, leads, params).tolist()

    @given(
        season_length=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_array_leads_match_scalar_calls_bit_for_bit(self, season_length, data):
        finite = st.floats(min_value=-1e4, max_value=1e4, allow_subnormal=False)
        state = HWState(
            level=data.draw(finite),
            trend=data.draw(finite),
            seasonal=data.draw(
                st.lists(finite, min_size=season_length, max_size=season_length)
            ),
            phase=data.draw(st.integers(min_value=0, max_value=season_length - 1)),
        )
        params = SmoothingParams(0.5, 0.5, 0.5, season_length=season_length)
        # leads run past several seasons, in any order and with repeats
        leads = data.draw(
            st.lists(st.integers(min_value=1, max_value=5 * season_length + 3),
                     min_size=1, max_size=40)
        )
        got = hw_forecast(state, np.array(leads), params).tolist()
        want = [hw_forecast(state, m, params) for m in leads]
        assert [repr(v) for v in got] == [repr(v) for v in want]

    @given(
        m=st.integers(min_value=1, max_value=30),
        season_length=st.sampled_from([2, 4, 7]),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_season_apart_differs_by_season_of_trend(
        self, m, season_length, seed
    ):
        gen = np.random.default_rng(seed)
        params = SmoothingParams(0.5, 0.25, 0.75, season_length=season_length)
        # dyadic state values keep double arithmetic exact
        state = HWState(
            level=float(gen.integers(500, 600)) / 2.0,
            trend=float(gen.integers(-8, 8)) / 4.0,
            seasonal=gen.integers(-16, 16, season_length) / 8.0,
            phase=int(gen.integers(0, season_length)),
        )
        lhs = hw_forecast(state, m + season_length, params)
        rhs = hw_forecast(state, m, params)
        assert lhs - rhs == season_length * state.trend


class TestBaselines:
    def test_persistence_repeats_last_value(self, make_series):
        series = make_series([270.0, 268.0, 271.3])
        assert persistence_forecast(series, 1) == 271.3
        assert persistence_forecast(series, 4) == 271.3

    def test_average_is_window_mean(self, make_series):
        series = make_series([270.0, 272.0, 274.0])
        for m in (1, 2, 7):
            assert average_forecast(series, m) == pytest.approx(272.0, abs=1e-12)

    def test_average_singleton_and_constant(self, make_series):
        assert average_forecast(make_series([280.0]), 1) == 280.0
        constant = make_series(np.full(1825, 285.0))
        assert average_forecast(constant, 3) == 285.0

    def test_empty_inputs_rejected(self, make_series):
        empty = make_series([])
        with pytest.raises(EmptyInputError):
            persistence_forecast(empty, 1)
        with pytest.raises(EmptyInputError):
            average_forecast(empty, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "values", [[1e308, 1e308], [280.0, math.nan], [math.inf, -math.inf]],
        ids=["overflowing-sum", "nan", "opposite-infinities"],
    )
    def test_average_not_finite_is_non_finite_error(self, values):
        with pytest.raises(NonFiniteError):
            average_forecast(np.array(values), 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("last", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_persistence_not_finite_is_non_finite_error(self, last):
        with pytest.raises(NonFiniteError, match="persistence forecast is not finite"):
            persistence_forecast([280.0, last])

    def test_bad_lead_rejected(self, make_series):
        series = make_series([280.0])
        with pytest.raises(InvalidLeadError):
            persistence_forecast(series, 0)
        with pytest.raises(InvalidLeadError):
            average_forecast(series, -1)

    @pytest.mark.parametrize("forecaster", [persistence_forecast, average_forecast])
    @pytest.mark.parametrize(
        "lead",
        [1.5, 0, -1, True, np.array([1.0, 2.0]), np.array([2, 0])],
        ids=["half", "zero", "negative", "bool", "float-array", "zero-in-array"],
    )
    def test_lead_check_is_hw_forecasts(self, make_series, forecaster, lead):
        with pytest.raises(InvalidLeadError):
            forecaster(make_series([280.0, 282.0]), lead)

    @pytest.mark.parametrize(
        "forecaster, value", [(persistence_forecast, 282.0), (average_forecast, 281.0)]
    )
    def test_integer_array_of_leads_keeps_its_shape(self, make_series, forecaster, value):
        series = make_series([280.0, 282.0])
        got = forecaster(series, np.array([[1, 4], [2, 7]]))
        assert got.shape == (2, 2)
        assert got.tolist() == [[value, value], [value, value]]
        assert forecaster(series, 3) == value
        assert isinstance(forecaster(series, 3), float)

    @given(st.lists(st.floats(min_value=200.0, max_value=330.0), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_average_matches_sum_over_count(self, values):
        expected = math.fsum(values) / len(values)
        got = average_forecast(np.array(values), 1)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


_PARAMS = SmoothingParams(0.3, 0.2, 0.7, season_length=4)


class TestOneDimensionalWindows:
    @pytest.mark.parametrize("forecaster", [persistence_forecast, average_forecast])
    def test_scalar_reads_as_one_value(self, forecaster):
        assert forecaster(281.0) == 281.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: persistence_forecast(np.full((2, 3), 281.0)),
            lambda: average_forecast(np.full((2, 3), 281.0)),
            lambda: hw_fit(np.full((3, 4), 281.0), _PARAMS),
            lambda: grid_search(np.full((2, 12), 281.0), GridSpec.coarse(), 4),
            lambda: one_step_rmse(np.full((2, 12), 281.0), _PARAMS),
        ],
        ids=["persistence", "average", "hw_fit", "grid_search", "one_step_rmse"],
    )
    def test_more_dimensions_raise(self, call):
        with pytest.raises(ValueError, match="each window must be one-dimensional"):
            call()


_DAY = dt.date(2015, 1, 1)
_RING = np.array([1.0, -1.0])


class TestValueEquality:
    @pytest.mark.parametrize(
        "left, right",
        [
            (TimeSeries(_DAY, [280.0, 281.0]), TimeSeries(_DAY, np.array([280.0, 281.0]))),
            (TimeSeries(_DAY, []), TimeSeries(_DAY, ())),
            (HWState(280.0, 0.1, _RING, 1), HWState(280.0, 0.1, _RING.copy(), np.int64(1))),
        ],
        ids=["series", "empty-series", "state"],
    )
    def test_equal_values_are_equal_and_hash_alike(self, left, right):
        assert left == right
        assert not left != right
        assert hash(left) == hash(right)
        assert len({left, right}) == 1

    @pytest.mark.parametrize(
        "left, right",
        [
            (TimeSeries(_DAY, [280.0, 281.0]), TimeSeries(_DAY, [280.0, 281.5])),
            (TimeSeries(_DAY, [280.0]), TimeSeries(dt.date(2015, 1, 2), [280.0])),
            (TimeSeries(_DAY, [280.0]), TimeSeries(_DAY, [280.0, 280.0])),
            (HWState(280.0, 0.1, _RING, 1), HWState(280.5, 0.1, _RING, 1)),
            (HWState(280.0, 0.1, _RING, 1), HWState(280.0, 0.2, _RING, 1)),
            (HWState(280.0, 0.1, _RING, 1), HWState(280.0, 0.1, [1.0, -2.0], 1)),
            (HWState(280.0, 0.1, _RING, 1), HWState(280.0, 0.1, _RING, 0)),
            (TimeSeries(_DAY, _RING), HWState(280.0, 0.1, _RING, 1)),
        ],
        ids=[
            "values", "start", "length",
            "level", "trend", "ring", "phase", "other-type",
        ],
    )
    def test_unequal_values_are_unequal(self, left, right):
        assert left != right
        assert not left == right


_SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308]
_values = st.floats(min_value=250.0, max_value=320.0) | st.sampled_from(_SPECIAL)
_windows = st.one_of(
    st.lists(_values, max_size=30),
    st.builds(lambda value, n: [value] * n, _values, st.integers(14, 30)),
    st.just(np.full((2, 15), 280.0)),
    st.sampled_from(["abc", ["a", "b"], None, {"a": 1}, [1.0, [2.0, 3.0]]]),
)
_lead_values = st.one_of(
    st.integers(min_value=-3, max_value=10**6),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 - 1, 2**70, True, False]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 2**62), max_size=4).map(np.array),
    st.lists(st.integers(0, 2**64 - 1), max_size=4).map(
        lambda leads: np.array(leads, dtype=np.uint64)
    ),
)
_PARAMS_7 = SmoothingParams(0.1, 0.1, 0.1, season_length=7)


def _assert_finite(result, lead):
    """A float for a scalar lead, an array of the leads' shape otherwise,
    or a fit or state; every value in it finite."""
    if isinstance(result, FitResult):
        assert math.isfinite(result.in_sample_rmse)
        _assert_finite(result.state, lead)
    elif isinstance(result, HWState):
        assert math.isfinite(result.level) and math.isfinite(result.trend)
        assert np.isfinite(result.seasonal).all()
    elif isinstance(lead, np.ndarray):
        assert result.shape == lead.shape and np.isfinite(result).all()
    else:
        assert isinstance(result, float) and math.isfinite(result)


_START = dt.date(2015, 1, 1)
# one value: a number, or something that is not one
_cells = _values | st.sampled_from(
    ["abc", b"abc", b"1.5", None, [280.0, 281.0], np.complex128(280.0)]
)
_sequences = st.one_of(
    st.lists(_cells, max_size=6),
    _cells,
    st.sampled_from([np.full((2, 3), 280.0), [1.0, [2.0, 3.0]], {"a": 1}]),
)
_starts = st.sampled_from(
    [_START, dt.date(2016, 2, 29), "2015-01-01", None, dt.datetime(2015, 1, 1), 735599]
)
_CSV_CELLS = ["280.5", "nan", "inf", "-1e308", "1e400", "abc", "", '"1,2"', "280.5,1"]
_texts = st.none() | st.binary(max_size=12) | st.text(max_size=40)


def _days(n):
    return [_START + dt.timedelta(days=i) for i in range(n)]


def _ring_forecast(level, trend, ring):
    state = HWState(level, trend, ring, 0)
    return hw_forecast(state, 1, SmoothingParams(0.1, 0.1, 0.1, state.seasonal.size))


def _finite_result(result) -> bool:
    """Whether a series, a (series, stats) pair, a float or an array holds
    finite values only."""
    if isinstance(result, tuple):
        result = result[0]
    if isinstance(result, TimeSeries):
        result = result.values
    return bool(np.isfinite(result).all())


# a protocol of small valid fields, one of them at most replaced by a value
# of the wrong type or out of range
_field_junk = st.sampled_from([None, "7", 2.5, True, -1, 0, [1], (), {"a": 1}, 10**30])
_config_fields = st.builds(
    lambda valid, junk: {**valid, **junk},
    st.fixed_dictionaries({
        "season_length": st.integers(2, 8),
        "train_length": st.integers(4, 40),
        "leads": st.sets(st.integers(1, 5), min_size=1, max_size=3).map(sorted),
        "n_experiments": st.integers(1, 4),
        "seed": st.integers(0, 3),
        "models": st.sets(st.sampled_from(MODEL_NAMES), min_size=1).map(sorted),
        "grid": st.just(GridSpec((0.2, 0.6), (0.0, 0.5), (0.1,), refine_rounds=1)),
    }),
    st.dictionaries(
        st.sampled_from(
            ["season_length", "train_length", "leads", "n_experiments", "seed",
             "models", "grid"]
        ),
        _field_junk,
        max_size=1,
    ),
)
_backtest_series = st.just(
    TimeSeries(_START, 280.0 + 5 * np.sin(np.arange(60) * 2 * np.pi / 7))
) | st.sampled_from(
    [TimeSeries(_START, [280.0] * 5), TimeSeries(_START, [math.nan] * 60), [280.0] * 60, None]
)

# an origin, or something that is not one
_origins = st.integers(-2, 70) | st.sampled_from(
    [None, "40", 40.0, True, np.int64(40), 10**30]
)
# every error a config from _config_fields can pool
_full_errors = st.fixed_dictionaries({
    model: st.fixed_dictionaries({lead: st.floats(-10.0, 10.0) for lead in range(1, 6)})
    for model in MODEL_NAMES
})
# a fit whose ring length and season length may disagree with each other
# and with the config's, or something that is not a fit
_fits = st.sampled_from([None, "fit"]) | st.builds(
    lambda season, ring: FitResult(
        SmoothingParams(0.1, 0.1, 0.1, season), 0.5, 1,
        HWState(280.0, 0.0, np.zeros(ring), 0),
    ),
    st.integers(2, 8),
    st.integers(2, 8),
)
# results with small valid fields, and at most one whose origin, errors
# (the mapping, a model's mapping or an error) or fit may be junk
_results = st.builds(
    lambda valid, junk: valid + junk,
    st.lists(
        st.builds(ExperimentResult, origin=st.integers(0, 70), errors=_full_errors),
        max_size=3,
    ),
    st.lists(
        st.builds(
            ExperimentResult,
            origin=_origins,
            errors=_full_errors | _cells | st.dictionaries(
                st.sampled_from(MODEL_NAMES),
                _cells | st.dictionaries(st.integers(0, 5), _cells, max_size=3),
                max_size=3,
            ),
            fit=_fits,
        ),
        max_size=1,
    ),
)

class TestArbitraryInput:
    """Whatever the window and lead, each model entry point returns finite
    values or raises a TempcastError: never a bare Python error, a
    warning, or a NaN or infinite forecast. Whatever the values, dates or
    text, so does each series and ingest entry point, once a series it
    builds is validated."""

    @given(window=_windows, lead=_lead_values, level=_values, trend=_values)
    @settings(max_examples=150, deadline=None)
    def test_returns_finite_values_or_raises_tempcast_error(
        self, window, lead, level, trend
    ):
        state = HWState(level, trend, np.zeros(7), 0)
        calls = [
            lambda: persistence_forecast(window, lead),
            lambda: average_forecast(window, lead),
            lambda: hw_forecast(state, lead, _PARAMS_7),
            lambda: grid_search(window, GridSpec.coarse(), 7),
            lambda: hw_fit(window, _PARAMS_7),
            # late-bound: the state hw_fit returned, if it returned one
            lambda: hw_forecast(state, lead, _PARAMS_7),
        ]
        for call in calls:
            # as under python -W error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = call()
                except TempcastError:
                    continue
            _assert_finite(result, lead)
            if isinstance(result, HWState):
                state = result

    @given(
        values=_sequences, other=_sequences, start=_starts, level=_cells,
        trend=_cells, cells=st.lists(st.sampled_from(_CSV_CELLS), max_size=4),
        text=_texts, unit=st.sampled_from(UNITS), data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_series_and_ingest_return_finite_values_or_raise_tempcast_error(
        self, values, other, start, level, trend, cells, text, unit, data
    ):
        n = len(values) if isinstance(values, list) else 1
        dates = data.draw(st.sampled_from(
            [_days(n), _days(n)[::-1], [_START] * n, ["2015-01-01"] * n, [None] * n]
        ))
        ordinals = [day.toordinal() if isinstance(day, dt.date) else day for day in dates]
        tavg = values if isinstance(values, list) else [values]
        stations = data.draw(st.sampled_from(
            [["A"] * n, ["A"] * (n - 1) + [None], [1] * n, [["A"]] * n, None, 7]
        ))
        column = data.draw(st.sampled_from([tavg, None, 7.0]))
        rows = [f"2015-01-{day + 1:02d},{cell}\n" for day, cell in enumerate(cells)]
        calls = [
            lambda: validate_series(TimeSeries(start, values)),
            lambda: validate_series(drop_leap_days(dates, values)),
            lambda: validate_series(drop_leap_days(text, values)),
            lambda: rmse(values, other),
            lambda: _ring_forecast(level, trend, values),
            lambda: read_csv("date,kelvin\n" + "".join(rows)),
            lambda: read_csv(text),
            lambda: clean_report(parse_cdo_csv(
                "STATION,DATE,TAVG\n" + "".join("A," + row for row in rows), unit
            )),
            lambda: clean_report(parse_cdo_csv(text, unit)),
            lambda: clean_report(RawRecordSet(stations, ordinals, column, unit)),
        ]
        for call in calls:
            # as under python -W error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = call()
                except TempcastError:
                    continue
            assert _finite_result(result)

    @given(
        series=_backtest_series,
        fields=_config_fields,
        config=st.sampled_from([None, "cfg", 5, GridSpec.coarse()]),
    )
    @settings(max_examples=100, deadline=None)
    def test_backtest_returns_finite_report_or_raises_tempcast_error(
        self, series, fields, config
    ):
        calls = [
            lambda: run_backtest(series, BacktestConfig(**fields)),
            lambda: run_backtest(series, config),
        ]
        for call in calls:
            # as under python -W error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    report = call()
                except TempcastError:
                    continue
            for model in report.config.models:
                for lead in report.config.leads:
                    assert math.isfinite(report.rmse[model][lead])
                    assert np.isfinite(report.errors[model][lead]).all()

    @given(
        series=_backtest_series, fields=_config_fields, results=_results,
        origin=_origins,
    )
    @settings(max_examples=150, deadline=None)
    def test_experiment_and_report_work_or_raise_tempcast_error(
        self, series, fields, results, origin
    ):
        calls = [
            lambda: collect_report(BacktestConfig(**fields), results),
            lambda: run_experiment(series, origin, BacktestConfig(**fields)),
        ]
        for call in calls:
            # as under python -W error
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = call()
                except TempcastError:
                    continue
            if isinstance(result, ExperimentResult):
                for errors in result.errors.values():
                    assert all(math.isfinite(e) for e in errors.values())
