"""Regression tests for inputs that once escaped as bare Python errors,
broadcast silently or wrapped round: each now works as documented or
raises a TempcastError, under warnings as errors.

Every value sequence entering the library goes through one rule,
``series._vector``: a one-dimensional float64 array, a TimeSeries giving
its values and a scalar one value.
"""

import datetime as dt
import math

import numpy as np
import pytest

from tempcast import (
    GridSpec,
    HWState,
    RawRecordSet,
    SmoothingParams,
    TimeSeries,
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
    InvalidLeadError,
    NonFiniteError,
)
from tempcast.series import drop_leap_days, rmse

pytestmark = pytest.mark.filterwarnings("error")

JAN1 = dt.date(2015, 1, 1)


class TestValueRule:
    def test_rmse_does_not_broadcast_a_column(self):
        with pytest.raises(ArgumentError, match="^predicted must be one-dimensional$"):
            rmse([[1.0], [2.0]], [1.0, 2.0])

    def test_rmse_of_a_scalar_reads_one_value(self):
        assert rmse(281.5, [280.0]) == 1.5

    @pytest.mark.parametrize(
        "predicted, actual",
        [([math.nan], [280.0]), ([math.inf], [math.inf]), ([1e308], [-1e308])],
        ids=["nan", "inf-minus-inf", "square-overflows"],
    )
    def test_rmse_that_is_not_finite_raises(self, predicted, actual):
        with pytest.raises(NonFiniteError, match="rmse is not finite"):
            rmse(predicted, actual)

    def test_series_values_that_are_not_numbers_raise(self):
        with pytest.raises(ArgumentError, match="^values must hold real numbers"):
            TimeSeries(JAN1, ["a"])

    def test_series_of_a_scalar_is_one_day(self):
        series = TimeSeries(JAN1, 280.0)
        assert series.values.tolist() == [280.0]
        assert series.end_date == JAN1

    def test_dated_values_that_are_not_numbers_raise(self):
        with pytest.raises(ArgumentError, match="^values must hold real numbers"):
            drop_leap_days([JAN1], ["a"])

    def test_dated_values_in_two_dimensions_raise_argument_error(self):
        with pytest.raises(ArgumentError, match="^values must be one-dimensional$"):
            drop_leap_days([JAN1], [[1.0]])

    def test_ring_that_is_not_numbers_raises(self):
        with pytest.raises(ArgumentError, match="^seasonal must hold real numbers"):
            HWState(1.0, 0.0, ["a", "b"], 0)

    def test_ring_in_two_dimensions_raises(self):
        with pytest.raises(ArgumentError, match="^seasonal must be one-dimensional$"):
            HWState(1.0, 0.0, np.zeros((2, 2)), 0)


class TestWronglyTypedArguments:
    @pytest.mark.parametrize(
        "start", ["2015-01-01", dt.datetime(2015, 1, 1), JAN1.toordinal(), None],
        ids=["str", "datetime", "ordinal", "none"],
    )
    def test_series_start_must_be_a_date(self, start):
        message = "^start_date must be a datetime.date, got"
        with pytest.raises(ArgumentError, match=message):
            TimeSeries(start, [280.0])

    @pytest.mark.parametrize("dates", [None, ["2015-01-01"], "2015-01-01"],
                             ids=["none", "str-dates", "str"])
    def test_dates_must_be_dates(self, dates):
        with pytest.raises(ArgumentError, match="^dates must be datetime.date values"):
            drop_leap_days(dates, [280.0])

    def test_series_text_must_be_str(self):
        with pytest.raises(ArgumentError, match=r"^text must be a str, got b'date"):
            read_csv(b"date,kelvin\n")

    def test_export_text_must_be_str(self):
        with pytest.raises(ArgumentError, match="^text must be a str, got None$"):
            parse_cdo_csv(None, "celsius")

    def test_record_dates_must_be_dates(self):
        records = RawRecordSet(("A",), ("2015-01-01",), (1.0,), "celsius")
        with pytest.raises(ArgumentError, match="^dates must be datetime.date values"):
            clean_report(records)

    def test_record_values_must_be_numbers(self):
        records = RawRecordSet(("A",), (JAN1,), ("warm",), "celsius")
        with pytest.raises(ArgumentError, match="^tavg must hold real numbers"):
            clean_report(records)

    def test_clean_report_arguments_are_typed(self):
        with pytest.raises(ArgumentError, match="^records must be a RawRecordSet"):
            clean_report(None)
        records = RawRecordSet(("A",), (JAN1,), (281.0,), "celsius")
        with pytest.raises(ArgumentError, match="^config must be a CleanConfig"):
            clean_report(records, {})

    @pytest.mark.parametrize("name", ["level", "trend"])
    def test_state_level_and_trend_must_be_real(self, name):
        arguments = {"level": 0.0, "trend": 0.0, "seasonal": [0.0, 0.0], "phase": 0}
        arguments[name] = "a"
        with pytest.raises(ArgumentError, match=f"^{name} must be a real number"):
            HWState(**arguments)

    def test_state_level_and_trend_are_stored_as_float(self):
        state = HWState(np.float64(280.0), 1, [0.0, 0.0], 0)
        assert type(state.level) is float and type(state.trend) is float


_STATE = HWState(280.0, 1.0, [0.0] * 7, 0)
_PARAMS = SmoothingParams(0.5, 0.5, 0.5, 7)


class TestLeadsPastTheInt64Range:
    @pytest.mark.parametrize(
        "lead",
        [2**64 - 1, 2**63, np.array([2**64 - 1], dtype=np.uint64),
         np.array([1, 2**63], dtype=np.uint64)],
        ids=["2**64-1", "2**63", "uint64-array", "uint64-array-mixed"],
    )
    @pytest.mark.parametrize(
        "forecast",
        [
            lambda m: hw_forecast(_STATE, m, _PARAMS),
            lambda m: persistence_forecast([280.0], m),
        ],
        ids=["hw_forecast", "persistence"],
    )
    def test_do_not_wrap_negative(self, forecast, lead):
        with pytest.raises(InvalidLeadError, match="from 1 to 9223372036854775807"):
            forecast(lead)

    def test_the_int64_limit_itself_is_a_lead(self):
        lead = 2**63 - 1
        assert hw_forecast(_STATE, lead, _PARAMS) == 280.0 + lead * 1.0
        got = persistence_forecast([280.0], np.array([lead], dtype=np.uint64))
        assert got.tolist() == [280.0]


class TestOverflowingWindows:
    """grid_search follows hw_fit's rule on windows past the float range,
    so FitResult.state equals hw_fit(train, params) whenever both return."""

    @pytest.mark.parametrize(
        "window, season_length",
        [([1e308] * 21, 7), ([1e308, -1e308] * 10, 2)],
        ids=["constant", "alternating"],
    )
    def test_grid_search_raises_as_hw_fit_does(self, window, season_length):
        with pytest.raises(NonFiniteError):
            grid_search(window, GridSpec.coarse(), season_length)
        with pytest.raises(NonFiniteError):
            hw_fit(window, SmoothingParams(0.0, 0.0, 0.0, season_length))
