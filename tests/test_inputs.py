"""Regression tests for inputs that once escaped as bare Python errors,
broadcast silently or wrapped round: each now works as documented or
raises a TempcastError, under warnings as errors.

Every value sequence entering the library goes through one rule,
``series._vector``: a one-dimensional float64 array, a TimeSeries giving
its values and a scalar one value.
"""

import dataclasses
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
from tempcast.backtest import (
    MODEL_NAMES,
    BacktestConfig,
    ExperimentResult,
    collect_report,
    run_backtest,
    run_experiment,
    select_origins,
)
from tempcast import series as series_module
from tempcast.ingest import to_kelvin
from tempcast.models import hw_update
from tempcast.series import (
    drop_leap_days,
    is_leap_day,
    iso_dates,
    next_calendar_day,
    parse_date,
    rmse,
    split_at_origin,
    to_csv_rows,
)
from tempcast.tuning import FitResult, one_step_rmse

pytestmark = pytest.mark.filterwarnings("error")

JAN1 = dt.date(2015, 1, 1)
_SERIES = TimeSeries(JAN1, 280.0 + np.sin(np.arange(60) * 2 * np.pi / 7))
_CONFIG = BacktestConfig(
    train_length=30, leads=(1,), n_experiments=2, season_length=7,
    grid=GridSpec((0.5,), (0.5,), (0.5,)),
)
_STATE = HWState(280.0, 1.0, [0.0] * 7, 0)
_PARAMS = SmoothingParams(0.5, 0.5, 0.5, 7)
# a result holding every error _CONFIG pools, and a copy at another origin
_RESULT = ExperimentResult(origin=40, errors={model: {1: 0.5} for model in MODEL_NAMES})


def _at(origin):
    return dataclasses.replace(_RESULT, origin=origin)


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

    @pytest.mark.parametrize(
        "text",
        [
            ["280.5"], "280.5", b"280.5", np.array(["280.5"]), [280.0, "281.5"],
            np.array([280.0, b"281.5"], dtype=object),
        ],
        ids=["list", "scalar", "bytes", "numpy-str-array", "list-mixed", "object-array"],
    )
    @pytest.mark.parametrize(
        "read, name",
        [
            (lambda v: TimeSeries(JAN1, v), "values"),
            (lambda v: drop_leap_days([JAN1], v), "values"),
            (lambda v: rmse(v, v), "predicted"),
            (lambda v: HWState(1.0, 0.0, v, 0), "seasonal"),
        ],
        ids=["series", "dated", "rmse", "ring"],
    )
    def test_numeric_text_raises(self, read, name, text):
        # the cast to float64 would read each of these as numbers
        with pytest.raises(ArgumentError, match=f"^{name} must hold real numbers: got text$"):
            read(text)

    def test_dated_values_that_are_not_numbers_raise(self):
        with pytest.raises(ArgumentError, match="^values must hold real numbers"):
            drop_leap_days([JAN1], ["a"])

    def test_dated_values_in_two_dimensions_raise_argument_error(self):
        with pytest.raises(ArgumentError, match="^values must be one-dimensional$"):
            drop_leap_days([JAN1], [[1.0]])

    @pytest.mark.parametrize(
        "values", [np.array([280 + 1j]), [np.complex128(280.0)], np.complex64(280.0)],
        ids=["array", "list-of-numpy-complex", "scalar"],
    )
    def test_complex_values_raise(self, values):
        with pytest.raises(ArgumentError, match="^values must hold real numbers"):
            TimeSeries(JAN1, values)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([True, False]), [1.5, True], (280.0, np.bool_(False)),
            [np.True_], True, np.bool_(True),
        ],
        ids=[
            "array", "list-mixed", "tuple-of-numpy-bool", "list-of-numpy-bool",
            "scalar", "numpy-scalar",
        ],
    )
    def test_boolean_values_raise(self, values):
        with pytest.raises(ArgumentError, match="^values must hold real numbers: got booleans$"):
            TimeSeries(JAN1, values)

    def test_integers_and_floats_in_a_list_are_not_booleans(self):
        assert TimeSeries(JAN1, [280, 281.5, np.int64(282)]).values.tolist() == [
            280.0, 281.5, 282.0,
        ]

    def test_boolean_temperature_is_not_read_as_a_number(self):
        # True would clean to 274.15 K, as 1 degree Celsius
        with pytest.raises(ArgumentError, match="^tavg must hold real numbers: got booleans$"):
            RawRecordSet(("A",), (JAN1.toordinal(),), (True,), "celsius")

    def test_integers_too_large_for_a_float_raise(self):
        with pytest.raises(ArgumentError, match="^values must hold real numbers"):
            TimeSeries(JAN1, [280.0, 10**400])

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

    @pytest.mark.parametrize(
        "start", ["2015-01-01", dt.datetime(2015, 1, 1), None],
        ids=["str", "datetime", "none"],
    )
    def test_iso_dates_start_must_be_a_date(self, start):
        with pytest.raises(ArgumentError, match="^start must be a datetime.date, got"):
            iso_dates(start, 0, 3)

    def test_rows_need_a_series(self):
        with pytest.raises(ArgumentError, match="^series must be a TimeSeries, got 5$"):
            to_csv_rows(5)

    def test_series_text_must_be_str(self):
        with pytest.raises(ArgumentError, match=r"^text must be a str, got b'date"):
            read_csv(b"date,kelvin\n")

    def test_export_text_must_be_str(self):
        with pytest.raises(ArgumentError, match="^text must be a str, got None$"):
            parse_cdo_csv(None, "celsius")

    def test_record_dates_must_be_dates(self):
        for ordinals in (("2015-01-01",), (JAN1,)):
            with pytest.raises(ArgumentError, match="^ordinals must"):
                RawRecordSet(("A",), ordinals, (1.0,), "celsius")

    def test_record_values_must_be_numbers(self):
        for tavg in ("warm", "1.0"):
            with pytest.raises(ArgumentError, match="^tavg must hold real numbers: got text$"):
                RawRecordSet(("A",), (JAN1.toordinal(),), (tavg,), "celsius")

    @pytest.mark.parametrize(
        "stations, bad", [(("A", None), "None"), ((["A"], ["A"]), r"\['A'\]"), ((1, 1), "1")],
        ids=["mixed", "unhashable", "int"],
    )
    def test_record_stations_must_be_strings(self, stations, bad):
        days = (JAN1.toordinal(), JAN1.toordinal() + 1)
        records = RawRecordSet(stations, days, (1.0, 2.0), "celsius")
        with pytest.raises(ArgumentError, match=f"^each station must be a str, got {bad}$"):
            clean_report(records)

    def test_record_columns_must_be_sequences(self):
        with pytest.raises(ArgumentError, match="^tavg must be a sequence, got None$"):
            RawRecordSet(("A",), (JAN1.toordinal(),), None, "celsius")

    def test_clean_report_arguments_are_typed(self):
        with pytest.raises(ArgumentError, match="^records must be a RawRecordSet"):
            clean_report(None)
        records = RawRecordSet(("A",), (JAN1.toordinal(),), (281.0,), "celsius")
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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: run_backtest(_SERIES, "cfg"), "config must be a BacktestConfig, got 'cfg'"),
            (
                lambda: collect_report(_CONFIG, [1, 2]),
                "each result must be a ExperimentResult, got 1",
            ),
            (
                lambda: collect_report(BacktestConfig(), 5),
                "results must be a Sequence, got 5",
            ),
            (
                lambda: collect_report(_CONFIG, [dataclasses.replace(_RESULT, fit="x")]),
                "each result's fit must be a FitResult, got 'x'",
            ),
            (
                lambda: select_origins(40.5, _CONFIG),
                "series_length must be a whole number, got 40.5",
            ),
            (
                lambda: select_origins("40", _CONFIG),
                "series_length must be a whole number, got '40'",
            ),
            (
                lambda: run_experiment(_SERIES, 20.5, _CONFIG),
                "origin must be a whole number, got 20.5",
            ),
            (
                lambda: run_experiment(_SERIES, True, _CONFIG),
                "origin must be a whole number, got True",
            ),
            (lambda: BacktestConfig(leads=5), "leads must be a nonempty list"),
            (lambda: BacktestConfig(leads=None), "leads must be a nonempty list"),
            (
                lambda: BacktestConfig(models=5),
                "models must be a sequence of model names, got 5",
            ),
            # each of the four below once escaped as a TypeError
            (
                lambda: collect_report(_CONFIG, [ExperimentResult(origin=1, errors=5)]),
                "every result must hold an error for proposed at lead 1$",
            ),
            (
                lambda: collect_report(
                    dataclasses.replace(_CONFIG, models=("persistence",)),
                    [ExperimentResult(origin=1, errors={"persistence": 5})],
                ),
                "every result must hold an error for persistence at lead 1$",
            ),
            (
                lambda: collect_report(_CONFIG, [_RESULT, _at("a")]),
                "each result's origin must be a whole number, got 'a'$",
            ),
            (
                lambda: collect_report(_CONFIG, [_RESULT, _at(None)]),
                "each result's origin must be a whole number, got None$",
            ),
        ],
        ids=[
            "run_backtest-config", "collect_report-results",
            "collect_report-results-int", "collect_report-fit", "select_origins-float",
            "select_origins-str", "run_experiment-float", "run_experiment-bool",
            "leads-int", "leads-none", "models-int", "collect_report-errors-int",
            "collect_report-lead-errors-int", "collect_report-origin-str",
            "collect_report-origin-none",
        ],
    )
    def test_backtest_arguments_are_typed(self, call, message):
        with pytest.raises(ArgumentError, match=f"^{message}"):
            call()

    def test_collect_report_needs_every_model_and_lead(self):
        result = run_experiment(_SERIES, 40, _CONFIG)  # lead 1 only
        with pytest.raises(
            ArgumentError, match="^every result must hold an error for proposed at lead 2$"
        ):
            collect_report(dataclasses.replace(_CONFIG, leads=(1, 2)), [result])

    @pytest.mark.parametrize(
        "index, shown", [(1.5, "1.5"), (True, "True"), ("2", "'2'")],
        ids=["float", "bool", "str"],
    )
    def test_date_at_index_must_be_whole(self, index, shown):
        series = TimeSeries(JAN1, [280.0, 281.0, 282.0])
        with pytest.raises(ArgumentError, match=f"^index must be a whole number, got {shown}$"):
            series.date_at(index)

    @pytest.mark.parametrize("first, stop", [(1.5, 3), (0, 2.5)], ids=["first", "stop"])
    def test_iso_dates_offsets_must_be_whole(self, first, stop):
        # both once floored to whole offsets
        with pytest.raises(ArgumentError, match="must be a whole number"):
            iso_dates(JAN1, first, stop)

    def test_one_step_rmse_params_must_be_smoothing_params(self):
        with pytest.raises(ArgumentError, match="^params must be a SmoothingParams, got 'p'$"):
            one_step_rmse(np.full(30, 280.0), "p")

    def test_station_must_be_a_str(self):
        # once compared with every STATION cell, so no row was kept
        with pytest.raises(ArgumentError, match="^station must be a str, got 5$"):
            parse_cdo_csv("STATION,DATE,TAVG\n5,2015-01-01,1.0\n", "celsius", station=5)

    @pytest.mark.parametrize(
        "text, shown",
        [(5, "5"), (None, "None"), (b"2015-01-01", "b'2015-01-01'"),
         (list("2015-01-01"), r"\['2', "), ("2015-13-01", "'2015-13-01'")],
        ids=["int", "none", "bytes", "list", "month-13"],
    )
    def test_parse_date_raises_argument_error(self, text, shown):
        # the first two once escaped as a TypeError, the rest as a bare ValueError
        with pytest.raises(ArgumentError, match=f"^expected YYYY-MM-DD, got {shown}"):
            parse_date(text)

    def test_update_observation_must_be_real(self):
        # once a TypeError from math.isfinite
        with pytest.raises(ArgumentError, match="^observation must be a real number, got 'x'$"):
            hw_update(_STATE, "x", _PARAMS)

    @pytest.mark.parametrize("value, shown", [("x", "'x'"), (None, "None")], ids=["str", "none"])
    def test_temperature_must_be_real(self, value, shown):
        # once a TypeError from math.isfinite
        with pytest.raises(
            ArgumentError, match=f"^temperature must be a real number, got {shown}$"
        ):
            to_kelvin(value, "celsius")

    @pytest.mark.parametrize(
        "args, message",
        [
            ((_SERIES, 2.5, 1), "origin must be a whole number, got 2.5"),
            (("x", 3, 1), "series must be a TimeSeries, got 'x'"),
            ((_SERIES, 3, True), "max_lead must be a whole number, got True"),
        ],
        ids=["float-origin", "str-series", "bool-lead"],
    )
    def test_split_at_origin_arguments_are_typed(self, args, message):
        # once a TypeError, an OutOfRangeError for "a series of length 1",
        # and a split with a lead of True
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            split_at_origin(*args)

    @pytest.mark.parametrize("call", [is_leap_day, next_calendar_day])
    @pytest.mark.parametrize(
        "day, shown", [("x", "'x'"), (dt.datetime(2016, 2, 29), "datetime")],
        ids=["str", "datetime"],
    )
    def test_calendar_steps_need_a_date(self, call, day, shown):
        # a str once raised AttributeError or TypeError
        with pytest.raises(ArgumentError, match=f"^day must be a datetime.date, got {shown}"):
            call(day)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("p", 0.5, 1, _STATE), "params must be a SmoothingParams, got 'p'$"),
            ((_PARAMS, "x", 1, _STATE), "in_sample_rmse must be a real number, got 'x'$"),
            ((_PARAMS, math.nan, 1, _STATE), "in_sample_rmse must be finite and >= 0, got nan$"),
            ((_PARAMS, math.inf, 1, _STATE), "in_sample_rmse must be finite and >= 0, got inf$"),
            ((_PARAMS, 0.5, 1.0, _STATE), "evaluations must be a whole number, got 1.0$"),
            ((_PARAMS, 0.5, 1, None), "state must be a HWState, got None$"),
        ],
        ids=["params", "score-str", "score-nan", "score-inf", "evaluations-float", "state"],
    )
    def test_fit_result_fields_are_checked(self, fields, message):
        # a str score once raised TypeError; the rest were accepted
        with pytest.raises(ArgumentError, match=f"^{message}"):
            FitResult(*fields)

    def test_fit_result_stores_a_float_score_and_an_int_count(self):
        fit = FitResult(_PARAMS, np.float64(0.5), np.int64(3), _STATE)
        assert type(fit.in_sample_rmse) is float and type(fit.evaluations) is int

    @pytest.mark.parametrize("name", ["leap_day_mask", "consecutive"])
    def test_unchecked_ordinal_helpers_are_private(self, name):
        # neither checks its arguments: on a list each fails with an
        # AttributeError or a TypeError
        assert not hasattr(series_module, name)
        assert hasattr(series_module, f"_{name}")


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


class TestNonFiniteTrainingValue:
    @pytest.mark.parametrize("models", [("proposed",), ("persistence",), ("average",)])
    def test_run_experiment_names_its_series_index(self, models):
        # once its window index and numpy repr under "proposed", finite
        # errors under "persistence" and the average's own message
        values = _SERIES.values.copy()
        values[20] = math.nan
        config = dataclasses.replace(_CONFIG, train_length=15, models=models)
        with pytest.raises(NonFiniteError, match="^value 20 is not finite: nan$"):
            run_experiment(TimeSeries(JAN1, values), 25, config)


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
