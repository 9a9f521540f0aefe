import calendar
import csv
import datetime as dt
import io
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcast import TimeSeries, series as series_module
from tempcast.errors import (
    EmptyInputError,
    LengthMismatchError,
    MalformedDateError,
    MalformedRowError,
    OutOfRangeError,
    TempcastError,
    ValidationError,
)
from tempcast.series import (
    CSV_HEADER,
    KELVIN_MAX,
    KELVIN_MIN,
    _leap_day_mask,
    csv_rows,
    drop_leap_days,
    is_leap_day,
    iso_dates,
    next_calendar_day,
    parse_date,
    read_csv,
    rmse,
    split_at_origin,
    to_csv_rows,
    validate_series,
)

JAN1 = dt.date(2015, 1, 1)


def test_declared_numpy_floor_has_numpy_exceptions():
    # no numpy older than 1.25 has been run
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (floor,) = re.findall(r'"numpy>=([\d.]+)"', pyproject.read_text(encoding="utf-8"))
    assert tuple(map(int, floor.split("."))) >= (1, 25)


def daily_dates(start, n):
    return [start + dt.timedelta(days=i) for i in range(n)]


class TestValidateSeries:
    def test_clean_series_passes_unchanged(self, make_series):
        series = make_series([270.0, 271.0, 272.5])
        assert validate_series(series) is series

    def test_range_violation_reports_index_and_rule(self, make_series):
        series = make_series([280.0, 400.0, 281.0])
        with pytest.raises(ValidationError) as excinfo:
            validate_series(series)
        assert excinfo.value.index == 1
        assert excinfo.value.rule == "range"

    def test_nan_reports_nan_rule(self, make_series):
        series = make_series([280.0, 281.0, float("nan")])
        with pytest.raises(ValidationError) as excinfo:
            validate_series(series)
        assert excinfo.value.index == 2
        assert excinfo.value.rule == "nan"

    @pytest.mark.parametrize("infinity", ["inf", "-inf"])
    def test_infinity_reports_nan_rule(self, make_series, infinity):
        # rule "nan" covers every value that is not finite
        with pytest.raises(ValidationError) as excinfo:
            validate_series(make_series([280.0, float(infinity)]))
        assert excinfo.value.index == 1
        assert excinfo.value.rule == "nan"

    def test_bounds_are_exclusive(self, make_series):
        for bad in (170.0, 350.0):
            with pytest.raises(ValidationError) as excinfo:
                validate_series(make_series([280.0, bad]))
            assert excinfo.value.rule == "range"
        validate_series(make_series([170.001, 349.999]))

    def test_first_offending_index_wins_across_rules(self, make_series):
        series = make_series([280.0, float("nan"), 281.0, 500.0])
        with pytest.raises(ValidationError) as excinfo:
            validate_series(series)
        assert excinfo.value.index == 1
        assert excinfo.value.rule == "nan"


class TestTimeSeries:
    def test_values_are_read_only(self, make_series):
        series = make_series([280.0, 281.0])
        with pytest.raises(ValueError):
            series.values[0] = 0.0

    def test_dates_skip_leap_day(self):
        series = TimeSeries(dt.date(2016, 2, 28), np.array([280.0, 281.0, 282.0]))
        assert series.dates() == [
            dt.date(2016, 2, 28),
            dt.date(2016, 3, 1),
            dt.date(2016, 3, 2),
        ]
        assert series.end_date == dt.date(2016, 3, 2)

    def test_cannot_start_on_leap_day(self):
        with pytest.raises(ValidationError):
            TimeSeries(dt.date(2016, 2, 29), np.array([280.0]))

    def test_date_at_range_checked(self, make_series):
        series = make_series([280.0, 281.0])
        assert series.date_at(1) == dt.date(2015, 1, 2)
        with pytest.raises(OutOfRangeError):
            series.date_at(2)


def fold_calendar(start, n):
    """The first ``n`` 365-day-calendar dates from ``start``, one step at a time."""
    out = [start]
    while len(out) < n:
        out.append(next_calendar_day(out[-1]))
    return out[:n]


# Start dates either side of February 29 in century, 400-year and plain
# leap years (1900 and 2100 have no February 29), plus arbitrary ones.
near_leap_day = st.builds(
    lambda year, shift: dt.date(year, 2, 26) + dt.timedelta(days=shift),
    st.sampled_from([1900, 2000, 2020, 2100]),
    st.integers(min_value=0, max_value=5),
).filter(lambda day: not is_leap_day(day))
calendar_starts = st.one_of(
    near_leap_day,
    st.dates(dt.date(1, 1, 1), dt.date(9990, 12, 31)).filter(
        lambda day: not is_leap_day(day)
    ),
)


class TestClosedFormCalendar:
    @given(start=calendar_starts, n=st.integers(min_value=1, max_value=1500),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_folding_next_calendar_day(self, start, n, data):
        series = TimeSeries(start, np.full(n, 280.0))
        expected = fold_calendar(start, n)
        assert series.dates() == expected
        assert series.end_date == expected[-1]
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert series.date_at(index) == expected[index]
        first = data.draw(st.integers(min_value=0, max_value=n))
        iso = [day.isoformat() for day in expected[first:]]
        assert list(iso_dates(start, first, n)) == iso

    def test_past_year_9999_overflows_like_date_arithmetic(self):
        series = TimeSeries(dt.date(9999, 12, 30), np.full(3, 280.0))
        assert series.date_at(1) == dt.date(9999, 12, 31)
        with pytest.raises(OverflowError):
            next_calendar_day(dt.date(9999, 12, 31))
        with pytest.raises(OverflowError):
            series.end_date

    def test_dates_past_year_9999_are_tempcast_errors(self):
        series = TimeSeries(dt.date(9999, 12, 1), np.full(100, 280.0))
        with pytest.raises(TempcastError):
            series.end_date
        with pytest.raises(TempcastError):
            series.date_at(31)
        with pytest.raises(TempcastError):
            list(to_csv_rows(series))

    @pytest.mark.parametrize("offset", [10**30, -(10**30), 2**62])
    def test_offsets_too_large_for_an_array_are_out_of_range(self, offset):
        with pytest.raises(OutOfRangeError, match="date value out of range"):
            iso_dates(JAN1, offset, offset + 1)

    def test_no_offsets_from_february_29(self):
        with pytest.raises(ValidationError):
            iso_dates(dt.date(2016, 2, 29), 0, 1)

    @given(
        ordinals=st.lists(
            st.one_of(
                st.dates(),
                st.builds(dt.date, st.integers(1, 9999).filter(calendar.isleap),
                          st.just(2), st.integers(27, 29)),
            ).map(dt.date.toordinal),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_leap_day_mask_matches_is_leap_day(self, ordinals):
        mask = _leap_day_mask(np.array(ordinals, dtype=np.int64))
        expected = [is_leap_day(dt.date.fromordinal(o)) for o in ordinals]
        assert mask.tolist() == expected

    def test_leap_day_mask_on_every_ordinal(self):
        # the ordinal of every date, and the one after the last
        ordinals = np.arange(1, dt.date.max.toordinal() + 2, dtype=np.int64)
        feb_29 = [
            dt.date(year, 2, 29).toordinal()
            for year in range(dt.MINYEAR, dt.MAXYEAR + 1)
            if calendar.isleap(year)
        ]
        np.testing.assert_array_equal(np.flatnonzero(_leap_day_mask(ordinals)) + 1, feb_29)


class TestSeriesCsv:
    @given(
        start=near_leap_day,
        values=st.lists(
            st.floats(min_value=KELVIN_MIN, max_value=KELVIN_MAX,
                      exclude_min=True, exclude_max=True),
            min_size=1, max_size=800,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_written_rows_read_back_bit_for_bit(self, start, values):
        series = TimeSeries(start, values)
        text = "\n".join(map(",".join, [CSV_HEADER, *to_csv_rows(series)])) + "\n"
        assert read_csv(text) == series

    @given(
        text=st.lists(
            st.sampled_from(["a", "b,", ",", '"', '""', "\n", "\r", "\r\n", "\x0b",
                             "\x0c", "\x1c", "\x85", "\u2028", "\x00", " "]),
            max_size=80,
        ).map("".join),
        slice_chars=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=400, deadline=None)
    def test_slices_read_like_the_whole_text(self, text, slice_chars):
        reader = csv.reader(io.StringIO(text))
        expected, error = [], None
        try:
            expected.extend(reader)
        except csv.Error as exc:
            error = f"malformed row at line {reader.line_num}: {exc}"
        got = []
        with mock.patch.object(series_module, "_CSV_SLICE_CHARS", slice_chars):
            try:
                with csv_rows(text) as rows:
                    got.extend(rows)
            except MalformedRowError as exc:
                assert (exc.line, str(exc)) == (reader.line_num, error)
            else:
                assert error is None
        assert got == expected

    @pytest.mark.parametrize(
        "row, error",
        [
            ("2015-13-02,281.0", MalformedDateError),
            ("2015-01-02,warm", MalformedRowError),
            ("2015-01-02", MalformedRowError),
        ],
        ids=["date", "number", "ragged"],
    )
    def test_error_names_the_line_past_a_field_spanning_lines(self, row, error):
        # the first value's quoted cell spans lines 2 and 3
        text = 'date,kelvin\n2015-01-01,"280.0\n"\n' + row + "\n"
        with pytest.raises(error) as excinfo:
            read_csv(text)
        assert excinfo.value.line == 4

    @pytest.mark.parametrize(
        "cell",
        ["2_80.5", "28\uff10.5", "\xa0280.5\xa0"],
        ids=["underscore", "fullwidth digit", "no-break space"],
    )
    def test_value_that_is_not_a_plain_number_is_rejected(self, cell):
        # float() reads each of these as 280.5
        text = "date,kelvin\n2015-01-01,280.0\n2015-01-02,CELL\n"
        assert read_csv(text.replace("CELL", " 280.5 ")).values[1] == 280.5
        with pytest.raises(MalformedRowError) as excinfo:
            read_csv(text.replace("CELL", cell))
        assert str(excinfo.value) == f"malformed row at line 3: not a number: {cell!r}"

    def test_date_that_is_not_ascii_is_rejected(self):
        # str.strip() would take the no-break spaces off
        text = "date,kelvin\n2015-01-01,280.0\nCELL,280.5\n"
        assert read_csv(text.replace("CELL", " 2015-01-02 ")).values[1] == 280.5
        with pytest.raises(MalformedDateError) as excinfo:
            read_csv(text.replace("CELL", "\xa02015-01-02\xa0"))
        assert excinfo.value.line == 3

    def test_february_29_rows_are_dropped(self):
        text = "date,kelvin\n2020-02-28,280.0\n2020-02-29,281.0\n2020-03-01,282.0\n"
        series = read_csv(text)
        assert series.start_date == dt.date(2020, 2, 28)
        assert series.values.tolist() == [280.0, 282.0]


class TestParseDate:
    @given(day=st.dates())
    @settings(max_examples=80, deadline=None)
    def test_reads_every_isoformat_date(self, day):
        assert parse_date(day.isoformat()) == day

    @pytest.mark.parametrize(
        "text",
        ["20200101", "2020-W01-5", "2020W015", "2020-W01", "2020-001", "2020-1-01",
         "2020-01-1", "2020-01-01T00:00", "2020/01/01", "2020-13-01", "2020-0a-01",
         " 2020-01-01", "", "\uff12020-01-01"],
    )
    def test_rejects_anything_but_yyyy_mm_dd(self, text):
        with pytest.raises(ValueError):
            parse_date(text)

    @given(text=st.text(alphabet="0123456789-W:T ", max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_accepts_only_the_isoformat_spelling(self, text):
        try:
            day = parse_date(text)
        except ValueError:
            return
        assert day.isoformat() == text


def reference_non_consecutive_index(dates):
    """Per-date loop over the rule in drop_leap_days' docstring."""
    for i in range(1, len(dates)):
        step = (dates[i] - dates[i - 1]).days
        over_leap_day = step == 2 and is_leap_day(dates[i - 1] + dt.timedelta(days=1))
        if step != 1 and not over_leap_day:
            return i
    return None


class TestDropLeapDays:
    @given(
        start=st.one_of(near_leap_day, st.dates(dt.date(1800, 1, 1), dt.date(2200, 1, 1))),
        steps=st.lists(
            st.sampled_from([1, 1, 1, 1, 2, 0, -1, 3]), min_size=0, max_size=60
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_raises_where_the_reference_loop_does(self, start, steps):
        dates = [start]
        for step in steps:
            dates.append(dates[-1] + dt.timedelta(days=step))
        values = 280.0 + np.arange(len(dates), dtype=float)
        bad = reference_non_consecutive_index(dates)
        kept = [i for i, day in enumerate(dates) if not is_leap_day(day)]
        if bad is not None:
            with pytest.raises(ValidationError) as excinfo:
                drop_leap_days(dates, values)
            assert excinfo.value.index == bad
            assert excinfo.value.rule == "non-consecutive"
        elif not kept:
            with pytest.raises(EmptyInputError):
                drop_leap_days(dates, values)
        else:
            series = drop_leap_days(dates, values)
            assert series.start_date == dates[kept[0]]
            np.testing.assert_array_equal(series.values, values[kept])
            assert series.dates() == [dates[i] for i in kept]

    def test_removes_feb_29(self):
        dates = daily_dates(dt.date(2016, 2, 28), 3)  # 28, 29, Mar 1
        series = drop_leap_days(dates, [280.0, 285.0, 281.0])
        assert len(series) == 2
        assert list(series.values) == [280.0, 281.0]
        assert series.start_date == dt.date(2016, 2, 28)

    def test_plain_year_unchanged(self):
        dates = daily_dates(dt.date(2015, 1, 1), 365)
        values = np.linspace(260.0, 290.0, 365)
        series = drop_leap_days(dates, values)
        assert len(series) == 365
        np.testing.assert_array_equal(series.values, values)

    def test_full_span_2015_2020_drops_two_days(self):
        # brute-force count of Feb 29 occurrences over the span
        dates = []
        day = dt.date(2015, 1, 1)
        while day <= dt.date(2020, 12, 31):
            dates.append(day)
            day += dt.timedelta(days=1)
        assert len(dates) == 2192
        assert sum(1 for d in dates if d.month == 2 and d.day == 29) == 2
        series = drop_leap_days(dates, np.full(len(dates), 280.0))
        assert len(series) == 2190

    def test_no_observations_is_not_all_february_29(self):
        with pytest.raises(EmptyInputError, match="^no dated observations$"):
            drop_leap_days([], [])
        with pytest.raises(EmptyInputError, match="^every observation fell on"):
            drop_leap_days([dt.date(2016, 2, 29)], [280.0])

    def test_duplicate_date_reports_non_consecutive_at_index(self):
        dates = daily_dates(JAN1, 4)
        dates[2] = dates[1]
        with pytest.raises(ValidationError) as excinfo:
            drop_leap_days(dates, [280.0] * 4)
        assert excinfo.value.index == 2
        assert excinfo.value.rule == "non-consecutive"

    def test_gap_reports_non_consecutive(self):
        dates = daily_dates(JAN1, 3)
        dates[2] = dates[2] + dt.timedelta(days=5)
        with pytest.raises(ValidationError) as excinfo:
            drop_leap_days(dates, [280.0] * 3)
        assert excinfo.value.index == 2

    def test_step_from_9999_12_31_is_non_consecutive(self):
        # the step check looks one day past every date but the last
        dates = [dt.date(9999, 12, 30), dt.date(9999, 12, 31), dt.date(9999, 12, 29)]
        with pytest.raises(ValidationError) as excinfo:
            drop_leap_days(dates, [280.0] * 3)
        assert excinfo.value.index == 2
        assert excinfo.value.rule == "non-consecutive"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            drop_leap_days(daily_dates(JAN1, 3), [280.0, 281.0])

    @given(
        start_offset=st.integers(min_value=0, max_value=1500),
        n=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, start_offset, n):
        start = dt.date(2015, 6, 1) + dt.timedelta(days=start_offset)
        dates = daily_dates(start, n)
        values = 280.0 + np.arange(n, dtype=float)
        if all(map(is_leap_day, dates)):
            # a lone February 29 leaves no series to take again
            with pytest.raises(EmptyInputError):
                drop_leap_days(dates, values)
            return
        first = drop_leap_days(dates, values)
        again = drop_leap_days(first.dates(), first.values)
        assert again.start_date == first.start_date
        np.testing.assert_array_equal(again.values, first.values)


class TestRmse:
    def test_identical_sequences_give_zero(self):
        assert rmse([280.0, 285.0], [280.0, 285.0]) == 0.0

    def test_hand_computed_example(self):
        # sqrt((3^2 + 4^2) / 2) worked out by hand
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )

    def test_single_pair_is_absolute_difference(self):
        assert rmse([281.5], [280.0]) == pytest.approx(1.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rmse([1.0, 2.0], [1.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            rmse([], [])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_shift_invariant(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        finite = st.floats(min_value=170.0, max_value=350.0)
        xs = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        ys = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        shift = data.draw(st.floats(min_value=-50.0, max_value=50.0))
        assert rmse(xs, ys) == rmse(ys, xs)
        assert rmse(xs + shift, ys + shift) == pytest.approx(
            rmse(xs, ys), abs=1e-9
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_explicit_loop(self, data):
        n = data.draw(st.integers(min_value=1, max_value=50))
        finite = st.floats(min_value=-100.0, max_value=100.0)
        xs = data.draw(st.lists(finite, min_size=n, max_size=n))
        ys = data.draw(st.lists(finite, min_size=n, max_size=n))
        total = 0.0
        for x, y in zip(xs, ys):
            total += (x - y) ** 2
        expected = math.sqrt(total / n)
        assert rmse(xs, ys) == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestSplitAtOrigin:
    def test_basic_split(self, make_series):
        series = make_series(np.arange(280.0, 290.0))
        train, test = split_at_origin(series, 8, 2)
        assert len(train) == 8
        np.testing.assert_array_equal(test, [288.0, 289.0])

    def test_rejects_overrun(self, make_series):
        series = make_series(np.arange(280.0, 290.0))
        with pytest.raises(OutOfRangeError):
            split_at_origin(series, 9, 2)

    def test_rejects_zero_origin_and_lead(self, make_series):
        series = make_series(np.arange(280.0, 290.0))
        with pytest.raises(OutOfRangeError):
            split_at_origin(series, 0, 1)
        with pytest.raises(OutOfRangeError):
            split_at_origin(series, 2, 0)

    def test_five_year_window_arithmetic(self, make_series):
        series = make_series(np.full(2190, 280.0))
        train, test = split_at_origin(series, 1825, 4)
        assert len(train) == 1825
        assert len(test) == 4

    @given(
        n=st.integers(min_value=2, max_value=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_concat_reproduces_slice(self, n, data):
        origin = data.draw(st.integers(min_value=1, max_value=n - 1))
        max_lead = data.draw(st.integers(min_value=1, max_value=n - origin))
        values = 280.0 + np.arange(n, dtype=float)
        series = TimeSeries(JAN1, values)
        train, test = split_at_origin(series, origin, max_lead)
        joined = np.concatenate([train.values, test])
        np.testing.assert_array_equal(joined, values[: origin + max_lead])

