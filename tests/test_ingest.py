import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcast import (
    UNITS,
    CleanConfig,
    RawRecordSet,
    clean_report,
    parse_cdo_csv,
)
from tempcast.errors import (
    DuplicateDateError,
    EmptyAfterFilterError,
    EmptyInputError,
    GapTooLargeError,
    MalformedDateError,
    MalformedRowError,
    MissingColumnError,
    MultipleStationsError,
    NonFiniteError,
    ValidationError,
)
from tempcast.ingest import clean, to_kelvin

HEADER = "STATION,DATE,TAVG\n"


def record_set(*rows, unit="celsius"):
    return RawRecordSet(
        stations=("USW00099999",) * len(rows),
        dates=tuple(dt.date.fromisoformat(d) for d, _ in rows),
        tavg=tuple(v for _, v in rows),
        unit=unit,
    )


class TestParse:
    def test_basic_row(self):
        rs = parse_cdo_csv(HEADER + "USW00094849,2015-01-01,-8.2\n", unit="celsius")
        assert len(rs) == 1
        assert rs.stations[0] == "USW00094849"
        assert rs.dates[0] == dt.date(2015, 1, 1)
        assert rs.tavg[0] == -8.2

    def test_empty_tavg_becomes_missing(self):
        rs = parse_cdo_csv(HEADER + "USW00094849,2015-01-02,\n", unit="celsius")
        assert rs.tavg[0] is None

    def test_missing_tavg_column(self):
        with pytest.raises(MissingColumnError) as excinfo:
            parse_cdo_csv("STATION,DATE\nX,2015-01-01\n", unit="celsius")
        assert excinfo.value.column == "TAVG"

    def test_missing_station_column(self):
        with pytest.raises(MissingColumnError) as excinfo:
            parse_cdo_csv("NAME,DATE,TAVG\nX,2015-01-01,1\n", unit="celsius")
        assert excinfo.value.column == "STATION"

    def test_header_case_and_order_free_with_extras(self):
        text = 'tavg,name,date,station\n-3.5,"SOMEWHERE, XX US",2015-02-01,ABC\n'
        rs = parse_cdo_csv(text, unit="celsius")
        assert rs.stations[0] == "ABC"
        assert rs.tavg[0] == -3.5

    def test_quoted_comma_field_handled(self):
        text = 'STATION,NAME,DATE,TAVG\nABC,"TOWN, XX US",2015-02-01,4.0\n'
        rs = parse_cdo_csv(text, unit="celsius")
        assert rs.tavg[0] == 4.0

    def test_malformed_date_names_line(self):
        text = HEADER + "A,2015-01-01,1.0\nA,01/02/2015,1.5\n"
        with pytest.raises(MalformedDateError) as excinfo:
            parse_cdo_csv(text, unit="celsius")
        assert excinfo.value.line == 3

    def test_malformed_number_names_line(self):
        text = HEADER + "A,2015-01-01,warm\n"
        with pytest.raises(MalformedRowError) as excinfo:
            parse_cdo_csv(text, unit="celsius")
        assert excinfo.value.line == 2

    def test_ragged_row_names_line(self):
        text = HEADER + "A,2015-01-01\n"
        with pytest.raises(MalformedRowError) as excinfo:
            parse_cdo_csv(text, unit="celsius")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            (HEADER + "A,2015-01-01,1.0\nA\rB,2015-01-02,1.5\n", 3),
            ("STATION,DA\rTE,TAVG\n", 1),
            (HEADER + 'A,2015-01-01,"' + "9" * 200_000 + '"\n', 2),
        ],
        ids=["carriage-return-in-row", "carriage-return-in-header", "oversized-field"],
    )
    def test_unreadable_csv_names_line(self, text, line):
        with pytest.raises(MalformedRowError) as excinfo:
            parse_cdo_csv(text, unit="celsius")
        assert excinfo.value.line == line

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            parse_cdo_csv(HEADER, unit="kelvin")

    def test_fallback_uses_tmax_tmin_midpoint(self):
        text = "STATION,DATE,TMAX,TMIN\nA,2015-01-01,10.0,2.0\n"
        rs = parse_cdo_csv(text, unit="celsius", tmax_tmin_fallback=True)
        assert rs.tavg[0] == 6.0

    def test_fallback_requires_minmax_columns(self):
        with pytest.raises(MissingColumnError) as excinfo:
            parse_cdo_csv("STATION,DATE,TMAX\nA,2015-01-01,10.0\n",
                          unit="celsius", tmax_tmin_fallback=True)
        assert excinfo.value.column == "TMIN"

    def test_fallback_prefers_explicit_tavg(self):
        text = "STATION,DATE,TAVG,TMAX,TMIN\nA,2015-01-01,5.0,10.0,2.0\n"
        rs = parse_cdo_csv(text, unit="celsius", tmax_tmin_fallback=True)
        assert rs.tavg[0] == 5.0

    def test_fallback_partial_minmax_stays_missing(self):
        text = "STATION,DATE,TAVG,TMAX,TMIN\nA,2015-01-01,,10.0,\n"
        rs = parse_cdo_csv(text, unit="celsius", tmax_tmin_fallback=True)
        assert rs.tavg[0] is None

    def test_round_trip_through_serializer(self):
        text = HEADER + "A,2015-01-01,-8.2\nA,2015-01-02,\nA,2015-01-03,3.75\n"
        once = parse_cdo_csv(text, unit="fahrenheit")
        again = parse_cdo_csv(once.to_csv(), unit="fahrenheit")
        assert once == again

    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    st.characters(blacklist_categories=("Cs",)), min_size=1
                ).map(str.strip).filter(bool)
                | st.sampled_from(['A,B', '"Q" US', 'X, "Y", Z', "A\rB", "A\r\nB"]),
                st.dates(),
                st.none() | st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=20,
        ),
        unit=st.sampled_from(UNITS),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, rows, unit):
        rs = RawRecordSet(
            stations=[station for station, _, _ in rows],
            dates=[date for _, date, _ in rows],
            tavg=[value for _, _, value in rows],
            unit=unit,
        )
        assert parse_cdo_csv(rs.to_csv(), rs.unit) == rs

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError):
            RawRecordSet(("A", "A"), (dt.date(2015, 1, 1),), (1.0,), "celsius")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_is_rejected_not_a_gap(self, cell):
        text = HEADER + f"A,2015-01-01,1.0\nA,2015-01-02,{cell}\nA,2015-01-03,2.0\n"
        rs = parse_cdo_csv(text, unit="celsius")
        with pytest.raises(NonFiniteError) as excinfo:
            clean(rs)
        assert str(excinfo.value) == f"temperature is not finite: {float(cell)!r}"


class TestToKelvin:
    def test_celsius_zero(self):
        assert to_kelvin(0.0, "celsius") == 273.15

    def test_fahrenheit_freezing(self):
        assert to_kelvin(32.0, "fahrenheit") == 273.15

    def test_tenths_celsius_by_hand(self):
        assert to_kelvin(-82.0, "tenths-celsius") == pytest.approx(264.95, abs=1e-12)

    def test_scales_agree_at_minus_forty(self):
        assert to_kelvin(-40.0, "celsius") == to_kelvin(-40.0, "fahrenheit")
        assert to_kelvin(-40.0, "celsius") == pytest.approx(233.15, abs=1e-12)

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteError):
                to_kelvin(bad, "celsius")

    @given(
        a=st.floats(min_value=-80.0, max_value=60.0),
        gap=st.floats(min_value=1e-6, max_value=50.0),
        unit=st.sampled_from(["celsius", "fahrenheit", "tenths-celsius"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_monotonic(self, a, gap, unit):
        assert to_kelvin(a, unit) < to_kelvin(a + gap, unit)
        assert to_kelvin(a, unit) == to_kelvin(a, unit)


class TestClean:
    def test_midpoint_interpolation(self):
        rs = record_set(("2015-01-01", -3.15), ("2015-01-03", 0.85))
        series = clean(rs, CleanConfig(max_gap=1))
        assert len(series) == 3
        assert series.values[0] == pytest.approx(270.0, abs=1e-12)
        assert series.values[1] == pytest.approx(272.0, abs=1e-9)
        assert series.values[2] == pytest.approx(274.0, abs=1e-12)

    def test_gap_over_limit_rejected(self):
        # 10 missing days, then 17: the first run over the limit is reported
        rs = record_set(("2015-01-01", 1.0), ("2015-01-12", 2.0), ("2015-01-30", 3.0))
        with pytest.raises(GapTooLargeError) as excinfo:
            clean(rs, CleanConfig(max_gap=7))
        assert excinfo.value.start == dt.date(2015, 1, 2)
        assert excinfo.value.length == 10

    def test_max_gap_zero_forbids_any_hole(self):
        rs = record_set(("2015-01-01", 1.0), ("2015-01-03", 2.0))
        with pytest.raises(GapTooLargeError):
            clean(rs, CleanConfig(max_gap=0))

    def test_duplicate_date_rejected(self):
        rs = record_set(("2015-03-04", 1.0), ("2015-03-05", 2.0), ("2015-03-05", 2.0))
        with pytest.raises(DuplicateDateError) as excinfo:
            clean(rs)
        assert excinfo.value.date == dt.date(2015, 3, 5)

    def test_empty_after_station_filter(self):
        rs = record_set(("2015-01-01", 1.0))
        with pytest.raises(EmptyAfterFilterError):
            clean(rs, CleanConfig(station_filter="OTHER"))

    def test_all_values_missing_rejected(self):
        rs = record_set(("2015-01-01", None), ("2015-01-02", None))
        with pytest.raises(EmptyAfterFilterError):
            clean(rs)

    def test_date_range_filter_inclusive(self):
        rs = record_set(*((f"2015-01-{d:02d}", float(d)) for d in range(1, 11)))
        series = clean(rs, CleanConfig(start=dt.date(2015, 1, 3), end=dt.date(2015, 1, 6)))
        assert len(series) == 4
        assert series.start_date == dt.date(2015, 1, 3)
        assert series.values[0] == pytest.approx(3.0 + 273.15)
        assert series.values[-1] == pytest.approx(6.0 + 273.15)

    def test_leading_and_trailing_missing_trimmed(self):
        rs = record_set(
            ("2015-01-01", None),
            ("2015-01-02", 1.0),
            ("2015-01-03", 2.0),
            ("2015-01-04", None),
        )
        series = clean(rs)
        assert series.start_date == dt.date(2015, 1, 2)
        assert len(series) == 2

    def test_multiple_stations_need_filter(self):
        rs = RawRecordSet(
            stations=("A", "B"),
            dates=(dt.date(2015, 1, 1), dt.date(2015, 1, 2)),
            tavg=(1.0, 2.0),
            unit="celsius",
        )
        with pytest.raises(MultipleStationsError):
            clean(rs)
        series = clean(rs, CleanConfig(station_filter="A"))
        assert series.station_id == "A"

    def test_observed_values_pass_through_exactly(self, rng):
        days = [(f"2015-02-{d:02d}", float(v)) for d, v in
                zip(range(1, 26), np.round(rng.normal(2.0, 5.0, 25), 1))]
        rs = record_set(*days)
        series = clean(rs)
        expected = np.array([v + 273.15 for _, v in days])
        np.testing.assert_array_equal(series.values, expected)

    def test_leap_day_dropped_and_interpolation_coexist(self):
        rs = record_set(
            ("2016-02-28", 0.0),
            ("2016-02-29", 0.5),
            ("2016-03-01", 1.0),
            ("2016-03-03", 2.0),  # Mar 2 missing
        )
        series, stats = clean_report(rs, CleanConfig(max_gap=2))
        assert series.dates() == [
            dt.date(2016, 2, 28),
            dt.date(2016, 3, 1),
            dt.date(2016, 3, 2),
            dt.date(2016, 3, 3),
        ]
        assert series.values[2] == pytest.approx(1.5 + 273.15, abs=1e-9)
        assert stats.leap_days_dropped == 1
        assert stats.interpolated_days == 1

    def test_implausible_value_caught_by_validation(self):
        rs = record_set(("2015-01-01", 1.0), ("2015-01-02", 120.0))
        with pytest.raises(ValidationError) as excinfo:
            clean(rs)
        assert excinfo.value.rule == "range"

    def test_conversion_overflow_is_rejected_not_interpolated(self):
        rs = record_set(("2015-01-01", 40.0), ("2015-01-02", 1e308),
                        ("2015-01-03", 41.0), unit="fahrenheit")
        with pytest.raises(ValidationError) as excinfo:
            clean(rs)
        assert excinfo.value.index == 1

    def test_fahrenheit_unit_applied(self):
        rs = record_set(("2015-01-01", 32.0), ("2015-01-02", 50.0), unit="fahrenheit")
        series = clean(rs)
        assert series.values[0] == pytest.approx(273.15)
        assert series.values[1] == pytest.approx(283.15)


def reference_missing_runs(have):
    """(start, length) of each run of False in ``have``, by scanning."""
    runs, index = [], 0
    while index < len(have):
        if have[index]:
            index += 1
            continue
        start = index
        while index < len(have) and not have[index]:
            index += 1
        runs.append((start, index - start))
    return runs


class TestCleaningProperty:
    @given(
        start=st.dates(dt.date(2014, 1, 1), dt.date(2021, 12, 31)),
        cells=st.lists(
            st.tuples(
                st.sampled_from(["value", "value", "value", "empty", "absent"]),
                st.floats(min_value=-60.0, max_value=60.0),
            ),
            min_size=1,
            max_size=80,
        ),
        max_gap=st.integers(min_value=0, max_value=6),
        bad=st.none() | st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_gaps_fill_or_raise_like_a_scan(self, start, cells, max_gap, bad, data):
        days = [start + dt.timedelta(days=i) for i in range(len(cells))]
        rows = [
            (day, value if kind == "value" else None)
            for day, (kind, value) in zip(days, cells)
            if kind != "absent"
        ]
        observed = {day: value for day, value in rows if value is not None}
        if not observed:
            return
        if bad is not None:
            spoiled = data.draw(st.sampled_from(sorted(observed)))
            rows = [(d, bad if d == spoiled else v) for d, v in rows]
        rows = data.draw(st.permutations(rows))
        rs = RawRecordSet(
            stations=["S"] * len(rows),
            dates=[day for day, _ in rows],
            tavg=[value for _, value in rows],
            unit="celsius",
        )
        if bad is not None:
            with pytest.raises(NonFiniteError) as excinfo:
                clean_report(rs, CleanConfig(max_gap=max_gap))
            assert str(excinfo.value) == f"temperature is not finite: {bad!r}"
            return

        first, last = min(observed), max(observed)
        span = [first + dt.timedelta(days=i) for i in range((last - first).days + 1)]
        runs = reference_missing_runs([day in observed for day in span])
        too_long = [(s, n) for s, n in runs if n > max_gap]
        if too_long:
            with pytest.raises(GapTooLargeError) as excinfo:
                clean_report(rs, CleanConfig(max_gap=max_gap))
            assert excinfo.value.start == span[too_long[0][0]]
            assert excinfo.value.length == too_long[0][1]
            return
        kept = [day for day in span if not (day.month == 2 and day.day == 29)]
        if not kept:
            with pytest.raises(EmptyInputError):
                clean_report(rs, CleanConfig(max_gap=max_gap))
            return
        series, stats = clean_report(rs, CleanConfig(max_gap=max_gap))
        assert series.dates() == kept
        assert stats.kept_rows == len(rows)
        assert stats.observed_days == len(observed)
        assert stats.interpolated_days == sum(n for _, n in runs)
        assert stats.leap_days_dropped == len(span) - len(kept)
        for index, day in enumerate(kept):
            if day in observed:
                assert series.values[index] == observed[day] + 273.15
