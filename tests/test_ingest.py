import csv
import datetime as dt
import io
import math
import tracemalloc
from pathlib import Path

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
    ArgumentError,
    DuplicateDateError,
    EmptyAfterFilterError,
    EmptyInputError,
    GapTooLargeError,
    MalformedDateError,
    MalformedRowError,
    MissingColumnError,
    MultipleStationsError,
    NonFiniteError,
    TempcastError,
    ValidationError,
)
from tempcast.ingest import _read_export_bytes, clean, to_kelvin
from tempcast.series import parse_date

HEADER = "STATION,DATE,TAVG\n"
JAN1 = dt.date(2015, 1, 1).toordinal()


def export_csv(records):
    """The records as a three-column export, lines ending in CRLF as
    RFC 4180 has them; the writer quotes any field holding a character
    of the line terminator, so a station id containing a carriage
    return or a line feed reads back intact."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(["STATION", "DATE", "TAVG"])
    writer.writerows(
        (station, dt.date.fromordinal(day).isoformat(), "" if math.isnan(value) else repr(value))
        for station, day, value in zip(
            records.stations, records.ordinals.tolist(), records.tavg.tolist()
        )
    )
    return out.getvalue()


def record_set(*rows, unit="celsius"):
    return RawRecordSet(
        stations=("USW00099999",) * len(rows),
        ordinals=tuple(dt.date.fromisoformat(d).toordinal() for d, _ in rows),
        tavg=tuple(math.nan if v is None else v for _, v in rows),
        unit=unit,
    )


# Characters of ISO dates, week dates and times, and a fullwidth digit.
DATE_CHARS = "0123456789-W:T /\uff11"
# ISO dates with one character replaced by one of DATE_CHARS.
near_miss_dates = st.tuples(
    st.dates().map(dt.date.isoformat),
    st.integers(min_value=0, max_value=9),
    st.sampled_from(DATE_CHARS),
).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1 :])


class TestParse:
    def test_basic_row(self):
        rs = parse_cdo_csv(HEADER + "USW00094849,2015-01-01,-8.2\n", unit="celsius")
        assert len(rs) == 1
        assert rs.stations[0] == "USW00094849"
        assert rs.ordinals.tolist() == [dt.date(2015, 1, 1).toordinal()]
        assert rs.tavg[0] == -8.2

    def test_empty_tavg_becomes_missing(self):
        rs = parse_cdo_csv(HEADER + "USW00094849,2015-01-02,\n", unit="celsius")
        assert math.isnan(rs.tavg[0])

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

    @pytest.mark.parametrize(
        "rows, error",
        [
            ('"A\nB",2015-01-01,1.0\nA,2015-13-01,2.0\n', MalformedDateError),
            ('"A\nB",2015-01-01,1.0\nA,2015-01-02,warm\n', MalformedRowError),
            ('"A\nB",2015-01-01,1.0\nA,2015-01-02\n', MalformedRowError),
            ('A,2015-01-01,1.0\n"A\nB",2015-13-01,2.0\n', MalformedDateError),
        ],
        ids=["date-after", "number-after", "ragged-after", "date-in-the-row"],
    )
    def test_error_names_the_line_past_a_field_spanning_lines(self, rows, error):
        # a quoted cell spans lines 2 and 3 or 3 and 4: the bad row ends on line 4
        with pytest.raises(error) as excinfo:
            parse_cdo_csv(HEADER + rows, unit="celsius")
        assert excinfo.value.line == 4

    def test_malformed_number_names_line(self):
        text = HEADER + "A,2015-01-01,warm\n"
        with pytest.raises(MalformedRowError) as excinfo:
            parse_cdo_csv(text, unit="celsius")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            HEADER + "A,2015-01-01,1.0\nA,2015-01-02,CELL\n",
            "STATION,DATE,TMAX,TMIN\nA,2015-01-01,1.0,0.0\nA,2015-01-02,CELL,0.0\n",
            "STATION,DATE,TMAX,TMIN\nA,2015-01-01,1.0,0.0\nA,2015-01-02,2.0, CELL\n",
        ],
        ids=["tavg", "tmax", "tmin"],
    )
    @pytest.mark.parametrize("cell", ["1_0.5", "\uff11"], ids=["underscore", "fullwidth"])
    def test_value_that_is_not_a_plain_number_is_rejected(self, text, cell):
        # float() reads these as 10.5 and 1.0
        with pytest.raises(MalformedRowError) as excinfo:
            parse_cdo_csv(
                text.replace("CELL", cell), "celsius", tmax_tmin_fallback="TMAX" in text
            )
        assert str(excinfo.value) == f"malformed row at line 3: not a number: {cell!r}"

    def test_non_ascii_or_underscore_elsewhere_leaves_values_alone(self):
        text = "STATION,NAME,DATE,TAVG\nUS_1,M\u00dcNCHEN,2015-01-01,\xa01.5\n"
        rs = parse_cdo_csv(text, unit="celsius", station="US_1")
        assert rs.tavg.tolist() == [1.5]

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
        assert math.isnan(rs.tavg[0])

    def test_round_trip_through_serializer(self):
        text = HEADER + "A,2015-01-01,-8.2\nA,2015-01-02,\nA,2015-01-03,3.75\n"
        once = parse_cdo_csv(text, unit="fahrenheit")
        again = parse_cdo_csv(export_csv(once), unit="fahrenheit")
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
            ordinals=[date.toordinal() for _, date, _ in rows],
            tavg=[math.nan if value is None else value for _, _, value in rows],
            unit=unit,
        )
        assert parse_cdo_csv(export_csv(rs), rs.unit) == rs

    @pytest.mark.parametrize("rows_read", [0, 1.5, True, "2"])
    def test_rows_read_is_a_whole_number_no_smaller_than_the_rows(self, rows_read):
        with pytest.raises(ValueError):
            RawRecordSet(("A",), (JAN1,), (1.0,), "celsius", rows_read)

    def test_rows_read_defaults_to_the_rows_held(self):
        rs = RawRecordSet(("A",), (JAN1,), (1.0,), "celsius")
        assert rs.rows_read == 1
        assert RawRecordSet((), (), (), "celsius", rows_read=5).rows_read == 5

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="^column lengths differ"):
            RawRecordSet(("A", "A"), (JAN1,), (1.0,), "celsius")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_is_rejected_not_a_gap(self, cell):
        text = HEADER + f"A,2015-01-01,1.0\nA,2015-01-02,{cell}\nA,2015-01-03,2.0\n"
        if cell == "nan":  # NaN marks an empty cell, so the parse rejects a NaN cell
            with pytest.raises(NonFiniteError) as excinfo:
                parse_cdo_csv(text, unit="celsius")
        else:
            rs = parse_cdo_csv(text, unit="celsius")
            with pytest.raises(NonFiniteError) as excinfo:
                clean(rs)
        assert str(excinfo.value) == f"temperature is not finite: {float(cell)!r}"

    def test_nan_cell_of_another_station_is_rejected(self):
        text = HEADER + "A,2015-01-01,1.0\nB,2015-01-02,nan\nA,2015-01-02,2.0\n"
        for station in (None, "A"):
            with pytest.raises(NonFiniteError, match="^temperature is not finite: nan$"):
                parse_cdo_csv(text, "celsius", station=station)

    @pytest.mark.parametrize(
        "tmax, tmin", [("1e400", "-1e400"), ("nan", "1.0"), ("1.0", "nan")],
        ids=["inf-and-minus-inf", "nan-tmax", "nan-tmin"],
    )
    def test_midpoint_that_is_nan_is_rejected(self, tmax, tmin):
        text = f"STATION,DATE,TMAX,TMIN\nB,2015-01-01,{tmax},{tmin}\nA,2015-01-01,1.0,0.0\n"
        for station in (None, "A"):
            with pytest.raises(NonFiniteError, match="^temperature is not finite: nan$"):
                parse_cdo_csv(text, "celsius", tmax_tmin_fallback=True, station=station)

    def test_nan_beside_an_empty_cell_stays_missing(self):
        # no midpoint is taken, so nothing reads as NaN
        text = "STATION,DATE,TMAX,TMIN\nA,2015-01-01,nan,\n"
        rs = parse_cdo_csv(text, "celsius", tmax_tmin_fallback=True)
        assert math.isnan(rs.tavg[0])

    @given(
        cell=st.tuples(
            st.text(" ", max_size=2),
            st.text(st.sampled_from(DATE_CHARS), max_size=12)
            | st.dates().map(dt.date.isoformat)
            | near_miss_dates
            | st.from_regex(r"[0-9]{4}-?W[0-9]{2}(-?[0-9])?", fullmatch=True),
            st.text(" ", max_size=2),
        ).map("".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_date_cells_read_as_parse_date_reads_them(self, cell):
        """A DATE cell reads as parse_date reads it, after str.strip, and a
        cell it rejects is a malformed date at the row's line."""
        text = f"STATION,DATE,TAVG\nA,{cell},1.0\n"
        try:
            expected = parse_date(cell.strip())
        except ValueError:
            with pytest.raises(MalformedDateError) as excinfo:
                parse_cdo_csv(text, "celsius")
            assert excinfo.value.line == 2
        else:
            assert parse_cdo_csv(text, "celsius").ordinals.tolist() == [expected.toordinal()]


class TestRecordSet:
    @pytest.mark.parametrize(
        "ordinals",
        [
            [1.5], [True], [dt.date(2015, 1, 1)], ["x"], np.full((1, 1), JAN1), [0],
            [dt.date.max.toordinal() + 1], [-1],
            [JAN1, True], np.array([float(JAN1)]), np.array([2**64 - 1], dtype=np.uint64),
        ],
        ids=[
            "float", "bool", "date", "str", "two-dimensional", "zero", "past-date-max",
            "negative", "int-and-bool", "float-array", "uint64-past-date-max",
        ],
    )
    def test_ordinals_must_be_integers_from_1_to_date_max(self, ordinals):
        n = len(ordinals)
        with pytest.raises(ArgumentError):
            RawRecordSet(("A",) * n, ordinals, (1.0,) * n, "celsius")

    def test_first_and_last_ordinals_and_unsigned_ones_are_kept(self):
        days = np.array([1, dt.date.max.toordinal()], dtype=np.uint32)
        rs = RawRecordSet(("A", "A"), days, (1.0, 2.0), "celsius")
        assert rs.ordinals.dtype == np.int64
        assert rs.ordinals.tolist() == [1, dt.date.max.toordinal()]

    @pytest.mark.parametrize(
        "empty", [(), [], np.empty(0), np.empty(0, dtype=np.int64)],
        ids=["tuple", "list", "float-array", "int-array"],
    )
    def test_empty_columns_construct(self, empty):
        rs = RawRecordSet(empty, empty, empty, "celsius", rows_read=5)
        assert (len(rs), rs.rows_read) == (0, 5)
        assert (rs.ordinals.dtype, rs.tavg.dtype) == (np.int64, np.float64)

    def test_columns_are_read_only_copies(self):
        days, values = np.array([JAN1, JAN1 + 1]), np.array([1.0, math.nan])
        rs = RawRecordSet(("A", "A"), days, values, "celsius")
        days[0], values[0] = 1, 5.0
        assert rs.ordinals.tolist() == [JAN1, JAN1 + 1]
        assert rs.tavg[0] == 1.0
        for column in (rs.ordinals, rs.tavg):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_record_sets_are_equal_when_their_values_are(self):
        data = (Path(__file__).parent / "data" / "synthetic_station_daily.csv").read_bytes()
        first = _read_export_bytes(data, "celsius")
        again = _read_export_bytes(data, "celsius")
        parsed = parse_cdo_csv(data.decode("utf-8"), "celsius")
        assert first == again == parsed
        assert hash(first) == hash(again) == hash(parsed)
        assert np.isnan(first.tavg).any()  # empty cells compare equal too
        changed = first.tavg.copy()
        changed[0] += 0.5
        other = RawRecordSet(first.stations, first.ordinals, changed, "celsius", first.rows_read)
        assert other != first
        assert RawRecordSet(first.stations, first.ordinals, first.tavg, "fahrenheit") != first


def spoil(cells, kind):
    """STATION, NAME, DATE and TAVG cells made to fail one parse check:
    the date, the number or the field count."""
    if kind == "ragged":
        return cells[:-1]
    column, cell = {"date": (2, "01/02/2015"), "number": (3, "warm")}[kind]
    return [*cells[:column], cell, *cells[column + 1:]]


class TestStationFilter:
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["A", " A", "A ", "B", "C"]),
                st.sampled_from(["X", "TOWN, XX US", "ONE\nTWO", 'Q "U", \r\nZ']),
                st.dates(dt.date(1900, 1, 1), dt.date(2100, 12, 31)),
                st.none() | st.floats(min_value=-60.0, max_value=60.0),
                st.booleans(),
            ),
            max_size=25,
        ),
        bad=st.none() | st.tuples(st.integers(min_value=0),
                                  st.sampled_from(["date", "number", "ragged"])),
        station=st.sampled_from(["A", "B", "C", "D"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_parse_time_filter_matches_filtering_afterwards(self, rows, bad, station):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(["STATION", "NAME", "DATE", "TAVG"])
        for index, (sid, name, date, value, blank_before) in enumerate(rows):
            if blank_before:
                out.write("\r\n")
            cells = [sid, name, date.isoformat(), "" if value is None else repr(value)]
            if bad is not None and index == bad[0] % len(rows):
                cells = spoil(cells, bad[1])
            writer.writerow(cells)
        text = out.getvalue()

        if bad is not None and rows:
            with pytest.raises(TempcastError) as whole:
                parse_cdo_csv(text, "celsius")
            with pytest.raises(TempcastError) as one:
                parse_cdo_csv(text, "celsius", station=station)
            assert type(one.value) is type(whole.value)
            assert one.value.line == whole.value.line
            return
        every = parse_cdo_csv(text, "celsius")
        kept = parse_cdo_csv(text, "celsius", station=station)
        where = [i for i, sid in enumerate(every.stations) if sid == station]
        assert kept.stations == tuple(every.stations[i] for i in where)
        assert kept.ordinals.tolist() == every.ordinals[where].tolist()
        np.testing.assert_array_equal(kept.tavg, every.tavg[where])
        assert kept.rows_read == every.rows_read == len(every) == len(rows)

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["A", "B"]),
                st.dates(dt.date(1900, 1, 1), dt.date(2100, 12, 31)),
                st.none() | st.floats(min_value=-60.0, max_value=60.0),
            ),
            min_size=2,
            max_size=15,
        ),
        kinds=st.lists(st.sampled_from(["date", "number", "ragged"]),
                       min_size=2, max_size=2, unique=True),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_earlier_of_two_faults_wins(self, rows, kinds, data):
        at = data.draw(st.lists(st.integers(0, len(rows) - 1),
                                min_size=2, max_size=2, unique=True))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["STATION", "NAME", "DATE", "TAVG"])
        for index, (sid, date, value) in enumerate(rows):
            cells = [sid, "X", date.isoformat(), "" if value is None else repr(value)]
            if index in at:
                cells = spoil(["B", *cells[1:]], kinds[at.index(index)])
            writer.writerow(cells)
        text = out.getvalue()
        first = min(at)
        date_first = kinds[at.index(first)] == "date"
        expected_type = MalformedDateError if date_first else MalformedRowError

        with pytest.raises(TempcastError) as whole:
            parse_cdo_csv(text, "celsius")
        with pytest.raises(TempcastError) as one:
            parse_cdo_csv(text, "celsius", station="A")
        for excinfo in (whole, one):
            assert type(excinfo.value) is expected_type
            assert excinfo.value.line == first + 2
        assert str(one.value) == str(whole.value)

    def test_parse_memory_follows_the_kept_station(self):
        # 4 stations x 9,000 days, about 1.5 M characters; holding every
        # station's rows as Python objects takes several times that.
        days = np.datetime_as_string(
            np.arange(9000) + np.datetime64("1990-01-01", "D")
        ).tolist()
        values = np.round(np.random.default_rng(5).normal(8.0, 9.0, 9000), 1).tolist()
        text = "STATION,NAME,DATE,TAVG\n" + "".join(
            f'USW0002000{k},"ST {k}, XX US",{day},{value}\n'
            for k in range(4)
            for day, value in zip(days, values)
        )
        tracemalloc.start()
        try:
            records = parse_cdo_csv(text, "celsius", station="USW00020002")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 9000
        assert records.rows_read == 36000
        assert peak <= 2 * len(text), f"peak {peak} B for {len(text)} characters"


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
    @pytest.mark.parametrize(
        "bounds",
        [
            {"start": "2015-01-01"},
            {"start": "2015-01-01", "end": dt.date(2015, 1, 1)},
            {"start": dt.date(2015, 1, 1), "end": dt.datetime(2015, 1, 2)},
            {"end": dt.datetime(2015, 1, 2)},
            {"start": dt.date(2015, 1, 1).toordinal()},
        ],
        ids=["start-str", "start-str-end-date", "end-datetime", "end-datetime-alone",
             "start-ordinal"],
    )
    def test_date_bounds_must_be_dates(self, bounds):
        with pytest.raises(ArgumentError, match="must be a datetime.date or None"):
            CleanConfig(**bounds)

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
        rs = parse_cdo_csv(HEADER + "USW00099999,2015-01-01,1.0\n", "celsius",
                           station="OTHER")
        with pytest.raises(EmptyAfterFilterError):
            clean(rs)

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
            ordinals=(JAN1, JAN1 + 1),
            tavg=(1.0, 2.0),
            unit="celsius",
        )
        with pytest.raises(MultipleStationsError):
            clean(rs)
        series = clean(parse_cdo_csv(export_csv(rs), "celsius", station="A"))
        assert series.start_date == dt.date(2015, 1, 1)
        assert series.values.tolist() == [1.0 + 273.15]

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
        bad=st.none() | st.sampled_from([float("inf"), float("-inf")]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_gaps_fill_or_raise_like_a_scan(self, start, cells, max_gap, bad, data):
        days = [start + dt.timedelta(days=i) for i in range(len(cells))]
        rows = [
            (day, value if kind == "value" else math.nan)
            for day, (kind, value) in zip(days, cells)
            if kind != "absent"
        ]
        observed = {day: value for day, value in rows if not math.isnan(value)}
        if not observed:
            return
        if bad is not None:
            spoiled = data.draw(st.sampled_from(sorted(observed)))
            rows = [(d, bad if d == spoiled else v) for d, v in rows]
        rows = data.draw(st.permutations(rows))
        rs = RawRecordSet(
            stations=["S"] * len(rows),
            ordinals=[day.toordinal() for day, _ in rows],
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
