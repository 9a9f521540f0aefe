"""Date-indexed daily temperature series and shared error metrics.

Temperatures are Kelvin everywhere in this package; unit conversion is
the ingest layer's job. A series stores its first calendar date plus one
value per day in a fixed 365-day year: February 29 never appears, so
index arithmetic is gap-free by construction and a whole number of years
is always a whole number of seasons.

Calendar arithmetic is closed-form, with no per-day loop: a date's
365-day ordinal is its year times 365 plus its day of the year counted
without February 29, so :func:`calendar_days` turns any range of
offsets into dates with array arithmetic, and :func:`drop_leap_days`
checks and filters dated input on an array of day ordinals.
:func:`next_calendar_day` and :func:`is_leap_day` stay as the per-step
reference that tests fold against.

On disk a series is a CSV file: the header :data:`CSV_HEADER`
(``date,kelvin``), then one row per day of an ISO ``YYYY-MM-DD`` date
and the ``repr`` of the float, which reads back bit for bit. Rows dated
February 29 are dropped on read (:func:`read_csv`).
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ArgumentError,
    CalendarOverflowError,
    EmptyInputError,
    LengthMismatchError,
    MalformedDateError,
    MalformedRowError,
    OutOfRangeError,
    ValidationError,
)

# Wide physical-plausibility bounds for surface air temperature, meant to
# catch unit mistakes (Celsius or Fahrenheit leaking through), not
# climate extremes. Exclusive on both ends.
KELVIN_MIN = 170.0
KELVIN_MAX = 350.0

_ONE_DAY = dt.timedelta(days=1)

# Days before the first of each month in a year without February 29.
_MONTH_STARTS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
# Zero-based day of the year of February 29 in a leap year.
_FEB_29 = 31 + 28
# Proleptic Gregorian ordinal (``date.toordinal()``) of datetime64 day 0.
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# Looked up once: parse_date runs once per row of a series file.
_FROMISOFORMAT = dt.date.fromisoformat

CSV_HEADER = ("date", "kelvin")
# "-MM-DD" of each day of a 365-day year, in order; year 1 has no
# February 29.
_ISO_SUFFIXES = tuple(
    (dt.date(1, 1, 1) + dt.timedelta(days=day)).isoformat()[4:] for day in range(365)
)
# Least characters per slice of text that csv_rows hands the reader.
_CSV_SLICE_CHARS = 65536


def is_leap_day(day: dt.date) -> bool:
    return day.month == 2 and day.day == 29


def _is_leap_year(year):
    """Gregorian leap-year rule, elementwise over an integer array."""
    return (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))


def leap_day_mask(ordinals: np.ndarray) -> np.ndarray:
    """Which day ordinals (``date.toordinal()``) fall on February 29."""
    days = (ordinals - _EPOCH_ORDINAL).astype("datetime64[D]")
    year_start = days.astype("datetime64[Y]")
    day_of_year = days - year_start.astype("datetime64[D]")
    year = year_start.astype(np.int64) + 1970
    return (day_of_year.astype(np.int64) == _FEB_29) & _is_leap_year(year)


def _calendar_span(start: dt.date, first: int, stop: int) -> tuple[int, int]:
    """365-day ordinals (year times 365 plus day of the year) of offsets
    ``first`` and ``stop`` from ``start``, checked as :func:`calendar_days`
    says."""
    if is_leap_day(start):
        raise ValidationError(
            0, "non-consecutive", "the 365-day calendar has no February 29"
        )
    start_365 = start.year * 365 + _MONTH_STARTS[start.month - 1] + start.day - 1
    lo, hi = start_365 + int(first), start_365 + int(stop)
    if lo < hi and (lo // 365 < dt.MINYEAR or (hi - 1) // 365 > dt.MAXYEAR):
        raise CalendarOverflowError("date value out of range")
    return lo, hi


def calendar_days(start: dt.date, first: int, stop: int) -> np.ndarray:
    """Days at 365-day-calendar offsets ``first .. stop - 1`` from ``start``,
    as a ``datetime64[D]`` array.

    Offset 0 is ``start`` itself; February 29 is skipped, exactly as
    folding :func:`next_calendar_day` would. Offsets may run past the
    end of any series (forecast targets). Raises ``CalendarOverflowError``,
    an ``OverflowError`` and a ``TempcastError``, outside years 1-9999.
    """
    lo, hi = _calendar_span(start, first, stop)
    year, day_of_year = np.divmod(np.arange(lo, hi, dtype=np.int64), 365)
    day_of_year += _is_leap_year(year) & (day_of_year >= _FEB_29)
    return (year - 1970).astype("datetime64[Y]").astype("datetime64[D]") + day_of_year


def iso_dates(start: dt.date, first: int, stop: int) -> Iterator[str]:
    """``YYYY-MM-DD`` strings of :func:`calendar_days`, in closed form.

    Every year of the 365-day calendar has the same days, so each string
    is the year followed by one of :data:`_ISO_SUFFIXES`. The range is
    checked when this is called, before any string is made: a start on
    February 29 or a date past 9999-12-31 raises as ``calendar_days``
    does. An empty range yields nothing and raises nothing.
    """
    if first >= stop:
        return iter(())
    lo, hi = _calendar_span(start, first, stop)

    def year_dates(year: int) -> Iterator[str]:
        days = _ISO_SUFFIXES[max(lo - 365 * year, 0) : hi - 365 * year]
        return map(f"{year:04d}".__add__, days)

    return itertools.chain.from_iterable(
        map(year_dates, range(lo // 365, (hi - 1) // 365 + 1))
    )


def parse_date(text: str) -> dt.date:
    """The date a ``YYYY-MM-DD`` string names; ``ValueError`` otherwise.

    From Python 3.11 ``date.fromisoformat`` also reads ``20200101`` and
    week dates such as ``2020-W01-5``; of its forms only ``YYYY-MM-DD``
    has ten characters with dashes at offsets 4 and 7, a check cheap
    enough to run per row. ``fromisoformat`` then checks the digits.
    ``ingest.parse_cdo_csv``'s row loop inlines this guard and call;
    tests compare that loop's dates and errors against this function.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return _FROMISOFORMAT(text)


def next_calendar_day(day: dt.date) -> dt.date:
    """Next date in the 365-day calendar (February 29 is skipped)."""
    nxt = day + _ONE_DAY
    if is_leap_day(nxt):
        nxt += _ONE_DAY
    return nxt


class _ByValue:
    """Equality and hash by field values, an array field by its bytes,
    for frozen dataclasses declared with ``eq=False``."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class TimeSeries(_ByValue):
    """Daily air-temperature observations in Kelvin.

    Dates are implied: index ``i`` holds the value for the ``i``-th day
    after ``start_date``, counting in the 365-day calendar. Instances
    are immutable (the value buffer is read-only) and safe to share, and
    equal when their start date and value bytes are.
    """

    start_date: dt.date
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ArgumentError("values must be one-dimensional")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if is_leap_day(self.start_date):
            raise ValidationError(
                0, "non-consecutive", "a series cannot start on February 29"
            )

    def __len__(self) -> int:
        return int(self.values.size)

    def date_at(self, index: int) -> dt.date:
        """Calendar date of the observation at ``index``."""
        if not 0 <= index < len(self):
            raise OutOfRangeError(
                f"index {index} outside series of length {len(self)}"
            )
        return calendar_days(self.start_date, index, index + 1).tolist()[0]

    @property
    def end_date(self) -> dt.date:
        if len(self) == 0:
            raise EmptyInputError("empty series has no end date")
        return self.date_at(len(self) - 1)

    def dates(self) -> list[dt.date]:
        """Implied calendar dates, one per value, skipping February 29."""
        return calendar_days(self.start_date, 0, len(self)).tolist()


def validate_series(series: TimeSeries) -> TimeSeries:
    """Check every series invariant, returning the series unchanged.

    Implied dates cannot have gaps (storage is start date plus offset),
    so date consecutiveness is enforced where dated observations enter
    the package: :func:`drop_leap_days` and ``ingest.clean``. Here the
    value invariants are checked, reporting the first offending index.
    """
    values = series.values
    finite = np.isfinite(values)
    ok = finite & (values > KELVIN_MIN) & (values < KELVIN_MAX)
    bad = np.flatnonzero(~ok)
    if bad.size:
        index = int(bad[0])
        rule = "range" if finite[index] else "nan"
        raise ValidationError(index, rule)
    return series


def drop_leap_days(dates, values) -> TimeSeries:
    """Build a TimeSeries from dated observations, removing February 29.

    This is the gate where explicit dates become implied ones: the input
    must advance one day at a time (a step over an already-absent
    February 29 is accepted, which makes the operation idempotent).
    Raises :class:`ValidationError` with rule ``"non-consecutive"`` at
    the first date that repeats, runs backward, or leaves a hole.
    """
    dates = list(dates)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or len(dates) != arr.size:
        raise LengthMismatchError(
            f"{len(dates)} dates but {arr.size} values"
        )
    if not dates:
        raise EmptyInputError("no dated observations")

    ordinals = np.fromiter(
        (day.toordinal() for day in dates), dtype=np.int64, count=len(dates)
    )
    step = np.diff(ordinals)
    skips_leap_day = (step == 2) & leap_day_mask(ordinals[:-1] + 1)
    bad = np.flatnonzero((step != 1) & ~skips_leap_day)
    if bad.size:
        raise ValidationError(int(bad[0]) + 1, "non-consecutive")
    return series_from_ordinals(ordinals, arr)


def series_from_ordinals(ordinals: np.ndarray, values: np.ndarray) -> TimeSeries:
    """Build a TimeSeries from day ordinals and values, removing February 29.

    ``ordinals`` are ``date.toordinal()`` values that the caller has
    already checked to advance one day at a time, apart from steps over
    February 29; :func:`drop_leap_days` is the checking entry point.
    """
    keep = ~leap_day_mask(ordinals)
    if not keep.any():
        raise EmptyInputError("every observation fell on February 29")
    start = dt.date.fromordinal(int(ordinals[np.argmax(keep)]))
    return TimeSeries(start, values[keep])


def _line_slices(text: str) -> Iterator[str]:
    """``text`` in consecutive slices of at least ``_CSV_SLICE_CHARS``
    characters, each but the last ending just after a ``"\\n"``."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CSV_SLICE_CHARS - 1) + 1 or len(text)
        yield text[start:stop]
        start = stop


def csv_rows(text: str) -> Iterator[list[str]]:
    """The rows of CSV text, raising :class:`MalformedRowError` at the
    reader's current line where the csv module cannot read it (a field
    over its size limit, a line break inside an unquoted field).

    The reader takes its lines from one ``StringIO`` per slice of
    :func:`_line_slices`, never from a copy of the whole text, which a
    ``StringIO`` holds at four bytes per character. ``StringIO`` ends a
    line only at ``"\\n"`` and each slice ends just after one, so the
    reader sees the same lines, line numbers and errors as it would on
    the whole text; a quoted field spanning two slices still joins.
    """
    lines = itertools.chain.from_iterable(map(io.StringIO, _line_slices(text)))
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None


def to_csv_rows(series: TimeSeries) -> Iterator[tuple[str, str]]:
    """The rows of a series file, after :data:`CSV_HEADER`."""
    return zip(
        iso_dates(series.start_date, 0, len(series)),
        map(repr, series.values.tolist()),
    )


def read_csv(text: str) -> TimeSeries:
    """The series in the text of a series file, through
    :func:`drop_leap_days` and :func:`validate_series`. Blank lines are
    skipped; a row that cannot be read raises :class:`MalformedRowError`
    or :class:`MalformedDateError` naming its line."""
    rows = csv_rows(text)
    header = next(rows, None)
    if header is None:
        raise MalformedRowError(1, "empty series file")
    if tuple(c.strip().lower() for c in header) != CSV_HEADER:
        raise MalformedRowError(1, f"expected header {','.join(CSV_HEADER)!r}")
    dates = []
    values = []
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise MalformedRowError(line, "expected two fields")
        try:
            dates.append(parse_date(row[0].strip()))
        except ValueError:
            raise MalformedDateError(line) from None
        try:
            values.append(float(row[1]))
        except ValueError:
            raise MalformedRowError(line, f"not a number: {row[1]!r}") from None
    return validate_series(drop_leap_days(dates, values))


def rmse(predicted, actual) -> float:
    """Root mean square difference between two equal-length sequences."""
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.size != a.size:
        raise LengthMismatchError(
            f"{p.size} predictions vs {a.size} actuals"
        )
    if p.size == 0:
        raise EmptyInputError("rmse of empty sequences")
    diff = p - a
    return float(np.sqrt(np.mean(diff * diff)))


def split_at_origin(
    series: TimeSeries, origin: int, max_lead: int
) -> tuple[TimeSeries, np.ndarray]:
    """Cut a series after ``origin`` observations.

    Returns the training prefix (``origin`` values) and the test slice
    holding the actuals for leads ``1..max_lead``.
    """
    n = len(series)
    if origin < 1 or max_lead < 1 or origin + max_lead > n:
        raise OutOfRangeError(
            f"origin {origin} with max lead {max_lead} does not fit a "
            f"series of length {n}"
        )
    train = TimeSeries(series.start_date, series.values[:origin])
    test = series.values[origin : origin + max_lead].copy()
    return train, test
