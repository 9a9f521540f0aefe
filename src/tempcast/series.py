"""Date-indexed daily temperature series and shared error metrics.

Temperatures are Kelvin everywhere in this package; unit conversion is
the ingest layer's job. A series stores its first calendar date plus one
value per day in a fixed 365-day year: February 29 never appears, so
index arithmetic is gap-free by construction and a whole number of years
is always a whole number of seasons.

Calendar arithmetic is closed-form, with no per-day loop: every year of
the 365-day calendar has the same days, so :func:`iso_dates` spells any
range of offsets as a year plus one of 365 ``-MM-DD`` suffixes, and
:func:`drop_leap_days` checks and filters dated input on an array of
day ordinals. :func:`next_calendar_day` and :func:`is_leap_day` stay as
the per-step reference that tests fold against.

Every sequence of values entering the package, whether a series'
values, a training window, a seasonal ring, dated observations, parsed
temperatures or the two sides of :func:`rmse`, is read by one rule,
:func:`_vector`: a one-dimensional float64 array, a :class:`TimeSeries`
giving its values and a scalar one value. Values that do not convert,
or have more than one dimension, raise ``ArgumentError``.

On disk a series is a CSV file: the header :data:`CSV_HEADER`
(``date,kelvin``), then one row per day of an ISO ``YYYY-MM-DD`` date
and the ``repr`` of the float, which reads back bit for bit. Rows dated
February 29 are dropped on read (:func:`read_csv`).
"""

from __future__ import annotations

import contextlib
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
    NonFiniteError,
    OutOfRangeError,
    ValidationError,
    _date,
    _instance,
)

# Wide physical-plausibility bounds for surface air temperature, meant to
# catch unit mistakes (Celsius or Fahrenheit leaking through), not
# climate extremes. Exclusive on both ends.
KELVIN_MIN = 170.0
KELVIN_MAX = 350.0

_ONE_DAY = dt.timedelta(days=1)

# Days before the first of each month in a year without February 29.
_MONTH_STARTS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)
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


def leap_day_mask(ordinals: np.ndarray) -> np.ndarray:
    """Which day ordinals (``date.toordinal()``) fall on February 29,
    looked up among those of the array's first year to its last."""
    if not ordinals.size:
        return np.zeros(0, dtype=bool)
    # An ordinal outside years 1-9999 matches no February 29.
    lo, hi = np.clip([ordinals.min(), ordinals.max()], 1, dt.date.max.toordinal())
    years = range(dt.date.fromordinal(lo).year, dt.date.fromordinal(hi).year + 1)
    ends_of_february = (dt.date(year, 3, 1) - _ONE_DAY for year in years)
    feb_29 = [day.toordinal() for day in ends_of_february if is_leap_day(day)]
    return np.isin(ordinals, feb_29)


def _calendar_span(start: dt.date, first: int, stop: int) -> tuple[int, int]:
    """365-day ordinals (year times 365 plus day of the year) of offsets
    ``first`` and ``stop`` from ``start``. A start on February 29 raises
    :class:`ValidationError`; a non-empty range reaching outside years
    1-9999 raises ``CalendarOverflowError``, an ``OverflowError`` and a
    ``TempcastError``."""
    if is_leap_day(start):
        raise ValidationError(
            0, "non-consecutive", "the 365-day calendar has no February 29"
        )
    start_365 = start.year * 365 + _MONTH_STARTS[start.month - 1] + start.day - 1
    lo, hi = start_365 + int(first), start_365 + int(stop)
    if lo < hi and (lo // 365 < dt.MINYEAR or (hi - 1) // 365 > dt.MAXYEAR):
        raise CalendarOverflowError("date value out of range")
    return lo, hi


def iso_dates(start: dt.date, first: int, stop: int) -> Iterator[str]:
    """``YYYY-MM-DD`` strings of the days at 365-day-calendar offsets
    ``first .. stop - 1`` from ``start``: offset 0 is ``start``, and
    February 29 is skipped as folding :func:`next_calendar_day` would.

    Every year of the 365-day calendar has the same days, so each string
    is the year followed by one of :data:`_ISO_SUFFIXES`. The range is
    checked as :func:`_calendar_span` says when this is called, before
    any string is made; an empty range yields nothing and raises nothing.
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


def _vector(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float64 array, not a copy if it is one: a
    :class:`TimeSeries` gives its values and a scalar one value. Values
    that do not convert, or have more dimensions, raise ArgumentError."""
    values = values.values if isinstance(values, TimeSeries) else values
    try:
        values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{name} must hold real numbers: {exc}") from exc
    if values.ndim > 1:
        raise ArgumentError(f"{name} must be one-dimensional")
    return values if values.ndim else values.reshape(1)


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
        arr = np.array(_vector(self.values, "values"))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if is_leap_day(_date(self.start_date, "start_date")):
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
        return _FROMISOFORMAT(next(iso_dates(self.start_date, index, index + 1)))

    @property
    def end_date(self) -> dt.date:
        if len(self) == 0:
            raise EmptyInputError("empty series has no end date")
        return self.date_at(len(self) - 1)

    def dates(self) -> list[dt.date]:
        """Implied calendar dates, one per value, skipping February 29."""
        return list(map(_FROMISOFORMAT, iso_dates(self.start_date, 0, len(self))))


def validate_series(series: TimeSeries) -> TimeSeries:
    """Check every series invariant, returning the series unchanged.

    Implied dates cannot have gaps (storage is start date plus offset),
    so date consecutiveness is enforced where dated observations enter
    the package: :func:`drop_leap_days` and ``ingest.clean``. Here the
    value invariants are checked, reporting the first offending index;
    anything but a :class:`TimeSeries` raises ``ArgumentError``.
    """
    values = _instance(series, TimeSeries, "series").values
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
    the first date that repeats, runs backward, or leaves a hole, and
    ``ArgumentError`` as :func:`_ordinals` and :func:`_vector` say.
    """
    ordinals = _ordinals(dates)
    arr = _vector(values, "values")
    if ordinals.size != arr.size:
        raise LengthMismatchError(
            f"{ordinals.size} dates but {arr.size} values"
        )
    if not arr.size:
        raise EmptyInputError("no dated observations")

    step = np.diff(ordinals)
    skips_leap_day = (step == 2) & leap_day_mask(ordinals[:-1] + 1)
    bad = np.flatnonzero((step != 1) & ~skips_leap_day)
    if bad.size:
        raise ValidationError(int(bad[0]) + 1, "non-consecutive")
    return series_from_ordinals(ordinals, arr)


def _ordinals(dates) -> np.ndarray:
    """``date.toordinal()`` of each of ``dates``; anything but an iterable
    of ``datetime.date`` values raises ArgumentError."""
    try:
        return np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64)
    except TypeError as exc:
        raise ArgumentError(f"dates must be datetime.date values: {exc}") from exc


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


@contextlib.contextmanager
def csv_rows(text: str) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over the rows of CSV text. Inside the ``with``
    block, text the csv module cannot read (a field over its size limit,
    a line break inside an unquoted field) raises
    :class:`MalformedRowError` at the reader's current line; the caller
    iterates the reader itself, with no generator between them.

    The reader takes its lines from one ``StringIO`` per slice of
    :func:`_line_slices`, never from a copy of the whole text, which a
    ``StringIO`` holds at four bytes per character. ``StringIO`` ends a
    line only at ``"\\n"`` and each slice ends just after one, so the
    reader sees the same lines, line numbers and errors as it would on
    the whole text; a quoted field spanning two slices still joins.
    """
    _instance(text, str, "text")
    lines = itertools.chain.from_iterable(map(io.StringIO, _line_slices(text)))
    reader = csv.reader(lines)
    try:
        yield reader
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
    dates = []
    values = []
    with csv_rows(text) as rows:
        header = next(rows, None)
        if header is None:
            raise MalformedRowError(1, "empty series file")
        if tuple(c.strip().lower() for c in header) != CSV_HEADER:
            raise MalformedRowError(1, f"expected header {','.join(CSV_HEADER)!r}")
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
    """Root mean square difference between two equal-length sequences,
    each read by :func:`_vector`. A result that is not finite, from a NaN
    or infinite value or squares past the float range, raises
    :class:`NonFiniteError`."""
    p = _vector(predicted, "predicted")
    a = _vector(actual, "actual")
    if p.size != a.size:
        raise LengthMismatchError(
            f"{p.size} predictions vs {a.size} actuals"
        )
    if p.size == 0:
        raise EmptyInputError("rmse of empty sequences")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = p - a
        result = float(np.sqrt(np.mean(diff * diff)))
    if not np.isfinite(result):
        raise NonFiniteError(f"rmse is not finite: {result!r}")
    return result


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
