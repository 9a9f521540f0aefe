"""Date-indexed daily temperature series and shared error metrics.

Temperatures are Kelvin everywhere in this package; unit conversion is
the ingest layer's job. A series stores its first calendar date plus one
value per day in a fixed 365-day year: February 29 never appears, so
index arithmetic is gap-free by construction and a whole number of years
is always a whole number of seasons.

Calendar arithmetic is closed-form, with no per-day loop: every year of
the 365-day calendar has the same days, so :func:`iso_dates` spells any
range of offsets as a year plus one of 365 ``-MM-DD`` suffixes, and
:func:`_consecutive`, the one gate where day ordinals become a series,
checks and filters them by integer arithmetic (:func:`_leap_day_mask`).
:func:`next_calendar_day` and :func:`is_leap_day` stay as the per-step
reference that tests fold against.

Every sequence of values entering the package, whether a series'
values, a training window, a seasonal ring, dated observations, parsed
temperatures or the two sides of :func:`rmse`, is read by one rule,
:func:`_vector`: a one-dimensional float64 array, a :class:`TimeSeries`
giving its values and a scalar one value. Values that are not real
numbers (text, complex numbers and booleans included), or have more than
one dimension, raise ``ArgumentError``.

On disk a series is a CSV file: the header :data:`CSV_HEADER`
(``date,kelvin``), then one row per day of an ISO ``YYYY-MM-DD`` date
and the ``repr`` of the float, which reads back bit for bit. Rows dated
February 29 are dropped on read (:func:`read_csv`). :func:`read_csv`
reads any such file, with a byte-order mark, other line ends, spaces or
a differently cased header too. :func:`_read_series_bytes` reads a
file's bytes: a plain file, as :func:`to_csv_rows` writes one, in one C
pass (:func:`_plain_rows`, which reads plain exports for
:mod:`tempcast.ingest` too), and any other file through :func:`_decode`
and :func:`read_csv`; both give the same series.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import itertools
from collections.abc import Callable, Iterator
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
    TempcastError,
    ValidationError,
    _date,
    _instance,
    _whole,
)

# Wide physical-plausibility bounds for surface air temperature, meant to
# catch unit mistakes (Celsius or Fahrenheit leaking through), not
# climate extremes. Exclusive on both ends.
KELVIN_MIN = 170.0
KELVIN_MAX = 350.0

_ONE_DAY = dt.timedelta(days=1)

# Looked up once: parse_date runs once per row of a series file or an
# export that the one-pass reader gives up on.
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
    """Whether ``day`` is February 29; a ``day`` that is not a
    ``datetime.date``, or is a ``datetime``, raises ``ArgumentError``."""
    day = _date(day, "day")
    return day.month == 2 and day.day == 29


def _leap_day_mask(ordinals: np.ndarray) -> np.ndarray:
    """Which day ordinals (``date.toordinal()``) fall on February 29, for
    ordinals from 1 to a day past ``date.max``. As in Howard Hinnant's
    ``civil_from_days``, days count from March 1 of year 0 in 400-year
    eras of 146097 days, so February 29 is day 365 of its March-based
    year."""
    # numpy divides int32 about twice as fast as int64
    day = (ordinals.astype(np.int32) + 305) % 146097
    year = (day - day // 1460 + day // 36524 - day // 146096) // 365
    return day - 365 * year - year // 4 + year // 100 == 365


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
    # year 1 has no February 29
    start_365 = start.year * 365 + start.replace(year=1).toordinal() - 1
    lo, hi = start_365 + first, start_365 + stop
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
    A ``start`` that is not a ``datetime.date``, or is a ``datetime``, and
    an offset that is not a whole number raise ``ArgumentError``.
    """
    _date(start, "start")
    first = _whole(first, "first")
    stop = _whole(stop, "stop")
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
    """The date a ``YYYY-MM-DD`` string names; anything else, a value that
    is not a ``str`` included, raises ``ArgumentError``, a ``ValueError``.

    From Python 3.11 ``date.fromisoformat`` also reads ``20200101`` and
    week dates such as ``2020-W01-5``; of its forms only ``YYYY-MM-DD``
    has ten characters with dashes at offsets 4 and 7, a check cheap
    enough to run per row. ``fromisoformat`` then checks the digits.
    """
    try:
        if len(text) == 10 and text[4] == "-" and text[7] == "-":
            return _FROMISOFORMAT(text)
    except (LookupError, TypeError, ValueError):
        pass
    raise ArgumentError(f"expected YYYY-MM-DD, got {text!r}")


def _plain_float(cell: str) -> float:
    """``float(cell)``, except that a cell holding ``_`` or a character
    outside ASCII, which ``float`` would also read (``2_80.5``, a
    fullwidth digit, a no-break space), raises ``ValueError``."""
    if "_" in cell or not cell.isascii():
        raise ValueError(cell)
    return float(cell)


def next_calendar_day(day: dt.date) -> dt.date:
    """Next date in the 365-day calendar (February 29 is skipped); a
    ``day`` that is not a ``datetime.date`` raises ``ArgumentError``."""
    nxt = _date(day, "day") + _ONE_DAY
    if is_leap_day(nxt):
        nxt += _ONE_DAY
    return nxt


def _vector(values, name: str) -> np.ndarray:
    """``values`` as a 1-D float64 array, not a copy if it is one: a
    :class:`TimeSeries` gives its values and a scalar one value. Values
    that are not real numbers, text such as ``"280.5"``, complex numbers
    and booleans included, integers too large for a float, or more
    dimensions raise ArgumentError. The process's warning filters are not
    touched, so threads may call it at once."""
    values = values.values if isinstance(values, TimeSeries) else values
    try:
        array = np.asarray(values)
        # The cast would read "280.5" as a number, and would only warn as
        # it dropped an imaginary part; catching that warning would swap
        # the process's filters under any other thread.
        kind = array.dtype.kind
        text = kind == "O" and any(isinstance(v, (str, bytes)) for v in array.flat)
        if kind in "SU" or text:
            raise TypeError("got text")
        if kind == "c" or (kind == "O" and any(map(np.iscomplexobj, array.flat))):
            raise TypeError("got complex numbers")
        # numpy reads [1.5, True] as float64, so a list's or a tuple's
        # elements are checked too, not only the array's dtype.
        if kind == "b" or (
            isinstance(values, (list, tuple))
            and array.ndim == 1
            and {bool, np.bool_} & set(map(type, values))
        ):
            raise TypeError("got booleans")
        values = array.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
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
        """Calendar date of the observation at ``index``, a whole number;
        anything else raises ``ArgumentError``."""
        index = _whole(index, "index")
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
    the package, in the one gate :func:`_consecutive`. Here the value
    invariants are checked, reporting the first offending index, a
    count of values from 0 and not a file line: rule ``"nan"`` for NaN,
    ``inf`` or ``-inf``, and ``"range"`` for a finite value outside
    (``KELVIN_MIN``, ``KELVIN_MAX``). Anything but a :class:`TimeSeries`
    raises ``ArgumentError``.
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
    return _consecutive(ordinals, arr)


def _consecutive(ordinals: np.ndarray, values: np.ndarray) -> TimeSeries:
    """What :func:`drop_leap_days` returns or raises for observations
    dated by day ordinals (``date.toordinal()``), one per value: the one
    gate where day ordinals become a :class:`TimeSeries`."""
    if not values.size:
        raise EmptyInputError("no dated observations")
    step = np.diff(ordinals)
    over = np.flatnonzero(step == 2)
    step[over[_leap_day_mask(ordinals[over] + 1)]] = 1  # a step over February 29
    bad = np.flatnonzero(step != 1)
    if bad.size:
        raise ValidationError(int(bad[0]) + 1, "non-consecutive")
    keep = ~_leap_day_mask(ordinals)
    if not keep.any():
        raise EmptyInputError("every observation fell on February 29")
    start = dt.date.fromordinal(int(ordinals[np.argmax(keep)]))
    return TimeSeries(start, values[keep])


def _ordinals(dates) -> np.ndarray:
    """``date.toordinal()`` of each of ``dates``; anything but an iterable
    of ``datetime.date`` values raises ArgumentError."""
    try:
        return np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64)
    except TypeError as exc:
        raise ArgumentError(f"dates must be datetime.date values: {exc}") from exc


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


def _decode(data: bytes) -> str:
    """UTF-8 bytes as text, without the byte-order mark some editors add
    and with universal newlines, as ``Path.read_text`` gives it."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()
    except UnicodeDecodeError as exc:
        # Offsets are into exc.object, which omits a leading mark.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise MalformedRowError(
            line, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


def to_csv_rows(series: TimeSeries) -> Iterator[tuple[str, str]]:
    """The rows of a series file, after :data:`CSV_HEADER`. A ``series``
    that is not a :class:`TimeSeries` raises ``ArgumentError``."""
    _instance(series, TimeSeries, "series")
    return zip(
        iso_dates(series.start_date, 0, len(series)),
        map(repr, series.values.tolist()),
    )


def read_csv(text: str) -> TimeSeries:
    """The series in the text of a series file, through
    :func:`drop_leap_days` and :func:`validate_series`. Blank lines are
    skipped; a row that cannot be read raises :class:`MalformedRowError`
    or :class:`MalformedDateError` naming the row's last line. Both
    cells are ASCII, with spaces around them allowed: a date cell holding
    any other character (a no-break space included) is not a date, and
    a value cell holding one, or ``_``, is not a number
    (:func:`_plain_float`)."""
    dates = []
    values = []
    with csv_rows(text) as rows:
        _series_fields(next(rows, None))  # raises for any other header
        for row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise MalformedRowError(rows.line_num, "expected two fields")
            try:
                if not row[0].isascii():
                    raise ValueError
                dates.append(parse_date(row[0].strip()))
            except ValueError:
                raise MalformedDateError(rows.line_num) from None
            try:
                values.append(_plain_float(row[1]))
            except ValueError:
                line = rows.line_num
                raise MalformedRowError(line, f"not a number: {row[1]!r}") from None
    return validate_series(drop_leap_days(dates, values))


def _series_fields(header: list[str] | None) -> tuple[int, int, int]:
    """The station, date and value fields of a series file whose header
    row is ``header``: none (-1), 0 and 1. A header that is not
    :data:`CSV_HEADER` after ``str.strip`` and ``str.lower``, or no
    header, raises :class:`MalformedRowError` at line 1."""
    if header is None:
        raise MalformedRowError(1, "empty series file")
    if tuple(c.strip().lower() for c in header) != CSV_HEADER:
        raise MalformedRowError(1, f"expected header {','.join(CSV_HEADER)!r}")
    return -1, 0, 1


def _plain_rows(
    data: bytes, columns: Callable[[list[str]], tuple[int, int, int]],
    station: bytes | None,
) -> tuple | None:
    """The rows that ``_kernel.c``'s ``read_export``, in the smoother's
    compiled library (``models._kernel``), keeps from a plain CSV file's
    bytes in one pass, or None if the file is not plain. Its comment there
    says which files are plain: ASCII with ``\\n`` line ends, no blank
    line, no space around a station, date or value cell, and so on.

    The header line is read here by the csv module, and
    ``columns(header)`` gives the indices of its station, date and value
    fields, -1 for a field the file lacks, or raises a ``TempcastError``
    for a header the caller cannot read. A row is kept if its station
    cell is ``station``; with ``station`` None, every row must have the
    first row's station. ``strtod`` and ``float`` both round correctly,
    so both read the same value bits.

    Returns the kept rows' ``date.toordinal()`` and values, NaN for an
    empty cell, as :class:`~tempcast.ingest.RawRecordSet` holds them, and
    ``read_export``'s counts: data rows read, then, with ``station`` None,
    the offset and length of the kept station's cell in ``data``.
    """
    import ctypes

    from .models import _kernel  # models imports this module

    read_export = _kernel().read_export  # first: every file read here needs it
    end = data.find(b"\n")
    line = data[: len(data) if end < 0 else end]
    if not line.isascii():
        return None
    try:
        header = next(csv.reader([line.decode("ascii")]), [])
        wanted = columns(header)
    except (csv.Error, TempcastError):
        return None
    # no more rows than newlines, as the header ends in one
    capacity = data.count(b"\n")
    ordinals = np.empty(capacity, dtype=ctypes.c_long)
    values = np.empty(capacity)
    counts = (ctypes.c_long * 3)()
    kept = read_export(
        data, len(data), len(header), *wanted, station,
        -1 if station is None else len(station),
        csv.field_size_limit(), capacity, ordinals, values, counts,
    )
    return None if kept < 0 else (ordinals[:kept], values[:kept], counts)


def _read_series_bytes(data: bytes) -> TimeSeries:
    """The series in a series file's bytes, as :func:`read_csv` reads
    the file's text, or what it raises.

    A plain file (:func:`_plain_rows`), as :func:`to_csv_rows` writes
    one, is read in one C pass, and its dates are checked as
    :func:`drop_leap_days` checks them. Any other file, such as one with
    a byte-order mark, a ``\\r``, a space or an empty value, goes through
    :func:`_decode` to :func:`read_csv`, which raises every error.
    """
    rows = _plain_rows(data, _series_fields, b"")
    if rows is None or np.isnan(rows[1]).any():
        return read_csv(_decode(data))
    ordinals, values, _ = rows
    return validate_series(_consecutive(ordinals, values))


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
    holding the actuals for leads ``1..max_lead``. An argument of the
    wrong type raises ``ArgumentError``.
    """
    n = len(_instance(series, TimeSeries, "series"))
    origin, max_lead = _whole(origin, "origin"), _whole(max_lead, "max_lead")
    if origin < 1 or max_lead < 1 or origin + max_lead > n:
        raise OutOfRangeError(
            f"origin {origin} with max lead {max_lead} does not fit a "
            f"series of length {n}"
        )
    train = TimeSeries(series.start_date, series.values[:origin])
    test = series.values[origin : origin + max_lead].copy()
    return train, test
