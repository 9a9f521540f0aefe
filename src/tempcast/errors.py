"""Exception types shared across the toolkit, and its argument checks.

Everything raised on bad data or bad protocol parameters derives from
TempcastError, so callers (and the CLI) can separate data problems from
genuine bugs with one except clause. A bad argument raises
:class:`ArgumentError`, also a ``ValueError``, often from :func:`_whole`,
:func:`_real`, :func:`_instance`, :func:`_date` or :func:`_one_of`; the
CLI exits 1 on it and 2 on any other error here.
"""

from __future__ import annotations

import datetime as dt
import numbers

import numpy as np


class TempcastError(Exception):
    """Base class for all toolkit errors."""


class ArgumentError(TempcastError, ValueError):
    """An argument is outside its domain, in type, value or shape."""


def _whole(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int if it is an int or a numpy integer, not a bool,
    of at least ``minimum``; anything else raises :class:`ArgumentError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be a whole number, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ArgumentError(f"{name} must be at least {minimum}, got {value}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a float if it is a real number (an int, float or numpy
    number, say), not a bool; anything else raises :class:`ArgumentError`."""
    # float first: the numbers.Real check is slow, and a float is one
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ArgumentError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _instance(value, cls: type, name: str):
    """``value`` if it is an instance of ``cls``; anything else raises
    :class:`ArgumentError`."""
    if not isinstance(value, cls):
        raise ArgumentError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _date(value, name: str, optional: bool = False):
    """``value`` if it is a ``datetime.date`` and not a ``datetime``, or
    None when ``optional``; anything else raises :class:`ArgumentError`."""
    if optional and value is None:
        return value
    if not isinstance(value, dt.date) or isinstance(value, dt.datetime):
        expected = "a datetime.date or None" if optional else "a datetime.date"
        raise ArgumentError(f"{name} must be {expected}, got {value!r}")
    return value


def _one_of(value, choices: tuple, name: str) -> None:
    """Raise :class:`ArgumentError` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ArgumentError(f"unknown {name} {value!r}; expected one of {choices}")


class ValidationError(TempcastError):
    """A series invariant failed at a specific index.

    ``rule`` is one of ``"nan"``, ``"range"`` or ``"non-consecutive"``.
    """

    def __init__(self, index: int, rule: str, message: str | None = None):
        self.index = index
        self.rule = rule
        super().__init__(
            message or f"series invariant {rule!r} violated at index {index}"
        )


class LengthMismatchError(TempcastError):
    """Paired sequences have different lengths."""


class EmptyInputError(TempcastError):
    """An operation that needs at least one observation got none."""


class OutOfRangeError(TempcastError):
    """A position falls outside the series or the calendar: an origin,
    lead or training window that does not fit the series, a
    :meth:`TimeSeries.date_at` index outside it, or a date past
    9999-12-31 (:class:`CalendarOverflowError`)."""


class CalendarOverflowError(OutOfRangeError, OverflowError):
    """A date outside years 1-9999, an ``OverflowError`` as in datetime."""


class TooShortError(TempcastError):
    """A training window is shorter than the smoother can initialize on."""


class NonFiniteError(TempcastError):
    """An observation or conversion input is NaN or infinite."""


class InvalidLeadError(ArgumentError):
    """Forecast lead times must be at least one day."""


class InsufficientDataError(TempcastError):
    """The series cannot support the requested number of experiments."""

    def __init__(self, required: int, available: int):
        self.required = required
        self.available = available
        super().__init__(
            f"need a series of at least {required} days, have {available}"
        )


class MissingColumnError(TempcastError):
    """A required CSV header column is absent."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"required column {column} missing from header")


class MalformedRowError(TempcastError):
    """A CSV data row could not be parsed."""

    def __init__(self, line: int, detail: str = ""):
        self.line = line
        suffix = f": {detail}" if detail else ""
        super().__init__(f"malformed row at line {line}{suffix}")


class MalformedDateError(TempcastError):
    """A CSV date field is not an ISO-8601 calendar date."""

    def __init__(self, line: int):
        self.line = line
        super().__init__(f"malformed date at line {line} (expected YYYY-MM-DD)")


class DuplicateDateError(TempcastError):
    """Two input rows claim the same calendar date."""

    def __init__(self, date: dt.date):
        self.date = date
        super().__init__(f"duplicate observation for {date.isoformat()}")


class GapTooLargeError(TempcastError):
    """An interior run of missing days exceeds the interpolation limit."""

    def __init__(self, start: dt.date, length: int):
        self.start = start
        self.length = length
        super().__init__(
            f"{length} consecutive days missing from {start.isoformat()}"
        )


class EmptyAfterFilterError(TempcastError):
    """Station/date filtering removed every usable row."""


class MultipleStationsError(TempcastError):
    """The record set mixes stations: it was parsed without a station
    (:func:`tempcast.ingest.parse_cdo_csv`'s ``station``, the CLI's
    ``--station``) from an export holding several."""

    def __init__(self, stations):
        self.stations = tuple(stations)
        super().__init__(
            "records span multiple stations "
            f"({', '.join(self.stations)}); pass a station filter"
        )


class OutputIsInputError(TempcastError):
    """An artifact path names the file a command reads its input from."""
