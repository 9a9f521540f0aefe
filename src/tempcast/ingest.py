"""NOAA Climate Data Online daily-summary CSV ingestion.

Handles the export format as downloaded: a header row naming columns in
any order (STATION, DATE and TAVG are used, anything else ignored),
RFC-4180 quoting, empty cells for missing values. Parsing checks every
row and stores the rows as columns (:class:`RawRecordSet`); given a
station, it stores only that station's rows, so memory follows the kept
station rather than the export, though rows of other stations are still
checked. The cleaning pass works on whole arrays: it filters by date,
sorts and rejects duplicate dates, converts the declared unit to
Kelvin, linearly fills short interior gaps, drops February 29, and
returns a validated series.

Units are declared by the caller rather than sniffed: Celsius and
Fahrenheit overlap too much across a temperate year for guessing to be
safe.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    DuplicateDateError,
    EmptyAfterFilterError,
    GapTooLargeError,
    MalformedDateError,
    MalformedRowError,
    MissingColumnError,
    MultipleStationsError,
    NonFiniteError,
    _date,
    _instance,
    _one_of,
    _whole,
)
from .series import (
    TimeSeries,
    _ordinals,
    _vector,
    csv_rows,
    series_from_ordinals,
    validate_series,
)

UNIT_CELSIUS = "celsius"
UNIT_FAHRENHEIT = "fahrenheit"
UNIT_TENTHS_CELSIUS = "tenths-celsius"
UNITS = (UNIT_CELSIUS, UNIT_FAHRENHEIT, UNIT_TENTHS_CELSIUS)


@dataclass(frozen=True)
class RawRecordSet:
    """Parsed rows as three equal-length columns, plus their unit.

    Row ``i`` is ``stations[i]``, ``dates[i]`` and ``tavg[i]``, the last
    being None when the cell was empty. ``rows_read`` counts the
    non-blank data rows the parser read, kept or not; it defaults to the
    number of rows held and may not be smaller. :func:`parse_cdo_csv`
    builds one; the package reads the export format but never writes it.
    """

    stations: tuple[str, ...]
    dates: tuple[dt.date, ...]
    tavg: tuple[float | None, ...]
    unit: str
    rows_read: int | None = None

    def __post_init__(self):
        for name in ("stations", "dates", "tavg"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.stations) == len(self.dates) == len(self.tavg):
            raise ArgumentError(
                f"column lengths differ: {len(self.stations)} stations, "
                f"{len(self.dates)} dates, {len(self.tavg)} values"
            )
        _one_of(self.unit, UNITS, "unit")
        read = len(self) if self.rows_read is None else self.rows_read
        object.__setattr__(self, "rows_read", _whole(read, "rows_read", len(self)))

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class CleanConfig:
    """Date filter and gap policy for the cleaning pass.

    Interior runs of up to ``max_gap`` missing days are filled by linear
    interpolation; longer runs abort loudly. Leading and trailing
    missing days are trimmed, never extrapolated. Date bounds are
    inclusive. The station is chosen earlier, when parsing
    (:func:`parse_cdo_csv`'s ``station``).
    """

    max_gap: int = 7
    start: dt.date | None = None
    end: dt.date | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_gap", _whole(self.max_gap, "max_gap", minimum=0))
        for name in ("start", "end"):
            _date(getattr(self, name), name, optional=True)
        if self.start is not None and self.end is not None and self.end < self.start:
            raise ArgumentError("date range end precedes start")


@dataclass(frozen=True)
class CleanStats:
    """Bookkeeping from one cleaning pass.

    ``raw_rows`` is the record set's ``rows_read``: every non-blank data
    row parsed, including those of stations the parser did not keep.
    """

    raw_rows: int
    kept_rows: int
    observed_days: int
    interpolated_days: int
    leap_days_dropped: int


def _parse_temperature(cell: str, line: int) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        raise MalformedRowError(line, f"not a number: {cell!r}") from None


def parse_cdo_csv(
    text: str,
    unit: str,
    tmax_tmin_fallback: bool = False,
    station: str | None = None,
) -> RawRecordSet:
    """Parse a daily-summaries export into raw records.

    Header matching is case-insensitive and order-free; extra columns
    are ignored. DATE cells must read ``YYYY-MM-DD``, checked as
    :func:`~tempcast.series.parse_date` checks them. Empty TAVG cells
    become missing values. With ``tmax_tmin_fallback`` enabled (for
    exports lacking TAVG), a missing
    TAVG is replaced by the TMAX/TMIN midpoint when both are present,
    and the TAVG column itself becomes optional. Text the csv module
    cannot read raises :class:`MalformedRowError`.

    With ``station`` given, only rows whose stripped STATION cell equals
    it are stored. Every row is still checked first, whatever its
    station, so a bad row raises the same error at the same line either
    way; ``rows_read`` of the result counts every row read.
    """
    with csv_rows(text) as rows:
        try:
            header = next(rows)
        except StopIteration:
            raise MissingColumnError("STATION") from None
        columns = {name.strip().upper(): i for i, name in enumerate(header)}

        def column(name: str, required: bool) -> int | None:
            if name in columns:
                return columns[name]
            if required:
                raise MissingColumnError(name)
            return None

        i_station = column("STATION", required=True)
        i_date = column("DATE", required=True)
        i_tavg = column("TAVG", required=not tmax_tmin_fallback)
        i_tmax = column("TMAX", required=True) if tmax_tmin_fallback else None
        i_tmin = column("TMIN", required=True) if tmax_tmin_fallback else None

        stations: list[str] = []
        dates: list[dt.date] = []
        tavg: list[float | None] = []
        rows_read = 0
        n_fields = len(header)
        fromisoformat = dt.date.fromisoformat
        for line, row in enumerate(rows, start=2):
            if not row:
                continue
            rows_read += 1
            if len(row) != n_fields:
                raise MalformedRowError(
                    line, f"{len(row)} fields where the header has {n_fields}"
                )
            # parse_date inlined, guard and all; tests hold the two equal.
            cell = row[i_date].strip()
            try:
                if len(cell) != 10 or cell[4] != "-" or cell[7] != "-":
                    raise ValueError
                date = fromisoformat(cell)
            except ValueError:
                raise MalformedDateError(line) from None
            cell = "" if i_tavg is None else row[i_tavg].strip()
            try:
                value = float(cell) if cell else None
            except ValueError:
                raise MalformedRowError(line, f"not a number: {cell!r}") from None
            if value is None and tmax_tmin_fallback:
                tmax = _parse_temperature(row[i_tmax], line)
                tmin = _parse_temperature(row[i_tmin], line)
                if tmax is not None and tmin is not None:
                    value = (tmax + tmin) / 2.0
            name = row[i_station].strip()
            if station is not None and name != station:
                continue
            stations.append(name)
            dates.append(date)
            tavg.append(value)
    return RawRecordSet(stations, dates, tavg, unit, rows_read)


def _kelvin(value, unit: str):
    """Unit conversion on a float or an array, in one expression order."""
    if unit == UNIT_CELSIUS:
        return value + 273.15
    if unit == UNIT_FAHRENHEIT:
        return (value - 32.0) * 5.0 / 9.0 + 273.15
    return value / 10.0 + 273.15


def to_kelvin(value: float, unit: str) -> float:
    """Convert a temperature in the declared unit to Kelvin."""
    _one_of(unit, UNITS, "unit")
    if not math.isfinite(value):
        raise NonFiniteError(f"temperature is not finite: {value!r}")
    return _kelvin(value, unit)


def clean(records: RawRecordSet, config: CleanConfig | None = None) -> TimeSeries:
    """Filter, order, convert, gap-fill, drop February 29, validate."""
    series, _ = clean_report(records, config)
    return series


def clean_report(
    records: RawRecordSet, config: CleanConfig | None = None
) -> tuple[TimeSeries, CleanStats]:
    """Like :func:`clean`, also returning the pass's bookkeeping. Records
    or a config of another type, a date that is not a ``datetime.date``
    and a value that is not a real number raise ``ArgumentError``."""
    _instance(records, RawRecordSet, "records")
    config = CleanConfig() if config is None else config
    _instance(config, CleanConfig, "config")
    ordinals = _ordinals(records.dates)
    keep = np.ones(len(records), dtype=bool)
    if config.start is not None:
        keep &= ordinals >= config.start.toordinal()
    if config.end is not None:
        keep &= ordinals <= config.end.toordinal()
    rows = np.flatnonzero(keep)
    if not rows.size:
        raise EmptyAfterFilterError("no rows left after station/date filtering")
    stations = sorted(set(itertools.compress(records.stations, keep)))
    if len(stations) > 1:
        raise MultipleStationsError(stations)

    rows = rows[np.argsort(ordinals[rows], kind="stable")]
    ordinals = ordinals[rows]
    duplicate = np.flatnonzero(ordinals[1:] == ordinals[:-1])
    if duplicate.size:
        raise DuplicateDateError(records.dates[rows[duplicate[0] + 1]])

    # An empty cell is missing; a NaN cell is present, so it is rejected
    # here instead of becoming a gap.
    tavg = [records.tavg[i] for i in rows.tolist()]
    present = np.array([value is not None for value in tavg])
    if not present.any():
        raise EmptyAfterFilterError("no usable temperature values after filtering")
    values = _vector([value for value in tavg if value is not None], "tavg")
    non_finite = np.flatnonzero(~np.isfinite(values))
    if non_finite.size:
        value = float(values[non_finite[0]])
        raise NonFiniteError(f"temperature is not finite: {value!r}")

    # Leading/trailing missing days are trimmed here by spanning only the
    # observed range; anything missing inside it is an interior gap.
    first = int(ordinals[present][0])
    offsets = ordinals[present] - first
    day_count = int(offsets[-1]) + 1

    # Both span ends are observed, so every missing run lies between two
    # consecutive observed days; most of these runs are empty.
    run_lengths = np.diff(offsets) - 1
    too_long = np.flatnonzero(run_lengths > config.max_gap)
    if too_long.size:
        run = too_long[0]
        start = dt.date.fromordinal(first + int(offsets[run]) + 1)
        raise GapTooLargeError(start, int(run_lengths[run]))
    # A huge Fahrenheit value overflows to inf here; it stays present, so
    # validation rejects it instead of interpolating over it.
    with np.errstate(over="ignore", invalid="ignore"):
        filled = np.interp(
            np.arange(day_count, dtype=np.float64),
            offsets.astype(np.float64),
            _kelvin(values, records.unit),
        )

    span = first + np.arange(day_count, dtype=np.int64)
    series = series_from_ordinals(span, filled)
    stats = CleanStats(
        raw_rows=records.rows_read,
        kept_rows=int(rows.size),
        observed_days=int(offsets.size),
        interpolated_days=day_count - int(offsets.size),
        leap_days_dropped=day_count - len(series),
    )
    return validate_series(series), stats
