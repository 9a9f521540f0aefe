"""NOAA Climate Data Online daily-summary CSV ingestion.

Handles the export format as downloaded: a header row naming columns in
any order (STATION, DATE and TAVG are used, anything else ignored),
RFC-4180 quoting, empty cells for missing values. Parsing checks every
row and stores the rows as arrays of day ordinals and values, NaN for
an empty cell (:class:`RawRecordSet`); given a station, only its rows,
so memory follows the kept station rather than the export, though rows
of other stations are still checked. :func:`parse_cdo_csv` parses an
export's text; :func:`_read_export_bytes` parses its bytes, a plain
export in one C pass (:func:`~tempcast.series._plain_rows`, which reads
series files too) and any other through :func:`parse_cdo_csv`, and both
give the same records or the same error. The cleaning pass works on
those arrays: it filters by date, sorts and rejects duplicate dates,
converts the declared unit to Kelvin, linearly fills short interior
gaps, drops February 29, and returns a validated series.

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
    _real,
    _whole,
)
from .series import (
    TimeSeries,
    _ByValue,
    _consecutive,
    _decode,
    _plain_float,
    _plain_rows,
    _vector,
    csv_rows,
    parse_date,
    validate_series,
)

UNIT_CELSIUS = "celsius"
UNIT_FAHRENHEIT = "fahrenheit"
UNIT_TENTHS_CELSIUS = "tenths-celsius"
UNITS = (UNIT_CELSIUS, UNIT_FAHRENHEIT, UNIT_TENTHS_CELSIUS)


@dataclass(frozen=True, eq=False)
class RawRecordSet(_ByValue):
    """Parsed rows as three equal-length columns, plus their unit.

    Row ``i`` is ``stations[i]``, ``ordinals[i]`` (``date.toordinal()``)
    and ``tavg[i]``, NaN when the cell was empty, in read-only arrays;
    record sets holding equal values are equal. ``rows_read`` counts the
    non-blank data rows the parser read, kept or not; it defaults to the
    number of rows held and may not be smaller. A column that is not a
    one-dimensional sequence, an ordinal that is not an integer from 1 to
    ``date.max.toordinal()`` and ``tavg`` values that
    :func:`~tempcast.series._vector` rejects raise ``ArgumentError``.
    :func:`parse_cdo_csv` builds one, as does :func:`_read_export_bytes`;
    the package reads the export format but never writes it.
    """

    stations: tuple[str, ...]
    ordinals: np.ndarray
    tavg: np.ndarray
    unit: str
    rows_read: int | None = None

    def __post_init__(self):
        for name in ("stations", "ordinals", "tavg"):
            column = getattr(self, name)
            try:
                if name == "stations" or not isinstance(column, np.ndarray):
                    object.__setattr__(self, name, tuple(column))
            except TypeError:
                raise ArgumentError(f"{name} must be a sequence, got {column!r}") from None
        ordinals = _vector(self.ordinals, "ordinals")
        last = dt.date.max.toordinal()
        if ordinals.size and not (  # numpy reads [] as float64
            np.asarray(self.ordinals).dtype.kind in "iu"
            and 1 <= ordinals.min() <= ordinals.max() <= last
        ):
            raise ArgumentError(f"ordinals must be integers from 1 to {last}")
        tavg = np.array(_vector(self.tavg, "tavg"))
        for name, column in (("ordinals", ordinals.astype(np.int64)), ("tavg", tavg)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not len(self.stations) == len(self.ordinals) == len(self.tavg):
            raise ArgumentError(
                f"column lengths differ: {len(self.stations)} stations, "
                f"{len(self.ordinals)} ordinals, {len(self.tavg)} values"
            )
        _one_of(self.unit, UNITS, "unit")
        read = len(self) if self.rows_read is None else self.rows_read
        object.__setattr__(self, "rows_read", _whole(read, "rows_read", len(self)))

    def __len__(self) -> int:
        return len(self.ordinals)


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
        return _plain_float(cell)
    except ValueError:
        raise MalformedRowError(line, f"not a number: {cell!r}") from None


def _columns(header: list[str], tmax_tmin_fallback: bool) -> tuple[int | None, ...]:
    """The indices of the STATION, DATE, TAVG, TMAX and TMIN columns in
    an export's header row, matched after ``str.strip`` and
    ``str.upper``; the last of equal names wins. TMAX and TMIN are None
    without ``tmax_tmin_fallback``, and TAVG is None if it is missing
    with it. A missing required column raises :class:`MissingColumnError`
    naming it, STATION first."""
    columns = {name.strip().upper(): i for i, name in enumerate(header)}

    def column(name: str, required: bool) -> int | None:
        if name in columns:
            return columns[name]
        if required:
            raise MissingColumnError(name)
        return None

    return (
        column("STATION", required=True),
        column("DATE", required=True),
        column("TAVG", required=not tmax_tmin_fallback),
        column("TMAX", required=True) if tmax_tmin_fallback else None,
        column("TMIN", required=True) if tmax_tmin_fallback else None,
    )


def parse_cdo_csv(
    text: str,
    unit: str,
    tmax_tmin_fallback: bool = False,
    station: str | None = None,
) -> RawRecordSet:
    """Parse a daily-summaries export into raw records.

    Header matching is case-insensitive and order-free; extra columns
    are ignored. DATE cells must read ``YYYY-MM-DD``, checked as
    :func:`~tempcast.series.parse_date` checks them. Cells are read
    after ``str.strip``, which also takes off a no-break space. Empty
    TAVG cells become missing values, NaN; a value cell is read by
    ``float``, but one holding ``_`` or a character outside ASCII is not a
    number. With ``tmax_tmin_fallback`` enabled (for exports lacking
    TAVG), a missing TAVG is replaced by the TMAX/TMIN midpoint when both
    are present, and the TAVG column itself becomes optional. A TAVG or
    midpoint that reads as NaN raises :class:`NonFiniteError`. Text the
    csv module cannot read raises :class:`MalformedRowError`. An error in
    a row names the row's last line, as a quoted field may span lines.

    With ``station`` given, only rows whose stripped STATION cell equals
    it are stored. Every row is still checked first, whatever its
    station, so a bad row raises the same error at the same line either
    way; ``rows_read`` of the result counts every row read. A ``station``
    that is neither None nor a ``str`` raises ``ArgumentError``.
    """
    if station is not None:
        _instance(station, str, "station")
    with csv_rows(text) as rows:
        header = next(rows, [])
        i_station, i_date, i_tavg, i_tmax, i_tmin = _columns(header, tmax_tmin_fallback)

        stations: list[str] = []
        ordinals: list[int] = []
        tavg: list[float] = []
        rows_read = 0
        n_fields = len(header)
        for row in rows:
            if not row:
                continue
            rows_read += 1
            if len(row) != n_fields:
                raise MalformedRowError(
                    rows.line_num, f"{len(row)} fields where the header has {n_fields}"
                )
            try:
                date = parse_date(row[i_date].strip())
            except ValueError:
                raise MalformedDateError(rows.line_num) from None
            value = None
            if i_tavg is not None:
                value = _parse_temperature(row[i_tavg], rows.line_num)
            if value is None and tmax_tmin_fallback:
                tmax = _parse_temperature(row[i_tmax], rows.line_num)
                tmin = _parse_temperature(row[i_tmin], rows.line_num)
                if tmax is not None and tmin is not None:
                    value = (tmax + tmin) / 2.0
            if value != value:  # NaN marks an empty cell, so a NaN cell is an error
                raise NonFiniteError(f"temperature is not finite: {value!r}")
            name = row[i_station].strip()
            if station is not None and name != station:
                continue
            stations.append(name)
            ordinals.append(date.toordinal())
            tavg.append(math.nan if value is None else value)
    return RawRecordSet(stations, ordinals, tavg, unit, rows_read)


def _read_export_bytes(
    data: bytes,
    unit: str,
    tmax_tmin_fallback: bool = False,
    station: str | None = None,
) -> RawRecordSet:
    """The records in an export's bytes, as :func:`parse_cdo_csv` reads
    the export's text, or what it raises.

    A plain export (:func:`~tempcast.series._plain_rows`, with the
    STATION, DATE and TAVG columns that :func:`_columns` finds) is read in
    one C pass, whose arrays become the columns as they are. Any other
    export, and any read with ``tmax_tmin_fallback`` or a ``station`` that
    is not an ASCII ``str``, goes through :func:`~tempcast.series._decode`
    to :func:`parse_cdo_csv`, which raises every error.
    """
    rows = None
    if not tmax_tmin_fallback and (
        station is None or isinstance(station, str) and station.isascii()
    ):
        name = None if station is None else station.encode("ascii")
        rows = _plain_rows(data, lambda header: _columns(header, False)[:3], name)
    if rows is None:
        return parse_cdo_csv(_decode(data), unit, tmax_tmin_fallback, station)
    ordinals, values, counts = rows
    if station is None:
        station = data[counts[1] : counts[1] + counts[2]].decode("ascii")
    return RawRecordSet((station,) * len(ordinals), ordinals, values, unit, counts[0])


def _kelvin(value, unit: str):
    """Unit conversion on a float or an array, in one expression order."""
    if unit == UNIT_CELSIUS:
        return value + 273.15
    if unit == UNIT_FAHRENHEIT:
        return (value - 32.0) * 5.0 / 9.0 + 273.15
    return value / 10.0 + 273.15


def to_kelvin(value: float, unit: str) -> float:
    """Convert a real-number temperature in the declared unit to Kelvin."""
    _one_of(unit, UNITS, "unit")
    value = _real(value, "temperature")
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
    or a config of another type and a station that is not a ``str`` raise
    ``ArgumentError``."""
    _instance(records, RawRecordSet, "records")
    config = CleanConfig() if config is None else config
    _instance(config, CleanConfig, "config")
    keep = np.ones(len(records), dtype=bool)
    if config.start is not None:
        keep &= records.ordinals >= config.start.toordinal()
    if config.end is not None:
        keep &= records.ordinals <= config.end.toordinal()
    rows = np.flatnonzero(keep)
    if not rows.size:
        raise EmptyAfterFilterError("no rows left after station/date filtering")
    try:
        stations = sorted(set(itertools.compress(records.stations, keep)))
    except TypeError:  # an unhashable station, or stations of mixed types
        stations = list(itertools.compress(records.stations, keep))
    for station in stations:
        _instance(station, str, "each station")
    if len(stations) > 1:
        raise MultipleStationsError(stations)

    rows = rows[np.argsort(records.ordinals[rows], kind="stable")]
    ordinals = records.ordinals[rows]
    duplicate = np.flatnonzero(ordinals[1:] == ordinals[:-1])
    if duplicate.size:
        raise DuplicateDateError(dt.date.fromordinal(int(ordinals[duplicate[0] + 1])))

    # NaN marks an empty cell, which is missing; an infinite value is
    # present, so it is rejected here instead of becoming a gap.
    present = ~np.isnan(records.tavg[rows])
    if not present.any():
        raise EmptyAfterFilterError("no usable temperature values after filtering")
    values = records.tavg[rows[present]]
    infinite = values[np.isinf(values)]
    if infinite.size:
        raise NonFiniteError(f"temperature is not finite: {float(infinite[0])!r}")

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
    series = _consecutive(span, filled)
    stats = CleanStats(
        raw_rows=records.rows_read,
        kept_rows=int(rows.size),
        observed_days=int(offsets.size),
        interpolated_days=day_count - int(offsets.size),
        leap_days_dropped=day_count - len(series),
    )
    return validate_series(series), stats
