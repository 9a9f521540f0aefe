"""Command-line entry point wiring ingest, backtesting and forecasting.

Every subcommand writes its artifacts plus a JSON manifest holding the
subcommand, its seed, the resolved configuration, the input file's path
and digest, and tempcast's version. It does not record numpy's version,
and backtest origins come from numpy's ``Generator.choice``, so the
manifest reproduces a run byte for byte under the same numpy only;
``tests/data/golden/`` pins the artifacts of one such run. All
randomness flows from the single --seed flag. The series file's format
belongs to :mod:`tempcast.series`; what is left here is the command
line: arguments, reading each input once (:func:`_read_text`), the
report tables' row sources, one CSV writer (:func:`_write_csv`) and one
manifest writer (:func:`_write_manifest`). The digest is of the bytes
the command parsed, and no artifact may be written over the input file
(exit 2).

Exit codes: 0 success, 1 usage error (an ``ArgumentError``), 2 data error
(another ``TempcastError`` or an ``OSError``), 3 internal error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import io
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import MODEL_NAMES, BacktestConfig, BacktestReport, run_backtest
from .errors import (
    ArgumentError,
    CalendarOverflowError,
    MalformedRowError,
    OutOfRangeError,
    OutputIsInputError,
    TempcastError,
    _whole,
)
from .ingest import UNITS, CleanConfig, clean_report, parse_cdo_csv
from .models import SmoothingParams, hw_fit, hw_forecast
from .series import (
    CSV_HEADER,
    TimeSeries,
    iso_dates,
    parse_date,
    read_csv,
    to_csv_rows,
)
from .tuning import GridSpec, grid_search

# Rows per write of a CSV artifact.
_CSV_BLOCK_ROWS = 8192

GRID_PRESETS = {
    "coarse": GridSpec.coarse,
    "default": GridSpec.default,
    "fine": GridSpec.fine,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise ArgumentError(message)


def _refuse_overwrite(input_path: str, outputs) -> None:
    """Raise :class:`OutputIsInputError` when one of the ``outputs``
    paths is the input file itself, under any name, link or hard link,
    which writing the artifacts would destroy."""
    for output in outputs:
        if output.exists() and output.samefile(input_path):
            raise OutputIsInputError(
                f"{output} is the input file {input_path}; refusing to overwrite it"
            )


def _write_manifest(
    path: Path, args, input_path: str, input_sha256: str, config: dict, artifacts
) -> None:
    """Write a run's reproducibility record as sorted, 2-space-indented
    JSON: the subcommand and its seed (None when it takes none), toolkit
    version, input path and SHA-256, resolved configuration and artifact
    names."""
    record = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "input_path": input_path,
        "input_sha256": input_sha256,
        "config": config,
        "artifacts": list(artifacts),
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    path.write_bytes(text.encode("utf-8"))


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """Write ``header`` and ``rows`` (tuples of str fields) as CSV lines,
    ``_CSV_BLOCK_ROWS`` at a time so memory does not grow with the rows,
    creating the parent directory if needed.

    No field is quoted, since none needs it: each is an ISO date, an int,
    the ``repr`` of a finite float, empty, or a model name, which
    ``BacktestConfig`` restricts to ``MODEL_NAMES``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = itertools.chain([header], rows)
    with path.open("w", encoding="utf-8", newline="") as out:
        while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
            out.write("\n".join(map(",".join, block)) + "\n")


def _date_flag(raw: str, flag: str) -> dt.date:
    try:
        return parse_date(raw)
    except ValueError:
        raise ArgumentError(f"{flag} expects YYYY-MM-DD, got {raw!r}") from None


def _read_text(path: Path) -> tuple[str, str]:
    """A UTF-8 input file's text, without the byte-order mark some editors
    add and with universal newlines, as ``Path.read_text`` gives it, and
    the SHA-256 of the bytes that text was decoded from."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read(), digest
    except UnicodeDecodeError as exc:
        # Offsets are into exc.object, which omits a leading mark.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise MalformedRowError(
            line, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


def _read_series_csv(path: Path) -> tuple[TimeSeries, str]:
    """The series in a ``date,kelvin`` file and the file's SHA-256."""
    text, digest = _read_text(path)
    return read_csv(text), digest


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tempcast",
        description="Seasonal day-ahead air-temperature forecasting toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="clean a daily-summaries CSV export")
    p.add_argument("--input", required=True, help="export CSV path")
    p.add_argument("--unit", required=True, choices=UNITS)
    p.add_argument("--station", default=None, help="keep only this station id")
    p.add_argument("--from", dest="date_from", default=None, metavar="DATE")
    p.add_argument("--to", dest="date_to", default=None, metavar="DATE")
    p.add_argument("--max-gap", type=int, default=7, metavar="DAYS")
    p.add_argument("--tmax-tmin-fallback", action="store_true")
    p.add_argument("--output", required=True, help="clean series CSV path")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("backtest", help="rolling-origin model comparison")
    p.add_argument("--series", required=True, help="clean series CSV path")
    p.add_argument("--train-days", type=int, default=1825)
    p.add_argument("--leads", default="1,2,3,4")
    p.add_argument("--experiments", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--models", default=",".join(MODEL_NAMES))
    p.add_argument("--grid", choices=sorted(GRID_PRESETS), default="default")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_backtest)

    p = sub.add_parser("forecast", help="fit on a full series and project ahead")
    p.add_argument("--series", required=True, help="clean series CSV path")
    p.add_argument("--horizon", type=int, required=True, metavar="DAYS")
    p.add_argument("--auto", action="store_true", help="tune coefficients (default)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--season", type=int, default=365)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=_cmd_forecast)

    return parser


def _cmd_ingest(args) -> int:
    output = Path(args.output)
    manifest = output.parent / (output.name + ".manifest.json")
    _refuse_overwrite(args.input, [output, manifest])
    text, input_sha256 = _read_text(Path(args.input))
    records = parse_cdo_csv(
        text,
        unit=args.unit,
        tmax_tmin_fallback=args.tmax_tmin_fallback,
        station=args.station,
    )
    config = CleanConfig(
        max_gap=args.max_gap,
        start=_date_flag(args.date_from, "--from") if args.date_from else None,
        end=_date_flag(args.date_to, "--to") if args.date_to else None,
    )
    # Neither the export's text nor the kept station's parsed rows is
    # needed past the stage that reads it; freeing each before the next
    # stage lowers the command's peak memory.
    del text
    series, stats = clean_report(records, config)
    del records

    _write_csv(output, CSV_HEADER, to_csv_rows(series))
    resolved = {
        "unit": args.unit,
        "station": args.station,
        "from": args.date_from,
        "to": args.date_to,
        "max_gap": args.max_gap,
        "tmax_tmin_fallback": args.tmax_tmin_fallback,
    }
    _write_manifest(manifest, args, args.input, input_sha256, resolved, [output.name])

    print(f"rows parsed:        {stats.raw_rows}")
    print(f"rows kept:          {stats.kept_rows}")
    print(f"days interpolated:  {stats.interpolated_days}")
    print(f"leap days dropped:  {stats.leap_days_dropped}")
    print(
        f"clean series:       {len(series)} days "
        f"{series.start_date.isoformat()}..{series.end_date.isoformat()} "
        f"-> {args.output}"
    )
    return 0


def _parse_leads(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ArgumentError(f"--leads expects comma-separated days, got {raw!r}") from None


def _rmse_rows(report: BacktestReport):
    for lead in report.config.leads:
        yield str(lead), *(repr(report.rmse[m][lead]) for m in report.config.models)


def _error_rows(report: BacktestReport):
    for i, origin in enumerate(report.origins):
        for model in report.config.models:
            for lead in report.config.leads:
                error = float(report.errors[model][lead][i])
                yield str(origin), model, str(lead), repr(error)


def _print_rmse_table(report: BacktestReport) -> None:
    models = report.config.models
    print("RMSE by lead time (Kelvin, pooled over "
          f"{report.config.n_experiments} experiments)")
    print("  ".join(["lead"] + [f"{m:>12}" for m in models]))
    for lead in report.config.leads:
        cells = [f"{report.rmse[m][lead]:>12.3f}" for m in models]
        print("  ".join([f"{lead:>4}"] + cells))


def _cmd_backtest(args) -> int:
    out_dir = Path(args.out_dir)
    artifacts = ["rmse.csv", "errors.csv"]
    _refuse_overwrite(
        args.series, [out_dir / name for name in [*artifacts, "manifest.json"]]
    )
    series, input_sha256 = _read_series_csv(Path(args.series))
    config = BacktestConfig(
        train_length=args.train_days,
        leads=_parse_leads(args.leads),
        n_experiments=args.experiments,
        seed=args.seed,
        models=[part.strip() for part in args.models.split(",") if part.strip()],
        grid=GRID_PRESETS[args.grid](),
    )
    report = run_backtest(series, config)

    _write_csv(out_dir / "rmse.csv", ("lead", *config.models), _rmse_rows(report))
    _write_csv(
        out_dir / "errors.csv",
        ("origin", "model", "lead", "error_kelvin"),
        _error_rows(report),
    )
    fits = None if report.fits is None else [
        {
            "origin": origin,
            "alpha": fit.params.alpha,
            "beta": fit.params.beta,
            "gamma": fit.params.gamma,
            "in_sample_rmse": fit.in_sample_rmse,
            "evaluations": fit.evaluations,
        }
        for origin, fit in zip(report.origins, report.fits)
    ]
    resolved = {
        "train_days": config.train_length,
        "leads": list(config.leads),
        "experiments": config.n_experiments,
        "models": list(config.models),
        "grid_preset": args.grid,
        "grid": asdict(config.grid),
        "season_length": config.season_length,
        "origins": [int(o) for o in report.origins],
        "fits": fits,
    }
    _write_manifest(
        out_dir / "manifest.json", args, args.series, input_sha256, resolved, artifacts
    )
    _print_rmse_table(report)
    return 0


def _forecast_rows(series: TimeSeries, forecasts, season_length: int):
    """Date, actual, forecast: up to a season of observations, then the leads."""
    context = series.values[-season_length:].tolist()
    first = len(series) - len(context)
    dates = iso_dates(series.start_date, first, len(series) + forecasts.size)
    for value in context:
        yield next(dates), repr(value), ""
    for value in forecasts.tolist():
        yield next(dates), "", repr(value)


def _cmd_forecast(args) -> int:
    if args.horizon < 1:
        raise ArgumentError("--horizon must be at least 1 day")
    explicit = (args.alpha, args.beta, args.gamma)
    given = [v for v in explicit if v is not None]
    if given and args.auto:
        raise ArgumentError("--auto excludes --alpha/--beta/--gamma")
    if given and len(given) != 3:
        raise ArgumentError("provide --alpha, --beta and --gamma together")
    _whole(args.season, "--season", minimum=2)

    output = Path(args.output)
    manifest = output.parent / (output.name + ".manifest.json")
    _refuse_overwrite(args.series, [output, manifest])
    series, input_sha256 = _read_series_csv(Path(args.series))
    last_target = len(series) + args.horizon - 1
    try:
        iso_dates(series.start_date, last_target, last_target + 1)
    except CalendarOverflowError:
        raise OutOfRangeError(
            f"--horizon {args.horizon} runs past 9999-12-31, the last date "
            "the calendar can name"
        ) from None
    if len(given) == 3:
        params = SmoothingParams(*explicit, season_length=args.season)
        state = hw_fit(series, params)
        tuned = None
    else:
        tuned = grid_search(series, GridSpec.default(), season_length=args.season)
        params = tuned.params
        state = tuned.state

    forecasts = hw_forecast(state, np.arange(1, args.horizon + 1), params)

    _write_csv(
        output,
        ("date", "actual", "forecast"),
        _forecast_rows(series, forecasts, params.season_length),
    )
    resolved = {
        "horizon": args.horizon,
        "season_length": args.season,
        "coefficients": {
            "alpha": params.alpha,
            "beta": params.beta,
            "gamma": params.gamma,
            "source": "explicit" if tuned is None else "auto",
        },
        "in_sample_rmse": None if tuned is None else tuned.in_sample_rmse,
    }
    _write_manifest(manifest, args, args.series, input_sha256, resolved, [output.name])
    print(
        f"fitted alpha={params.alpha:.4f} beta={params.beta:.4f} "
        f"gamma={params.gamma:.4f} (season {params.season_length})"
    )
    print(f"wrote {args.horizon} forecast rows -> {args.output}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TempcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
