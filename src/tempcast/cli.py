"""Command-line entry point wiring ingest, backtesting and forecasting.

Every subcommand writes its artifacts plus a JSON manifest holding the
resolved configuration, the input file digest and the toolkit version,
so a run can be reproduced byte-for-byte from the manifest alone. All
randomness flows from the single --seed flag.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import io
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .backtest import MODEL_NAMES, BacktestConfig, BacktestReport, run_backtest
from .errors import (
    MalformedDateError,
    MalformedRowError,
    OutOfRangeError,
    TempcastError,
)
from .ingest import UNITS, CleanConfig, clean_report, csv_rows, parse_cdo_csv
from .models import SmoothingParams, hw_fit, hw_forecast
from .series import (
    ForecastSet,
    TimeSeries,
    calendar_dates,
    drop_leap_days,
    validate_series,
)
from .tuning import GridSpec, grid_search

GRID_PRESETS = {
    "coarse": GridSpec.coarse,
    "default": GridSpec.default,
    "fine": GridSpec.fine,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every artifact set."""

    command: str
    version: str
    seed: int | None
    input_path: str
    input_sha256: str
    config: dict
    artifacts: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def _date_flag(raw: str, flag: str) -> dt.date:
    try:
        return dt.date.fromisoformat(raw)
    except ValueError:
        raise _UsageError(f"{flag} expects YYYY-MM-DD, got {raw!r}") from None


def _read_text(path: Path) -> str:
    """A UTF-8 input file's text, without the byte-order mark some editors add."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # Offsets are into exc.object, which omits a leading mark.
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise MalformedRowError(
            line, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None


def _series_to_csv(series: TimeSeries) -> str:
    # Neither an ISO date nor a float repr ever needs CSV quoting.
    rows = zip(series.dates(), series.values.tolist())
    return "date,kelvin\n" + "".join(
        f"{day.isoformat()},{value!r}\n" for day, value in rows
    )


def _read_series_csv(path: Path) -> TimeSeries:
    rows = csv_rows(_read_text(path))
    try:
        header = next(rows)
    except StopIteration:
        raise MalformedRowError(1, "empty series file") from None
    if [c.strip().lower() for c in header] != ["date", "kelvin"]:
        raise MalformedRowError(1, "expected header 'date,kelvin'")
    dates = []
    values = []
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise MalformedRowError(line, "expected two fields")
        try:
            dates.append(dt.date.fromisoformat(row[0].strip()))
        except ValueError:
            raise MalformedDateError(line) from None
        try:
            values.append(float(row[1]))
        except ValueError:
            raise MalformedRowError(line, f"not a number: {row[1]!r}") from None
    return validate_series(drop_leap_days(dates, values, station_id=path.stem))


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
    input_path = Path(args.input)
    text = _read_text(input_path)
    try:
        records = parse_cdo_csv(
            text, unit=args.unit, tmax_tmin_fallback=args.tmax_tmin_fallback
        )
        config = CleanConfig(
            max_gap=args.max_gap,
            start=_date_flag(args.date_from, "--from") if args.date_from else None,
            end=_date_flag(args.date_to, "--to") if args.date_to else None,
            station_filter=args.station,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    series, stats = clean_report(records, config)

    output = Path(args.output)
    if output.parent and not output.parent.exists():
        output.parent.mkdir(parents=True, exist_ok=True)
    _write_text(output, _series_to_csv(series))
    manifest = RunManifest(
        command="ingest",
        version=__version__,
        seed=None,
        input_path=args.input,
        input_sha256=_sha256(input_path),
        config={
            "unit": args.unit,
            "station": args.station,
            "from": args.date_from,
            "to": args.date_to,
            "max_gap": args.max_gap,
            "tmax_tmin_fallback": args.tmax_tmin_fallback,
        },
        artifacts=(output.name,),
    )
    _write_text(output.parent / (output.name + ".manifest.json"), manifest.to_json())

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
        raise _UsageError(f"--leads expects comma-separated days, got {raw!r}") from None


def _parse_models(raw: str) -> tuple[str, ...]:
    models = tuple(part.strip() for part in raw.split(",") if part.strip())
    return models


def _grid_config(grid: GridSpec) -> dict:
    return {
        "alpha_grid": list(grid.alpha_grid),
        "beta_grid": list(grid.beta_grid),
        "gamma_grid": list(grid.gamma_grid),
        "refine_rounds": grid.refine_rounds,
        "refine_shrink": grid.refine_shrink,
    }


def _rmse_table_csv(report: BacktestReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lead"] + list(report.config.models))
    for lead in report.config.leads:
        row = [str(lead)]
        row += [repr(report.rmse[model][lead]) for model in report.config.models]
        writer.writerow(row)
    return out.getvalue()


def _errors_csv(report: BacktestReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["origin", "model", "lead", "error_kelvin"])
    for i, origin in enumerate(report.origins):
        for model in report.config.models:
            for lead in report.config.leads:
                writer.writerow(
                    [origin, model, lead, repr(float(report.errors[model][lead][i]))]
                )
    return out.getvalue()


def _print_rmse_table(report: BacktestReport) -> None:
    models = report.config.models
    print("RMSE by lead time (Kelvin, pooled over "
          f"{report.config.n_experiments} experiments)")
    print("  ".join(["lead"] + [f"{m:>12}" for m in models]))
    for lead in report.config.leads:
        cells = [f"{report.rmse[m][lead]:>12.3f}" for m in models]
        print("  ".join([f"{lead:>4}"] + cells))


def _cmd_backtest(args) -> int:
    series_path = Path(args.series)
    series = _read_series_csv(series_path)
    try:
        config = BacktestConfig(
            train_length=args.train_days,
            leads=_parse_leads(args.leads),
            n_experiments=args.experiments,
            seed=args.seed,
            models=_parse_models(args.models),
            grid=GRID_PRESETS[args.grid](),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report = run_backtest(series, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "rmse.csv", _rmse_table_csv(report))
    _write_text(out_dir / "errors.csv", _errors_csv(report))
    fits = None
    if report.fits is not None:
        fits = [
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
    manifest = RunManifest(
        command="backtest",
        version=__version__,
        seed=args.seed,
        input_path=args.series,
        input_sha256=_sha256(series_path),
        config={
            "train_days": config.train_length,
            "leads": list(config.leads),
            "experiments": config.n_experiments,
            "models": list(config.models),
            "grid_preset": args.grid,
            "grid": _grid_config(config.grid),
            "season_length": config.season_length,
            "origins": [int(o) for o in report.origins],
            "fits": fits,
        },
        artifacts=("rmse.csv", "errors.csv"),
    )
    _write_text(out_dir / "manifest.json", manifest.to_json())
    _print_rmse_table(report)
    return 0


def _forecast_rows(
    series: TimeSeries, forecasts: ForecastSet, params: SmoothingParams
) -> str:
    first = len(series) - min(len(series), params.season_length)
    days = calendar_dates(
        series.start_date, first, len(series) + len(forecasts.predictions)
    )
    cells = [(repr(value), "") for value in series.values[first:].tolist()]
    cells += [("", repr(value)) for value in forecasts.predictions.tolist()]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date", "actual", "forecast"])
    writer.writerows(
        (day.isoformat(), actual, forecast)
        for day, (actual, forecast) in zip(days, cells)
    )
    return out.getvalue()


def _cmd_forecast(args) -> int:
    if args.horizon < 1:
        raise _UsageError("--horizon must be at least 1 day")
    explicit = (args.alpha, args.beta, args.gamma)
    given = [v for v in explicit if v is not None]
    if given and args.auto:
        raise _UsageError("--auto excludes --alpha/--beta/--gamma")
    if given and len(given) != 3:
        raise _UsageError("provide --alpha, --beta and --gamma together")
    if args.season < 2:
        raise _UsageError(f"--season must be at least 2, got {args.season}")

    series_path = Path(args.series)
    series = _read_series_csv(series_path)
    last_target = len(series) + args.horizon - 1
    try:
        calendar_dates(series.start_date, last_target, last_target + 1)
    except OverflowError:
        raise OutOfRangeError(
            f"--horizon {args.horizon} runs past 9999-12-31, the last date "
            "the calendar can name"
        ) from None
    if len(given) == 3:
        try:
            params = SmoothingParams(*explicit, season_length=args.season)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        state = hw_fit(series, params)
        tuned = None
    else:
        tuned = grid_search(series, GridSpec.default(), season_length=args.season)
        params = tuned.params
        state = tuned.state

    leads = tuple(range(1, args.horizon + 1))
    forecasts = ForecastSet(
        origin_index=len(series),
        leads=leads,
        predictions=[hw_forecast(state, m, params) for m in leads],
    )

    output = Path(args.output)
    if output.parent and not output.parent.exists():
        output.parent.mkdir(parents=True, exist_ok=True)
    _write_text(output, _forecast_rows(series, forecasts, params))
    manifest = RunManifest(
        command="forecast",
        version=__version__,
        seed=None,
        input_path=args.series,
        input_sha256=_sha256(series_path),
        config={
            "horizon": args.horizon,
            "season_length": args.season,
            "coefficients": {
                "alpha": params.alpha,
                "beta": params.beta,
                "gamma": params.gamma,
                "source": "explicit" if tuned is None else "auto",
            },
            "in_sample_rmse": None if tuned is None else tuned.in_sample_rmse,
        },
        artifacts=(output.name,),
    )
    _write_text(output.parent / (output.name + ".manifest.json"), manifest.to_json())
    print(
        f"fitted alpha={params.alpha:.4f} beta={params.beta:.4f} "
        f"gamma={params.gamma:.4f} (season {params.season_length})"
    )
    print(f"wrote {args.horizon} forecast rows -> {args.output}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TempcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
