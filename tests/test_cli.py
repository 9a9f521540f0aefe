import contextlib
import csv
import ctypes
import datetime as dt
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcast import (
    SmoothingParams,
    TimeSeries,
    clean_report,
    hw_fit,
    hw_forecast,
    parse_cdo_csv,
    read_csv,
)
from tempcast import cli
from tempcast.cli import main
from tempcast.errors import MalformedDateError, MalformedRowError, ValidationError
from tempcast.ingest import _read_export_bytes
from tempcast.models import _kernel
from tempcast.series import (
    CSV_HEADER,
    _decode,
    _read_series_bytes,
    iso_dates,
    to_csv_rows,
)

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")
STATION_CSV = DATA / "synthetic_station_daily.csv"
GOLDEN_CSV = DATA / "cdo_golden.csv"


@pytest.fixture(scope="module")
def clean_series_file(tmp_path_factory):
    """Ingest the bundled station export once for the command tests."""
    out = tmp_path_factory.mktemp("series") / "station.csv"
    code = main(
        ["ingest", "--input", str(STATION_CSV), "--unit", "celsius",
         "--output", str(out)]
    )
    assert code == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestIngestCommand:
    def test_golden_fixture_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "clean.csv"
        code = main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
                     "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["date", "kelvin"]
        assert len(rows) == 1 + 30  # 31 days minus the leap day
        printed = capsys.readouterr().out
        assert "rows parsed:        30" in printed
        assert "days interpolated:  1" in printed
        assert "leap days dropped:  1" in printed
        manifest = json.loads((tmp_path / "clean.csv.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["unit"] == "celsius"
        assert len(manifest["input_sha256"]) == 64

    def test_written_series_reads_back_as_cleaned(self, clean_series_file):
        records = parse_cdo_csv(STATION_CSV.read_text(encoding="utf-8"), "celsius")
        cleaned, _ = clean_report(records)
        series = read_csv(clean_series_file.read_text(encoding="utf-8"))
        assert series.start_date == cleaned.start_date
        assert series.values.tobytes() == cleaned.values.tobytes()

    def test_output_naming_the_input_is_refused(self, tmp_path, capsys):
        export = tmp_path / "export.csv"
        export.write_bytes(GOLDEN_CSV.read_bytes())
        (tmp_path / "sub").mkdir()
        code = main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--output", str(tmp_path / "sub" / ".." / "export.csv")])
        assert code == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert export.read_bytes() == GOLDEN_CSV.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["export.csv", "sub"]
        # nor may the manifest written next to the output
        export = export.rename(tmp_path / "clean.csv.manifest.json")
        assert main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--output", str(tmp_path / "clean.csv")]) == 2
        assert export.read_bytes() == GOLDEN_CSV.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [export.name, "sub"]

    def test_manifest_digest_is_the_inputs(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
                     "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "clean.csv.manifest.json").read_text())
        assert manifest["input_sha256"] == hashlib.sha256(GOLDEN_CSV.read_bytes()).hexdigest()

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--unit", "celsius", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_unit_is_usage_error(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "kelvin",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1

    def test_unit_flag_changes_every_value_consistently(self, tmp_path):
        out_c = tmp_path / "c.csv"
        out_f = tmp_path / "f.csv"
        assert main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
                     "--output", str(out_c)]) == 0
        assert main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "fahrenheit",
                     "--output", str(out_f)]) == 0
        for (_, kc), (_, kf) in zip(read_rows(out_c)[1:], read_rows(out_f)[1:]):
            celsius = float(kc) - 273.15
            assert float(kf) == pytest.approx(
                (celsius - 32.0) * 5.0 / 9.0 + 273.15, abs=1e-9
            )

    def test_duplicate_date_is_data_error(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(DATA / "cdo_duplicate.csv"),
                     "--unit", "celsius", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "2015-03-05" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mark, newline",
        [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"\xef\xbb\xbf", b"\r")],
    )
    def test_byte_order_mark_and_line_endings_are_ignored(
        self, tmp_path, capsys, mark, newline
    ):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        export = tmp_path / "export.csv"
        export.write_bytes(mark + GOLDEN_CSV.read_bytes().replace(b"\n", newline))
        assert main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
                     "--output", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--output", str(marked)]) == 0
        assert capsys.readouterr().out == expected.replace(str(plain), str(marked))
        assert marked.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_byte_is_data_error(self, tmp_path, capsys, mark):
        lines = GOLDEN_CSV.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"USW", b"US\xff")
        export = tmp_path / "export.csv"
        export.write_bytes(mark + b"".join(lines))
        code = main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 3: not UTF-8 text (byte 0xff)" in capsys.readouterr().err

    def test_field_over_csv_size_limit_is_data_error(self, tmp_path, capsys):
        export = tmp_path / "export.csv"
        name = "N" * 200_000
        export.write_text(f'STATION,NAME,DATE,TAVG\nA,"{name}",2015-01-01,1.0\n')
        code = main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "malformed row at line 2: field larger than field limit" in (
            capsys.readouterr().err
        )

    def test_station_and_range_flags(self, tmp_path):
        out = tmp_path / "cut.csv"
        code = main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
                     "--station", "USW00099999",
                     "--from", "2016-03-01", "--to", "2016-03-10",
                     "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[1][0] == "2016-03-01"
        assert rows[-1][0] == "2016-03-10"

    @pytest.mark.parametrize("cell", ["20200102", "2020-W01-5", "2020-001"])
    def test_date_not_yyyy_mm_dd_is_data_error_naming_line(self, tmp_path, capsys, cell):
        # Python 3.11's date.fromisoformat reads the first two as dates
        export = tmp_path / "export.csv"
        export.write_text(f"STATION,DATE,TAVG\nA,2020-01-01,1.0\nA,{cell},1.5\n")
        code = main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "malformed date at line 3 (expected YYYY-MM-DD)" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_nan_cell_of_another_station_is_data_error(self, tmp_path, capsys):
        # NaN marks an empty cell, so a cell that reads as NaN is an error
        # in a row of any station
        export = tmp_path / "export.csv"
        export.write_text("STATION,DATE,TAVG\nA,2015-01-01,1.0\nB,2015-01-02,nan\n"
                          "A,2015-01-02,2.0\n")
        code = main(["ingest", "--input", str(export), "--unit", "celsius",
                     "--station", "A", "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: temperature is not finite: nan\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("value", ["20160301", "2016-W09-2"])
    def test_date_flag_not_yyyy_mm_dd_is_usage_error(self, tmp_path, capsys, flag, value):
        code = main(["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
                     flag, value, "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert f"{flag} expects YYYY-MM-DD, got {value!r}" in capsys.readouterr().err


class TestBacktestCommand:
    def test_small_run_writes_artifacts_and_table(self, clean_series_file, tmp_path, capsys):
        out_dir = tmp_path / "bt"
        code = main(["backtest", "--series", str(clean_series_file),
                     "--train-days", "731", "--experiments", "3",
                     "--grid", "coarse", "--seed", "11",
                     "--out-dir", str(out_dir)])
        assert code == 0
        table = read_rows(out_dir / "rmse.csv")
        assert table[0] == ["lead", "proposed", "persistence", "average"]
        assert [row[0] for row in table[1:]] == ["1", "2", "3", "4"]
        errors = read_rows(out_dir / "errors.csv")
        assert errors[0] == ["origin", "model", "lead", "error_kelvin"]
        assert len(errors) == 1 + 3 * 3 * 4
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert len(manifest["config"]["origins"]) == 3
        assert len(manifest["config"]["fits"]) == 3
        printed = capsys.readouterr().out
        assert "lead" in printed and "proposed" in printed

    def test_model_subset_gives_single_column(self, clean_series_file, tmp_path):
        out_dir = tmp_path / "bt"
        code = main(["backtest", "--series", str(clean_series_file),
                     "--train-days", "731", "--experiments", "2",
                     "--grid", "coarse", "--models", "persistence",
                     "--out-dir", str(out_dir)])
        assert code == 0
        table = read_rows(out_dir / "rmse.csv")
        assert table[0] == ["lead", "persistence"]
        assert all(len(row) == 2 for row in table[1:])

    def test_rmse_table_matches_errors_file(self, clean_series_file, tmp_path):
        out_dir = tmp_path / "bt"
        assert main(["backtest", "--series", str(clean_series_file),
                     "--train-days", "731", "--experiments", "4",
                     "--grid", "coarse", "--out-dir", str(out_dir)]) == 0
        errors = read_rows(out_dir / "errors.csv")[1:]
        table = {row[0]: row[1:] for row in read_rows(out_dir / "rmse.csv")[1:]}
        models = ["proposed", "persistence", "average"]
        for lead in ("1", "2", "3", "4"):
            for column, model in enumerate(models):
                cell = [float(e) for o, m, l, e in errors if m == model and l == lead]
                pooled = float(np.sqrt(np.mean(np.square(cell))))
                assert float(table[lead][column]) == pytest.approx(pooled, rel=1e-12)

    @pytest.mark.parametrize("artifact", ["rmse.csv", "errors.csv", "manifest.json"])
    def test_artifact_naming_the_series_is_refused(
        self, clean_series_file, tmp_path, capsys, artifact
    ):
        series = tmp_path / artifact
        series.write_bytes(clean_series_file.read_bytes())
        code = main(["backtest", "--series", str(series), "--experiments", "2",
                     "--grid", "coarse", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert series.read_bytes() == clean_series_file.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == [artifact]

    def test_insufficient_series_is_data_error(self, clean_series_file, tmp_path, capsys):
        code = main(["backtest", "--series", str(clean_series_file),
                     "--train-days", "1825", "--experiments", "500",
                     "--out-dir", str(tmp_path / "bt")])
        assert code == 2

    def test_bad_flag_values_are_usage_errors(self, clean_series_file, tmp_path):
        base = ["backtest", "--series", str(clean_series_file), "--out-dir", str(tmp_path)]
        assert main(base + ["--train-days", "100"]) == 1
        assert main(base + ["--leads", "3,2"]) == 1
        assert main(base + ["--leads", "abc"]) == 1
        assert main(base + ["--models", "nonsense"]) == 1


class TestForecastCommand:
    def test_horizon_zero_is_usage_error(self, clean_series_file, tmp_path):
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", "0", "--output", str(tmp_path / "f.csv")])
        assert code == 1

    def test_explicit_params_match_library(self, clean_series_file, tmp_path):
        out = tmp_path / "f.csv"
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", "1", "--alpha", "0.4", "--beta", "0.1",
                     "--gamma", "0.2", "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["date", "actual", "forecast"]
        values = [float(r[1]) for r in read_rows(clean_series_file)[1:]]
        params = SmoothingParams(0.4, 0.1, 0.2, season_length=365)
        expected = hw_forecast(hw_fit(np.array(values), params), 1, params)
        assert float(rows[-1][2]) == expected
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["config"]["coefficients"]["source"] == "explicit"

    def test_year_ahead_forecast_repeats_seasonal_shape(self, clean_series_file, tmp_path):
        out = tmp_path / "f.csv"
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", "400", "--alpha", "0.3", "--beta", "0.0",
                     "--gamma", "0.1", "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        actual_rows = [r for r in rows[1:] if r[1] != ""]
        forecast_rows = [r for r in rows[1:] if r[2] != ""]
        assert len(actual_rows) == 365  # one season of context
        assert len(forecast_rows) == 400
        assert all(r[2] == "" for r in actual_rows)
        assert all(r[1] == "" for r in forecast_rows)
        # beyond one season the ring repeats: gap is exactly 365 * trend
        lead_one = float(forecast_rows[0][2])
        lead_366 = float(forecast_rows[365][2])
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["config"]["coefficients"]["alpha"] == 0.3
        assert lead_366 - lead_one == pytest.approx(365 * 0.0, abs=5.0)  # trend is small

    def test_auto_mode_records_tuned_coefficients(self, clean_series_file, tmp_path):
        out = tmp_path / "f.csv"
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", "3", "--auto", "--output", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        coeffs = manifest["config"]["coefficients"]
        assert coeffs["source"] == "auto"
        assert 0.0 <= coeffs["alpha"] <= 1.0
        assert manifest["config"]["in_sample_rmse"] > 0.0

    def test_horizon_past_year_9999_is_data_error(self, tmp_path, capsys):
        series = tmp_path / "late.csv"
        series.write_text("date,kelvin\n" + "".join(
            f"{day},280.0\n" for day in iso_dates(dt.date(9995, 1, 1), 0, 4 * 365)
        ))
        explicit = ["--season", "7", "--alpha", "0.1", "--beta", "0.1",
                    "--gamma", "0.1"]
        out = tmp_path / "f.csv"
        # one year of leads ends on 9999-12-31 exactly
        assert main(["forecast", "--series", str(series), "--horizon", "365",
                     *explicit, "--output", str(out)]) == 0
        assert read_rows(out)[-1][0] == "9999-12-31"
        capsys.readouterr()
        for horizon in ("366", "3000"):
            code = main(["forecast", "--series", str(series), "--horizon", horizon,
                         "--auto", "--output", str(tmp_path / "g.csv")])
            assert code == 2
            assert "runs past 9999-12-31" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_dates_are_built_once(self, clean_series_file, tmp_path, monkeypatch):
        # the rows' own date range is what checks the horizon
        calls = []

        def spy(*args):
            calls.append(args)
            return iso_dates(*args)

        monkeypatch.setattr(cli, "iso_dates", spy)
        code = main(["forecast", "--series", str(clean_series_file), "--horizon", "7",
                     "--alpha", "0.3", "--beta", "0.1", "--gamma", "0.2",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 0
        assert len(calls) == 1

    def test_series_date_not_yyyy_mm_dd_is_data_error_naming_line(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("date,kelvin\n2015-01-01,280.0\n20150102,281.0\n")
        code = main(["forecast", "--series", str(series), "--horizon", "1",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 2
        assert "malformed date at line 3" in capsys.readouterr().err

    def test_long_horizon_rows_match_per_lead_forecasts(self, clean_series_file, tmp_path):
        horizon = 100_000
        out = tmp_path / "f.csv"
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", str(horizon), "--alpha", "0.4", "--beta", "0.1",
                     "--gamma", "0.2", "--output", str(out)])
        assert code == 0
        rows = read_rows(out)
        history = read_rows(clean_series_file)[1:]
        n = len(history)
        assert len(rows) == 1 + 365 + horizon
        assert rows[1] == [history[n - 365][0], history[n - 365][1], ""]
        start = dt.date.fromisoformat(history[0][0])
        assert [rows[-1][0]] == list(iso_dates(start, n + horizon - 1, n + horizon))
        params = SmoothingParams(0.4, 0.1, 0.2, season_length=365)
        state = hw_fit(np.array([float(r[1]) for r in history]), params)
        sample = [1, 2, 365, 366, 730, 50_000, 99_999, 100_000]
        sample += np.random.default_rng(7).integers(1, horizon + 1, 20).tolist()
        for m in sample:
            (day,) = iso_dates(start, n + m - 1, n + m)
            assert rows[365 + m] == [day, "", repr(hw_forecast(state, m, params))]

    @pytest.mark.parametrize("season", ["1", "0", "-3"])
    @pytest.mark.parametrize(
        "mode", [["--auto"], ["--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"]]
    )
    def test_season_below_two_is_usage_error(
        self, clean_series_file, tmp_path, capsys, season, mode
    ):
        code = main(["forecast", "--series", str(clean_series_file), "--horizon", "1",
                     "--season", season, *mode, "--output", str(tmp_path / "f.csv")])
        assert code == 1
        assert "--season must be at least 2" in capsys.readouterr().err

    def test_output_naming_the_series_is_refused(self, clean_series_file, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_bytes(clean_series_file.read_bytes())
        link = tmp_path / "link.csv"
        link.symlink_to(series)
        for output in (series, link):
            code = main(["forecast", "--series", str(series), "--horizon", "3",
                         "--alpha", "0.3", "--beta", "0.1", "--gamma", "0.2",
                         "--output", str(output)])
            assert code == 2
            assert "refusing to overwrite" in capsys.readouterr().err
        assert series.read_bytes() == clean_series_file.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "series.csv"]

    def test_auto_conflicts_with_explicit(self, clean_series_file, tmp_path):
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", "2", "--auto", "--alpha", "0.5",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 1

    def test_partial_explicit_params_rejected(self, clean_series_file, tmp_path):
        code = main(["forecast", "--series", str(clean_series_file),
                     "--horizon", "2", "--alpha", "0.5",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 1


class TestTopLevel:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command, message",
        [
            (["ingest", "--input", "INPUT", "--unit", "celsius", "--max-gap", "-1",
              "--output", "OUT"], "max_gap must be at least 0, got -1"),
            (["ingest", "--input", "INPUT", "--unit", "celsius", "--from", "2020-01-01",
              "--to", "2019-01-01", "--output", "OUT"], "date range end precedes start"),
            (["ingest", "--input", "INPUT", "--unit", "celsius", "--from", "2020-13-01",
              "--output", "OUT"], "--from expects YYYY-MM-DD, got '2020-13-01'"),
            (["backtest", "--series", "INPUT", "--leads", "3,2", "--out-dir", "OUT"],
             "leads must be strictly increasing"),
            (["forecast", "--series", "INPUT", "--horizon", "3", "--alpha", "2",
              "--beta", "0", "--gamma", "0", "--output", "OUT"],
             "alpha must lie in [0, 1], got 2.0"),
        ],
        ids=["max-gap", "from-after-to", "from-month-13", "leads", "alpha"],
    )
    def test_library_argument_error_is_usage_error(
        self, clean_series_file, tmp_path, capsys, command, message
    ):
        # Flags are checked before any file is opened, so a missing input
        # gives the same usage error as a valid one.
        valid = GOLDEN_CSV if command[0] == "ingest" else clean_series_file
        for source in (valid, tmp_path / "missing.csv"):
            replace = {"INPUT": str(source), "OUT": str(tmp_path / "out")}
            assert main([replace.get(arg, arg) for arg in command]) == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["ingest", "--input", "INPUT", "--unit", "celsius", "--output", "OUT"],
         ["backtest", "--series", "INPUT", "--experiments", "1", "--grid", "coarse",
          "--out-dir", "OUT"],
         ["forecast", "--series", "INPUT", "--horizon", "2", "--output", "OUT"]],
        ids=["ingest", "backtest", "forecast"],
    )
    def test_each_command_reads_its_input_once(
        self, clean_series_file, tmp_path, monkeypatch, command
    ):
        source = GOLDEN_CSV if command[0] == "ingest" else clean_series_file
        _kernel()  # loaded once per process, reading its source for the key
        reads = []
        read_bytes = Path.read_bytes

        def spy(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        replace = {"INPUT": str(source), "OUT": str(tmp_path / "out")}
        assert main([replace.get(arg, arg) for arg in command]) == 0
        assert reads == [source]

    @pytest.mark.parametrize(
        "command",
        [["forecast", "--auto", "--horizon", "1", "--output", "f.csv"],
         ["backtest", "--out-dir", "out"]],
    )
    def test_non_finite_series_value_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,kelvin\n2015-01-01,280.0\n2015-01-02,nan\n")
        argv = [str(tmp_path / a) if a in ("f.csv", "out") else a for a in command]
        code = main(argv[:1] + ["--series", str(bad)] + argv[1:])
        assert code == 2
        assert "nan" in capsys.readouterr().err

    def test_series_file_encoding(self, clean_series_file, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + clean_series_file.read_bytes())
        plain_out, marked_out = tmp_path / "plain.out.csv", tmp_path / "marked.out.csv"
        for series, out in ((clean_series_file, plain_out), (marked, marked_out)):
            assert main(["forecast", "--series", str(series), "--horizon", "2",
                         "--alpha", "0.3", "--beta", "0.0", "--gamma", "0.1",
                         "--output", str(out)]) == 0
        assert marked_out.read_bytes() == plain_out.read_bytes()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,kelvin\n2015-01-01,280.0\xe9\n")
        code = main(["forecast", "--series", str(bad), "--horizon", "1",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 2
        assert "line 2: not UTF-8 text (byte 0xe9)" in capsys.readouterr().err

    def test_malformed_series_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,kelvin\n2015-01-01,cold\n")
        code = main(["forecast", "--series", str(bad), "--horizon", "1",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 2

    def test_series_field_over_csv_size_limit_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('date,kelvin\n2015-01-01,280.0\n2015-01-02,"' + "9" * 200_000 + '"\n')
        code = main(["forecast", "--series", str(bad), "--horizon", "1",
                     "--output", str(tmp_path / "f.csv")])
        assert code == 2
        assert "malformed row at line 3: field larger than field limit" in (
            capsys.readouterr().err
        )


def _consecutive_days(start, count):
    """Up to ``count`` days of the 365-day calendar from ``start``, cut
    short at the end of year 9999."""
    if start.month == 2 and start.day == 29:
        start = start.replace(day=28)
    available = (dt.date.max - start).days + 1
    return list(map(dt.date.fromisoformat, iso_dates(start, 0, min(count, available))))


junk = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "x", '"', "1,5", "2015-02-29", "\t"]),
    st.text(max_size=6),
)


@st.composite
def cells(draw, cell, messy):
    """``cell`` as it is or, in a messy file now and then, something
    arbitrary in its place."""
    if messy and draw(st.integers(0, 15)) == 0:
        return draw(junk)
    return cell


@st.composite
def export_texts(draw):
    """CDO-like exports: a shuffled header, perhaps missing a column, and
    a run of consecutive days; in a messy export, arbitrary cells and a
    second station are mixed in."""
    messy = draw(st.booleans())
    columns = draw(st.permutations(["STATION", "NAME", "DATE", "TAVG", "TMAX", "TMIN"]))
    drop = draw(st.integers(0, 11))  # half the time, one column is missing
    if drop < len(columns):
        del columns[drop]
    days = _consecutive_days(draw(st.dates()), draw(st.integers(0, 30)))
    temperature = st.none() | st.floats(-40.0, 40.0)
    lines = [",".join(columns)]
    for day in days:
        row = {"STATION": "USW1", "NAME": '"X, Y"', "DATE": day.isoformat()}
        for column in ("TAVG", "TMAX", "TMIN"):
            value = draw(temperature)
            row[column] = "" if value is None else repr(value)
        if messy and draw(st.integers(0, 15)) == 0:
            row["STATION"] = "USW2"
        lines.append(",".join(draw(cells(row[c], messy)) for c in columns))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


@st.composite
def series_texts(draw):
    """Series files: runs of consecutive days near 280 K; in a messy
    file, arbitrary cells are mixed in."""
    messy = draw(st.booleans())
    days = _consecutive_days(draw(st.dates()), draw(st.integers(0, 40)))
    lines = [draw(cells("date,kelvin", messy))]
    for i, day in enumerate(days):
        date = draw(cells(day.isoformat(), messy))
        value = draw(cells(repr(280.0 + i % 7), messy))
        lines.append(f"{date},{value}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def input_bytes(texts):
    marks = st.sampled_from([b"", b"\xef\xbb\xbf"])
    return st.one_of(
        st.binary(max_size=200),
        st.tuples(marks, texts).map(lambda pair: pair[0] + pair[1].encode("utf-8")),
    )


def assert_not_internal_error(data, argv):
    """Run ``main(argv)`` with ``INPUT`` in argv replaced by a file
    holding ``data`` and ``OUT`` by a fresh output path; exit 0, 1 or 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(data)
        replace = {"INPUT": str(path), "OUT": str(Path(tmp) / "out")}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([replace.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2), err.getvalue()


class TestArbitraryInput:
    """Whatever the bytes, the CLI succeeds, reports a usage error or
    reports a data error: exit 3 (internal error) is never right."""

    @given(
        data=input_bytes(export_texts()),
        unit=st.sampled_from(["celsius", "fahrenheit", "tenths-celsius"]),
        fallback=st.booleans(),
        max_gap=st.sampled_from(["0", "7", "-1"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_ingest(self, data, unit, fallback, max_gap):
        argv = ["ingest", "--input", "INPUT", "--unit", unit, "--max-gap", max_gap,
                "--output", "OUT"]
        if fallback:
            argv.append("--tmax-tmin-fallback")
        assert_not_internal_error(data, argv)

    @given(
        data=input_bytes(series_texts()),
        horizon=st.sampled_from(["1", "30", "365", "4000000"]),
        season=st.sampled_from(["0", "2", "3", "7"]),
        coefficients=st.none() | st.tuples(*[st.sampled_from(["0", "0.5", "1", "2"])] * 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_forecast(self, data, horizon, season, coefficients):
        argv = ["forecast", "--series", "INPUT", "--horizon", horizon,
                "--season", season, "--output", "OUT"]
        if coefficients is None:
            argv.append("--auto")
        else:
            alpha, beta, gamma = coefficients
            argv += ["--alpha", alpha, "--beta", beta, "--gamma", gamma]
        assert_not_internal_error(data, argv)

    @given(data=input_bytes(series_texts()))
    @settings(max_examples=50, deadline=None)
    def test_backtest(self, data):
        argv = ["backtest", "--series", "INPUT", "--experiments", "1",
                "--grid", "coarse", "--out-dir", "OUT"]
        assert_not_internal_error(data, argv)


# Starts where the 365-day calendar turns: year ends, February 28 of
# leap and common years, and the last days the calendar can name.
calendar_turns = st.sampled_from([
    dt.date(1, 1, 1), dt.date(1999, 12, 31), dt.date(2015, 12, 25),
    dt.date(2016, 2, 28), dt.date(2017, 2, 28), dt.date(2100, 2, 20),
    dt.date(9999, 12, 20), dt.date(9999, 12, 31),
])
# Values that validate_series accepts, and numbers of every size as repr
# writes them, signs and exponents included, or as longer decimals of the
# same shape, some 64 bytes or more.
plausible = st.floats(170.0, 350.0, exclude_min=True, exclude_max=True).map(repr)
numbers = st.one_of(
    st.floats().map(repr),
    st.from_regex(r"\A-?[0-9]{1,30}(\.[0-9]{1,30})?([eE][-+]?[0-9]{1,3})?\Z"),
)


@st.composite
def exact_series_files(draw):
    """Files in the form tempcast writes: the header, then consecutive
    days of the 365-day calendar, with or without a last newline."""
    days = _consecutive_days(draw(calendar_turns | st.dates()), draw(st.integers(1, 40)))
    values = draw(st.sampled_from([plausible, numbers]))
    rows = [f"{day.isoformat()},{draw(values)}" for day in days]
    text = "\n".join(["date,kelvin", *rows]) + draw(st.sampled_from(["", "\n"]))
    return text.encode("ascii")


def outcome(read):
    """The start date and value bytes of the series ``read()`` returns,
    or the class and message of what it raises."""
    try:
        series = read()
    except Exception as exc:
        return type(exc), str(exc)
    return series.start_date, series.values.tobytes()


def read_both(data):
    """``_read_series_bytes`` and ``read_csv`` of a series file's bytes."""
    return (
        outcome(lambda: _read_series_bytes(data)),
        outcome(lambda: read_csv(_decode(data))),
    )


def c_pass(data, length=None, fields=(-1, 0, 1)):
    """The rows ``_kernel.c``'s ``read_export`` reads from the first
    ``length`` bytes of a series file, all by default, with the station,
    date and value fields that ``_read_series_bytes`` gives it (no
    station field, then 0 and 1): their number, -1 where it gives up, and
    the ordinals and values it reads."""
    capacity = data.count(b"\n")
    ordinals, values = np.empty(capacity, dtype=ctypes.c_long), np.empty(capacity)
    rows = _kernel().read_export(
        data, len(data) if length is None else length, 2, *fields, b"", 0,
        csv.field_size_limit(), capacity, ordinals, values, (ctypes.c_long * 3)(),
    )
    return rows, ordinals[: max(rows, 0)], values[: max(rows, 0)]


@pytest.fixture
def read_csv_calls(monkeypatch):
    """The texts ``_read_series_bytes`` hands ``read_csv``, which still
    reads them."""
    calls = []

    def spy(text):
        calls.append(text)
        return read_csv(text)

    monkeypatch.setattr("tempcast.series.read_csv", spy)
    return calls


@pytest.fixture(scope="module")
def century_file(tmp_path_factory):
    """100 years of values near 283 K, written as the CLI writes a series."""
    gen = np.random.default_rng(100)
    values = 283.15 + 12 * np.sin(np.arange(36500) * 2 * np.pi / 365)
    series = TimeSeries(dt.date(1921, 1, 1), values + gen.normal(0, 3, values.size))
    path = tmp_path_factory.mktemp("century") / "series.csv"
    cli._write_csv(path, CSV_HEADER, to_csv_rows(series))
    return path


# A file in the form tempcast writes that crosses a year end, and
# variants of it that the C pass gives up on, whether read_csv reads them
# or not.
EXACT = "date,kelvin\n2015-12-30,280.5\n2015-12-31,2.815e+02\n2016-01-01,279.0\n"
GIVE_UPS = {
    "byte-order mark": "\ufeff" + EXACT,
    "crlf line ends": EXACT.replace("\n", "\r\n"),
    "lone cr": EXACT.replace("280.5\n", "280.5\r"),
    "cr in a value": EXACT.replace("280.5", "280.5\r"),
    "blank line": EXACT.replace("280.5\n", "280.5\n\n"),
    "trailing blank line": EXACT + "\n",
    "space": EXACT.replace(",280.5", ", 280.5"),
    "non-ascii digit": EXACT.replace("280.5", "28\uff10.5"),  # a fullwidth 0
    "underscore": EXACT.replace("280.5", "2_80.5"),
    "no fraction digits": EXACT.replace("280.5", "280."),
    "64-byte value": EXACT.replace("280.5", "280." + "0" * 60),
    "nan": EXACT.replace("280.5", "nan"),
    "third field": EXACT.replace("280.5", "280.5,x"),
    "year 0": "date,kelvin\n0000-12-31,280.0\n",
    "past 9999-12-31": "date,kelvin\n9999-12-31,280.0\n10000-01-01,281.0\n",
}
# Variants that the C pass reads, whether read_csv reads them or not: the
# rows' dates are checked in Python, as drop_leap_days checks them.
ONE_PASS_FORMS = {
    "quoted value": EXACT.replace("280.5", '"280.5"'),
    "capital header": EXACT.replace("date,kelvin", "Date,Kelvin"),
    "header alone": "date,kelvin\n",
    "gap": EXACT.replace("2015-12-31", "2016-01-02"),
    "repeat": EXACT.replace("2016-01-01", "2015-12-31"),
    "february 29": "date,kelvin\n2016-02-28,280.0\n2016-02-29,281.0\n2016-03-01,282.0\n",
    "start on february 29": "date,kelvin\n2016-02-29,280.0\n2016-03-01,281.0\n",
}


class TestSeriesFileReader:
    """``_read_series_bytes`` reads a plain file, as tempcast writes one,
    in one C pass and hands every other file to ``read_csv``; either way
    it returns what ``read_csv`` returns, or raises what it raises."""

    @given(data=st.one_of(input_bytes(series_texts()), exact_series_files()))
    @settings(max_examples=400, deadline=None)
    def test_same_series_or_error_as_read_csv(self, data):
        got, expected = read_both(data)
        assert got == expected
        rows, _, values = c_pass(data)
        if rows >= 0:  # strtod reads each value as float does, and "" as NaN
            cells = [row[1] for row in csv.reader(io.StringIO(data.decode("ascii")))]
            expected = [repr(float(cell)) if cell else "nan" for cell in cells[1:]]
            assert list(map(repr, values.tolist())) == expected

    def test_files_tempcast_writes_never_reach_read_csv(
        self, read_csv_calls, clean_series_file, century_file, tmp_path
    ):
        exact = tmp_path / "exact.csv"
        exact.write_text(EXACT.replace("280.5", "280." + "0" * 59))  # 63 bytes
        golden = DATA / "golden" / "series.csv"
        for path in (golden, clean_series_file, century_file, exact):
            got, expected = read_both(path.read_bytes())
            assert got == expected
            assert not isinstance(got[0], type)  # a series, not an error
        assert read_csv_calls == []

    def test_value_past_the_float_range_is_rule_nan_in_both_readers(
        self, read_csv_calls
    ):
        # strtod and float both read 1e400 as inf, which validate_series
        # reports as rule "nan" at its index among the values (the row is
        # on line 3)
        data = EXACT.replace("2.815e+02", "1e400").encode()
        assert c_pass(data)[0] == 3
        got, expected = read_both(data)
        assert got == expected == (
            ValidationError, "series invariant 'nan' violated at index 1"
        )
        assert read_csv_calls == []

    @pytest.mark.parametrize("case", ONE_PASS_FORMS)
    def test_one_pass_forms_never_reach_read_csv(self, read_csv_calls, case):
        data = ONE_PASS_FORMS[case].encode("ascii")
        assert c_pass(data)[0] >= 0
        got, expected = read_both(data)
        assert got == expected
        assert read_csv_calls == []

    @pytest.mark.parametrize("case", GIVE_UPS)
    def test_other_files_reach_read_csv(self, read_csv_calls, case):
        data = GIVE_UPS[case].encode("utf-8")
        assert c_pass(data)[0] == -1
        got, expected = read_both(data)
        assert got == expected
        assert len(read_csv_calls) == 1

    def test_empty_value_reaches_read_csv(self, read_csv_calls):
        # the C pass reads an empty cell as NaN, and read_csv rejects it
        data = EXACT.replace("280.5", "").encode()
        rows, _, values = c_pass(data)
        assert rows == 3 and np.isnan(values[0])
        got, expected = read_both(data)
        assert got == expected == (
            MalformedRowError, "malformed row at line 2: not a number: ''"
        )
        assert len(read_csv_calls) == 1

    def test_missing_field_reads_as_empty_and_keeps_every_row(self):
        # with no station field, station b"" keeps every row; with no
        # value field either, every value reads as empty
        first = dt.date(2015, 12, 30).toordinal()
        for fields, expected in [((-1, 0, 1), "[280.5, 281.5, 279.0]"),
                                 ((-1, 0, -1), "[nan, nan, nan]")]:
            rows, ordinals, values = c_pass(EXACT.encode(), fields=fields)
            assert rows == 3 and ordinals.tolist() == [first, first + 1, first + 2]
            assert repr(values.tolist()) == expected

    def test_comma_decimal_point_gives_up(self, tmp_path):
        # under such a locale strtod reads "266.34999999999997" as 266 and
        # "-6.0" as -6: both passes must give up rather than misread
        locales = tmp_path / "de_DE.UTF-8"
        if shutil.which("localedef") is None or subprocess.run(
            ["localedef", "-i", "de_DE", "-f", "UTF-8", str(locales)],
            capture_output=True,
        ).returncode:
            pytest.skip("cannot build a de_DE locale here")
        code = (
            "import ctypes, locale; from pathlib import Path; import numpy as np; "
            "from tempcast import read_csv; "
            "from tempcast.models import _kernel; "
            "from tempcast.series import _decode, _read_series_bytes; "
            "print(locale.setlocale(locale.LC_NUMERIC, 'de_DE.UTF-8')); "
            f"data = Path({str(DATA / 'golden' / 'series.csv')!r}).read_bytes(); "
            "import csv; n = data.count(b'\\n'); "
            "ordinals, values = np.empty(n, dtype=ctypes.c_long), np.empty(n); "
            "print(_kernel().read_export(data, len(data), 2, -1, 0, 1, b'', 0, "
            "csv.field_size_limit(), n, ordinals, values, (ctypes.c_long * 3)())); "
            "print(_read_series_bytes(data) == read_csv(_decode(data))); "
            "from tempcast import parse_cdo_csv; "
            "from tempcast.ingest import _read_export_bytes; "
            f"data = Path({str(GOLDEN_CSV)!r}).read_bytes(); "
            "ordinals, values = np.empty(40, dtype=ctypes.c_long), np.empty(40); "
            "print(_kernel().read_export(data, len(data), 4, 0, 2, 3, b'USW00099999', "
            "11, csv.field_size_limit(), 40, ordinals, values, (ctypes.c_long * 3)())); "
            "print(_read_export_bytes(data, 'celsius', station='USW00099999') "
            "== parse_cdo_csv(_decode(data), 'celsius', station='USW00099999'))"
        )
        env = {**os.environ, "LOCPATH": str(tmp_path), "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout == "de_DE.UTF-8\n-1\nTrue\n-1\nTrue\n"

    def test_buffer_cut_mid_row_gives_up(self):
        data = (DATA / "golden" / "series.csv").read_bytes()
        cut = data.index(b"\n2015-01-07,") + len(b"\n2015-01-0")
        assert c_pass(data[:cut])[0] == -1
        # a date with no comma after it is one field
        with pytest.raises(MalformedRowError) as fallback:
            _read_series_bytes(data[:cut])
        with pytest.raises(MalformedRowError) as direct:
            read_csv(_decode(data[:cut]))
        assert str(fallback.value) == str(direct.value) == (
            "malformed row at line 8: expected two fields"
        )

    def test_reads_no_byte_past_the_length(self):
        # the bytes past the length would finish the last row's date or
        # lengthen its value
        data = (DATA / "golden" / "series.csv").read_bytes()
        row = data.index(b"\n2015-01-07,") + 1
        assert c_pass(data, row + len(b"2015-01-0"))[0] == -1
        value = data.index(b".", row) + 2
        rows, ordinals, values = c_pass(data, value)
        assert rows == 7
        assert values[6] == float(data[row + 11 : value]) == 266.0
        assert ordinals[0] == dt.date(2015, 1, 1).toordinal()


def export_outcome(read):
    """The columns of the records ``read()`` returns, each value by its
    ``repr`` so that 0.0 and -0.0 differ, or the class and message of
    what it raises."""
    try:
        records = read()
    except Exception as exc:
        return type(exc), str(exc)
    tavg = tuple(map(repr, records.tavg.tolist()))
    return records.stations, records.ordinals.tolist(), tavg, records.unit, records.rows_read


def read_both_exports(data, station="USW1", fallback=False):
    """``_read_export_bytes`` and ``parse_cdo_csv`` of an export's bytes."""
    return (
        export_outcome(lambda: _read_export_bytes(data, "celsius", fallback, station)),
        export_outcome(lambda: parse_cdo_csv(_decode(data), "celsius", fallback, station)),
    )


def export_pass(data, length, station=b"USW1"):
    """The rows ``_kernel.c``'s ``read_export`` keeps from the first
    ``length`` bytes of an export with the columns STATION, NAME, DATE and
    TAVG (-1 where it gives up), the data rows it read and the ``repr`` of
    each kept value."""
    ordinals, values = np.empty(10, dtype=ctypes.c_long), np.empty(10)
    counts = (ctypes.c_long * 3)()
    kept = _kernel().read_export(
        data, length, 4, 0, 2, 3, station, len(station), csv.field_size_limit(), 10,
        ordinals, values, counts,
    )
    return kept, counts[0], list(map(repr, values[: max(kept, 0)].tolist()))


@pytest.fixture
def parse_cdo_csv_calls():
    """A spy on the ``parse_cdo_csv`` that ``_read_export_bytes`` calls,
    which still parses."""
    with mock.patch("tempcast.ingest.parse_cdo_csv", wraps=parse_cdo_csv) as spy:
        yield spy


# Cells that the C pass gives up on, that parse_cdo_csv rejects, or both.
export_junk = st.one_of(
    junk,
    st.sampled_from([
        " USW1", "USW1 ", '" USW1"', "2015-02-29", "1900-02-29", "0000-01-01",
        "2015-1-01", "20150101", "2015-W01-1", "1e400", "-0", ".5", "+1.5", "1.",
        "1_5", "inf", '""', '"a"b', 'a"b', '"a""b"', '"a\nb"', "\r", "\x0c",
        "\x1f", "\x7f", " ", "1.5 ", "\n",
    ]),
)


# Drawn once per cell and per row, so built once here.
sixteenths = st.integers(0, 15)
plain_values = st.just("") | st.floats(-40.0, 40.0).map(repr)
any_values = plain_values | numbers


def export_cell(draw, cell, messy):
    """``cell``, quoted one time in four and always if it holds a comma,
    or in a messy export one time in sixteen something arbitrary in its
    place."""
    pick = draw(sixteenths)
    if messy and pick == 0:
        return draw(export_junk)
    return f'"{cell}"' if "," in cell or pick % 4 == 1 else cell


@st.composite
def plain_exports(draw):
    """Exports in the form the C pass reads: a shuffled header, then
    consecutive Gregorian days of one station or two, each cell quoted or
    not, some values empty. A messy export also holds cells that the
    pass gives up on or that ``parse_cdo_csv`` rejects, values of any
    form, perhaps CRLF line ends and a byte-order mark. Returns the bytes
    and whether the export is messy and holds two stations."""
    messy, two = draw(st.booleans()), draw(st.booleans())
    columns = draw(st.permutations(["STATION", "NAME", "DATE", "TAVG"]))
    start = draw(calendar_turns | st.dates())
    count = min(draw(st.integers(0, 30)), (dt.date.max - start).days + 1)
    values = any_values if messy else plain_values
    lines = [",".join(export_cell(draw, column, messy) for column in columns)]
    for k in range(count):
        row = {
            "STATION": "USW2" if two and draw(sixteenths) < 4 else "USW1",
            "NAME": "X, Y",
            "DATE": (start + dt.timedelta(days=k)).isoformat(),
            "TAVG": draw(values),
        }
        lines.append(",".join(export_cell(draw, row[c], messy) for c in columns))
    newline = draw(st.sampled_from(["\n", "\r\n"])) if messy else "\n"
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    mark = draw(st.sampled_from(["", "\ufeff"])) if messy else ""
    return (mark + text).encode("utf-8"), messy, two


def bench_shaped_export(path):
    """An export shaped as the benchmark's: three stations of three years
    one after the other, a NAME the csv writer quotes, some days absent
    and some values empty."""
    gen = np.random.default_rng(5)
    days = [dt.date(2018, 1, 1) + dt.timedelta(days=k) for k in range(1096)]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["STATION", "NAME", "DATE", "TAVG"])
        for k in range(3):
            for day in days:
                draw = gen.random()
                if draw >= 0.01:
                    value = "" if draw < 0.02 else f"{gen.normal(10, 8):.1f}"
                    writer.writerow([f"USW0002000{k}", f"BENCH {k}, XX US", day, value])
    return path


# A plain export that crosses a year end, with a quoted NAME, an empty
# value, an exponent and a second station, read with station USW1; and
# variants that the C pass gives up on, one per reason, whether
# parse_cdo_csv reads them or not, each with the keyword arguments that
# read_both_exports takes.
EXPORT = (
    "STATION,NAME,DATE,TAVG\n"
    'USW1,"TOWN, XX US",2015-12-31,1.5\n'
    'USW2,"TOWN, XX US",2015-12-31,2.5\n'
    'USW1,"TOWN, XX US",2016-01-01,\n'
    'USW1,"TOWN, XX US",2016-01-02,-2.5e+00\n'
)
EXPORT_GIVE_UPS = {
    "byte-order mark": ("\ufeff" + EXPORT, {}),
    "non-ascii name": (EXPORT.replace("TOWN", "TÖWN", 1), {}),
    "delete byte": (EXPORT.replace("TOWN", "TO\x7fWN", 1), {}),
    "crlf line ends": (EXPORT.replace("\n", "\r\n"), {}),
    "lone cr": (EXPORT.replace("1.5\n", "1.5\r"), {}),
    "tab": (EXPORT.replace(",1.5", ",\t1.5"), {}),
    "nul": (EXPORT.replace("TOWN", "TO\x00WN", 1), {}),
    "vertical tab": (EXPORT.replace(",1.5", ",1.5\x0b"), {}),
    "form feed": (EXPORT.replace(",1.5", ",\x0c1.5"), {}),
    "file separator": (EXPORT.replace(",1.5", ",1.5\x1c"), {}),
    "unit separator": (EXPORT.replace(",1.5", ",\x1f1.5"), {}),
    "blank line": (EXPORT.replace("2.5\n", "2.5\n\n"), {}),
    "trailing blank line": (EXPORT + "\n", {}),
    "quote inside a field": (EXPORT.replace("USW2", 'USW"2'), {}),
    "quote inside quotes": (EXPORT.replace("TOWN,", 'TOWN ""X"",', 1), {}),
    "newline inside quotes": (EXPORT.replace("TOWN, XX", "TOWN,\nXX", 1), {}),
    # the "x" takes the place of a comma, so that the csv module reads
    # one field too few
    "text after a closing quote": (
        EXPORT.replace('"TOWN, XX US",2015-12-31,1.5', '"TOWN"x2015-12-31,1.5', 1), {}
    ),
    "space before a station": (EXPORT.replace("USW1,", " USW1,", 1), {}),
    "space after a station": (EXPORT.replace("USW1,", "USW1 ,", 1), {}),
    "space inside a quoted station": (EXPORT.replace("USW1,", '" USW1",', 1), {}),
    "space before a date": (EXPORT.replace(",2015-12-31", ", 2015-12-31", 1), {}),
    "space after a value": (EXPORT.replace(",1.5\n", ",1.5 \n"), {}),
    "space as a value": (EXPORT.replace(",\n", ", \n"), {}),
    "a field too many": (EXPORT.replace("1.5\n", "1.5,x\n"), {}),
    "a field too few": (EXPORT.replace(",2016-01-01,\n", ",2016-01-01\n"), {}),
    "field over the size limit": (
        EXPORT.replace("TOWN, XX US", "T" * (csv.field_size_limit() + 1), 1), {}
    ),
    "non-ascii header": (EXPORT.replace("NAME", "NÄME"), {}),
    "header lacks a column": (EXPORT.replace("TAVG", "TEMP"), {}),
    "blank header line": ("\n" + EXPORT, {}),
    "empty file": ("", {}),
    "tmax-tmin fallback": (
        "STATION,DATE,TAVG,TMAX,TMIN\nUSW1,2015-12-31,,3.0,1.0\n", {"fallback": True}
    ),
    "nan": (EXPORT.replace("1.5", "nan"), {}),
    "inf": (EXPORT.replace("1.5", "inf"), {}),
    "leading point": (EXPORT.replace("1.5", ".5"), {}),
    "plus sign": (EXPORT.replace("1.5", "+1.5"), {}),
    "no fraction digits": (EXPORT.replace("1.5", "1."), {}),
    "no exponent digits": (EXPORT.replace("1.5", "1e"), {}),
    "underscore": (EXPORT.replace("1.5", "1_5"), {}),
    "non-ascii digit": (EXPORT.replace("1.5", "１.5"), {}),
    "64-byte value": (EXPORT.replace("1.5", "1." + "5" * 62), {}),
    "bad value of another station": (EXPORT.replace(",2.5\n", ",warm\n"), {}),
    "february 29 of a common year": (EXPORT.replace("2015-12-31", "2015-02-29", 1), {}),
    "february 29 of 1900": (EXPORT.replace("2015-12-31", "1900-02-29", 1), {}),
    "april 31": (EXPORT.replace("2015-12-31", "2015-04-31", 1), {}),
    "month 13": (EXPORT.replace("2015-12-31", "2015-13-01", 1), {}),
    "year 0": (EXPORT.replace("2015-12-31", "0000-12-31", 1), {}),
    "five-digit year": (EXPORT.replace("2015-12-31", "10000-12-31", 1), {}),
    "week date": (EXPORT.replace("2015-12-31", "2015-W53-4", 1), {}),
    "date without dashes": (EXPORT.replace("2015-12-31", "20151231", 1), {}),
    "bad date of another station": (EXPORT.replace("2015-12-31,2.5", "2015-12-32,2.5"), {}),
    "station that is not ascii": (EXPORT, {"station": "USWé1"}),
    "two stations and no station named": (EXPORT, {"station": None}),
}
# Variants of the plain export that the C pass reads.
EXPORT_FAST_FORMS = {
    "plain": (EXPORT, {}),
    "one station and no station named": (
        EXPORT.replace('USW2,"TOWN, XX US",2015-12-31,2.5\n', ""), {"station": None}
    ),
    "another station": (EXPORT, {"station": "USW2"}),
    "no such station": (EXPORT, {"station": "NOPE"}),
    "header alone": ("STATION,NAME,DATE,TAVG\n", {}),
    "header alone without a newline": ("STATION,NAME,DATE,TAVG", {}),
    "no last newline": (EXPORT[:-1], {}),
    "every cell quoted": (
        "\n".join(
            ",".join(f'"{cell}"' for cell in next(csv.reader([line])))
            for line in EXPORT.splitlines()
        ),
        {},
    ),
    "empty quoted value": (EXPORT.replace(",\n", ',""\n'), {}),
    "header in another case and order": (
        EXPORT.replace("STATION,NAME,DATE,TAVG", "station,NAME, Date ,tavg"), {}
    ),
    "space inside a station": (EXPORT.replace("USW1", "USW 1"), {"station": "USW 1"}),
    "field at the size limit": (
        EXPORT.replace("TOWN, XX US", "T" * csv.field_size_limit(), 1), {}
    ),
    "63-byte value": (EXPORT.replace("1.5", "1." + "5" * 61), {}),
    "64-byte value of another station": (
        EXPORT.replace(",2.5\n", ",2." + "5" * 62 + "\n"), {}
    ),
    "negative zero": (EXPORT.replace("1.5", "-0"), {}),
    "value past the float range": (EXPORT.replace("1.5", "1e400"), {}),
    "february 29 of 2000": (EXPORT.replace("2015-12-31", "2000-02-29", 1), {}),
    "first and last days": (
        EXPORT.replace("2015-12-31", "0001-01-01", 1).replace("2016-01-02", "9999-12-31"),
        {},
    ),
}


class TestExportReader:
    """``_read_export_bytes`` reads a plain export in one C pass and
    hands every other export to ``parse_cdo_csv``; either way it returns
    what ``parse_cdo_csv`` returns, or raises what it raises."""

    @given(
        drawn=plain_exports(),
        station=st.sampled_from([None, "USW1", "USW2", "NOPE", "", "USWé1"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_records_or_error_as_parse_cdo_csv(self, drawn, station):
        data, messy, two = drawn
        with mock.patch("tempcast.ingest.parse_cdo_csv", wraps=parse_cdo_csv) as spy:
            got, expected = read_both_exports(data, station)
        assert got == expected
        # an ASCII station, or none when the export holds only one
        plain_station = not two if station is None else station.isascii()
        if not messy and plain_station:
            assert spy.call_count == 0

    def test_bundled_and_bench_shaped_exports_never_reach_parse_cdo_csv(
        self, parse_cdo_csv_calls, tmp_path
    ):
        bench = bench_shaped_export(tmp_path / "bench.csv")
        reads = [
            (STATION_CSV, [None, "USW00010001"]),
            (GOLDEN_CSV, [None, "USW00099999"]),
            (DATA / "cdo_duplicate.csv", [None, "USW00099999"]),
            (bench, ["USW00020000", "USW00020001", "USW00020002", "NOPE"]),
        ]
        for path, stations in reads:
            for station in stations:
                got, expected = read_both_exports(path.read_bytes(), station)
                assert got == expected
                assert not isinstance(got[0], type)  # records, not an error
        # no row of NOPE is kept, but every row is read
        assert got[0] == () and got[-1] == bench.read_bytes().count(b"\n") - 1
        assert parse_cdo_csv_calls.call_count == 0

    @pytest.mark.parametrize("case", EXPORT_FAST_FORMS)
    def test_plain_forms_never_reach_parse_cdo_csv(self, parse_cdo_csv_calls, case):
        text, kwargs = EXPORT_FAST_FORMS[case]
        got, expected = read_both_exports(text.encode("utf-8"), **kwargs)
        assert got == expected
        assert parse_cdo_csv_calls.call_count == 0

    @pytest.mark.parametrize("case", EXPORT_GIVE_UPS)
    def test_other_exports_reach_parse_cdo_csv(self, parse_cdo_csv_calls, case):
        data, kwargs = EXPORT_GIVE_UPS[case]
        got, expected = read_both_exports(data.encode("utf-8"), **kwargs)
        assert got == expected
        assert parse_cdo_csv_calls.call_count == 1

    def test_first_bad_row_is_still_the_one_reported(self, parse_cdo_csv_calls):
        # the bad date of USW2 comes before the bad value of USW1
        data = EXPORT.replace("2015-12-31,2.5", "2015-13-31,2.5").replace("-2.5e+00", "warm")
        got, expected = read_both_exports(data.encode())
        message = "malformed date at line 3 (expected YYYY-MM-DD)"
        assert got == expected == (MalformedDateError, message)
        assert parse_cdo_csv_calls.call_count == 1

    def test_export_that_is_not_utf8_raises_as_decoding_does(self, parse_cdo_csv_calls):
        # a byte above 0x7e gives up; decoding then fails before parsing
        data = EXPORT.encode().replace(b"2.5\n", b"2.5\xd6\n")
        got, expected = read_both_exports(data)
        assert got == expected == (MalformedRowError, (
            "malformed row at line 3: not UTF-8 text (byte 0xd6)"
        ))
        assert parse_cdo_csv_calls.call_count == 0

    def test_ingest_writes_the_same_series_from_either_path(self, tmp_path, capsys):
        plain = STATION_CSV.read_bytes()
        rows = csv.reader(io.StringIO(plain.decode("ascii")))
        variants = {
            "plain": plain,
            "crlf": b"\xef\xbb\xbf" + plain.replace(b"\n", b"\r\n"),
            "quoted": "".join(
                ",".join(f'"{cell}"' for cell in row) + "\n" for row in rows
            ).encode("ascii"),
        }
        written = {}
        for name, data in variants.items():
            export, out = tmp_path / f"{name}.csv", tmp_path / name / "s.csv"
            export.write_bytes(data)
            assert main(["ingest", "--input", str(export), "--unit", "celsius",
                         "--station", "USW00010001", "--output", str(out)]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            written[name] = out.read_bytes(), printed
        assert written["crlf"] == written["quoted"] == written["plain"]

    def test_reads_no_byte_past_the_length(self):
        # the bytes past the length would finish the last row's date or
        # lengthen its value
        data = EXPORT.encode()
        date = data.index(b"2016-01-02")
        assert export_pass(data, date + len(b"2016-01-0")) == (-1, 0, [])
        value = data.index(b"-2.5e+00")
        assert export_pass(data, value) == (3, 4, ["1.5", "nan", "nan"])
        assert export_pass(data, value + len(b"-2.5")) == (3, 4, ["1.5", "nan", "-2.5"])
        assert export_pass(data, value + len(b"-2.5e"))[0] == -1
        assert export_pass(data, len(data)) == (3, 4, ["1.5", "nan", "-2.5"])
