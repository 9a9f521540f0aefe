import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcast import (
    SmoothingParams,
    clean_report,
    hw_fit,
    hw_forecast,
    parse_cdo_csv,
    read_csv,
)
from tempcast.cli import main
from tempcast.series import iso_dates

DATA = Path(__file__).parent / "data"
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
            (["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
              "--max-gap", "-1"], "max_gap must be at least 0, got -1"),
            (["ingest", "--input", str(GOLDEN_CSV), "--unit", "celsius",
              "--from", "2020-01-01", "--to", "2019-01-01"],
             "date range end precedes start"),
            (["forecast", "--series", "SERIES", "--horizon", "3", "--alpha", "2",
              "--beta", "0", "--gamma", "0"], "alpha must lie in [0, 1], got 2.0"),
        ],
        ids=["max-gap", "from-after-to", "alpha"],
    )
    def test_library_argument_error_is_usage_error(
        self, clean_series_file, tmp_path, capsys, command, message
    ):
        argv = [str(clean_series_file) if a == "SERIES" else a for a in command]
        code = main(argv + ["--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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
