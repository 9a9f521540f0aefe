import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tempcast import SmoothingParams, hw_fit, hw_forecast
from tempcast.cli import main

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
