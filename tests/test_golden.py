"""The CLI's artifacts on the bundled station, pinned byte for byte.

Four commands run in process, in order, from a scratch directory holding
a copy of the bundled export (never ``TEMPCAST_STATION_CSV``): ``ingest``
without a station filter, ``backtest`` with every default, and a tuned
and an explicit-coefficient ``forecast --horizon 7``. Every file they
write and everything they print must equal ``tests/data/golden/``. All
paths are relative, so each manifest's ``input_path`` is fixed.

A change that moves an artifact on purpose regenerates the golden files
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
import os
import shutil
from pathlib import Path

import numpy as np

from tempcast.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
EXPORT = "export.csv"

# name -> argv, run in this order; stdout goes to <name>.stdout
COMMANDS = {
    "ingest": [
        "ingest", "--input", EXPORT, "--unit", "celsius", "--output", "series.csv",
    ],
    "backtest": ["backtest", "--series", "series.csv", "--out-dir", "backtest"],
    "forecast_auto": [
        "forecast", "--series", "series.csv", "--horizon", "7",
        "--output", "forecast_auto.csv",
    ],
    "forecast_explicit": [
        "forecast", "--series", "series.csv", "--horizon", "7",
        "--alpha", "0.3", "--beta", "0.1", "--gamma", "0.2",
        "--output", "forecast_explicit.csv",
    ],
}


def run_commands() -> None:
    """Run :data:`COMMANDS` in the working directory on a copy of the
    bundled export, writing each one's stdout next to its artifacts, then
    remove the copy."""
    shutil.copyfile(DATA / "synthetic_station_daily.csv", EXPORT)
    for name, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, f"{name} exited {code}"
        Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")
    os.remove(EXPORT)


def files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_cli_artifacts_match_the_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_commands()
    got, want = files(tmp_path), files(GOLDEN)
    names = got.keys() | want.keys()
    differ = sorted(name for name in names if got.get(name) != want.get(name))
    assert not differ, (
        f"{differ} differ from {GOLDEN} under numpy {np.__version__}. Backtest "
        "origins come from numpy's Generator.choice, so another numpy version "
        "may move them; a change that moves them on purpose regenerates the files."
    )


def test_readme_table_is_the_golden_rmse_rounded():
    readme = (DATA.parent.parent / "README.md").read_text(encoding="utf-8")
    table = [line for line in readme.splitlines() if line.startswith("| ")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    golden = (GOLDEN / "backtest" / "rmse.csv").read_text(encoding="utf-8")
    header, *body = (line.split(",") for line in golden.splitlines())
    assert rows[0][1:] == header[1:]
    rounded = [[lead, *(f"{float(v):.3f}" for v in cells)] for lead, *cells in body]
    assert rows[1:] == rounded


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    os.chdir(GOLDEN)
    run_commands()
