"""Tiny-size smoke check of the benchmark itself; never looks at timings.

Usage (from the repository root): python3 bench/smoke.py

1. The station generator, imported from ``scripts/``, still reproduces
   the bundled export for its default seed 25.
2. ``BENCHMARK.json`` lists exactly the metrics of ``metrics.py``.
3. Each workload runs at a tiny size, untraced and traced, and its
   result object has the contract's shape: the four keys, every metric
   named in ``BENCHMARK.json`` with its unit, all outputs correct.
   Layers a workload never calls report 0, not nothing.
4. Every output check fails on an artifact perturbed to break it.

Exit status 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS, SEASON, load_generator

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def check_generator(scratch: Path) -> None:
    bundled = run.ROOT / "tests" / "data" / "synthetic_station_daily.csv"
    if not bundled.is_file():
        return
    out = scratch / "seed25.csv"
    with redirect_stdout(io.StringIO()):
        load_generator(run.ROOT).write_csv(out, 25)
    expect(out.read_bytes() == bundled.read_bytes(),
           "generator seed 25 no longer reproduces the bundled export")


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        coded = {name: (unit, better) for name, (unit, better, _) in table.items()}
        expect(listed == coded, f"BENCHMARK.json {key} differs from metrics.py")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")


def check_schema(name: str, trace: bool, result: dict) -> None:
    label = f"{name} trace={int(trace)}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    expect(result["correct"] is True, f"{label}: not correct")
    expect(type(result["attempted"]) is int and result["attempted"] >= 1, f"{label}: attempted")
    expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
    table = PER_LAYER if trace else END_TO_END
    expect(set(result["metrics"]) == set(table), f"{label}: metric names")
    for metric, (unit, _, _) in table.items():
        entry = result["metrics"].get(metric, {})
        value = entry.get("value")
        expect(set(entry) == {"value", "unit"} and entry["unit"] == unit, f"{label}: {metric} entry")
        expect(isinstance(value, (int, float)) and not isinstance(value, bool)
               and math.isfinite(value), f"{label}: {metric} value {value!r}")
    json.loads(json.dumps(result, allow_nan=False))
    if trace:
        calls = result["metrics"]["tuning.grid_search.calls"]["value"]
        expect((calls == 0) == (name == "ingest_bulk"), f"{label}: grid_search calls {calls}")
        expect(result["metrics"]["cli.digest_match"]["value"] == 1, f"{label}: digest mismatch")


def edit_csv(path: Path, change) -> None:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    change(rows)
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def scale(rows, row, column, factor):
    rows[row][column] = repr(float(rows[row][column]) * factor)


def _scale_fits(manifest):
    for fit in manifest["config"]["fits"]:
        fit["in_sample_rmse"] *= 1 + 1e-6


def _shift_persistence(rows):
    for row in rows[1:]:
        if row[1] == "persistence":
            row[3] = repr(float(row[3]) + 1e-3)


def _shift_forecast_date(rows):
    rows[SEASON + 2][0] = "1900-01-01"


def _missing_day_row(station) -> int:
    dates, _, _, _ = station.expected_kelvin()
    return 1 + next(i for i, d in enumerate(dates) if d not in station.observed)


# workload: [(expected failure tag, file, edit, stdout edit)]
PERTURBATIONS = {
    "paper_backtest": [
        ("fold:", "out/manifest.json", lambda p, t: edit_json(p, _scale_fits), None),
        ("baseline:", "out/errors.csv", lambda p, t: edit_csv(p, _shift_persistence), None),
        ("pooled:", "out/rmse.csv", lambda p, t: edit_csv(p, lambda r: scale(r, 1, 3, 1.001)), None),
        ("ordering:", "out/rmse.csv", lambda p, t: edit_csv(p, lambda r: scale(r, 2, 1, 1e3)), None),
        ("set-up ingest observed", "setup/series.csv",
         lambda p, t: edit_csv(p, lambda r: scale(r, 1, 1, 1.0001)), None),
    ],
    "forecast_long": [
        ("fold:", "out/forecast.csv",
         lambda p, t: edit_csv(p, lambda r: scale(r, SEASON + 1, 2, 1 + 1e-7)), None),
        ("rmse:", "out/forecast.csv.manifest.json",
         lambda p, t: edit_json(p, lambda m: m["config"].__setitem__(
             "in_sample_rmse", m["config"]["in_sample_rmse"] * (1 + 1e-7))), None),
        ("calendar:", "out/forecast.csv", lambda p, t: edit_csv(p, _shift_forecast_date), None),
        ("context:", "out/forecast.csv", lambda p, t: edit_csv(p, lambda r: scale(r, 5, 1, 1.0001)), None),
    ],
    "ingest_bulk": [
        ("ingest observed", "out/{sid}.csv", lambda p, t: edit_csv(p, lambda r: scale(r, 1, 1, 1.0001)), None),
        ("ingest interpolated", "out/{sid}.csv",
         lambda p, t: edit_csv(p, lambda r: scale(r, _missing_day_row(t["stations"][0]), 1, 1 + 1e-6)),
         None),
        ("ingest length", "out/{sid}.csv", lambda p, t: edit_csv(p, lambda r: r.pop()), None),
        ("ingest stats: days interpolated", None, None,
         lambda out: out.replace("days interpolated:  ", "days interpolated:  1")),
    ],
}


def check_perturbations(name: str, records: list, inputs, scratch: Path) -> None:
    _, check = WORKLOADS[name]
    rep = records[0]["rep"]
    commands = records[0]["result"]["commands"]
    failures, _ = check(rep, inputs.truth, commands)
    expect(not any(failures), f"{name}: unperturbed artifacts fail {failures}")
    sid = inputs.commands[0][-1].split("/")[-1].removesuffix(".csv")
    for tag, target, edit, stdout_edit in PERTURBATIONS[name]:
        copy = scratch / f"{name}-perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(rep, copy)
        perturbed = [dict(c) for c in commands]
        if edit is not None:
            path = copy / target.format(sid=sid)
            edit(path, inputs.truth)
            expect(run.artifact_digest(copy)[0] != records[0]["digest"],
                   f"{name}: perturbing {target} left the digest unchanged")
        if stdout_edit is not None:
            perturbed[0]["stdout"] = stdout_edit(perturbed[0]["stdout"])
        failures, _ = check(copy, inputs.truth, perturbed)
        found = any(p.startswith(tag) for p in failures[0])
        expect(found, f"{name}: check '{tag}' did not fail on a perturbed artifact: {failures}")
        shutil.rmtree(copy)


def main() -> int:
    run.require_sources()
    scratch = run.ROOT / ".bench_work" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        check_generator(scratch)
        check_manifest()
        for name in WORKLOADS:
            for trace in (False, True):
                with redirect_stdout(io.StringIO()):
                    result, records, inputs = run.run_workload(
                        name, seed=7, seconds=0, trace=trace, tiny=True, keep=True)
                check_schema(name, trace, result)
                if not trace:
                    check_perturbations(name, records, inputs, scratch)
                shutil.rmtree(records[0]["rep"].parent, ignore_errors=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke ok" if not FAILURES else f"smoke FAILED: {len(FAILURES)} problems")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
