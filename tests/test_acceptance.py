"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line so a plain ``pytest -v -s tests/test_acceptance.py``
reads as a checklist. Criterion 1 is data-dependent: it runs against the
bundled synthetic station export unless TEMPCAST_STATION_CSV (and
optionally TEMPCAST_STATION_UNIT) point at a real daily-summaries
export covering 2015-2020.
"""

import datetime as dt
import math
import os
import time
import types
from pathlib import Path

import numpy as np
import pytest

from tempcast import (
    BacktestConfig,
    CleanConfig,
    GridSpec,
    HWState,
    SmoothingParams,
    TimeSeries,
    average_forecast,
    clean_report,
    grid_search,
    hw_fit,
    hw_forecast,
    parse_cdo_csv,
    run_backtest,
)
from tempcast.backtest import collect_report, run_experiment, select_origins
from tempcast.cli import main
from tempcast.errors import (
    DuplicateDateError,
    EmptyAfterFilterError,
    GapTooLargeError,
    MalformedDateError,
    MalformedRowError,
    MissingColumnError,
)
from tempcast.models import hw_update
from tempcast.series import rmse
from tempcast.tuning import one_step_rmse

DATA = Path(__file__).parent / "data"
LEADS = (1, 2, 3, 4)


def test_c1_station_benchmark_bands():
    """Default protocol on a 2015-2020 station export: model ordering,
    lead-3 ceiling, average-model band, lead-monotonicity, <60 s."""
    csv_path = Path(os.environ.get("TEMPCAST_STATION_CSV",
                                   DATA / "synthetic_station_daily.csv"))
    unit = os.environ.get("TEMPCAST_STATION_UNIT", "celsius")

    started = time.perf_counter()
    records = parse_cdo_csv(csv_path.read_text(encoding="utf-8"), unit=unit)
    series, _ = clean_report(records, CleanConfig())
    report = run_backtest(series, BacktestConfig())
    elapsed = time.perf_counter() - started

    proposed = [report.rmse["proposed"][m] for m in LEADS]
    persistence = [report.rmse["persistence"][m] for m in LEADS]
    average = [report.rmse["average"][m] for m in LEADS]

    for m, p, r, a in zip(LEADS, proposed, persistence, average):
        assert p < r < a, f"model ordering broken at lead {m}: {p} / {r} / {a}"
        assert 12.0 <= a <= 20.0, f"average model out of band at lead {m}: {a}"
    assert proposed[2] <= 6.5, f"lead-3 rmse too high: {proposed[2]}"
    for earlier, later in zip(proposed, proposed[1:]):
        assert later >= earlier - 0.3, f"lead curve dips too far: {proposed}"
    assert elapsed < 60.0, f"protocol took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C1 (station benchmark bands, {elapsed:.1f}s): PASS")


def test_c2_exact_recovery_suite():
    """Noiseless linear-plus-cycle signals are recovered to <1e-5 K for
    leads 1..2L under 20 random coefficient triples, within 5 s."""
    started = time.perf_counter()
    gen = np.random.default_rng(20240901)
    for season_length in (4, 12, 365):
        cycle = gen.normal(0.0, 3.0, season_length)
        cycle -= cycle.mean()
        n = 2 * season_length + 40
        base, slope = 281.0, 0.01

        def truth(i):
            return base + slope * i + cycle[i % season_length]

        values = np.array([truth(i) for i in range(n)])
        for _ in range(20):
            alpha, beta, gamma = gen.random(3)
            params = SmoothingParams(alpha, beta, gamma, season_length=season_length)
            state = hw_fit(values, params)
            for m in range(1, 2 * season_length + 1):
                got = hw_forecast(state, m, params)
                assert abs(got - truth(n - 1 + m)) < 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"recovery suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE C2 (exact recovery, {elapsed:.2f}s): PASS")


def test_c3_noise_floor_band():
    """Annual sinusoid + trend + sigma=3 noise, six synthetic years,
    default protocol: lead-1 pooled RMSE lands in [2.4, 4.2] K."""
    for data_seed, config_seed in ((101, 0), (202, 1), (303, 2), (404, 3), (505, 4)):
        gen = np.random.default_rng(data_seed)
        t = np.arange(6 * 365)
        values = (278.0 + 15.0 * np.sin(2.0 * np.pi * t / 365.0)
                  + 0.001 * t + gen.normal(0.0, 3.0, t.size))
        series = TimeSeries(dt.date(2015, 1, 1), values, "SYNTH")
        report = run_backtest(series, BacktestConfig(seed=config_seed))
        lead_one = report.rmse["proposed"][1]
        assert 2.4 <= lead_one <= 4.2, (
            f"lead-1 rmse {lead_one:.3f} outside noise-floor band "
            f"(data seed {data_seed}, protocol seed {config_seed})"
        )
    print("ACCEPTANCE C3 (noise-floor band, 5 seeds): PASS")


def test_c4_oracle_equivalences():
    """rmse, average_forecast and round-0 grid_search match independent
    brute-force implementations to 1e-12 relative on 100 instances."""
    gen = np.random.default_rng(77)

    for _ in range(100):
        n = int(gen.integers(1, 60))
        xs = gen.uniform(200.0, 330.0, n)
        ys = gen.uniform(200.0, 330.0, n)
        brute = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(xs, ys)) / n)
        got = rmse(xs, ys)
        assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)

    for _ in range(100):
        n = int(gen.integers(1, 80))
        xs = gen.uniform(200.0, 330.0, n)
        brute = math.fsum(xs) / n
        assert average_forecast(xs, 1) == pytest.approx(brute, rel=1e-12)

    for _ in range(100):
        season_length = 3
        n = 2 * season_length + int(gen.integers(3, 12))
        values = 280.0 + gen.normal(0.0, 2.0, n)
        axes = tuple(sorted({round(float(v), 3) for v in gen.uniform(0, 1, 3)}))
        spec = GridSpec(axes, axes, axes, refine_rounds=0)
        result = grid_search(values, spec, season_length=season_length)
        best = None
        for a in axes:
            for b in axes:
                for g in axes:
                    score = one_step_rmse(
                        values, SmoothingParams(a, b, g, season_length=season_length)
                    )
                    key = (score, a, b, g)
                    if best is None or key < best:
                        best = key
        assert result.in_sample_rmse == best[0]
        assert (result.params.alpha, result.params.beta, result.params.gamma) == best[1:]
    print("ACCEPTANCE C4 (brute-force oracle equivalences): PASS")


def test_c5_forecast_index_law():
    """Ring slot selection equals the explicit correction-history index
    t-L+1+((m-1) mod L), and forecasts one season apart differ by
    exactly L*trend, for L in {2,4,7} and m in [1, 3L]."""
    gen = np.random.default_rng(55)
    for season_length in (2, 4, 7):
        params = SmoothingParams(0.5, 0.25, 0.75, season_length=season_length)
        state = HWState(
            level=280.0,
            trend=0.25,
            seasonal=gen.normal(0.0, 3.0, season_length),
            phase=0,
        )
        history = []  # history[i] = correction written while consuming a_i
        t = 5 * season_length
        for _ in range(t):
            observation = 280.0 + float(gen.normal(0.0, 4.0))
            before = state
            state = hw_update(state, observation, params)
            history.append(float(state.seasonal[before.phase]))
        for m in range(1, 3 * season_length + 1):
            slot = (state.phase + (m - 1)) % season_length
            # paper-form index, 1-based history c_1..c_t
            index = t - season_length + 1 + ((m - 1) % season_length)
            assert float(state.seasonal[slot]) == history[index - 1]
            lhs = hw_forecast(state, m + season_length, params)
            rhs = hw_forecast(state, m, params)
            assert lhs - rhs == pytest.approx(
                season_length * state.trend, abs=1e-9
            )

        # exactness of the one-season gap, on states whose components are
        # dyadic (every forecast then rounds nowhere)
        exact = HWState(
            level=float(gen.integers(540, 580)) / 2.0,
            trend=float(gen.integers(-6, 7)) / 4.0,
            seasonal=gen.integers(-24, 25, season_length) / 8.0,
            phase=int(gen.integers(0, season_length)),
        )
        for m in range(1, 3 * season_length + 1):
            lhs = hw_forecast(exact, m + season_length, params)
            rhs = hw_forecast(exact, m, params)
            assert lhs - rhs == season_length * exact.trend
    print("ACCEPTANCE C5 (forecast index law): PASS")


def test_c6_reproducibility(tmp_path):
    """Identical CLI runs produce byte-identical artifacts; experiment
    order does not change the library report."""
    series_file = tmp_path / "series.csv"
    code = main(["ingest", "--input", str(DATA / "synthetic_station_daily.csv"),
                 "--unit", "celsius", "--output", str(series_file)])
    assert code == 0

    artifacts = ("rmse.csv", "errors.csv", "manifest.json")
    payloads = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        code = main(["backtest", "--series", str(series_file),
                     "--train-days", "731", "--experiments", "4",
                     "--grid", "coarse", "--seed", "7",
                     "--out-dir", str(out_dir)])
        assert code == 0
        payloads.append({name: (out_dir / name).read_bytes() for name in artifacts})
    assert payloads[0] == payloads[1]

    # order independence of the report assembly
    gen = np.random.default_rng(1)
    records = parse_cdo_csv(
        (DATA / "synthetic_station_daily.csv").read_text(), unit="celsius"
    )
    series, _ = clean_report(records, CleanConfig())
    config = BacktestConfig(
        train_length=731, n_experiments=4, seed=7, grid=GridSpec.coarse()
    )
    report = run_backtest(series, config)
    origins = list(select_origins(len(series), config))
    gen.shuffle(origins)
    shuffled = collect_report(
        config, [run_experiment(series, int(o), config) for o in origins]
    )
    assert shuffled.origins == report.origins
    for model in config.models:
        for lead in config.leads:
            np.testing.assert_array_equal(
                shuffled.errors[model][lead], report.errors[model][lead]
            )
            assert shuffled.rmse[model][lead] == report.rmse[model][lead]
    print("\nACCEPTANCE C6 (byte-identical reruns, order independence): PASS")


def test_c7_ingest_golden_files():
    """Bundled 30-row export fixture: interpolation, leap-day drop and
    every cleaning error path give exactly the expected results."""
    text = (DATA / "cdo_golden.csv").read_text(encoding="utf-8")
    records = parse_cdo_csv(text, unit="celsius")
    assert len(records) == 30

    series, stats = clean_report(records, CleanConfig())
    # 31 calendar days, one interpolated, Feb 29 dropped
    assert stats.raw_rows == 30
    assert stats.interpolated_days == 1
    assert stats.leap_days_dropped == 1
    assert len(series) == 30
    assert series.start_date == dt.date(2016, 2, 14)
    assert series.end_date == dt.date(2016, 3, 15)
    assert not any(d.month == 2 and d.day == 29 for d in series.dates())
    # generating rule: -6.0 + 0.5 * (days since Feb 14), in Celsius
    for day, got in zip(series.dates(), series.values):
        expected = -6.0 + 0.5 * (day - dt.date(2016, 2, 14)).days + 273.15
        assert got == pytest.approx(expected, abs=1e-9)
    # the interpolated day sits exactly on the line between its flanks
    mar5 = series.values[list(series.dates()).index(dt.date(2016, 3, 5))]
    assert mar5 == pytest.approx(4.0 + 273.15, abs=1e-9)

    with pytest.raises(DuplicateDateError) as excinfo:
        clean_report(parse_cdo_csv((DATA / "cdo_duplicate.csv").read_text(),
                                   unit="celsius"), CleanConfig())
    assert excinfo.value.date == dt.date(2015, 3, 5)

    with pytest.raises(MissingColumnError) as excinfo:
        parse_cdo_csv("STATION,DATE\nA,2016-01-01\n", unit="celsius")
    assert excinfo.value.column == "TAVG"

    with pytest.raises(MalformedDateError) as excinfo:
        parse_cdo_csv("STATION,DATE,TAVG\nA,Jan 1 2016,1.0\n", unit="celsius")
    assert excinfo.value.line == 2

    with pytest.raises(MalformedRowError) as excinfo:
        parse_cdo_csv("STATION,DATE,TAVG\nA,2016-01-01\n", unit="celsius")
    assert excinfo.value.line == 2

    gappy = ("STATION,DATE,TAVG\n"
             "A,2016-01-01,1.0\n"
             "A,2016-01-12,2.0\n")
    with pytest.raises(GapTooLargeError) as excinfo:
        clean_report(parse_cdo_csv(gappy, unit="celsius"), CleanConfig(max_gap=7))
    assert excinfo.value.start == dt.date(2016, 1, 2)
    assert excinfo.value.length == 10

    with pytest.raises(EmptyAfterFilterError):
        clean_report(records, CleanConfig(station_filter="NOPE"))
    print("ACCEPTANCE C7 (ingest golden files): PASS")


def test_top_level_exports_the_user_api():
    import tempcast

    assert tempcast.__all__ == [
        "__version__", "errors", "MODEL_NAMES", "BacktestConfig",
        "BacktestReport", "run_backtest", "UNITS", "CleanConfig", "CleanStats",
        "RawRecordSet", "parse_cdo_csv", "clean_report", "TimeSeries", "read_csv",
        "SmoothingParams", "HWState", "hw_fit", "hw_forecast",
        "persistence_forecast", "average_forecast", "GridSpec", "FitResult",
        "grid_search",
    ]
    # imported names only: submodules are bound as attributes once loaded
    public = {
        name for name, value in vars(tempcast).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(tempcast.__all__) - {"__version__", "errors"}
