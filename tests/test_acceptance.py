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
    RawRecordSet,
    SmoothingParams,
    TimeSeries,
    average_forecast,
    clean_report,
    grid_search,
    hw_fit,
    hw_forecast,
    parse_cdo_csv,
    persistence_forecast,
    run_backtest,
)
from tempcast.backtest import collect_report, run_experiment, select_origins
from tempcast.cli import main
from tempcast.errors import (
    ArgumentError,
    DuplicateDateError,
    EmptyAfterFilterError,
    GapTooLargeError,
    MalformedDateError,
    MalformedRowError,
    MissingColumnError,
    TempcastError,
)
from tempcast.models import hw_update, init_state
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
        series = TimeSeries(dt.date(2015, 1, 1), values)
        report = run_backtest(series, BacktestConfig(seed=config_seed))
        lead_one = report.rmse["proposed"][1]
        assert 2.4 <= lead_one <= 4.2, (
            f"lead-1 rmse {lead_one:.3f} outside noise-floor band "
            f"(data seed {data_seed}, protocol seed {config_seed})"
        )
    print("ACCEPTANCE C3 (noise-floor band, 5 seeds): PASS")


def fold_one_step_rmse(values, params):
    """One-step RMSE by folding hw_update: each lead-1 forecast from the
    third season on is scored before its observation is consumed, and the
    squared errors are summed in time order."""
    L = params.season_length
    state = init_state(values, params)
    total = 0.0
    for t, observation in enumerate(values.tolist()):
        if t >= 2 * L:
            error = hw_forecast(state, 1, params) - observation
            total += error * error
        state = hw_update(state, observation, params)
    return math.sqrt(total / (values.size - 2 * L))


def test_c4_oracle_equivalences():
    """rmse and average_forecast match independent brute-force
    implementations to 1e-12 relative on 100 instances; round-0
    grid_search matches a brute-force loop over an hw_update fold
    exactly, and so does one_step_rmse for every triple."""
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
                    params = SmoothingParams(a, b, g, season_length=season_length)
                    score = fold_one_step_rmse(values, params)
                    assert one_step_rmse(values, params) == score
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
        clean_report(parse_cdo_csv(text, unit="celsius", station="NOPE"),
                     CleanConfig())
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


_SMALL = TimeSeries(dt.date(2015, 1, 1), 280.0 + np.sin(np.arange(60) * 2 * np.pi / 7))
_POINT = GridSpec((0.5,), (0.5,), (0.5,))


def _small_backtest(**fields):
    config = dict(train_length=30, leads=(1,), n_experiments=2, grid=_POINT, season_length=7)
    return run_backtest(_SMALL, BacktestConfig(**{**config, **fields}))


@pytest.mark.parametrize(
    "call",
    [
        lambda: _small_backtest(n_experiments=2.5),
        lambda: _small_backtest(seed=1.5),
        lambda: _small_backtest(seed=True),
        lambda: _small_backtest(season_length=7.5),
        lambda: _small_backtest(train_length=30.5),
        lambda: grid_search(_SMALL, GridSpec((0.5,), (0.5,), (0.5,), refine_rounds=1.5), 7),
        lambda: GridSpec((0.5,), (0.5,), (0.5,), refine_rounds=True),
        lambda: grid_search(_SMALL, _POINT, season_length=7.5),
        lambda: hw_fit(_SMALL, SmoothingParams(0.5, 0.5, 0.5, season_length=7.5)),
        lambda: hw_forecast(
            HWState(280.0, 0.0, np.zeros(7), phase=1.5),
            1,
            SmoothingParams(0.5, 0.5, 0.5, season_length=7),
        ),
        lambda: HWState(280.0, 0.0, np.zeros(7), phase=True),
        lambda: CleanConfig(max_gap=1.5),
        lambda: CleanConfig(max_gap=True),
        lambda: CleanConfig(max_gap="3"),
    ],
    ids=[
        "n_experiments", "seed", "seed-bool", "backtest-season_length",
        "train_length", "refine_rounds", "refine_rounds-bool",
        "grid_search-season_length", "params-season_length", "phase", "phase-bool",
        "max_gap", "max_gap-bool", "max_gap-str",
    ],
)
def test_whole_number_fields_reject_fractions_and_bools(call):
    with pytest.raises(ArgumentError, match="must be a whole number"):
        call()


_DAY = dt.date(2015, 1, 1)
_PARAMS = SmoothingParams(0.5, 0.5, 0.5, season_length=7)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SmoothingParams(0.5, 0.5, 0.5, season_length=1),
        lambda: _small_backtest(n_experiments=0),
        lambda: _small_backtest(seed=-1),
        lambda: _small_backtest(train_length=14),
        lambda: GridSpec((0.5,), (0.5,), (0.5,), refine_rounds=-1),
        lambda: CleanConfig(max_gap=-1),
        lambda: RawRecordSet(("A",), (_DAY.toordinal(),), (1.0,), "celsius", rows_read=0),
        lambda: SmoothingParams(1.5, 0.5, 0.5, season_length=7),
        lambda: SmoothingParams(0.5, math.nan, 0.5, season_length=7),
        lambda: GridSpec((0.5,), (0.5, 1.5), (0.5,)),
        lambda: GridSpec((0.5,), (0.5,), (math.nan,)),
        lambda: GridSpec((), (0.5,), (0.5,)),
        lambda: GridSpec((0.5, 0.2), (0.5,), (0.5,)),
        lambda: RawRecordSet(("A",), (_DAY.toordinal(),), (1.0,), "kelvin"),
        lambda: parse_cdo_csv("STATION,DATE,TAVG\nA,2015-01-01,1.0\n", unit="kelvin"),
        lambda: _small_backtest(models=("nonsense",)),
        lambda: _small_backtest(models=("average", "average")),
        lambda: _small_backtest(models=()),
        lambda: _small_backtest(leads=(0,)),
        lambda: _small_backtest(leads=()),
        lambda: _small_backtest(leads=(1.5,)),
        lambda: _small_backtest(leads=(2, 1)),
        lambda: CleanConfig(start=dt.date(2020, 1, 1), end=dt.date(2019, 1, 1)),
        lambda: RawRecordSet(("A", "A"), (_DAY.toordinal(),), (1.0,), "celsius"),
        lambda: persistence_forecast(np.full((2, 3), 280.0)),
        lambda: grid_search(np.full((2, 30), 280.0), _POINT, 7),
        lambda: TimeSeries(_DAY, np.full((2, 3), 280.0)),
        lambda: HWState(280.0, 0.0, np.zeros(1), phase=0),
        lambda: HWState(280.0, 0.0, np.zeros(7), phase=7),
        lambda: hw_forecast(HWState(280.0, 0.0, np.zeros(5), phase=0), 1, _PARAMS),
        lambda: hw_forecast(HWState(280.0, 0.0, np.zeros(7), phase=0), 0, _PARAMS),
        lambda: _small_backtest(grid=None),
        lambda: _small_backtest(models="average"),
    ],
    ids=[
        "season_length", "n_experiments", "seed", "train_length", "refine_rounds",
        "max_gap", "rows_read", "params-coefficient", "params-nan", "grid-coefficient",
        "grid-nan", "empty-axis",
        "unsorted-axis", "record-unit", "parse-unit", "unknown-model",
        "repeated-model", "no-models", "lead-zero", "no-leads", "lead-fraction",
        "leads-decreasing", "clean-dates", "record-columns", "persistence-2d",
        "grid_search-2d", "series-2d", "ring-one-slot", "phase-outside-ring",
        "ring-mismatch", "hw_forecast-lead-zero", "grid-none", "models-str",
    ],
)
def test_bad_arguments_raise_argument_error(call):
    """Every bad argument raises ArgumentError: a TempcastError, so the CLI
    reports it (exit 1, never 3), and a ValueError, as before."""
    with pytest.raises(ArgumentError) as excinfo:
        call()
    assert isinstance(excinfo.value, TempcastError)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize(
    "window", [{"a": 1}, [1, [2, 3]], ["a", "b"]], ids=["dict", "ragged", "strings"]
)
@pytest.mark.parametrize(
    "entry",
    [
        persistence_forecast,
        average_forecast,
        lambda window: hw_fit(window, _PARAMS),
        lambda window: init_state(window, _PARAMS),
        lambda window: grid_search(window, _POINT, 7),
    ],
    ids=["persistence", "average", "hw_fit", "init_state", "grid_search"],
)
def test_windows_that_are_not_numbers_raise_argument_error(entry, window):
    with pytest.raises(ArgumentError, match="each window must hold real numbers"):
        entry(window)


_STATE = HWState(280.0, 0.0, np.zeros(7), phase=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hw_forecast(_STATE, 1, None), "params must be a SmoothingParams, got None"),
        (lambda: hw_forecast(None, 1, _PARAMS), "state must be a HWState, got None"),
        (lambda: hw_update(_STATE, 280.0, "params"), "params must be a SmoothingParams"),
        (lambda: hw_fit(_SMALL, None), "params must be a SmoothingParams, got None"),
        (lambda: grid_search(_SMALL, "default", 7), "spec must be a GridSpec, got 'default'"),
        (
            lambda: run_backtest(None, BacktestConfig()),
            "series must be a TimeSeries, got None",
        ),
        (lambda: _small_backtest(grid="coarse"), "grid must be a GridSpec, got 'coarse'"),
    ],
    ids=["hw_forecast-params", "hw_forecast-state", "hw_update-params", "hw_fit-params",
         "grid_search-spec", "run_backtest-series", "backtest-grid"],
)
def test_wrongly_typed_arguments_raise_argument_error(call, message):
    with pytest.raises(ArgumentError, match=f"^{message}"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: SmoothingParams("a", 0, 0, 7),
        lambda: SmoothingParams(None, 0, 0, 7),
        lambda: SmoothingParams(0.5, True, 0.5, 7),
        lambda: GridSpec(("a",), (0.0,), (0.0,)),
        lambda: GridSpec(5, (0.0,), (0.0,)),
        lambda: GridSpec((0.0,), (None,), (0.0,)),
        lambda: GridSpec((0.0,), (0.0,), (True,)),
    ],
    ids=["params-str", "params-none", "params-bool", "grid-str", "grid-scalar",
         "grid-none", "grid-bool"],
)
def test_coefficients_that_are_not_real_numbers_raise_argument_error(call):
    """Bools are refused as _whole refuses them for whole-number fields."""
    with pytest.raises(ArgumentError, match="must be a (real number|sequence of real)"):
        call()


def test_real_coefficients_are_stored_as_float():
    params = SmoothingParams(np.float32(0.5), 0, np.int64(1), season_length=7)
    grid = GridSpec(np.array([0.0, 0.5]), (0, 1), [np.float16(0.25)])
    values = [params.alpha, params.beta, params.gamma,
              *grid.alpha_grid, *grid.beta_grid, *grid.gamma_grid]
    assert [type(v) for v in values] == [float] * len(values)
    assert values == [0.5, 0.0, 1.0, 0.0, 0.5, 0.0, 1.0, 0.25]


def test_models_given_as_one_string_is_named():
    with pytest.raises(ArgumentError, match="not the string 'average'"):
        BacktestConfig(models="average")


def test_numpy_integer_fields_are_stored_as_int():
    config = BacktestConfig(
        train_length=np.int64(30), n_experiments=np.int32(2), seed=np.uint8(1),
        grid=GridSpec((0.5,), (0.5,), (0.5,), refine_rounds=np.int64(1)),
        season_length=np.int64(7),
    )
    params = SmoothingParams(0.5, 0.5, 0.5, season_length=np.int16(7))
    state = HWState(280.0, 0.0, np.zeros(7), phase=np.int64(3))
    values = [
        config.train_length, config.n_experiments, config.seed,
        config.season_length, config.grid.refine_rounds,
        params.season_length, state.phase,
    ]
    assert [type(v) for v in values] == [int] * len(values)
