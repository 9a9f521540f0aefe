import datetime as dt
from pathlib import Path

import numpy as np
import pytest

import tempcast.backtest
from tempcast import (
    MODEL_NAMES,
    BacktestConfig,
    CleanConfig,
    GridSpec,
    TimeSeries,
    run_backtest,
    parse_cdo_csv,
)
from tempcast.backtest import collect_report, run_experiment, select_origins
from tempcast.errors import EmptyInputError, InsufficientDataError, OutOfRangeError
from tempcast.ingest import clean

JAN1 = dt.date(2015, 1, 1)
STATION_CSV = Path(__file__).parent / "data" / "synthetic_station_daily.csv"


def small_config(**overrides):
    """Fast protocol for unit tests: week-long season, tiny grid."""
    defaults = dict(
        train_length=15,
        leads=(1, 2, 3, 4),
        n_experiments=5,
        seed=3,
        grid=GridSpec((0.0, 0.5, 1.0), (0.0, 0.5), (0.0, 0.5), refine_rounds=1),
        season_length=7,
    )
    defaults.update(overrides)
    return BacktestConfig(**defaults)


def noisy_series(n, seed=0, sigma=2.0):
    gen = np.random.default_rng(seed)
    t = np.arange(n)
    values = 280.0 + 5.0 * np.sin(2 * np.pi * t / 7) + gen.normal(0, sigma, n)
    return TimeSeries(JAN1, values, "TEST")


class TestConfig:
    def test_defaults_match_protocol(self):
        config = BacktestConfig()
        assert config.train_length == 1825
        assert config.leads == (1, 2, 3, 4)
        assert config.n_experiments == 50
        assert config.season_length == 365
        assert config.models == ("proposed", "persistence", "average")
        # the table's order fixes the rmse.csv columns
        assert MODEL_NAMES == ("proposed", "persistence", "average")

    def test_invariants(self):
        with pytest.raises(ValueError):
            BacktestConfig(train_length=730)  # needs two seasons plus one
        with pytest.raises(ValueError):
            small_config(leads=())
        with pytest.raises(ValueError):
            small_config(leads=(2, 1))
        with pytest.raises(ValueError):
            small_config(leads=(0, 1))
        with pytest.raises(ValueError):
            small_config(n_experiments=0)
        with pytest.raises(ValueError):
            small_config(models=("nonsense",))
        with pytest.raises(ValueError):
            small_config(seed=-1)

    @pytest.mark.parametrize(
        "leads", [(1.5,), (True, 2), (1, 2.0), ("1",)],
        ids=["half", "bool", "whole-float", "string"],
    )
    def test_non_integer_leads_rejected(self, leads):
        with pytest.raises(ValueError, match="whole days >= 1"):
            small_config(leads=leads)

    def test_numpy_integer_leads_accepted(self):
        config = small_config(leads=np.arange(1, 5))
        assert config.leads == (1, 2, 3, 4)
        assert all(type(m) is int for m in config.leads)


class TestSelectOrigins:
    def test_default_protocol_range(self):
        config = BacktestConfig(seed=42)
        origins = select_origins(2190, config)
        assert origins.size == 50
        assert len(set(origins.tolist())) == 50
        assert origins.min() >= 1825
        assert origins.max() <= 2186
        assert list(origins) == sorted(origins)

    def test_deterministic_per_seed(self):
        config = BacktestConfig(seed=42)
        a = select_origins(2190, config)
        b = select_origins(2190, config)
        np.testing.assert_array_equal(a, b)
        other = select_origins(2190, BacktestConfig(seed=43))
        assert not np.array_equal(a, other)

    def test_exhausts_feasible_range(self):
        config = small_config(n_experiments=10)
        # feasible origins: 15 .. 28-4 = 24, exactly 10 of them
        origins = select_origins(28, config)
        np.testing.assert_array_equal(origins, np.arange(15, 25))

    def test_insufficient_data(self):
        config = BacktestConfig()
        with pytest.raises(InsufficientDataError) as excinfo:
            select_origins(1830, config)
        assert excinfo.value.available == 1830
        assert excinfo.value.required == 1825 + 4 + 50 - 1


class TestRunExperiment:
    def test_persistence_error_is_zero_when_actual_repeats(self):
        values = np.full(24, 281.0)
        values[-4:] = 281.0  # actuals equal the last train value
        series = TimeSeries(JAN1, values, "T")
        result = run_experiment(series, 18, small_config(models=("persistence",)))
        assert all(err == 0.0 for err in result.errors["persistence"].values())

    def test_constant_series_gives_zero_errors_for_all_models(self):
        series = TimeSeries(JAN1, np.full(30, 280.0), "T")
        result = run_experiment(series, 20, small_config())
        for model_errors in result.errors.values():
            for err in model_errors.values():
                assert err == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_signal_proposed_errors_tiny(self, trend_seasonal):
        values, _ = trend_seasonal(40, 7, slope=0.03, seed=5)
        series = TimeSeries(JAN1, values, "T")
        result = run_experiment(series, 30, small_config(models=("proposed",)))
        for err in result.errors["proposed"].values():
            assert abs(err) < 1e-5

    def test_training_window_is_trailing_slice(self):
        # persistence sees the last value before the origin even when the
        # prefix is longer than the training window
        values = np.arange(280.0, 280.0 + 40.0)
        series = TimeSeries(JAN1, values, "T")
        result = run_experiment(series, 30, small_config(models=("persistence",)))
        assert result.errors["persistence"][1] == values[29] - values[30]

    def test_proposed_fit_is_recorded(self):
        series = noisy_series(40)
        result = run_experiment(series, 25, small_config())
        assert result.fit is not None
        assert result.fit.evaluations >= 12

    @pytest.mark.parametrize(
        "origin, message",
        [
            (14, "origin 14 leaves only 14 observations for a 15-day training window"),
            (0, "origin 0 with max lead 4 does not fit a series of length 40"),
            (37, "origin 37 with max lead 4 does not fit a series of length 40"),
        ],
    )
    def test_bad_origin_raises_out_of_range(self, origin, message):
        with pytest.raises(OutOfRangeError, match=message):
            run_experiment(noisy_series(40), origin, small_config())

    def test_models_are_called_through_module_names(self, monkeypatch):
        # a wrapper bound over a forecaster's module-level name (as a
        # tracer binds one) sees every call the model table makes
        calls = []
        original = tempcast.backtest.average_forecast

        def spy(window, m):
            calls.append(m)
            return original(window, m)

        monkeypatch.setattr(tempcast.backtest, "average_forecast", spy)
        run_experiment(noisy_series(40), 25, small_config(models=("average",)))
        assert calls == [1, 2, 3, 4]

    def test_precomputed_fit_gives_the_same_result(self):
        series = noisy_series(40, seed=2)
        config = small_config()
        tuned_here = run_experiment(series, 25, config)
        given = run_experiment(series, 25, config, tuned_here.fit)
        assert given == tuned_here


class TestRunBacktest:
    def test_single_experiment_cells_are_absolute_errors(self):
        series = noisy_series(40, seed=9)
        report = run_backtest(series, small_config(n_experiments=1))
        for model in report.config.models:
            for lead in report.config.leads:
                cell = report.rmse[model][lead]
                err = report.errors[model][lead][0]
                assert cell == pytest.approx(abs(err), rel=1e-12)

    def test_constant_series_all_cells_zero(self):
        series = TimeSeries(JAN1, np.full(60, 280.0), "T")
        report = run_backtest(series, small_config())
        for model in report.config.models:
            for lead in report.config.leads:
                assert report.rmse[model][lead] == pytest.approx(0.0, abs=1e-9)

    def test_report_pooling_self_consistent(self):
        series = noisy_series(60, seed=4)
        report = run_backtest(series, small_config(n_experiments=8))
        for model in report.config.models:
            for lead in report.config.leads:
                errors = report.errors[model][lead]
                assert errors.shape == (8,)
                recomputed = float(np.sqrt(np.mean(np.square(errors))))
                assert report.rmse[model][lead] == pytest.approx(
                    recomputed, rel=1e-12
                )

    def test_deterministic(self):
        series = noisy_series(60, seed=4)
        config = small_config(n_experiments=8)
        one = run_backtest(series, config)
        two = run_backtest(series, config)
        assert one.origins == two.origins
        for model in config.models:
            for lead in config.leads:
                np.testing.assert_array_equal(
                    one.errors[model][lead], two.errors[model][lead]
                )
                assert one.rmse[model][lead] == two.rmse[model][lead]

    def test_experiment_order_does_not_matter(self, rng):
        series = noisy_series(60, seed=4)
        config = small_config(n_experiments=8)
        report = run_backtest(series, config)
        origins = list(select_origins(len(series), config))
        shuffled = list(origins)
        rng.shuffle(shuffled)
        results = [run_experiment(series, int(o), config) for o in shuffled]
        reassembled = collect_report(config, results)
        assert reassembled.origins == report.origins
        for model in config.models:
            for lead in config.leads:
                np.testing.assert_array_equal(
                    reassembled.errors[model][lead], report.errors[model][lead]
                )

    def test_no_results_to_pool_raises(self):
        with pytest.raises(EmptyInputError):
            collect_report(small_config(), [])

    def test_batched_tuning_matches_per_origin_experiments(self, rng):
        text = STATION_CSV.read_text(encoding="utf-8")
        series = clean(parse_cdo_csv(text, unit="celsius"), CleanConfig())
        config = BacktestConfig(
            train_length=800,
            n_experiments=6,
            seed=2,
            grid=GridSpec((0.0, 0.5, 1.0), (0.0, 0.5), (0.0, 0.5), refine_rounds=2),
        )
        report = run_backtest(series, config)
        shuffled = list(report.origins)
        rng.shuffle(shuffled)
        expected = collect_report(
            config, [run_experiment(series, o, config) for o in shuffled]
        )
        assert report.origins == expected.origins
        assert report.rmse == expected.rmse
        assert report.fits == expected.fits
        for model in config.models:
            for lead in config.leads:
                assert np.array_equal(
                    report.errors[model][lead], expected.errors[model][lead]
                )

    def test_persistence_errors_by_direct_indexing(self):
        series = noisy_series(60, seed=11)
        config = small_config(n_experiments=6, models=("persistence",))
        report = run_backtest(series, config)
        for i, origin in enumerate(report.origins):
            for lead in config.leads:
                expected = series.values[origin - 1] - series.values[origin + lead - 1]
                assert report.errors["persistence"][lead][i] == expected

    def test_model_subset_only_reports_requested(self):
        series = noisy_series(60, seed=4)
        report = run_backtest(series, small_config(models=("persistence", "average")))
        assert set(report.errors) == {"persistence", "average"}
        assert report.fits is None
