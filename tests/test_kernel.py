"""The smoother kernel's C loop: how it is built, cached and loaded, and
rebuilt when the cached file cannot be loaded (once, however many
workers reach a cold cache), how it treats signed zeros and NaN, that
each call returns a ring of its own, that it writes every ring slot
before reading it, and that the baseline loop gives the bits of the
clone this host's loader picks.

The loader tests point ``XDG_CACHE_HOME`` at their own temporary
directory and drop the loaded kernel, so each one builds or loads afresh.
"""

import ctypes
import math
import platform
import shlex
import subprocess
import sys
import sysconfig
import time
import types
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import tempcast.models
from tempcast import (
    BacktestConfig,
    GridSpec,
    SmoothingParams,
    TimeSeries,
    hw_fit,
    run_backtest,
)
from tempcast.cli import main
from tempcast.models import (
    _KERNEL_FLAGS,
    _KERNEL_SOURCE,
    _initial_state,
    _kernel,
    _one_step_errors_batch,
    hw_update,
    init_state,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
SERIES = Path(__file__).resolve().parent / "data" / "golden" / "series.csv"
SERIES_START = date(2015, 1, 1)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """The kernel's cache directory under an empty ``XDG_CACHE_HOME``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.cache_clear()
    yield tmp_path / "tempcast"
    _kernel.cache_clear()


@pytest.fixture
def compiler(monkeypatch):
    """Make ``command`` the C compiler that sysconfig names."""
    config_var = sysconfig.get_config_var

    def use(command):
        monkeypatch.setattr(
            sysconfig, "get_config_var",
            lambda name: command if name == "CC" else config_var(name),
        )

    return use


@pytest.fixture
def failing_compiler(tmp_path, compiler):
    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\necho 'fake-cc: no compiling today' >&2\nexit 1\n")
    fake.chmod(0o755)
    compiler(str(fake))


class TestCache:
    def test_cold_cache_builds_one_file_another_process_loads(self, cache):
        _kernel()
        (library,) = cache.iterdir()
        assert library.suffix == ".so"
        built = library.stat().st_mtime_ns
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); "
            "from tempcast.models import _kernel; "
            "before = set(sys.modules); _kernel(); "
            "print(sorted({'subprocess', 'tempfile'} & (set(sys.modules) - before)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"
        assert list(cache.iterdir()) == [library]
        assert library.stat().st_mtime_ns == built

    def test_library_that_cannot_load_is_rebuilt(self, cache, tmp_path):
        # built in another process, so this one never maps the file
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); "
            "from tempcast.models import _kernel; _kernel()"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
        (library,) = cache.iterdir()
        library.write_text("not a shared library\n")
        out = tmp_path / "f.csv"
        assert main(["forecast", "--series", str(SERIES), "--horizon", "7",
                     "--alpha", "0.3", "--beta", "0.1", "--gamma", "0.2",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == (SERIES.parent / "forecast_explicit.csv").read_bytes()
        assert list(cache.iterdir()) == [library]
        assert library.read_bytes().startswith(b"\x7fELF")

    def test_second_failure_to_load_raises_os_error(self, cache, compiler, tmp_path):
        fake = tmp_path / "fake-cc"
        fake.write_text(
            "#!/bin/sh\nwhile [ \"$1\" != -o ]; do shift; done\necho garbage > \"$2\"\n"
        )
        fake.chmod(0o755)
        compiler(str(fake))
        with pytest.raises(OSError, match=r"kernel-[0-9a-f]{64}\.so"):
            _kernel()

    @pytest.mark.parametrize(
        "host", [("linux-aarch64", "x86_64"), ("linux-x86_64", "aarch64")],
        ids=["platform", "machine"],
    )
    def test_host_is_part_of_the_library_name(self, cache, monkeypatch, host):
        names = []

        class Library:
            def __init__(self, path):
                names.append(Path(path).name)
                self.one_step_errors = types.SimpleNamespace()
                self.read_export = types.SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", Library)
        for get_platform, machine in [("linux-x86_64", "x86_64"), host]:
            monkeypatch.setattr(sysconfig, "get_platform", lambda name=get_platform: name)
            monkeypatch.setattr(platform, "machine", lambda name=machine: name)
            _kernel.cache_clear()
            _kernel()
        assert len(set(names)) == 2

    def test_failing_compiler_raises_os_error(self, cache, failing_compiler):
        with pytest.raises(
            OSError, match=r"fake-cc -O3 -ffp-contract=off .*: exit status 1: "
            r"fake-cc: no compiling today$",
        ):
            _kernel()
        assert list(cache.iterdir()) == []  # no partial library is left

    def test_missing_compiler_raises_os_error(self, cache, compiler, tmp_path):
        compiler(str(tmp_path / "no-such-cc"))
        with pytest.raises(OSError, match="no-such-cc -O3"):
            _kernel()

    def test_unwritable_cache_raises_os_error(self, cache, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with pytest.raises(OSError, match="cannot build the smoother kernel with `"):
            _kernel()

    def test_workers_reaching_a_cold_cache_build_once(self, cache, cores, monkeypatch):
        builds = []
        build = tempcast.models._build

        def slow_build(command, library):
            builds.append(library)
            time.sleep(0.5)  # the other worker reaches the cold cache meanwhile
            build(command, library)

        monkeypatch.setattr(tempcast.models, "_build", slow_build)
        cores(2)
        values = 280.0 + np.sin(np.arange(40.0))
        config = BacktestConfig(
            train_length=15, leads=(1,), n_experiments=4, season_length=7,
            grid=GridSpec.coarse(),
        )
        run_backtest(TimeSeries(SERIES_START, values), config)
        assert len(builds) == 1

    def test_backtest_exits_2_with_one_error_line(
        self, cache, failing_compiler, tmp_path, capsys
    ):
        out_dir = tmp_path / "bt"
        assert main(["backtest", "--series", str(SERIES), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot build the smoother kernel with `")
        assert err.endswith("fake-cc: no compiling today\n")
        assert err.count("\n") == 1


def fold(values, params):
    state = init_state(values, params)
    for observation in values.tolist():
        state = hw_update(state, observation, params)
    return state


class TestSpecialValues:
    @pytest.mark.parametrize(
        "triple",
        [(-0.0, -0.0, -0.0), (1.0, -0.0, 1.0), (0.5, 1.0, -0.0), (-0.0, 0.5, 0.5)],
    )
    def test_signed_zeros_follow_the_update_fold(self, triple):
        values = np.array([-0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0])
        params = SmoothingParams(*triple, season_length=2)
        _, level, trend, ring = _one_step_errors_batch(
            values, init_state(values, params), *np.reshape(triple, (3, 1))
        )
        expected = fold(values, params)
        assert level.tobytes() == np.float64(expected.level).tobytes()
        assert trend.tobytes() == np.float64(expected.trend).tobytes()
        assert ring[:, 0].tobytes() == expected.seasonal.tobytes()
        assert hw_fit(values, params) == expected

    @pytest.mark.parametrize("at", [0, 5, 14, 29], ids=["first", "warm-up", "scored", "last"])
    def test_nan_spreads_to_every_column_without_a_warning(self, at):
        values = 280.0 + np.sin(np.arange(30.0))
        values[at] = np.nan
        coefficients = np.array([[0.0, 0.5, 1.0]] * 3)
        with np.errstate(all="raise"):
            rmse, level, trend, ring = _one_step_errors_batch(
                values, _initial_state(values, 7), *coefficients
            )
        assert np.isnan(rmse).all()
        assert np.isnan(level).all()
        assert np.isnan(trend).all()


def test_each_call_returns_a_ring_of_its_own():
    values = 280.0 + np.sin(np.arange(30.0))
    coefficients = np.array([[0.0, 0.5, 1.0]] * 3)
    first = _one_step_errors_batch(values, _initial_state(values, 7), *coefficients)[3]
    kept = first.copy()
    reverse = values[::-1]
    second = _one_step_errors_batch(reverse, _initial_state(reverse, 7), *coefficients)[3]
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """``_kernel.c`` built as hosts without x86-64 clones build it: the
    plain loop, which on an AVX2 or AVX-512 host no loader picks."""
    library = tmp_path_factory.mktemp("baseline") / "kernel.so"
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_KERNEL_FLAGS]
    subprocess.run(
        [*command, "-U__x86_64__", "-o", str(library), str(_KERNEL_SOURCE)], check=True
    )
    loaded = ctypes.CDLL(str(library))
    assert not hasattr(loaded, "one_step_errors.resolver")  # no clones in it
    kernel = loaded.one_step_errors
    kernel.argtypes = _kernel().one_step_errors.argtypes
    kernel.restype = None
    return kernel


def sweep(kernel, values, season, coefficients):
    """RMSE, level, trend and ring after one call of ``kernel`` from the
    window's initial state, handed a ring of NaN: a slot that the call
    read before writing it would spread NaN."""
    start = _initial_state(values, season)
    width = coefficients.shape[1]
    state = np.zeros((3, width))
    state[0], state[1] = start.level, start.trend
    ring = np.full((season, width), np.nan)
    kernel(values, values.size, season, width, coefficients, start.seasonal, state, ring)
    return np.sqrt(state[2] / (values.size - 2 * season)), state[0], state[1], ring


@pytest.mark.parametrize("season", [2, 3, 7, 365])
def test_every_ring_slot_is_written_before_it_is_read(season):
    values = np.loadtxt(SERIES, delimiter=",", skiprows=1, usecols=1)[: 2 * season + 11]
    coefficients = np.array([[0.0, 1.0, 0.3], [0.0, 1.0, 0.1], [0.0, 1.0, 0.2]])
    rmse, level, trend, ring = sweep(_kernel().one_step_errors, values, season, coefficients)
    for j, triple in enumerate(coefficients.T):
        params = SmoothingParams(*triple, season_length=season)
        state, sq_sum = _initial_state(values, season), 0.0
        for t, observation in enumerate(values.tolist()):
            if t >= 2 * season:
                forecast = state.level + state.trend + state.seasonal[state.phase]
                error = forecast - observation
                sq_sum += error * error
            state = hw_update(state, observation, params)
        expected = math.sqrt(sq_sum / (values.size - 2 * season))
        assert rmse[j].tobytes() == np.float64(expected).tobytes()
        assert level[j].tobytes() == np.float64(state.level).tobytes()
        assert trend[j].tobytes() == np.float64(state.trend).tobytes()
        assert ring[:, j].tobytes() == state.seasonal.tobytes()


class TestBaselineLoop:
    @pytest.mark.parametrize("season", [2, 3, 7, 365])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 396, 1331])
    def test_same_bits_as_the_dispatched_kernel(self, baseline, season, width):
        # scored spans of 4k + 1 and 4k + 3 days; every warm-up span but
        # season 2's is 2 (mod 4)
        gen = np.random.default_rng(season * width)
        coefficients = gen.uniform(0, 1, (3, width))
        coefficients[:, 0] = [0.0, 1.0, 1.0]
        values = np.loadtxt(SERIES, delimiter=",", skiprows=1, usecols=1)
        for n in (2 * season + 1, 2 * season + 11):
            window = values[:n]
            got = sweep(baseline, window, season, coefficients)
            expected = sweep(_kernel().one_step_errors, window, season, coefficients)
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
