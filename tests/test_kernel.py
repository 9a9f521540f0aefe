"""The smoother kernel's C loop: how it is built, cached and loaded, and
how it treats signed zeros and NaN.

The loader tests point ``XDG_CACHE_HOME`` at their own temporary
directory and drop the loaded kernel, so each one builds or loads afresh.
"""

import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from tempcast import SmoothingParams, hw_fit
from tempcast.cli import main
from tempcast.models import _kernel, _one_step_errors_batch, hw_update, init_state

SRC = str(Path(__file__).resolve().parents[1] / "src")
SERIES = Path(__file__).resolve().parent / "data" / "golden" / "series.csv"


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
            values, 2, *np.reshape(triple, (3, 1)), np.empty(2)
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
                values, 7, *coefficients, np.empty(21)
            )
        assert np.isnan(rmse).all()
        assert np.isnan(level).all()
        assert np.isnan(trend).all()
