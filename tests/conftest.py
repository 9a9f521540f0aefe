import datetime as dt
import os
from pathlib import Path

import numpy as np
import pytest

from tempcast import TimeSeries

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cores(monkeypatch):
    """Make ``n`` the number of cores this process may run on, and so
    the number of a backtest's workers."""

    def use(n):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
        )

    return use


@pytest.fixture
def make_series():
    """Factory for quick Kelvin series starting 2015-01-01."""

    def build(values, start=dt.date(2015, 1, 1)):
        return TimeSeries(start, np.asarray(values, dtype=float))

    return build


@pytest.fixture
def trend_seasonal():
    """Factory for noiseless linear-plus-cycle signals.

    Returns (values, truth) where truth(i) evaluates the signal at any
    index, so forecasts can be checked beyond the generated window.
    """

    def build(n, season_length, base=280.0, slope=0.02, cycle=None, seed=0):
        if cycle is None:
            gen = np.random.default_rng(seed)
            cycle = gen.normal(0.0, 2.0, season_length)
            cycle = cycle - cycle.mean()
        cycle = np.asarray(cycle, dtype=float)

        def truth(i):
            return base + slope * i + cycle[i % season_length]

        values = np.array([truth(i) for i in range(n)])
        return values, truth

    return build


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Build the smoother kernel into a directory of this session, not the
    user's cache; every process the tests start inherits the setting."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
