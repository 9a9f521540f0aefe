"""A fixed probe of the host's current speed.

The benchmark host is shared with other machines' work, which only ever
slows a run down, in episodes from under a second to several minutes:
on the 2-vCPU Xeon host this benchmark was written on, one command took
from 1.8 s to 3.1 s within a single 30-second run, and the median of
such a run moved by 8-37% of itself (quartile distance over 5-10 seeds)
from one run to the next. So the end-to-end times are each
command's fastest repetition, which drops the short episodes, scaled by
REFERENCE_S / (fastest of this probe's runs in the same run), which
offsets the long ones. Over three such sets per workload the spread was
0.05-0.18 for the fastest repetition alone and 0.03-0.12 with the
scaling.

The parent process runs the probe before every repetition and after the
last, never while a child runs. It mixes the two kinds of work the
workloads do: a Python loop of small-array numpy updates over a ring
larger than L2, like the tuning kernel, and CSV parsing with date
arithmetic, like ingest. It uses no tempcast code, so no change to the
program can move it.
"""

from __future__ import annotations

import csv
import datetime as dt
import gc
import io
import time

import numpy as np

# About the probe's fastest time on the host described above, so scaled
# times read close to seconds there.
REFERENCE_S = 0.1


def _vector_loop(width: int = 1331, season: int = 365, steps: int = 1800) -> float:
    alphas = np.linspace(0.0, 1.0, width)
    level = np.full(width, 280.0)
    ring = np.zeros((season, width))
    observations = (280.0 + 10.0 * np.sin(np.arange(steps) / 58.0)).tolist()
    for t, observation in enumerate(observations):
        row = ring[t % season]
        new_level = alphas * (observation - row) + (1.0 - alphas) * level
        ring[t % season] = alphas * (observation - new_level) + (1.0 - alphas) * row
        level = new_level
    return float(level.sum())


def _object_loop(rows: int = 32000) -> int:
    start = dt.date(1950, 1, 1)
    text = "\n".join(
        f'S{i % 3},"NAME, XX",{(start + dt.timedelta(days=i)).isoformat()},{i % 40 / 3:.1f}'
        for i in range(rows)
    )
    parsed = {}
    for station, _, day, value in csv.reader(io.StringIO(text)):
        parsed[station, dt.date.fromisoformat(day)] = float(value) + 273.15
    return len(parsed)


def probe() -> float:
    """Seconds the fixed reference work takes right now.

    The garbage collector is off while it runs, so the caller's heap,
    which differs between workloads, does not change the figure.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        _vector_loop()
        _object_loop()
        return time.perf_counter() - started
    finally:
        gc.enable()
